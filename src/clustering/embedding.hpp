// Spectral embedding front end shared by MSC, GCP and ISC.
//
// The embedding is the k smallest generalized eigenvectors of
// L u = λ D u over the symmetrized connection graph (Alg. 1 line 4). Two
// solver paths produce it:
//
//  - dense: tred2/tql2 on the densified Laplacian, all n eigenpairs at
//    O(n^3). Exact, and the authority for small networks.
//  - sparse: block Lanczos on the CSR normalized Laplacian, only the k
//    requested eigenpairs at O(k * nnz + k^2 n). This is what lets
//    clustering scale past ~10^3 neurons.
//
// Both paths then add the same deterministic tie-breaking jitter (keyed on
// the (row, column) index only), so the dense fallback inside the sparse
// path is bit-identical to the historical dense-only code.
#pragma once

#include <cstddef>

#include "linalg/generalized_eigen.hpp"
#include "nn/connection_matrix.hpp"
#include "util/error.hpp"

namespace autoncs::linalg {
struct LanczosStats;
}

namespace autoncs::clustering {

enum class EmbeddingSolver {
  /// Dense up to 512 neurons (or when every column is requested),
  /// Lanczos above.
  kAuto,
  /// Always densify and solve with tred2/tql2 (all n columns).
  kDense,
  /// Always solve with block Lanczos (exactly max_vectors columns).
  kLanczos,
};

/// "auto", "dense" or "lanczos" (the manifest text).
const char* enum_name(EmbeddingSolver solver);

struct EmbeddingOptions {
  /// Number of eigenvectors the caller will consume; 0 means all n. The
  /// dense solver always returns all n columns regardless (they are free
  /// once the factorization ran); the Lanczos solver returns exactly
  /// min(max_vectors, n) columns.
  std::size_t max_vectors = 0;
  EmbeddingSolver solver = EmbeddingSolver::kAuto;
  /// Optional Lanczos convergence-telemetry sink; only populated when the
  /// sparse solver actually runs. Purely observational (the embedding is
  /// identical with or without it).
  linalg::LanczosStats* lanczos_stats = nullptr;

  /// Residual tolerance handed to the Lanczos solver. The embedding feeds
  /// k-means geometry where the tie-breaking jitter is already 1e-7 of the
  /// coordinate scale — residuals tighter than that buy nothing.
  double lanczos_tolerance = 1e-7;
  /// Krylov-space budget; 0 = max(4k, 64). The leading (community)
  /// eigenvalues converge in a few block steps, but the trailing requested
  /// pairs sit in the bulk of the Laplacian spectrum where gaps vanish and
  /// residual-driven Lanczos would grind toward a basis of size n —
  /// reintroducing the dense cost. A 4k-dimensional space pins the subspace
  /// geometry k-means consumes, so exhausting this budget WITHOUT meeting
  /// the tolerance is the expected healthy outcome, not a failure.
  std::size_t lanczos_max_iterations = 0;
  /// When true, failing the residual tolerance within the budget counts as
  /// a solver failure and walks the recovery ladder (retry, 4x budget,
  /// dense fallback). Default false: the budget-truncated subspace is
  /// accepted as-is, and only a collapsed basis or non-finite output — the
  /// states a clean solve cannot reach — trigger the ladder. Keeping the
  /// default lenient is what makes clean runs bit-identical across builds
  /// with and without recovery wired up.
  bool strict_convergence = false;
  /// Optional recovery-event sink; ladder actions are recorded here. Null
  /// runs the identical ladder silently.
  util::RecoveryLog* recovery = nullptr;
};

/// Spectral embedding of the (symmetrized) connection graph with the
/// deterministic tie-breaking jitter applied (see spectral_embedding in
/// msc.hpp for why the jitter exists).
linalg::EigenDecomposition spectral_embedding(const nn::ConnectionMatrix& network,
                                              const EmbeddingOptions& options);

/// First min(k, cols) columns of the embedding as n x cols k-means points
/// (rows y_i of Alg. 1 line 5). Shared by MSC and GCP; clamping to the
/// available columns is what lets GCP keep splitting clusters past the
/// Lanczos column budget.
linalg::Matrix embedding_points(const linalg::EigenDecomposition& embedding,
                                std::size_t k);

}  // namespace autoncs::clustering

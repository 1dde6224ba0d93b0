// Sparse iterative eigensolver: block Lanczos with full deterministic
// reorthogonalization for the k smallest eigenpairs of a symmetric CSR
// matrix.
//
// The clustering front end only consumes the k smallest generalized
// eigenvectors of the graph Laplacian (Algorithms 1 and 2 of the paper),
// yet the dense tred2/tql2 path computes all n of them at O(n^3). The
// Lanczos path builds a Krylov basis with `SparseMatrix::multiply` as its
// kernel — O(m * nnz + m^2 * n) for an m-vector basis with m ~ O(k) — which
// is what lets the ISC front end scale past the ~10^3 neurons the dense
// solver can afford.
//
// Determinism: the solver runs on the calling thread (a pool bought
// nothing here; see docs/clustering_perf.md). Every floating-point
// reduction (dot products, norms) is computed block-wise with a fixed
// block size and folded in a fixed sequential order, and starting vectors
// are fixed SplitMix64-derived pseudo-random vectors, so repeated runs
// are bit-identical.
//
// Degenerate eigenvalues: a Krylov space grown from one vector contains a
// single direction per distinct eigenvalue, so the basis grows in blocks
// (capturing multiplicities up to the block size), and when an expansion
// direction vanishes (invariant subspace hit) a fresh deterministic
// direction orthogonal to the basis is injected. The projected matrix
// V^T A V — block tridiagonal in exact arithmetic — is solved with the
// existing dense tred2/tql2 solver, which stays the authority for every
// small dense system.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/generalized_eigen.hpp"
#include "linalg/sparse.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace autoncs::linalg {

/// Convergence telemetry of one lanczos_smallest call. Filled only when a
/// LanczosOptions::stats sink is given; collecting it never changes the
/// computation (the recorded estimates are recomputed from cached Gram
/// matrices), so results are identical with or without a sink.
struct LanczosStats {
  /// True when the k requested pairs passed the residual test (or the basis
  /// reached the full space, where Rayleigh-Ritz is exact). False means the
  /// iteration budget ran out first — the returned pairs are best-effort
  /// and callers should escalate (more iterations, or the dense solver).
  bool converged = false;
  /// Final Krylov basis size m.
  std::size_t basis_size = 0;
  /// Sparse matvec invocations (one per basis vector appended).
  std::size_t matvecs = 0;
  /// Worst (largest) relative Ritz-residual estimate over the k requested
  /// pairs at each convergence check, in check order — the series that
  /// shows how the solve converged.
  std::vector<double> residual_history;
};

struct LanczosOptions {
  /// Hard cap on Krylov basis size; 0 = up to n (always sufficient).
  std::size_t max_iterations = 0;
  /// Convergence threshold on the Ritz residual bound |beta_m * s_{m,i}|,
  /// relative to max(1, |theta_i|).
  double tolerance = 1e-10;
  /// Optional convergence-telemetry sink (see LanczosStats). Purely
  /// observational; null disables collection.
  LanczosStats* stats = nullptr;
};

/// k smallest eigenpairs of the symmetric sparse matrix `a` (values
/// ascending, column j of `vectors` the unit eigenvector of values[j]).
/// Requires 1 <= k <= n. Eigenvector sign is arbitrary (as with any
/// eigensolver); repeated eigenvalues return an arbitrary orthonormal basis
/// of the eigenspace.
EigenDecomposition lanczos_smallest(const SparseMatrix& a, std::size_t k,
                                    const LanczosOptions& options = {});

/// Sparse counterpart of laplacian_embedding: builds the normalized
/// Laplacian M = D^{-1/2} (D - W) D^{-1/2} directly in CSR form from a
/// symmetric nonnegative sparse weight matrix W (diagonal entries ignored,
/// as in the dense path), solves for the k smallest eigenpairs with
/// Lanczos, and back-transforms u = D^{-1/2} v exactly like
/// generalized_symmetric_eigen does. Returns k columns, not n.
EigenDecomposition sparse_laplacian_embedding(
    const SparseMatrix& weights, std::size_t k,
    const GeneralizedEigenOptions& options = {},
    const LanczosOptions& lanczos = {});

/// Deterministic blocked dot product: partial sums over fixed 2048-element
/// blocks folded sequentially in block order.
double deterministic_dot(std::span<const double> a, std::span<const double> b);

}  // namespace autoncs::linalg

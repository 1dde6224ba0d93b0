#include "clustering/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/lanczos.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace autoncs::clustering {

namespace {

/// Network size at or below which kAuto routes to the dense solver. The
/// dense path is faster at small n and returns the full column set, so
/// this is also what keeps small-network results bit-identical to the
/// historical dense-only implementation.
constexpr std::size_t kDenseFallbackN = 512;

/// Residual tolerance handed to the Lanczos solver. The embedding feeds
/// k-means geometry where the tie-breaking jitter is already 1e-7 of the
/// coordinate scale — residuals tighter than that buy nothing.
constexpr double kLanczosTolerance = 1e-7;

/// Krylov-space budget for k requested pairs: max(4k, 64). The leading
/// (community) eigenvalues converge in a few block steps, but the trailing
/// requested pairs sit in the bulk of the Laplacian spectrum where gaps
/// vanish and residual-driven Lanczos would grind toward a basis of size
/// n — reintroducing the dense cost. A 4k-dimensional space pins the
/// subspace geometry k-means consumes, so exhausting this budget WITHOUT
/// meeting the tolerance is the expected healthy outcome, not a failure.
std::size_t lanczos_budget(std::size_t k) {
  return std::max<std::size_t>(4 * k, 64);
}

/// Structurally equivalent neurons (identical neighbourhoods — common in
/// the finder cliques of QR-trained Hopfield nets) get EXACTLY equal
/// embedding rows, which ties every k-means distance and defeats GCP's
/// cluster splitting (a split cluster re-merges on the next assignment
/// pass). A deterministic jitter far below the embedding scale breaks the
/// ties without perturbing genuine structure. Keyed on (i, j) only, so the
/// dense path (all n columns) and the sparse path (k columns) apply the
/// identical perturbation to every column they share.
void apply_tie_breaking_jitter(linalg::Matrix& vectors) {
  for (std::size_t i = 0; i < vectors.rows(); ++i) {
    for (std::size_t j = 0; j < vectors.cols(); ++j) {
      std::uint64_t h = i * 0x100000001b3ull + j + 1;
      const double unit =
          static_cast<double>(util::split_mix64(h) >> 11) * 0x1.0p-53;
      vectors(i, j) += (unit - 0.5) * 1e-7;
    }
  }
}

}  // namespace

linalg::EigenDecomposition spectral_embedding(const nn::ConnectionMatrix& network,
                                              const EmbeddingOptions& options) {
  const std::size_t n = network.size();
  const std::size_t k =
      options.max_vectors == 0 ? n : std::min(options.max_vectors, n);
  bool use_lanczos = options.solver == EmbeddingSolver::kLanczos;
  if (options.solver == EmbeddingSolver::kAuto)
    use_lanczos = n > kDenseFallbackN && k < n;

  linalg::EigenDecomposition embedding;
  if (use_lanczos) {
    linalg::LanczosOptions lanczos;
    lanczos.tolerance = kLanczosTolerance;
    lanczos.max_iterations = lanczos_budget(k);
    linalg::LanczosStats stats;
    lanczos.stats = &stats;
    const linalg::SparseMatrix similarity = network.symmetrized_sparse();
    // Memory accounting: the CSR of the remaining network (last write
    // wins, so the manifest holds the final round's).
    util::mem_record_bytes("isc/embedding_csr", similarity.footprint_bytes());

    // A solve is healthy when its output is finite AND it either met the
    // tolerance or genuinely spent the whole Krylov budget (the advisory
    // 4k budget is EXPECTED to truncate; see lanczos_budget). A basis
    // smaller than the budget without convergence means the solve
    // collapsed — unreachable on the clean path, so no clean run ever
    // enters the ladder below.
    const auto healthy = [&](const linalg::EigenDecomposition& dec) {
      for (std::size_t j = 0; j < dec.vectors.cols(); ++j)
        for (std::size_t i = 0; i < dec.vectors.rows(); ++i)
          if (!std::isfinite(dec.vectors(i, j))) return false;
      for (double v : dec.values)
        if (!std::isfinite(v)) return false;
      if (stats.converged) return true;
      return stats.basis_size >= std::min(n, lanczos.max_iterations);
    };
    const auto record = [&](const char* action, bool recovered,
                            bool alters_result) {
      if (options.recovery == nullptr) return;
      options.recovery->record(
          {"clustering", "lanczos.no_converge", action, recovered,
           alters_result,
           "basis " + std::to_string(stats.basis_size) + "/" +
               std::to_string(std::min(n, lanczos.max_iterations)) +
               (stats.converged ? ", converged" : ", not converged")});
    };

    embedding = linalg::sparse_laplacian_embedding(similarity, k, {}, lanczos);
    if (!healthy(embedding)) {
      // Rung 1: same-parameters retry. The solver is deterministic, so
      // this only helps transient causes (a one-shot injected fault, a
      // poisoned scratch state) — and when it does, the result is
      // bit-identical to a clean run, hence alters_result = false.
      stats = {};
      embedding = linalg::sparse_laplacian_embedding(similarity, k, {}, lanczos);
      if (healthy(embedding)) {
        record("retry", true, false);
      } else {
        record("retry", false, false);
        // Rung 2: 4x Krylov budget with the same tolerance — more fully
        // reorthogonalized restarts, in the solver's terms.
        stats = {};
        lanczos.max_iterations = std::min(n, lanczos.max_iterations * 4);
        embedding =
            linalg::sparse_laplacian_embedding(similarity, k, {}, lanczos);
        if (healthy(embedding)) {
          record("budget_escalation", true, true);
        } else {
          record("budget_escalation", false, true);
          // Rung 3: dense eigensolver — exact, O(n^3), always succeeds on
          // finite input.
          embedding = linalg::laplacian_embedding(network.symmetrized_dense());
          record("dense_fallback", true, true);
        }
      }
    }
    if (options.lanczos_stats != nullptr) *options.lanczos_stats = stats;
  } else {
    // Similarity = number of connections between two neurons (0, 1 or 2
    // directed connections collapse to one undirected edge of weight 1;
    // the clustering objective only needs "connected or not" because the
    // connection matrix is binary — Sec. 3.2). The weight matrix is a
    // temporary, so the normalized Laplacian is built in its storage.
    embedding = linalg::laplacian_embedding(network.symmetrized_dense());
  }
  apply_tie_breaking_jitter(embedding.vectors);
  return embedding;
}

linalg::Matrix embedding_points(const linalg::EigenDecomposition& embedding,
                                std::size_t k) {
  const std::size_t n = embedding.vectors.rows();
  const std::size_t cols = std::min(k, embedding.vectors.cols());
  linalg::Matrix points(n, cols);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < cols; ++j) points(i, j) = embedding.vectors(i, j);
  return points;
}

const char* enum_name(EmbeddingSolver solver) {
  switch (solver) {
    case EmbeddingSolver::kAuto: return "auto";
    case EmbeddingSolver::kDense: return "dense";
    case EmbeddingSolver::kLanczos: return "lanczos";
  }
  return "unknown";
}

}  // namespace autoncs::clustering

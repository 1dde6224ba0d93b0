// Iterative Spectral Clustering (ISC) — Algorithm 3 of the paper.
//
// One MSC+GCP pass leaves many outliers (57% on the 400x400 example), and
// re-clustering an already-clustered network mostly re-finds the same
// clusters ("cluster concealing"). ISC therefore repeats on the REMAINING
// network: each iteration clusters the leftover connections, realizes only
// the top-quartile clusters by crossbar preference on real crossbars
// ("partial selection strategy"), removes their connections, and stops when
// the average utilization of newly placed crossbars drops below the
// threshold t. Whatever remains is realized with discrete synapses.
#pragma once

#include <cstddef>
#include <vector>

#include "clustering/embedding.hpp"
#include "clustering/gcp.hpp"
#include "clustering/preference.hpp"
#include "nn/connection_matrix.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace autoncs::clustering {

/// A crossbar chosen from the size library. Its horizontal wires are driven
/// by the `rows` neurons and its vertical wires feed the `cols` neurons; a
/// realized connection i -> j has i in rows and j in cols. ISC clusters are
/// square (rows == cols == the cluster members); the FullCro baseline also
/// produces bipartite blocks where the two sides differ.
struct CrossbarInstance {
  std::size_t size = 0;                 // s: crossbar dimension from S
  std::vector<std::size_t> rows;        // input-side neurons (|rows| <= size)
  std::vector<std::size_t> cols;        // output-side neurons (|cols| <= size)
  std::vector<nn::Connection> connections;  // realized connections (m of them)
  std::size_t iteration = 0;            // ISC iteration that placed it

  std::size_t used_connections() const { return connections.size(); }
  double utilization() const;
  double preference(PreferenceKind kind = PreferenceKind::kPaper) const;
};

/// A crossbar as a checkpoint record (util/fields.hpp).
template <util::RecordOf<CrossbarInstance> Record, class F>
void visit_fields(Record& xbar, F&& f) {
  auto& [size, rows, cols, connections, iteration] = xbar;
  f("size", size);
  f("iteration", iteration);
  f("rows", rows);
  f("cols", cols);
  f("connections", connections);
}

struct IscOptions {
  /// Allowed crossbar sizes S (paper: 16..64 step 4). Must be nonempty,
  /// sorted ascending.
  std::vector<std::size_t> crossbar_sizes = {16, 20, 24, 28, 32, 36,
                                             40, 44, 48, 52, 56, 60, 64};
  /// Utilization threshold t; iteration stops when the average utilization
  /// of crossbars placed in an iteration falls below it. The experiments
  /// set it to the FullCro baseline's average utilization (Sec. 4.2).
  double utilization_threshold = 0.05;
  /// Fraction of clusters realized per iteration — the paper empirically
  /// removes the top 25% by CP.
  double selection_fraction = 0.25;
  /// Safety cap on iterations.
  std::size_t max_iterations = 64;
  PreferenceKind preference = PreferenceKind::kPaper;
  /// Extension beyond the paper (ablation bench A5): greedy packing pass
  /// after GCP that merges two clusters when the merged crossbar carries
  /// more connections per unit crossbar area than either part.
  /// Sub-minimum-size clusters otherwise strand most of a min(S) crossbar.
  /// Merges are limited to a combined row/column demand of pack_limit
  /// (0 = the smallest library size); raising it toward max(S) packs
  /// globally, reaching ~0% outliers at the price of diverging from the
  /// paper's per-iteration statistics. Off by default (paper-faithful).
  bool pack_clusters = false;
  std::size_t pack_limit = 0;
  /// Extension beyond the paper (ablation A6): size each crossbar by the
  /// cluster's trimmed row/column demand instead of its member count. This
  /// raises late-iteration utilization enough that the stop rule rarely
  /// fires and nearly everything ends up on crossbars; the paper's sizing
  /// (member count) leaves the ~5% scattered tail on discrete synapses.
  /// Either way the hardware instance only wires the used rows/columns.
  bool size_by_demand = false;
  /// Worker threads for the k-means assignment passes; 0 = the CPUs the
  /// process may run on. Results are bit-identical for every thread count
  /// (see docs/clustering_perf.md).
  std::size_t threads = 0;
  /// Which eigensolver produces the spectral embedding. kAuto uses the
  /// dense tred2/tql2 path for active subnetworks of up to 512 neurons
  /// (exactly reproducing the historical results) and the sparse
  /// block-Lanczos path above that.
  EmbeddingSolver embedding_solver = EmbeddingSolver::kAuto;
  /// Wall-clock budget for the ISC iteration loop in milliseconds; 0 =
  /// unlimited (clean runs never consult the clock). On exhaustion the
  /// loop stops before its next iteration and every remaining connection
  /// is realized with discrete synapses — a valid (if outlier-heavy)
  /// mapping flagged budget_exhausted.
  double wall_budget_ms = 0.0;
  /// Optional recovery-event sink (embedding ladder, budget exhaustion).
  /// Null runs the identical ladder silently.
  util::RecoveryLog* recovery = nullptr;
};

/// The manifest `config.isc` fields (util/fields.hpp).
template <util::RecordOf<IscOptions> Options, class F>
void visit_fields(Options& options, F&& f) {
  auto& [crossbar_sizes, utilization_threshold, selection_fraction,
         max_iterations, preference, pack_clusters, pack_limit,
         size_by_demand, threads, embedding_solver, wall_budget_ms,
         recovery] = options;
  f("crossbar_sizes", crossbar_sizes);
  f("utilization_threshold", utilization_threshold);
  f("selection_fraction", selection_fraction);
  f("max_iterations", max_iterations);
  f("preference", preference);
  f("pack_clusters", pack_clusters);
  f("pack_limit", pack_limit);
  f("size_by_demand", size_by_demand);
  f("embedding_solver", embedding_solver);
  f("threads", threads);
  f("wall_budget_ms", wall_budget_ms);
}

/// Wall-clock breakdown of the clustering front end, accumulated over all
/// ISC iterations.
struct ClusteringTimings {
  double embedding_ms = 0.0;  // spectral embedding (eigensolver)
  double kmeans_ms = 0.0;     // GCP (k-means + splitting)
  double packing_ms = 0.0;    // optional cluster packing pass

  double total_ms() const { return embedding_ms + kmeans_ms + packing_ms; }
};

struct IscIterationStats {
  std::size_t iteration = 0;            // 1-based
  std::size_t clusters_formed = 0;      // k from GCP this round
  std::size_t crossbars_placed = 0;     // clusters with CP >= quartile
  std::size_t connections_realized = 0;
  double average_utilization = 0.0;     // u of Alg. 3 line 15
  double average_preference = 0.0;      // mean CP over placed crossbars
  double outlier_ratio = 0.0;           // remaining / total connections
  /// Lanczos telemetry of this iteration's embedding; zero when the dense
  /// fallback solved it (small active subnetwork).
  std::size_t embedding_basis_size = 0;
  std::size_t embedding_matvecs = 0;
  /// Relative Ritz-residual estimate at each convergence check of the
  /// solve (empty for dense).
  std::vector<double> embedding_residuals;
};

struct IscResult {
  std::vector<CrossbarInstance> crossbars;
  /// Connections realized by discrete synapses (Alg. 3 line 18).
  std::vector<nn::Connection> outliers;
  std::vector<IscIterationStats> iterations;
  std::size_t total_connections = 0;
  ClusteringTimings timings;
  /// Pool size the run actually used (informational — results never
  /// depend on it).
  std::size_t threads_used = 1;
  /// True when IscOptions::wall_budget_ms stopped the iteration loop early
  /// (the leftover connections were realized as outliers).
  bool budget_exhausted = false;

  std::size_t clustered_connections() const;
  double outlier_ratio() const;
  /// Mean utilization over all placed crossbars.
  double average_utilization() const;
};

/// Runs Algorithm 3 on `network`. The input is not modified; the result
/// partitions its connections exactly (crossbars + outliers).
IscResult iterative_spectral_clustering(const nn::ConnectionMatrix& network,
                                        const IscOptions& options,
                                        util::Rng& rng);

/// Smallest library size >= cluster size ("minimum satisfiable crossbar",
/// Alg. 3 line 11). Returns 0 if none fits.
std::size_t minimum_satisfiable_size(const std::vector<std::size_t>& sizes,
                                     std::size_t cluster_size);

/// Greedy cluster packing (the pack_clusters option of ISC): repeatedly
/// merges the cluster pair whose merged crossbar carries the most
/// connections per unit crossbar area, as long as that beats both parts
/// and the merged row/column demand stays within pack_limit (0 = the
/// smallest library size). Exposed for testing and for callers composing
/// their own flows.
std::vector<std::vector<std::size_t>> pack_clusters(
    const nn::ConnectionMatrix& network,
    std::vector<std::vector<std::size_t>> clusters,
    const std::vector<std::size_t>& sizes, std::size_t pack_limit = 0);

}  // namespace autoncs::clustering

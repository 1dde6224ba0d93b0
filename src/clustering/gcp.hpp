// Greedy Cluster size Prediction (GCP) — Algorithm 2 of the paper.
//
// GCP enforces the crossbar-size limit inside the clustering instead of
// scanning k from outside (the "traversing" baseline): it predicts
// k = n / s, runs k-means on the k-column spectral embedding, and whenever
// a cluster exceeds the size limit it is broken into two sub-clusters by a
// 2-means, incrementing k and warm-starting the centroid set B. When k has
// grown, the outer loop re-derives the embedding with the new k (line 4)
// and repeats until no cluster is oversize.
#pragma once

#include <cstddef>

#include "clustering/msc.hpp"

namespace autoncs::clustering {

struct GcpStats {
  /// Outer embedding refreshes (Alg. 2 outer do-loop trips).
  std::size_t outer_rounds = 0;
  /// Total cluster splits performed.
  std::size_t splits = 0;
  /// Final number of clusters.
  std::size_t final_k = 0;
};

struct GcpResult {
  Clustering clustering;
  GcpStats stats;
};

/// Clusters the network with every cluster capped at `max_size` neurons.
/// The embedding is computed internally (all n eigenvectors, densely,
/// once) — the historical behaviour.
GcpResult greedy_cluster_size_prediction(const nn::ConnectionMatrix& network,
                                         std::size_t max_size, util::Rng& rng);

/// Same with a caller-provided embedding (ISC reuses one per iteration).
/// The optional pool parallelizes the k-means assignment steps; results
/// are bit-identical for any thread count.
GcpResult gcp_from_embedding(const linalg::EigenDecomposition& embedding,
                             std::size_t max_size, util::Rng& rng,
                             util::ThreadPool* pool = nullptr);

}  // namespace autoncs::clustering

// Modified Spectral Clustering (MSC) — Algorithm 1 of the paper.
//
// Classic spectral clustering partitions an undirected similarity graph;
// MSC redefines the similarity as "number of connections" between neurons,
// so the clusters it produces maximize within-cluster connections (which
// fit crossbars) and minimize between-cluster connections (which become
// discrete-synapse outliers).
#pragma once

#include <cstddef>
#include <vector>

#include "clustering/embedding.hpp"
#include "linalg/generalized_eigen.hpp"
#include "nn/connection_matrix.hpp"
#include "util/rng.hpp"

namespace autoncs::util {
class ThreadPool;
}

namespace autoncs::clustering {

struct Clustering {
  /// clusters[c] lists the neuron indices of cluster c; every neuron
  /// appears in exactly one cluster.
  std::vector<std::vector<std::size_t>> clusters;
  /// assignment[i] is the cluster of neuron i.
  std::vector<std::size_t> assignment;

  std::size_t cluster_count() const { return clusters.size(); }
  std::size_t largest_cluster() const;
};

/// Spectral embedding of the (symmetrized) connection graph with default
/// EmbeddingOptions: all n generalized eigenvectors of L u = λ D u,
/// ascending, computed densely. Computed once and sliced by MSC / GCP /
/// traversing, which need varying column counts. The overload in
/// embedding.hpp takes options (column budget, sparse Lanczos solver,
/// thread pool) for the scalable ISC path.
linalg::EigenDecomposition spectral_embedding(const nn::ConnectionMatrix& network);

/// Algorithm 1: cluster the network's neurons into k clusters using the k
/// smallest generalized eigenvectors + k-means. Requires 1 <= k <= n.
Clustering modified_spectral_clustering(const nn::ConnectionMatrix& network,
                                        std::size_t k, util::Rng& rng);

/// Same, but reusing a precomputed embedding (avoids the O(n^3) eigensolve
/// when called repeatedly, e.g. by the traversing baseline). The embedding
/// may hold fewer than k columns (Lanczos column budget); k-means then runs
/// on every available column. The optional pool parallelizes the k-means
/// assignment step (bit-identical results for any thread count).
Clustering msc_from_embedding(const linalg::EigenDecomposition& embedding,
                              std::size_t k, util::Rng& rng,
                              util::ThreadPool* pool = nullptr);

/// Connections whose endpoints fall in different clusters (the outliers of
/// Sec. 3.1) and those inside one cluster, for reporting.
struct OutlierSplit {
  std::size_t within = 0;
  std::size_t outliers = 0;
  double outlier_ratio() const {
    const std::size_t total = within + outliers;
    return total == 0 ? 0.0 : static_cast<double>(outliers) / static_cast<double>(total);
  }
};

OutlierSplit split_outliers(const nn::ConnectionMatrix& network,
                            const Clustering& clustering);

}  // namespace autoncs::clustering

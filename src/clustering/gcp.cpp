#include "clustering/gcp.hpp"

#include <algorithm>

#include "clustering/embedding.hpp"
#include "linalg/kmeans.hpp"
#include "util/check.hpp"

namespace autoncs::clustering {

namespace {

/// Rows of `points` selected by `members`.
linalg::Matrix gather_rows(const linalg::Matrix& points,
                           const std::vector<std::size_t>& members) {
  linalg::Matrix out(members.size(), points.cols());
  for (std::size_t r = 0; r < members.size(); ++r)
    for (std::size_t c = 0; c < points.cols(); ++c)
      out(r, c) = points(members[r], c);
  return out;
}

/// Mean of the selected rows.
std::vector<double> centroid_of(const linalg::Matrix& points,
                                const std::vector<std::size_t>& members) {
  std::vector<double> mean(points.cols(), 0.0);
  for (std::size_t m : members)
    for (std::size_t c = 0; c < points.cols(); ++c) mean[c] += points(m, c);
  if (!members.empty())
    for (auto& v : mean) v /= static_cast<double>(members.size());
  return mean;
}

Clustering finalize(std::vector<std::size_t> assignment, std::size_t k) {
  Clustering out;
  out.clusters = linalg::cluster_members(assignment, k);
  out.assignment = std::move(assignment);
  std::vector<std::size_t> remap(k, 0);
  std::vector<std::vector<std::size_t>> kept;
  for (std::size_t c = 0; c < out.clusters.size(); ++c) {
    if (!out.clusters[c].empty()) {
      remap[c] = kept.size();
      kept.push_back(std::move(out.clusters[c]));
    }
  }
  for (auto& a : out.assignment) a = remap[a];
  out.clusters = std::move(kept);
  return out;
}

}  // namespace

GcpResult gcp_from_embedding(const linalg::EigenDecomposition& embedding,
                             std::size_t max_size, util::Rng& rng,
                             util::ThreadPool* pool) {
  const std::size_t n = embedding.vectors.rows();
  AUTONCS_CHECK(n > 0, "cannot cluster an empty network");
  AUTONCS_CHECK(max_size >= 1, "cluster size limit must be positive");

  linalg::KMeansOptions km_options;
  km_options.pool = pool;

  GcpResult result;
  // Alg. 2 line 2: predict k = n / s (at least 1).
  std::size_t k = std::max<std::size_t>(1, (n + max_size - 1) / max_size);
  k = std::min(k, n);

  std::vector<std::size_t> assignment;  // carried across outer rounds
  bool flag_outer = true;
  while (flag_outer) {
    flag_outer = false;
    ++result.stats.outer_rounds;
    // Line 4: re-derive the k-dimensional embedding points (capped at the
    // columns the embedding actually holds — the Lanczos path computes a
    // fixed budget of eigenvectors, not all n).
    linalg::Matrix points = embedding_points(embedding, k);
    // Warm start: project previous clusters into the new embedding as
    // centroid seeds; on the first round B is "zeros" (Alg. 2 line 2) and
    // kmeans_warm reseeds it with k-means++.
    linalg::Matrix centroids(k, points.cols(), 0.0);
    if (!assignment.empty()) {
      const auto members = linalg::cluster_members(assignment, k);
      for (std::size_t c = 0; c < k; ++c) {
        if (members[c].empty()) continue;
        const auto mean = centroid_of(points, members[c]);
        for (std::size_t d = 0; d < points.cols(); ++d) centroids(c, d) = mean[d];
      }
    }

    bool flag_inner = true;
    while (flag_inner) {
      flag_inner = false;
      // Line 6: k-means under B, update B.
      auto km = linalg::kmeans_warm(points, centroids, rng, km_options);
      assignment = km.assignment;
      centroids = std::move(km.centroids);

      auto members = linalg::cluster_members(assignment, k);
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (members[j].size() <= max_size) continue;
        // Lines 9-12: break cluster j into two sub-clusters by 2-means.
        const linalg::Matrix sub_points = gather_rows(points, members[j]);
        auto split = linalg::kmeans(sub_points, 2, rng, km_options);
        std::vector<std::size_t> first;
        std::vector<std::size_t> second;
        for (std::size_t idx = 0; idx < members[j].size(); ++idx) {
          (split.assignment[idx] == 0 ? first : second).push_back(members[j][idx]);
        }
        // Degenerate split: (near-)identical embedding rows — e.g. a clique
        // of structurally equivalent neurons — give 2-means nothing to
        // separate, leaving one side empty or trivially small. Halve the
        // cluster evenly instead, otherwise the split loop shaves one
        // member per round and k runs away to n.
        const std::size_t balance = std::min(first.size(), second.size());
        if (balance == 0 ||
            (members[j].size() > 3 * max_size / 2 && balance <= 1)) {
          first.assign(members[j].begin(),
                       members[j].begin() +
                           static_cast<std::ptrdiff_t>(members[j].size() / 2));
          second.assign(members[j].begin() +
                            static_cast<std::ptrdiff_t>(members[j].size() / 2),
                        members[j].end());
        }
        const std::size_t new_cluster = k;
        ++k;
        ++result.stats.splits;
        flag_inner = true;
        flag_outer = true;
        for (std::size_t node : second) assignment[node] = new_cluster;
        // Update B[j] and append B[new] (still in the current embedding).
        linalg::Matrix grown(k, centroids.cols());
        for (std::size_t r = 0; r + 1 < k; ++r)
          for (std::size_t c = 0; c < centroids.cols(); ++c)
            grown(r, c) = centroids(r, c);
        const auto c1 = centroid_of(points, first);
        const auto c2 = centroid_of(points, second);
        for (std::size_t c = 0; c < centroids.cols(); ++c) {
          grown(j, c) = c1[c];
          grown(k - 1, c) = c2[c];
        }
        centroids = std::move(grown);
        members = linalg::cluster_members(assignment, k);
      }
      if (k >= n) break;  // cannot run k-means with more centroids than points
    }
    if (k >= n) break;
  }

  // Legalization post-pass: the outer loop can only exit early when k has
  // reached n; if any cluster still exceeds the limit (tiny-n corner case),
  // split it into even halves. This guarantees the size invariant that the
  // crossbar mapping relies on.
  {
    auto members = linalg::cluster_members(assignment, k);
    for (std::size_t j = 0; j < members.size(); ++j) {
      while (members[j].size() > max_size) {
        const std::size_t new_cluster = members.size();
        members.emplace_back();
        const std::size_t half = members[j].size() / 2;
        for (std::size_t idx = half; idx < members[j].size(); ++idx) {
          assignment[members[j][idx]] = new_cluster;
          members[new_cluster].push_back(members[j][idx]);
        }
        members[j].resize(half);
        ++k;
      }
    }
  }

  result.clustering = finalize(std::move(assignment), k);
  result.stats.final_k = result.clustering.cluster_count();
  return result;
}

GcpResult greedy_cluster_size_prediction(const nn::ConnectionMatrix& network,
                                         std::size_t max_size, util::Rng& rng) {
  return gcp_from_embedding(spectral_embedding(network), max_size, rng);
}

}  // namespace autoncs::clustering

#include "clustering/msc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "nn/generators.hpp"
#include "util/check.hpp"

namespace autoncs::clustering {
namespace {

/// Every neuron in exactly one cluster, assignment consistent.
void expect_valid_partition(const Clustering& clustering, std::size_t n) {
  ASSERT_EQ(clustering.assignment.size(), n);
  std::vector<std::size_t> seen(n, 0);
  for (std::size_t c = 0; c < clustering.clusters.size(); ++c) {
    EXPECT_FALSE(clustering.clusters[c].empty()) << "empty cluster " << c;
    for (std::size_t v : clustering.clusters[c]) {
      ASSERT_LT(v, n);
      ++seen[v];
      EXPECT_EQ(clustering.assignment[v], c);
    }
  }
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(seen[v], 1u) << "neuron " << v;
}

TEST(Msc, PartitionIsValid) {
  util::Rng rng(1);
  const auto net = nn::random_sparse(40, 0.1, rng);
  const auto clustering = modified_spectral_clustering(net, 4, rng);
  expect_valid_partition(clustering, 40);
}

TEST(Msc, RecoversPlantedBlocks) {
  util::Rng rng(2);
  nn::BlockSparseOptions options;
  options.blocks = 3;
  options.intra_density = 0.6;
  options.inter_density = 0.0;
  options.scramble = false;  // blocks are contiguous ranges of 20
  const auto net = nn::block_sparse(60, options, rng);
  const auto clustering = modified_spectral_clustering(net, 3, rng);
  expect_valid_partition(clustering, 60);
  // Neurons of each planted block share one label.
  for (std::size_t block = 0; block < 3; ++block) {
    const std::size_t label = clustering.assignment[block * 20];
    for (std::size_t v = 0; v < 20; ++v)
      EXPECT_EQ(clustering.assignment[block * 20 + v], label);
  }
  // After clustering the blocks perfectly there are no outliers.
  const auto split = split_outliers(net, clustering);
  EXPECT_EQ(split.outliers, 0u);
  EXPECT_EQ(split.within, net.connection_count());
}

TEST(Msc, OutlierSplitCountsTotalConnections) {
  util::Rng rng(3);
  const auto net = nn::random_sparse(30, 0.2, rng);
  const auto clustering = modified_spectral_clustering(net, 5, rng);
  const auto split = split_outliers(net, clustering);
  EXPECT_EQ(split.within + split.outliers, net.connection_count());
  EXPECT_GE(split.outlier_ratio(), 0.0);
  EXPECT_LE(split.outlier_ratio(), 1.0);
}

// Partition quality on a noisy, scrambled block network: MSC keeps more
// connections inside its clusters than a random partition with the same k.
TEST(Metrics, MscBeatsRandomPartitionOnBlockNetwork) {
  util::Rng rng(5);
  nn::BlockSparseOptions options;
  options.blocks = 4;
  options.intra_density = 0.5;
  options.inter_density = 0.02;
  const auto net = nn::block_sparse(64, options, rng);
  const auto spectral = modified_spectral_clustering(net, 4, rng);

  Clustering random;
  random.assignment.resize(64);
  random.clusters.assign(4, {});
  for (std::size_t v = 0; v < 64; ++v) {
    const auto c = static_cast<std::size_t>(rng.next_below(4));
    random.assignment[v] = c;
    random.clusters[c].push_back(v);
  }
  EXPECT_LT(split_outliers(net, spectral).outlier_ratio(),
            split_outliers(net, random).outlier_ratio());
}

TEST(Msc, SingleClusterHasNoOutliers) {
  util::Rng rng(4);
  const auto net = nn::random_sparse(20, 0.3, rng);
  const auto clustering = modified_spectral_clustering(net, 1, rng);
  EXPECT_EQ(clustering.cluster_count(), 1u);
  EXPECT_EQ(split_outliers(net, clustering).outliers, 0u);
}

TEST(Msc, InvalidKThrows) {
  util::Rng rng(5);
  const auto net = nn::random_sparse(10, 0.2, rng);
  EXPECT_THROW(modified_spectral_clustering(net, 0, rng), util::CheckError);
  EXPECT_THROW(modified_spectral_clustering(net, 11, rng), util::CheckError);
}

TEST(Msc, LargestClusterReported) {
  Clustering clustering;
  clustering.clusters = {{0, 1, 2}, {3}, {4, 5}};
  EXPECT_EQ(clustering.largest_cluster(), 3u);
}

TEST(SpectralEmbedding, AscendingEigenvalues) {
  util::Rng rng(6);
  const auto net = nn::random_sparse(25, 0.2, rng);
  const auto embedding = spectral_embedding(net);
  EXPECT_TRUE(std::is_sorted(embedding.values.begin(), embedding.values.end()));
  EXPECT_EQ(embedding.vectors.rows(), 25u);
  EXPECT_EQ(embedding.vectors.cols(), 25u);
}

TEST(SpectralEmbedding, JitterBreaksExactTies) {
  // Structurally equivalent neurons (a clique) would have identical rows
  // without the deterministic jitter.
  nn::ConnectionMatrix net(6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      if (i != j) net.add(i, j);
  const auto embedding = spectral_embedding(net);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b) {
      double d = 0.0;
      for (std::size_t c = 0; c < 6; ++c) {
        const double diff = embedding.vectors(a, c) - embedding.vectors(b, c);
        d += diff * diff;
      }
      EXPECT_GT(d, 0.0) << "rows " << a << " and " << b << " identical";
    }
}

TEST(MscFromEmbedding, ReuseMatchesDirectCall) {
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  const auto net = nn::random_sparse(30, 0.15, rng_a);
  // Regenerate identical network for the second RNG stream.
  const auto net_b = nn::random_sparse(30, 0.15, rng_b);
  ASSERT_TRUE(net == net_b);
  const auto embedding = spectral_embedding(net);
  const auto direct = modified_spectral_clustering(net, 4, rng_a);
  const auto reused = msc_from_embedding(embedding, 4, rng_b);
  EXPECT_EQ(direct.assignment, reused.assignment);
}

}  // namespace
}  // namespace autoncs::clustering

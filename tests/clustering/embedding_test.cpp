#include "clustering/embedding.hpp"

#include <gtest/gtest.h>

#include <set>

#include "clustering/isc.hpp"
#include "nn/generators.hpp"
#include "nn/testbench.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::clustering {
namespace {

bool same_isc_result(const IscResult& a, const IscResult& b) {
  if (a.crossbars.size() != b.crossbars.size()) return false;
  for (std::size_t i = 0; i < a.crossbars.size(); ++i) {
    const auto& xa = a.crossbars[i];
    const auto& xb = b.crossbars[i];
    if (xa.size != xb.size || xa.rows != xb.rows || xa.cols != xb.cols ||
        xa.connections != xb.connections || xa.iteration != xb.iteration)
      return false;
  }
  return a.outliers == b.outliers &&
         a.total_connections == b.total_connections;
}

TEST(Embedding, AutoSolverMatchesDenseAtSmallN) {
  // Up to 512 neurons the kAuto path routes to the identical dense
  // code and must be bit-for-bit the same embedding.
  util::Rng rng(4);
  const auto net = nn::random_sparse(60, 0.1, rng);
  const auto dense = spectral_embedding(net);  // historical dense-only API
  EmbeddingOptions options;
  options.max_vectors = 8;
  const auto routed = spectral_embedding(net, options);
  ASSERT_EQ(routed.vectors.rows(), dense.vectors.rows());
  ASSERT_EQ(routed.vectors.cols(), dense.vectors.cols());
  for (std::size_t j = 0; j < dense.vectors.cols(); ++j) {
    EXPECT_EQ(routed.values[j], dense.values[j]);
    for (std::size_t i = 0; i < dense.vectors.rows(); ++i)
      EXPECT_EQ(routed.vectors(i, j), dense.vectors(i, j));
  }
}

TEST(Embedding, PointsClampToAvailableColumns) {
  util::Rng rng(6);
  const auto net = nn::random_sparse(30, 0.15, rng);
  EmbeddingOptions options;
  options.max_vectors = 5;
  options.solver = EmbeddingSolver::kLanczos;
  const auto embedding = spectral_embedding(net, options);
  ASSERT_EQ(embedding.vectors.cols(), 5u);
  const auto points = embedding_points(embedding, 12);  // asks for more
  EXPECT_EQ(points.rows(), 30u);
  EXPECT_EQ(points.cols(), 5u);
  const auto fewer = embedding_points(embedding, 3);
  EXPECT_EQ(fewer.cols(), 3u);
}

TEST(Embedding, IscResultsIdenticalOnSeedTestbench) {
  // The acceptance bar for the sparse rewrite: clustering results on the
  // paper's Hopfield testbenches must not change. Their active networks
  // are at most 512 neurons, so kAuto takes the dense fallback and the
  // outcome is bit-identical to the historical dense-only code by
  // construction; this test pins that.
  const auto bench = nn::build_testbench(1);
  IscOptions options;  // default: kAuto

  util::Rng rng_auto(2015);
  const auto with_auto =
      iterative_spectral_clustering(bench.topology, options, rng_auto);

  options.embedding_solver = EmbeddingSolver::kDense;
  util::Rng rng_dense(2015);
  const auto with_dense =
      iterative_spectral_clustering(bench.topology, options, rng_dense);

  EXPECT_TRUE(same_isc_result(with_auto, with_dense));
}

TEST(Embedding, IscBitIdenticalAcrossThreadCounts) {
  const auto bench = nn::build_testbench(1);
  IscOptions base;
  base.threads = 1;
  util::Rng rng_one(2015);
  const auto one = iterative_spectral_clustering(bench.topology, base, rng_one);

  for (std::size_t threads : {2, 4}) {
    IscOptions options = base;
    options.threads = threads;
    util::Rng rng_n(2015);
    const auto many =
        iterative_spectral_clustering(bench.topology, options, rng_n);
    EXPECT_EQ(many.threads_used, threads);
    EXPECT_TRUE(same_isc_result(one, many))
        << "ISC diverged with " << threads << " threads";
  }
}

TEST(Embedding, ForcedLanczosIscIsValidAndDeterministic) {
  // Forcing the Lanczos path at small n exercises the sparse pipeline
  // end-to-end (different arithmetic from dense, so results may differ;
  // they must still be a valid partition and thread-count independent).
  util::Rng rng_gen(9);
  nn::BlockSparseOptions block;
  block.blocks = 6;
  const auto net = nn::block_sparse(120, block, rng_gen);

  IscOptions options;
  options.crossbar_sizes = {8, 16, 32};
  options.embedding_solver = EmbeddingSolver::kLanczos;
  options.threads = 1;

  util::Rng rng_a(7);
  const auto a = iterative_spectral_clustering(net, options, rng_a);

  // Valid partition: crossbar + outlier connections cover the network
  // exactly once.
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::size_t realized = 0;
  for (const auto& xbar : a.crossbars)
    for (const auto& c : xbar.connections) {
      EXPECT_TRUE(net.has(c.from, c.to));
      EXPECT_TRUE(seen.emplace(c.from, c.to).second);
      ++realized;
    }
  for (const auto& c : a.outliers) {
    EXPECT_TRUE(seen.emplace(c.from, c.to).second);
    ++realized;
  }
  EXPECT_EQ(realized, net.connection_count());

  options.threads = 4;
  util::Rng rng_b(7);
  const auto b = iterative_spectral_clustering(net, options, rng_b);
  EXPECT_TRUE(same_isc_result(a, b));
}

}  // namespace
}  // namespace autoncs::clustering

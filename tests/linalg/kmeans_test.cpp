#include "linalg/kmeans.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::linalg {
namespace {

/// Generates `per_cluster` points around each of `centers`.
Matrix blob_points(const std::vector<std::vector<double>>& centers,
                   std::size_t per_cluster, double spread, util::Rng& rng) {
  const std::size_t dim = centers.front().size();
  Matrix points(centers.size() * per_cluster, dim);
  std::size_t row = 0;
  for (const auto& center : centers) {
    for (std::size_t p = 0; p < per_cluster; ++p, ++row) {
      for (std::size_t d = 0; d < dim; ++d)
        points(row, d) = center[d] + rng.normal(0.0, spread);
    }
  }
  return points;
}

TEST(KMeans, SingleClusterCentroidIsMean) {
  util::Rng rng(1);
  Matrix points = Matrix::from_rows({{0, 0}, {2, 0}, {0, 2}, {2, 2}});
  const auto result = kmeans(points, 1, rng);
  EXPECT_NEAR(result.centroids(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(result.centroids(0, 1), 1.0, 1e-9);
  for (std::size_t a : result.assignment) EXPECT_EQ(a, 0u);
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  util::Rng rng(3);
  const Matrix points =
      blob_points({{0, 0}, {10, 10}, {-10, 10}}, 30, 0.5, rng);
  const auto result = kmeans(points, 3, rng);
  // All points of one blob share a label.
  for (std::size_t blob = 0; blob < 3; ++blob) {
    const std::size_t label = result.assignment[blob * 30];
    for (std::size_t p = 0; p < 30; ++p)
      EXPECT_EQ(result.assignment[blob * 30 + p], label) << "blob " << blob;
  }
  // And the three labels are distinct.
  std::set<std::size_t> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeans, InertiaIsSumOfSquaredDistances) {
  util::Rng rng(5);
  Matrix points = Matrix::from_rows({{0.0}, {1.0}});
  const auto result = kmeans(points, 1, rng);
  // Centroid 0.5; inertia = 0.25 + 0.25.
  EXPECT_NEAR(result.inertia, 0.5, 1e-9);
}

TEST(KMeans, KEqualsNGivesSingletons) {
  util::Rng rng(7);
  Matrix points = Matrix::from_rows({{0, 0}, {5, 0}, {0, 5}, {5, 5}});
  const auto result = kmeans(points, 4, rng);
  std::set<std::size_t> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), 4u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeans, InvalidKThrows) {
  util::Rng rng(1);
  Matrix points(3, 2);
  EXPECT_THROW(kmeans(points, 0, rng), util::CheckError);
  EXPECT_THROW(kmeans(points, 4, rng), util::CheckError);
}

TEST(KMeans, DeterministicGivenSeed) {
  Matrix points;
  {
    util::Rng gen(9);
    points = blob_points({{0, 0}, {4, 4}}, 20, 0.8, gen);
  }
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const auto a = kmeans(points, 2, rng_a);
  const auto b = kmeans(points, 2, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, BitIdenticalAcrossThreadCounts) {
  // The assignment passes run in blocks of 256 points: n below one block
  // (inline), exactly one block, and several blocks plus a short tail.
  for (std::size_t n : {200u, 256u, 3u * 256u + 40u}) {
    util::Rng gen(n);
    Matrix points(n, 5);
    for (double& v : points.data()) v = gen.uniform(-1.0, 1.0);
    Matrix warm(6, 5);
    for (double& v : warm.data()) v = gen.uniform(-1.0, 1.0);
    util::Rng rng_serial(17);
    const auto cold = kmeans(points, 6, rng_serial);
    const auto hot = kmeans_warm(points, warm, rng_serial);
    for (std::size_t threads : {1u, 2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      KMeansOptions options;
      options.pool = &pool;
      util::Rng rng(17);
      const auto pooled_cold = kmeans(points, 6, rng, options);
      const auto pooled_hot = kmeans_warm(points, warm, rng, options);
      for (const auto& [serial, pooled] :
           {std::pair{&cold, &pooled_cold}, std::pair{&hot, &pooled_hot}}) {
        EXPECT_EQ(pooled->assignment, serial->assignment)
            << "n = " << n << ", threads = " << threads;
        EXPECT_EQ(std::memcmp(pooled->centroids.data().data(),
                              serial->centroids.data().data(),
                              serial->centroids.data().size() * sizeof(double)),
                  0)
            << "n = " << n << ", threads = " << threads;
        EXPECT_EQ(pooled->inertia, serial->inertia);
        EXPECT_EQ(pooled->iterations, serial->iterations);
      }
    }
  }
}

TEST(KMeansWarm, DegenerateZeroCentroidsReseeded) {
  util::Rng rng(13);
  const Matrix points = blob_points({{0, 0}, {8, 8}}, 25, 0.5, rng);
  Matrix zeros(2, 2, 0.0);  // GCP Alg. 2 line 2 initialization
  const auto result = kmeans_warm(points, std::move(zeros), rng);
  std::set<std::size_t> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), 2u);
}

TEST(KMeansWarm, GoodSeedsConvergeFast) {
  util::Rng rng(17);
  const Matrix points = blob_points({{0, 0}, {10, 0}}, 20, 0.3, rng);
  Matrix seeds = Matrix::from_rows({{0.1, 0.0}, {9.8, 0.2}});
  const auto result = kmeans_warm(points, std::move(seeds), rng);
  EXPECT_LE(result.iterations, 5u);
  for (std::size_t p = 0; p < 20; ++p) {
    EXPECT_EQ(result.assignment[p], result.assignment[0]);
    EXPECT_EQ(result.assignment[20 + p], result.assignment[20]);
  }
}

TEST(KMeansWarm, DimensionMismatchThrows) {
  util::Rng rng(1);
  Matrix points(4, 3);
  Matrix seeds(2, 2);
  EXPECT_THROW(kmeans_warm(points, std::move(seeds), rng), util::CheckError);
}

TEST(KMeans, IdenticalPointsDoNotCrash) {
  util::Rng rng(19);
  Matrix points(10, 2, 1.0);  // all identical
  const auto result = kmeans(points, 3, rng);
  EXPECT_EQ(result.assignment.size(), 10u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-18);
}

TEST(KMeansPlusPlus, SeedsAreDataPoints) {
  util::Rng rng(23);
  const Matrix points = blob_points({{0, 0}, {5, 5}}, 10, 0.2, rng);
  const Matrix seeds = kmeans_plus_plus_seeds(points, 4, rng);
  for (std::size_t s = 0; s < 4; ++s) {
    bool found = false;
    for (std::size_t p = 0; p < points.rows() && !found; ++p) {
      found = squared_distance(seeds.row(s), points.row(p)) == 0.0;
    }
    EXPECT_TRUE(found) << "seed " << s << " is not a data point";
  }
}

TEST(ClusterMembers, PartitionsIndices) {
  const std::vector<std::size_t> assignment = {0, 2, 1, 0, 2};
  const auto members = cluster_members(assignment, 3);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(members[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(members[2], (std::vector<std::size_t>{1, 4}));
}

TEST(ClusterMembers, OutOfRangeThrows) {
  EXPECT_THROW(cluster_members({0, 5}, 3), util::CheckError);
}

class KMeansBlobSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(KMeansBlobSweep, SeparatedBlobsAlwaysRecovered) {
  const auto [k, dim] = GetParam();
  util::Rng rng(31 + k * 10 + dim);
  std::vector<std::vector<double>> centers;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> center(dim, 0.0);
    center[c % dim] = 20.0 * (1.0 + static_cast<double>(c / dim));
    centers.push_back(center);
  }
  const Matrix points = blob_points(centers, 15, 0.4, rng);
  const auto result = kmeans(points, k, rng);
  std::set<std::size_t> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), k);
  // Within-blob labels agree.
  for (std::size_t blob = 0; blob < k; ++blob)
    for (std::size_t p = 1; p < 15; ++p)
      EXPECT_EQ(result.assignment[blob * 15 + p], result.assignment[blob * 15]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KMeansBlobSweep,
    ::testing::Combine(::testing::Values(2, 3, 5), ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace autoncs::linalg

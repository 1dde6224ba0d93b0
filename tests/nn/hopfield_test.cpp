#include "nn/hopfield.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace autoncs::nn {
namespace {

std::vector<Pattern> random_patterns(std::size_t count, std::size_t n,
                                     util::Rng& rng) {
  std::vector<Pattern> patterns(count, Pattern(n));
  for (auto& p : patterns)
    for (auto& bit : p) bit = rng.bernoulli(0.5) ? 1 : -1;
  return patterns;
}

TEST(Hopfield, TrainingRequiresPatterns) {
  EXPECT_THROW(HopfieldNetwork::train({}), util::CheckError);
}

TEST(Hopfield, WeightsSymmetricZeroDiagonal) {
  util::Rng rng(1);
  const auto net = HopfieldNetwork::train(random_patterns(3, 20, rng));
  const auto& w = net.weights();
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(w(i, i), 0.0);
    for (std::size_t j = 0; j < 20; ++j)
      EXPECT_DOUBLE_EQ(w(i, j), w(j, i));
  }
}

TEST(Hopfield, HebbianRuleSinglePattern) {
  // W = x x^T / 1 off diagonal.
  const Pattern x = {1, -1, 1};
  const auto net = HopfieldNetwork::train({x});
  EXPECT_DOUBLE_EQ(net.weights()(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(net.weights()(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(net.weights()(1, 2), -1.0);
}

TEST(Hopfield, HebbianSumsAreBitExactInPatternOrder) {
  // Every weight, both triangles, is the pattern-ordered sum of
  // (x_i / P) * x_j; P = 7 makes the scale inexact, so any reordering of
  // the additions would show.
  util::Rng rng(7);
  const auto patterns = random_patterns(7, 37, rng);
  const auto net = HopfieldNetwork::train(patterns);
  const double scale = 1.0 / 7.0;
  for (std::size_t i = 0; i < 37; ++i) {
    for (std::size_t j = i + 1; j < 37; ++j) {
      double sum = 0.0;
      for (const Pattern& p : patterns)
        sum += static_cast<double>(p[i]) * scale * static_cast<double>(p[j]);
      EXPECT_EQ(net.weights()(i, j), sum) << i << "," << j;
      EXPECT_EQ(net.weights()(j, i), sum) << j << "," << i;
    }
  }
}

TEST(Hopfield, StoredPatternIsFixedPoint) {
  util::Rng rng(2);
  const auto patterns = random_patterns(2, 50, rng);  // low load
  const auto net = HopfieldNetwork::train(patterns);
  for (const auto& p : patterns) {
    EXPECT_EQ(net.recall(p), p);
  }
}

TEST(Hopfield, RecallCleansSmallNoise) {
  util::Rng rng(3);
  const auto patterns = random_patterns(2, 80, rng);
  const auto net = HopfieldNetwork::train(patterns);
  const Pattern noisy = corrupt_pattern(patterns[0], 0.05, rng);
  const Pattern result = net.recall(noisy);
  EXPECT_GT(pattern_overlap(result, patterns[0]), 0.95);
}

TEST(Hopfield, RecallRejectsWrongDimension) {
  util::Rng rng(4);
  const auto net = HopfieldNetwork::train(random_patterns(1, 10, rng));
  EXPECT_THROW(net.recall(Pattern(11, 1)), util::CheckError);
}

TEST(Hopfield, SparsityStartsNearZero) {
  util::Rng rng(5);
  const auto net = HopfieldNetwork::train(random_patterns(3, 30, rng));
  // Hebbian weights of random patterns are almost all nonzero.
  EXPECT_LT(net.sparsity(), 0.5);
}

TEST(Hopfield, PruneReachesTargetSparsity) {
  util::Rng rng(6);
  auto net = HopfieldNetwork::train(random_patterns(4, 60, rng));
  net.prune_to_sparsity(0.9);
  EXPECT_GE(net.sparsity(), 0.9);
  // Close to the target from above (cannot overshoot by a whole percent
  // unless ties forced it).
  EXPECT_LT(net.sparsity(), 0.93);
}

TEST(Hopfield, PruneKeepsSymmetricPairs) {
  util::Rng rng(7);
  auto net = HopfieldNetwork::train(random_patterns(5, 40, rng));
  net.prune_to_sparsity(0.85);
  const auto& w = net.weights();
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = 0; j < 40; ++j)
      EXPECT_EQ(w(i, j) == 0.0, w(j, i) == 0.0);
}

TEST(Hopfield, PruneKeepsLargestMagnitudes) {
  util::Rng rng(8);
  auto net = HopfieldNetwork::train(random_patterns(9, 30, rng));
  // Find the max |w| before pruning; it must survive.
  double max_w = 0.0;
  std::size_t mi = 0;
  std::size_t mj = 1;
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = i + 1; j < 30; ++j)
      if (std::abs(net.weights()(i, j)) > max_w) {
        max_w = std::abs(net.weights()(i, j));
        mi = i;
        mj = j;
      }
  net.prune_to_sparsity(0.95);
  EXPECT_NE(net.weights()(mi, mj), 0.0);
}

TEST(Hopfield, TopologyMatchesNonzeroWeights) {
  util::Rng rng(9);
  auto net = HopfieldNetwork::train(random_patterns(3, 25, rng));
  net.prune_to_sparsity(0.8);
  const auto topo = net.topology();
  for (std::size_t i = 0; i < 25; ++i)
    for (std::size_t j = 0; j < 25; ++j) {
      if (i == j) continue;
      EXPECT_EQ(topo.has(i, j), net.weights()(i, j) != 0.0);
    }
}

TEST(Hopfield, RecognitionHighAtLowLoad) {
  util::Rng rng(10);
  const auto patterns = random_patterns(2, 100, rng);
  const auto net = HopfieldNetwork::train(patterns);
  util::Rng eval_rng(11);
  const auto report = net.evaluate_recognition(patterns, 0.05, 10, eval_rng);
  EXPECT_EQ(report.trials, 20u);
  EXPECT_GT(report.recognition_rate, 0.9);
  EXPECT_GT(report.mean_final_overlap, 0.95);
}

TEST(Hopfield, RecognitionIdentificationCriterion) {
  // Two very distinct patterns: even strong noise resolves to the right
  // one under the identification criterion.
  Pattern a(60, 1);
  Pattern b(60, 1);
  for (std::size_t i = 0; i < 30; ++i) b[i] = -1;
  const auto net = HopfieldNetwork::train({a, b});
  util::Rng rng(12);
  const auto report = net.evaluate_recognition({a, b}, 0.1, 5, rng);
  EXPECT_GT(report.recognition_rate, 0.9);
}

TEST(Hopfield, MismatchedPatternDimensionsThrow) {
  EXPECT_THROW(HopfieldNetwork::train({Pattern(5, 1), Pattern(6, 1)}),
               util::CheckError);
}

}  // namespace
}  // namespace autoncs::nn

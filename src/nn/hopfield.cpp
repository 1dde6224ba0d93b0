#include "nn/hopfield.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace autoncs::nn {

HopfieldNetwork HopfieldNetwork::train(const std::vector<Pattern>& patterns) {
  AUTONCS_CHECK(!patterns.empty(), "training needs at least one pattern");
  const std::size_t n = patterns.front().size();
  AUTONCS_CHECK(n >= 2, "patterns must have dimension >= 2");
  for (const auto& p : patterns)
    AUTONCS_CHECK(p.size() == n, "all patterns must share one dimension");

  linalg::Matrix w(n, n);
  const double scale = 1.0 / static_cast<double>(patterns.size());
  // Accumulate the upper triangle row by row, then mirror it: w(j, i)
  // would receive exactly the same additions in the same order.
  for (const auto& p : patterns) {
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = static_cast<double>(p[i]) * scale;
      const std::span<double> row = w.row(i);
      for (std::size_t j = i + 1; j < n; ++j)
        row[j] += xi * static_cast<double>(p[j]);
    }
  }
  std::vector<double>& data = w.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) data[j * n + i] = data[i * n + j];
  return HopfieldNetwork(std::move(w));
}

double HopfieldNetwork::sparsity() const {
  const std::size_t n = weights_.rows();
  if (n < 2) return 1.0;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && weights_(i, j) != 0.0) ++nonzero;
  return 1.0 - static_cast<double>(nonzero) /
                   (static_cast<double>(n) * static_cast<double>(n - 1));
}

void HopfieldNetwork::prune_to_sparsity(double target_sparsity) {
  AUTONCS_CHECK(target_sparsity >= 0.0 && target_sparsity <= 1.0,
                "target sparsity must be in [0, 1]");
  const std::size_t n = weights_.rows();
  // Collect upper-triangle magnitudes (the matrix is symmetric by
  // construction, so pairs prune together automatically).
  struct Entry {
    double magnitude;
    std::size_t i, j;
  };
  std::vector<Entry> entries;
  entries.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (weights_(i, j) != 0.0)
        entries.push_back({std::abs(weights_(i, j)), i, j});

  const double possible = static_cast<double>(n) * static_cast<double>(n - 1);
  const auto keep_directed = static_cast<std::size_t>(
      std::floor((1.0 - target_sparsity) * possible));
  const std::size_t keep_pairs = std::min(entries.size(), keep_directed / 2);

  std::nth_element(entries.begin(),
                   entries.begin() + static_cast<std::ptrdiff_t>(keep_pairs),
                   entries.end(), [](const Entry& a, const Entry& b) {
                     return a.magnitude > b.magnitude;
                   });
  for (std::size_t k = keep_pairs; k < entries.size(); ++k) {
    weights_(entries[k].i, entries[k].j) = 0.0;
    weights_(entries[k].j, entries[k].i) = 0.0;
  }
}

ConnectionMatrix HopfieldNetwork::topology() const {
  return ConnectionMatrix::from_weights(weights_);
}

Pattern HopfieldNetwork::recall(const Pattern& probe, std::size_t max_sweeps) const {
  const std::size_t n = weights_.rows();
  AUTONCS_CHECK(probe.size() == n, "probe dimension must match the network");
  Pattern state = probe;
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double field = 0.0;
      const auto row = weights_.row(i);
      for (std::size_t j = 0; j < n; ++j)
        field += row[j] * static_cast<double>(state[j]);
      if (field == 0.0) continue;  // zero field: keep previous state
      const std::int8_t next = field > 0.0 ? std::int8_t{1} : std::int8_t{-1};
      if (next != state[i]) {
        state[i] = next;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return state;
}

HopfieldNetwork::RecognitionReport HopfieldNetwork::evaluate_recognition(
    const std::vector<Pattern>& patterns, double flip_probability,
    std::size_t trials_per_pattern, util::Rng& rng, double min_overlap) const {
  RecognitionReport report;
  double overlap_sum = 0.0;
  std::size_t recognized = 0;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (std::size_t t = 0; t < trials_per_pattern; ++t) {
      const Pattern noisy = corrupt_pattern(patterns[p], flip_probability, rng);
      const Pattern result = recall(noisy);
      const double overlap = pattern_overlap(result, patterns[p]);
      overlap_sum += overlap;
      bool identified = overlap >= min_overlap;
      for (std::size_t q = 0; identified && q < patterns.size(); ++q) {
        if (q != p && pattern_overlap(result, patterns[q]) >= overlap) {
          identified = false;
        }
      }
      if (identified) ++recognized;
      ++report.trials;
    }
  }
  if (report.trials > 0) {
    report.recognition_rate =
        static_cast<double>(recognized) / static_cast<double>(report.trials);
    report.mean_final_overlap = overlap_sum / static_cast<double>(report.trials);
  }
  return report;
}

}  // namespace autoncs::nn

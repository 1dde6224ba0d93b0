#include "place/legalizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "place/density.hpp"
#include "place/spatial_grid.hpp"
#include "place/wa_wirelength.hpp"
#include "support/golden.hpp"
#include "util/rng.hpp"

namespace autoncs::place {
namespace {

netlist::Netlist uniform_cells(std::size_t count, double side) {
  netlist::Netlist net;
  for (std::size_t c = 0; c < count; ++c) {
    netlist::Cell cell;
    cell.width = side;
    cell.height = side;
    net.cells.push_back(cell);
  }
  return net;
}

TEST(Legalizer, AlreadyLegalIsNoop) {
  netlist::Netlist net = uniform_cells(2, 1.0);
  net.cells[1].x = 5.0;
  auto state = pack_positions(net);
  const auto before = state;
  LegalizerOptions options;
  options.omega = 1.0;
  const auto report = legalize(net, state, options);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(state, before);
}

TEST(Legalizer, SeparatesCoincidentPair) {
  netlist::Netlist net = uniform_cells(2, 2.0);
  auto state = pack_positions(net);  // both at origin
  LegalizerOptions options;
  options.omega = 1.0;
  const auto report = legalize(net, state, options);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.final_overlap_ratio, options.overlap_tolerance);
}

TEST(Legalizer, ResolvesDensePileUp) {
  util::Rng rng(1);
  netlist::Netlist net = uniform_cells(30, 1.0);
  auto state = pack_positions(net);
  for (auto& v : state) v = rng.uniform(-2.0, 2.0);  // heavy overlap
  LegalizerOptions options;
  options.omega = 1.0;
  const auto report = legalize(net, state, options);
  EXPECT_LT(report.final_overlap_ratio, 0.01);
}

TEST(Legalizer, MixedSizesRespectLargeCell) {
  netlist::Netlist net = uniform_cells(5, 1.0);
  net.cells[0].width = 10.0;
  net.cells[0].height = 10.0;
  auto state = pack_positions(net);  // everything at origin
  LegalizerOptions options;
  options.omega = 1.0;
  legalize(net, state, options);
  unpack_positions(state, net);
  // Small cells pushed outside the big one.
  for (std::size_t c = 1; c < 5; ++c) {
    const double dx = std::abs(net.cells[c].x - net.cells[0].x);
    const double dy = std::abs(net.cells[c].y - net.cells[0].y);
    EXPECT_TRUE(dx >= 5.4 || dy >= 5.4)
        << "cell " << c << " still inside the macro";
  }
}

TEST(Legalizer, DieClampKeepsCellsInside) {
  util::Rng rng(2);
  netlist::Netlist net = uniform_cells(12, 1.0);
  auto state = pack_positions(net);
  for (auto& v : state) v = rng.uniform(-20.0, 20.0);
  LegalizerOptions options;
  options.omega = 1.0;
  options.die_half = 4.0;
  legalize(net, state, options);
  for (std::size_t c = 0; c < net.cells.size(); ++c) {
    EXPECT_LE(std::abs(state[2 * c]), 4.0 - 0.5 + 1e-9);
    EXPECT_LE(std::abs(state[2 * c + 1]), 4.0 - 0.5 + 1e-9);
  }
}

TEST(Legalizer, ReportsPassCount) {
  netlist::Netlist net = uniform_cells(4, 1.0);
  auto state = pack_positions(net);
  const auto report = legalize(net, state, {});
  EXPECT_GE(report.passes, 1u);
  EXPECT_LE(report.passes, LegalizerOptions{}.max_passes);
}


TEST(Legalizer, ClampUndoingTheSweepIsNotConvergence) {
  // Both cells lie outside the die and clear of each other, so the first
  // sweep finds nothing; the clamp then stacks them at x = 3.5. That pass
  // must not end the run as converged: the next passes separate them.
  netlist::Netlist net = uniform_cells(2, 1.0);
  net.cells[0].x = 10.0;
  net.cells[1].x = 12.0;
  auto state = pack_positions(net);
  LegalizerOptions options;
  options.omega = 1.0;
  options.die_half = 4.0;
  const auto report = legalize(net, state, options);
  EXPECT_GT(report.passes, 1u);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(overlap_ratio(net, state, 1.0), options.overlap_tolerance);
  EXPECT_EQ(report.final_overlap_ratio, overlap_ratio(net, state, 1.0));
}

TEST(Legalizer, DieTooSmallNeverReportsConvergence) {
  // A die that holds one cell: the clamp stacks the pair after every
  // separation. The run uses every pass and reports the overlap left.
  netlist::Netlist net = uniform_cells(2, 1.0);
  net.cells[0].x = 10.0;
  net.cells[1].x = 12.0;
  auto state = pack_positions(net);
  LegalizerOptions options;
  options.omega = 1.0;
  options.die_half = 0.5;
  options.max_passes = 20;
  const auto report = legalize(net, state, options);
  EXPECT_EQ(report.passes, options.max_passes);
  EXPECT_FALSE(report.converged);
  EXPECT_GT(report.final_overlap_ratio, options.overlap_tolerance);
}

// --- mixed-size netlists ---------------------------------------------
//
// The pruned sweep finds pairs through live small-cell and macro grids;
// it must visit every overlapping pair in ascending (i, j) against the
// evolving state, so its placement matches an all-pairs sweep bit for
// bit. Two references check it: the test-local quadratic legalizer below,
// and values frozen in tests/data/legalizer_references.txt.

/// Test-local reference legalizer: the pass loop of legalize() with a
/// quadratic sweep over every ordered pair (i, j), ascending, against the
/// current state. Written out independently of the library's sweep.
LegalizerReport quadratic_legalize(const netlist::Netlist& net,
                                   std::vector<double>& state,
                                   const LegalizerOptions& options) {
  const std::size_t n = net.cells.size();
  const double omega = options.omega;
  LegalizerReport report;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    report.passes = pass + 1;
    bool any_overlap = false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& ci = net.cells[i];
      for (std::size_t j = i + 1; j < n; ++j) {
        ++report.pairs_checked;
        const auto& cj = net.cells[j];
        const double dx = state[2 * i] - state[2 * j];
        const double dy = state[2 * i + 1] - state[2 * j + 1];
        const double px =
            (0.5 * omega * ci.width + 0.5 * omega * cj.width) - std::abs(dx);
        const double py =
            (0.5 * omega * ci.height + 0.5 * omega * cj.height) - std::abs(dy);
        if (px <= 0.0 || py <= 0.0) continue;
        any_overlap = true;
        ++report.separations;
        const double share_i = cj.area() / (ci.area() + cj.area());
        const std::size_t axis = px <= py ? 0 : 1;
        const double move = (axis == 0 ? px : py) + options.margin;
        const double dir = (axis == 0 ? dx : dy) >= 0.0 ? 1.0 : -1.0;
        state[2 * i + axis] += dir * move * share_i;
        state[2 * j + axis] -= dir * move * (1.0 - share_i);
      }
    }
    bool clamped = false;
    if (options.die_half > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        const double lx = std::max(
            0.0, options.die_half - 0.5 * omega * net.cells[i].width);
        const double ly = std::max(
            0.0, options.die_half - 0.5 * omega * net.cells[i].height);
        const double x = std::clamp(state[2 * i], -lx, lx);
        const double y = std::clamp(state[2 * i + 1], -ly, ly);
        clamped = clamped || x != state[2 * i] || y != state[2 * i + 1];
        state[2 * i] = x;
        state[2 * i + 1] = y;
      }
    }
    if (!any_overlap && !clamped) break;
    if (pass % 8 == 7 &&
        overlap_ratio(net, state, omega) < options.overlap_tolerance)
      break;
  }
  report.final_overlap_ratio = overlap_ratio(net, state, omega);
  report.converged = report.final_overlap_ratio < options.overlap_tolerance;
  return report;
}

netlist::Netlist mixed_cells(std::size_t count, double macro_share,
                             double spread, std::uint64_t seed) {
  util::Rng rng(seed);
  netlist::Netlist net;
  for (std::size_t c = 0; c < count; ++c) {
    netlist::Cell cell;
    const bool macro = rng.uniform() < macro_share;
    cell.width = macro ? rng.uniform(10.0, 20.0) : rng.uniform(1.0, 2.5);
    cell.height = macro ? cell.width : rng.uniform(1.0, 2.5);
    cell.x = rng.uniform(-spread, spread);
    cell.y = rng.uniform(-spread, spread);
    net.cells.push_back(cell);
  }
  return net;
}

/// Legalizes `net` (60 passes at most) and expects the same bits, pass
/// count, overlap and separations as the quadratic legalizer and as the
/// frozen reference `name`, with fewer pairs checked.
void expect_sweeps_identical(const netlist::Netlist& net, double die_half,
                             const std::string& name) {
  LegalizerOptions options;
  options.die_half = die_half;
  options.max_passes = 60;
  auto pruned_state = pack_positions(net);
  auto reference_state = pruned_state;
  const auto pruned = legalize(net, pruned_state, options);
  const auto reference =
      quadratic_legalize(net, reference_state, options);
  EXPECT_EQ(pruned_state, reference_state) << name;
  EXPECT_EQ(pruned.passes, reference.passes) << name;
  EXPECT_EQ(pruned.final_overlap_ratio, reference.final_overlap_ratio) << name;
  EXPECT_EQ(pruned.converged, reference.converged) << name;
  EXPECT_EQ(pruned.separations, reference.separations) << name;
  EXPECT_GT(pruned.separations, 0u) << name;
  EXPECT_LE(pruned.pairs_checked, reference.pairs_checked) << name;

  static const auto frozen =
      testing::read_table("legalizer_references.txt", 1);
  const auto it = frozen.find(name);
  ASSERT_TRUE(it != frozen.end() && it->second.size() == 6)
      << "no legalizer reference for " << name;
  const auto& f = it->second;
  EXPECT_EQ(testing::hex(testing::digest(pruned_state)), f[0]) << name;
  EXPECT_EQ(pruned.passes, testing::parse_u64(f[1])) << name;
  EXPECT_EQ(pruned.final_overlap_ratio, testing::parse_double(f[2])) << name;
  EXPECT_EQ(pruned.converged, f[3] == "1") << name;
  EXPECT_EQ(pruned.separations, testing::parse_u64(f[4])) << name;
  EXPECT_EQ(reference.pairs_checked, testing::parse_u64(f[5])) << name;
}

TEST(LegalizerMixedSize, RandomNetlistsMatchQuadraticSweep) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = mixed_cells(200, 0.03 + 0.03 * static_cast<double>(seed),
                                 25.0, seed);
    const std::string name = "random_s" + std::to_string(seed);
    expect_sweeps_identical(net, 0.0, name + "_open");
    expect_sweeps_identical(net, 30.0, name + "_die30");  // clamp moves too
  }
}

TEST(LegalizerMixedSize, CellsStackedAtOnePoint) {
  expect_sweeps_identical(mixed_cells(120, 0.08, 0.0, 4), 0.0, "stacked_open");
  expect_sweeps_identical(mixed_cells(120, 0.08, 0.0, 4), 20.0,
                          "stacked_die20");
}

TEST(LegalizerMixedSize, MacroStraddlingBucketEdges) {
  // Macros centered on multiples of the small-cell bucket, small cells
  // right at (and a hair inside) the overlap distance on each side.
  const double r_small = 0.5 * 1.2 * 2.0;
  const double bucket = covering_bucket(2.0 * r_small, 1);
  netlist::Netlist net;
  const auto add = [&](double x, double y, double w) {
    netlist::Cell cell;
    cell.x = x;
    cell.y = y;
    cell.width = w;
    cell.height = w;
    net.cells.push_back(cell);
  };
  for (int m = 0; m < 3; ++m) {
    const double mx = bucket * 9.0 * m;
    const double my = bucket * 4.0 * m;
    add(mx, my, 16.0);
    for (double eps : {-1e-9, 0.0}) {
      for (double w : {1.0, 2.0}) {
        const double reach = 0.5 * 1.2 * (16.0 + w) + eps;
        add(mx + reach, my, w);
        add(mx - reach, my + 0.25, w);
        add(mx + 0.5, my - reach, w);
      }
    }
  }
  for (int f = 0; f < 30; ++f) add(bucket * f, -bucket * (f % 4), 1.5);
  expect_sweeps_identical(net, 0.0, "straddling");
}

TEST(LegalizerMixedSize, ExtremeCoordinates) {
  auto net = mixed_cells(80, 0.08, 12.0, 5);
  const auto far = mixed_cells(80, 0.08, 12.0, 6);
  for (auto cell : far.cells) {
    cell.x -= 1e12;
    cell.y += 1e12;
    net.cells.push_back(cell);
  }
  expect_sweeps_identical(net, 0.0, "extreme");
}

TEST(LegalizerMixedSize, VanishinglySmallCellsAmongMacros) {
  auto net = mixed_cells(150, 0.06, 30.0, 9);
  for (auto& cell : net.cells)
    if (cell.width < 5.0) cell.width = cell.height = 1e-7;
  expect_sweeps_identical(net, 0.0, "vanishing");
}

TEST(LegalizerMixedSize, NoMacros) {
  expect_sweeps_identical(mixed_cells(200, 0.0, 12.0, 7), 0.0,
                          "no_macros_open");
  expect_sweeps_identical(mixed_cells(200, 0.0, 12.0, 7), 14.0,
                          "no_macros_die14");
}

TEST(LegalizerMixedSize, PrunedSweepChecksFewPairs) {
  const auto net = mixed_cells(400, 0.05, 40.0, 8);
  LegalizerOptions options;
  options.max_passes = 10;
  auto state = pack_positions(net);
  const auto report = legalize(net, state, options);
  ASSERT_EQ(report.passes, 10u);
  // Far below the n^2 / 2 pairs per pass of an all-pairs sweep.
  EXPECT_LT(report.pairs_checked, 10u * 400u * 399u / 2u / 20u);
  EXPECT_GT(report.separations, 0u);
}

}  // namespace
}  // namespace autoncs::place

// The rung oracle (first_routable_rung) against the ladder it replaces:
// a test-local loop that runs a full-grid maze search on every rung and
// stops at the first that routes. Then, at the route() level, the strict
// capacity and forced-overflow exits keep the failed wires, recovery
// events and degraded flag they had when every rung ran a maze search
// (values frozen from that router).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "route/maze_router.hpp"
#include "route/router.hpp"
#include "support/congested_netlist.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace autoncs::route {
namespace {

/// Tiny LCG so the random grids need no global RNG state.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::size_t below(std::size_t bound) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((state_ >> 33) % bound);
  }

 private:
  std::uint64_t state_;
};

/// Rung limit factors as the router builds them: one repeated product.
std::vector<double> ladder_factors(double limit_factor, double relax_factor,
                                   std::size_t max_relax_steps) {
  std::vector<double> factors;
  for (std::size_t r = 0; r <= max_relax_steps; ++r) {
    factors.push_back(limit_factor);
    limit_factor *= relax_factor;
  }
  return factors;
}

std::vector<double> ladder_limits(const GridGraph& grid,
                                  const std::vector<double>& factors) {
  std::vector<double> limits;
  for (double f : factors) limits.push_back(f * grid.edge_capacity());
  return limits;
}

/// The reference: a full-grid maze search per rung, first success wins.
std::size_t first_rung_by_search(const GridGraph& grid, BinRef source,
                                 BinRef target,
                                 const std::vector<double>& factors,
                                 std::size_t first_rung) {
  for (std::size_t r = first_rung; r < factors.size(); ++r) {
    MazeOptions options;
    options.capacity_limit_factor = factors[r];
    options.window_margin_bins = MazeOptions::kNoWindow;
    if (maze_route(grid, source, target, options)) return r;
  }
  return factors.size();
}

/// Random integral and half-integral usage up to `max_usage` on every edge.
void fill_random_usage(GridGraph& grid, Lcg& rng, std::size_t max_usage) {
  for (std::size_t iy = 0; iy < grid.ny(); ++iy)
    for (std::size_t ix = 0; ix + 1 < grid.nx(); ++ix)
      grid.add_h_usage(ix, iy,
                       0.5 * static_cast<double>(rng.below(2 * max_usage + 1)));
  for (std::size_t iy = 0; iy + 1 < grid.ny(); ++iy)
    for (std::size_t ix = 0; ix < grid.nx(); ++ix)
      grid.add_v_usage(ix, iy,
                       0.5 * static_cast<double>(rng.below(2 * max_usage + 1)));
}

/// Blocks the (up to four) edges around `bin` with `usage`.
void wall_in(GridGraph& grid, BinRef bin, double usage) {
  if (bin.ix > 0) grid.add_h_usage(bin.ix - 1, bin.iy, usage);
  if (bin.ix + 1 < grid.nx()) grid.add_h_usage(bin.ix, bin.iy, usage);
  if (bin.iy > 0) grid.add_v_usage(bin.ix, bin.iy - 1, usage);
  if (bin.iy + 1 < grid.ny()) grid.add_v_usage(bin.ix, bin.iy, usage);
}

struct LadderSetting {
  double limit_factor;
  double relax_factor;
  std::size_t max_relax_steps;
};

TEST(RungOracle, MatchesRungByRungSearchOnRandomGrids) {
  const LadderSetting settings[] = {
      {1.0, 1.5, 8},   // the router's defaults
      {0.6, 1.5, 4},   // headroom below the physical capacity
      {1.0, 1.25, 0},  // no relaxation: rung 0 only
      {2.0, 0.8, 5},   // a shrinking ladder
      {0.5, 2.0, 3},
      {1.0, 1.0, 3},   // every rung the same limit
  };
  const std::size_t shapes[][2] = {{7, 5}, {12, 9}, {16, 16}, {3, 11}};
  Lcg rng(17);
  MazeWorkspace workspace;  // reused across grid sizes and settings
  std::size_t checks = 0;
  std::size_t routed_above_zero = 0;
  std::size_t unroutable = 0;
  for (const LadderSetting& setting : settings) {
    for (const auto& shape : shapes) {
      for (double capacity : {2.0, 3.0}) {
        GridGraph grid(shape[0], shape[1], 1.0, 0.0, 0.0, capacity);
        fill_random_usage(grid, rng, 7);
        const std::vector<double> factors = ladder_factors(
            setting.limit_factor, setting.relax_factor,
            setting.max_relax_steps);
        const std::vector<double> limits = ladder_limits(grid, factors);
        for (int pair = 0; pair < 12; ++pair) {
          const BinRef source{rng.below(grid.nx()), rng.below(grid.ny())};
          const BinRef target{rng.below(grid.nx()), rng.below(grid.ny())};
          for (std::size_t first = 0; first <= factors.size(); ++first) {
            const std::size_t want =
                first_rung_by_search(grid, source, target, factors, first);
            EXPECT_EQ(first_routable_rung(grid, source, target, limits,
                                          first, workspace),
                      want)
                << "grid " << shape[0] << "x" << shape[1] << " capacity "
                << capacity << " source (" << source.ix << "," << source.iy
                << ") target (" << target.ix << "," << target.iy
                << ") first rung " << first << " factors "
                << setting.limit_factor << "*" << setting.relax_factor
                << "^r, r <= " << setting.max_relax_steps;
            ++checks;
            if (want > 0 && want < factors.size()) ++routed_above_zero;
            if (want == factors.size()) ++unroutable;
          }
        }
      }
    }
  }
  // The random usage must exercise every kind of answer.
  EXPECT_GT(routed_above_zero, checks / 20);
  EXPECT_GT(unroutable, checks / 20);
  EXPECT_GT(workspace.stats().oracle_calls, 0u);
  EXPECT_GT(workspace.stats().oracle_nodes, 0u);
}

TEST(RungOracle, MatchesSearchForArbitraryLimitOrder) {
  // Limits in no particular order, NaN included (it blocks nothing, like
  // +inf): the answer is still the lowest rung whose limit connects.
  GridGraph grid(9, 7, 1.0, 0.0, 0.0, 1.0);  // capacity 1: limit == factor
  Lcg rng(5);
  fill_random_usage(grid, rng, 6);
  const std::vector<double> limits = {
      5.0, 1.0, 3.5, std::numeric_limits<double>::quiet_NaN(), 2.0, 4.0, 0.0};
  MazeWorkspace workspace;
  for (int pair = 0; pair < 40; ++pair) {
    const BinRef source{rng.below(grid.nx()), rng.below(grid.ny())};
    const BinRef target{rng.below(grid.nx()), rng.below(grid.ny())};
    for (std::size_t first = 0; first <= limits.size(); ++first) {
      EXPECT_EQ(first_routable_rung(grid, source, target, limits, first,
                                    workspace),
                first_rung_by_search(grid, source, target, limits, first))
          << "pair " << pair << " first rung " << first;
    }
  }
}

TEST(RungOracle, SourceEqualsTargetRoutesOnTheFirstRung) {
  GridGraph grid(5, 5, 1.0, 0.0, 0.0, 1.0);
  wall_in(grid, {2, 2}, 100.0);  // even a walled-in bin reaches itself
  const std::vector<double> limits = {1.0, 1.5, 2.25};
  MazeWorkspace workspace;
  for (std::size_t first = 0; first < limits.size(); ++first) {
    EXPECT_EQ(first_routable_rung(grid, {2, 2}, {2, 2}, limits, first,
                                  workspace),
              first);
    EXPECT_EQ(first_rung_by_search(grid, {2, 2}, {2, 2}, limits, first),
              first);
  }
}

TEST(RungOracle, FullyWalledEndpointsNeverRoute) {
  GridGraph grid(6, 6, 1.0, 0.0, 0.0, 2.0);
  const std::vector<double> factors = ladder_factors(1.0, 1.5, 8);
  const std::vector<double> limits = ladder_limits(grid, factors);
  MazeWorkspace workspace;
  // A walled source: blocked on every rung (usage + 1 > 2 * 1.5^8).
  GridGraph walled_source = grid;
  wall_in(walled_source, {0, 0}, 100.0);
  EXPECT_EQ(first_routable_rung(walled_source, {0, 0}, {5, 5}, limits, 0,
                                workspace),
            limits.size());
  // A walled target in the middle of the grid.
  GridGraph walled_target = grid;
  wall_in(walled_target, {3, 2}, 100.0);
  EXPECT_EQ(first_routable_rung(walled_target, {0, 5}, {3, 2}, limits, 1,
                                workspace),
            limits.size());
  // A wall that opens partway up the ladder: usage 5 needs a limit >= 6,
  // i.e. factor >= 3 = rung 3 (1.5^3 = 3.375; 1.5^2 = 2.25 is short).
  GridGraph opening = grid;
  wall_in(opening, {3, 2}, 5.0);
  EXPECT_EQ(first_rung_by_search(opening, {0, 5}, {3, 2}, factors, 0), 3u);
  EXPECT_EQ(first_routable_rung(opening, {0, 5}, {3, 2}, limits, 0,
                                workspace),
            3u);
  EXPECT_EQ(first_routable_rung(opening, {0, 5}, {3, 2}, limits, 4,
                                workspace),
            4u);
}

TEST(RungOracle, EntryRungAboveTheLadderRunsNoFlood) {
  GridGraph grid(4, 4, 1.0, 0.0, 0.0, 1.0);
  const std::vector<double> limits = {1.0, 1.5};
  MazeWorkspace workspace;
  for (std::size_t first : {std::size_t{2}, std::size_t{3}, std::size_t{50}})
    EXPECT_EQ(first_routable_rung(grid, {0, 0}, {3, 3}, limits, first,
                                  workspace),
              limits.size());
  EXPECT_EQ(first_routable_rung(grid, {0, 0}, {3, 3}, {}, 0, workspace), 0u);
  EXPECT_EQ(workspace.stats().oracle_calls, 0u);
  EXPECT_EQ(workspace.stats().oracle_nodes, 0u);
}

TEST(RungOracle, FloodScratchCountsInTheWorkspaceFootprint) {
  GridGraph grid(20, 20, 1.0, 0.0, 0.0, 1.0);
  for (std::size_t iy = 0; iy < 20; ++iy) grid.add_h_usage(9, iy, 1.0);
  MazeWorkspace workspace;
  const double before = workspace.footprint_bytes();
  const std::vector<double> limits = {1.0, 2.0};
  EXPECT_EQ(first_routable_rung(grid, {0, 0}, {19, 19}, limits, 0, workspace),
            1u);
  // At least the per-node stamp array.
  EXPECT_GE(workspace.footprint_bytes(),
            before + 400.0 * sizeof(std::uint64_t));
}

// --- route() level: the ladder's exits, frozen ---------------------------

struct Frozen {
  std::vector<std::size_t> failed_wires;
  std::size_t segments_failed;
  std::size_t segments_relaxed;
  double wirelength_um;
  double overflow;
  /// "point action detail" of every recovery event, in order.
  std::vector<std::string> events;
};

void expect_frozen(const RoutingResult& result, const util::RecoveryLog& log,
                   const Frozen& want) {
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.failed_wires, want.failed_wires);
  EXPECT_EQ(result.segments_failed, want.segments_failed);
  EXPECT_EQ(result.segments_relaxed, want.segments_relaxed);
  EXPECT_EQ(result.total_wirelength_um, want.wirelength_um);
  EXPECT_EQ(result.total_overflow, want.overflow);
  std::vector<std::string> events;
  for (const util::RecoveryEvent& event : log.events()) {
    EXPECT_EQ(event.stage, "routing");
    EXPECT_TRUE(event.recovered);
    EXPECT_TRUE(event.alters_result);
    events.push_back(event.point + " " + event.action + " " + event.detail);
  }
  EXPECT_EQ(events, want.events);
}

TEST(RungOracleRoute, StrictCapacityPartialRoutingIsUnchanged) {
  const netlist::Netlist net = testing::congested_netlist(8, 8, 60);
  struct Case {
    double capacity_per_um;
    std::size_t max_relax_steps;
    std::size_t reroute_passes;
    Frozen want;
  };
  const Case cases[] = {
      {0.5, 2, 2,
       {{25, 28, 46, 49, 52, 58}, 6, 114, 3688.0, 295.0,
        {"router.unroutable partial_routing 6 segments across 6 wires "
         "unroutable under strict capacity"}}},
      {0.75, 1, 0,
       {{5, 15, 20, 25, 40, 56, 58}, 7, 27, 3588.0, 96.0,
        {"router.unroutable partial_routing 7 segments across 7 wires "
         "unroutable under strict capacity"}}},
  };
  for (const Case& c : cases) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      RouterOptions options;
      options.capacity_per_um = c.capacity_per_um;
      options.strict_capacity = true;
      options.max_relax_steps = c.max_relax_steps;
      options.reroute_passes = c.reroute_passes;
      options.threads = threads;
      util::RecoveryLog log;
      options.recovery = &log;
      SCOPED_TRACE("capacity_per_um " + std::to_string(c.capacity_per_um) +
                   " threads " + std::to_string(threads));
      expect_frozen(route(net, options), log, c.want);
    }
  }
}

class RungOracleFault : public ::testing::Test {
 protected:
  void SetUp() override { util::fault_disarm_all(); }
  void TearDown() override { util::fault_disarm_all(); }
};

TEST_F(RungOracleFault, ForcedOverflowExitsAreUnchanged) {
  const netlist::Netlist net = testing::congested_netlist(8, 8, 160);
  std::vector<std::string> sabotaged;
  for (int s = 0; s < 5; ++s)
    sabotaged.push_back("segment " + std::to_string(s) +
                        " forced past the constrained relaxation ladder");
  for (bool strict : {false, true}) {
    Frozen want;
    if (strict) {
      want = {{23, 51, 75}, 5, 274, 9844.0, 2097.0, {}};
      for (const std::string& detail : sabotaged)
        want.events.push_back("router.force_overflow partial_routing " +
                              detail);
      want.events.push_back(
          "router.unroutable partial_routing 5 segments across 3 wires "
          "unroutable under strict capacity");
    } else {
      want = {{}, 0, 283, 10068.0, 2153.0, {}};
      for (const std::string& detail : sabotaged)
        want.events.push_back("router.force_overflow capacity_relaxation " +
                              detail);
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      util::fault_disarm_all();
      util::fault_arm("router.force_overflow@5");
      RouterOptions options;
      options.capacity_per_um = 0.25;
      options.strict_capacity = strict;
      options.threads = threads;
      util::RecoveryLog log;
      options.recovery = &log;
      SCOPED_TRACE(std::string(strict ? "strict" : "default") + " threads " +
                   std::to_string(threads));
      const RoutingResult result = route(net, options);
      expect_frozen(result, log, want);
      EXPECT_EQ(result.segments_fallback, strict ? 0u : 5u);
    }
  }
}

}  // namespace
}  // namespace autoncs::route

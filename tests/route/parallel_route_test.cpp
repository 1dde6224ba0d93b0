#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "route/maze_router.hpp"
#include "route/router.hpp"
#include "support/congested_netlist.hpp"

namespace autoncs::route {
namespace {

using testing::congested_netlist;

void expect_identical(const RoutingResult& a, const RoutingResult& b) {
  // Bit-identical: exact comparisons, no tolerance.
  EXPECT_EQ(a.total_wirelength_um, b.total_wirelength_um);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.peak_congestion, b.peak_congestion);
  EXPECT_EQ(a.average_delay_ns, b.average_delay_ns);
  EXPECT_EQ(a.max_delay_ns, b.max_delay_ns);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.maze_invocations, b.maze_invocations);
  EXPECT_EQ(a.segments_routed, b.segments_routed);
  ASSERT_EQ(a.wires.size(), b.wires.size());
  for (std::size_t w = 0; w < a.wires.size(); ++w) {
    EXPECT_EQ(a.wires[w].length_um, b.wires[w].length_um) << "wire " << w;
    EXPECT_EQ(a.wires[w].relaxations, b.wires[w].relaxations) << "wire " << w;
    EXPECT_EQ(a.wires[w].delay_ns, b.wires[w].delay_ns) << "wire " << w;
  }
  ASSERT_EQ(a.grid.nx(), b.grid.nx());
  ASSERT_EQ(a.grid.ny(), b.grid.ny());
  for (std::size_t iy = 0; iy < a.grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix + 1 < a.grid.nx(); ++ix)
      EXPECT_EQ(a.grid.h_usage(ix, iy), b.grid.h_usage(ix, iy));
  }
  for (std::size_t iy = 0; iy + 1 < a.grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix < a.grid.nx(); ++ix)
      EXPECT_EQ(a.grid.v_usage(ix, iy), b.grid.v_usage(ix, iy));
  }
}

TEST(ParallelRoute, BitIdenticalAcrossThreadCounts) {
  const auto net = congested_netlist(8, 8, 60);
  RouterOptions options;
  options.theta = 4.0;
  options.capacity_per_um = 0.25;  // capacity 1: forces contention
  options.reroute_passes = 2;
  options.threads = 1;
  const auto reference = route(net, options);
  EXPECT_GT(reference.waves, 1u);  // contention actually produced deferrals
  // 3 exercises the odd-count case: the batched wave dispatch must produce
  // the same speculation batches whether or not the pool size divides them.
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    options.threads = threads;
    const auto parallel = route(net, options);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical(reference, parallel);
  }
}

TEST(ParallelRoute, OddThreadCountsBitIdenticalUnderHeavyContention) {
  // Larger instance than the sweep above so a wave spans many speculation
  // batches: odd pool sizes (3, 5) must leave the batch grid — and with it
  // every route, deferral, and relaxation — untouched.
  const auto net = congested_netlist(10, 10, 110);
  RouterOptions options;
  options.theta = 4.0;
  options.capacity_per_um = 0.25;
  options.reroute_passes = 2;
  options.threads = 1;
  const auto reference = route(net, options);
  EXPECT_GT(reference.waves, 1u);
  EXPECT_GT(reference.segments_routed, 100u);  // spans several batches
  for (std::size_t threads : {3u, 5u}) {
    options.threads = threads;
    const auto parallel = route(net, options);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical(reference, parallel);
  }
}

TEST(ParallelRoute, BitIdenticalWithoutContention) {
  const auto net = congested_netlist(6, 6, 25);
  RouterOptions options;
  options.theta = 4.0;
  options.capacity_per_um = 10.0;  // generous: single wave expected
  options.threads = 1;
  const auto reference = route(net, options);
  options.threads = 4;
  const auto parallel = route(net, options);
  expect_identical(reference, parallel);
}

TEST(ParallelRoute, WorkspaceReuseMatchesFresh) {
  GridGraph grid(12, 12, 2.0, 0.0, 0.0, 2.0);
  grid.add_h_usage(3, 4, 2.0);  // carve some congestion into the grid
  grid.add_h_usage(4, 4, 2.0);
  grid.add_v_usage(5, 5, 1.0);
  MazeOptions options;
  MazeWorkspace reused;
  const BinRef pairs[][2] = {
      {{0, 0}, {11, 11}}, {{2, 4}, {9, 4}}, {{11, 0}, {0, 11}},
      {{5, 5}, {5, 6}},   {{1, 9}, {10, 2}},
  };
  for (const auto& pair : pairs) {
    const auto fresh_path = maze_route(grid, pair[0], pair[1], options);
    const auto reused_path =
        maze_route(grid, pair[0], pair[1], options, reused);
    ASSERT_TRUE(fresh_path.has_value());
    ASSERT_TRUE(reused_path.has_value());
    EXPECT_EQ(*fresh_path, *reused_path);
  }
}

TEST(ParallelRoute, EmptyNetlistYieldsEmptyResult) {
  const netlist::Netlist empty;
  const auto result = route(empty);
  EXPECT_TRUE(result.wires.empty());
  EXPECT_EQ(result.total_wirelength_um, 0.0);
  EXPECT_EQ(result.total_overflow, 0.0);
  EXPECT_EQ(result.segments_total, 0u);
}

TEST(ParallelRoute, CellsWithoutWiresYieldsEmptyResult) {
  netlist::Netlist net;
  netlist::Cell cell;
  cell.width = 1.0;
  cell.height = 1.0;
  net.cells.push_back(cell);
  net.cells.push_back(cell);
  const auto result = route(net);
  EXPECT_TRUE(result.wires.empty());
  EXPECT_EQ(result.total_wirelength_um, 0.0);
}

TEST(EdgeSemantics, BlockedAndOverflowedAreConsistent) {
  // The capacity invariant (maze_router.hpp): if an edge is not blocked,
  // committing one more wire must not overflow it.
  for (double limit : {1.0, 1.5, 2.0, 3.7}) {
    for (double usage = 0.0; usage < 6.0; usage += 0.25) {
      if (!edge_blocked(usage, limit)) {
        EXPECT_FALSE(edge_overflowed(usage + 1.0, limit))
            << "usage " << usage << " limit " << limit;
      }
    }
  }
}

TEST(EdgeSemantics, AtCapacityBlocksButDoesNotOverflow) {
  EXPECT_FALSE(edge_blocked(0.0, 1.0));
  EXPECT_TRUE(edge_blocked(1.0, 1.0));     // full: one more would overflow
  EXPECT_FALSE(edge_overflowed(1.0, 1.0));  // but at capacity is legal
  EXPECT_TRUE(edge_overflowed(1.5, 1.0));
}

TEST(EdgeSemantics, InfiniteLimitNeverBlocks) {
  GridGraph grid(4, 1, 1.0, 0.0, 0.0, 1.0);
  const std::vector<BinRef> path = {{0, 0}, {1, 0}, {2, 0}};
  commit_path(grid, path);
  commit_path(grid, path);
  EXPECT_FALSE(
      path_blocked(grid, path, std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(path_blocked(grid, path, grid.edge_capacity()));
}

}  // namespace
}  // namespace autoncs::route

// Bidirectional maze kernel: equal-cost equivalence with an independent
// full-grid Dijkstra oracle, geometric window growth, warm-started
// reroutes, and the search-effort counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "route/maze_router.hpp"
#include "route/router.hpp"

namespace autoncs::route {
namespace {

/// Cost of a path under the maze cost model (sum of edge costs).
double path_cost(const GridGraph& grid, const std::vector<BinRef>& path,
                 const MazeOptions& options) {
  const double inv_cap = 1.0 / grid.edge_capacity();
  double cost = 0.0;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const BinRef a = path[k];
    const BinRef b = path[k + 1];
    const bool horizontal = a.iy == b.iy;
    const double usage = horizontal
                             ? grid.h_usage(std::min(a.ix, b.ix), a.iy)
                             : grid.v_usage(a.ix, std::min(a.iy, b.iy));
    const double history = horizontal
                               ? grid.h_history(std::min(a.ix, b.ix), a.iy)
                               : grid.v_history(a.ix, std::min(a.iy, b.iy));
    cost += grid.bin_um() *
            (1.0 + options.congestion_penalty * usage * inv_cap +
             options.history_weight * history * inv_cap);
  }
  return cost;
}

/// Independent oracle: plain Dijkstra over the whole grid — no heuristic,
/// no window, no tie-breaking rules — returning the minimal path cost from
/// source to target under the maze cost model, or nullopt when blocked
/// edges disconnect them.
std::optional<double> dijkstra_cost(const GridGraph& grid, BinRef source,
                                    BinRef target, const MazeOptions& options) {
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  const double limit = options.capacity_limit_factor * grid.edge_capacity();
  std::vector<double> dist(nx * ny, std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> open;
  const std::size_t start = source.iy * nx + source.ix;
  const std::size_t goal = target.iy * nx + target.ix;
  dist[start] = 0.0;
  open.push({0.0, start});
  while (!open.empty()) {
    const auto [cost, node] = open.top();
    open.pop();
    if (cost > dist[node]) continue;
    if (node == goal) return cost;
    const BinRef at{node % nx, node / nx};
    const auto relax = [&](BinRef next) {
      const std::vector<BinRef> step = {at, next};
      const bool horizontal = at.iy == next.iy;
      const double usage =
          horizontal ? grid.h_usage(std::min(at.ix, next.ix), at.iy)
                     : grid.v_usage(at.ix, std::min(at.iy, next.iy));
      if (usage + 1.0 > limit) return;  // blocked under the limit
      const double g = cost + path_cost(grid, step, options);
      const std::size_t id = next.iy * nx + next.ix;
      if (g < dist[id]) {
        dist[id] = g;
        open.push({g, id});
      }
    };
    if (at.ix + 1 < nx) relax({at.ix + 1, at.iy});
    if (at.ix > 0) relax({at.ix - 1, at.iy});
    if (at.iy + 1 < ny) relax({at.ix, at.iy + 1});
    if (at.iy > 0) relax({at.ix, at.iy - 1});
  }
  return std::nullopt;
}

/// Deterministic congested grid: pseudo-random usage sprinkled over the
/// edges (tiny LCG, no global RNG state).
GridGraph congested_grid(std::size_t nx, std::size_t ny, double capacity,
                         std::uint64_t seed) {
  GridGraph grid(nx, ny, 1.0, 0.0, 0.0, capacity);
  std::uint64_t state = seed;
  const auto next = [&state](std::size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((state >> 33) % bound);
  };
  const std::size_t edges = (nx - 1) * ny + nx * (ny - 1);
  for (std::size_t e = 0; e < edges / 3; ++e) {
    const double amount = static_cast<double>(1 + next(3));
    if (next(2) == 0) {
      grid.add_h_usage(next(nx - 1), next(ny), amount);
    } else {
      grid.add_v_usage(next(nx), next(ny - 1), amount);
    }
  }
  return grid;
}

TEST(BidiMaze, EqualCostToUnidirectionalOnRandomCongestedGrids) {
  // The kernel is exact: it routes exactly when the full-grid Dijkstra
  // oracle does, at the SAME cost (the paths themselves may differ between
  // equal-cost optima).
  for (std::uint64_t seed : {1u, 7u, 42u, 2015u, 31337u}) {
    const GridGraph grid = congested_grid(24, 20, 4.0, seed);
    std::uint64_t state = seed ^ 0x9e3779b97f4a7c15ULL;
    const auto next = [&state](std::size_t bound) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::size_t>((state >> 33) % bound);
    };
    for (int pair = 0; pair < 12; ++pair) {
      const BinRef source{next(24), next(20)};
      const BinRef target{next(24), next(20)};
      MazeOptions options;
      options.congestion_penalty = 3.0;
      options.history_weight = 1.0;
      const auto oracle = dijkstra_cost(grid, source, target, options);
      const auto path = maze_route(grid, source, target, options);
      ASSERT_EQ(oracle.has_value(), path.has_value())
          << "seed " << seed << " pair " << pair;
      if (!path) continue;
      EXPECT_NEAR(*oracle, path_cost(grid, *path, options), 1e-9)
          << "seed " << seed << " pair " << pair;
      EXPECT_EQ(path->front(), source);
      EXPECT_EQ(path->back(), target);
    }
  }
}

TEST(BidiMaze, EqualCostWithWindowsOnRandomCongestedGrids) {
  // The window schedule ends at the full grid, so a windowed search routes
  // exactly when the full-grid oracle does; a windowed success is exact
  // within its window, so it can cost more than the global optimum, never
  // less.
  for (std::uint64_t seed : {3u, 99u, 777u}) {
    const GridGraph grid = congested_grid(24, 20, 2.0, seed);
    MazeOptions options;
    options.window_margin_bins = 2;
    std::uint64_t state = seed + 17;
    const auto next = [&state](std::size_t bound) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::size_t>((state >> 33) % bound);
    };
    for (int pair = 0; pair < 8; ++pair) {
      const BinRef source{next(24), next(20)};
      const BinRef target{next(24), next(20)};
      const auto oracle = dijkstra_cost(grid, source, target, options);
      const auto path = maze_route(grid, source, target, options);
      ASSERT_EQ(oracle.has_value(), path.has_value());
      if (!path) continue;
      EXPECT_GE(path_cost(grid, *path, options) + 1e-9, *oracle);
    }
  }
}

TEST(BidiMaze, WindowGrowthFindsDetourBeyondInitialMargin) {
  // Wall off rows 0..4 except the top row: the only detour climbs far
  // outside a margin-1 window, so the kernel must grow the window until
  // the detour fits — and report the growth steps in the stats.
  GridGraph grid(10, 8, 1.0, 0.0, 0.0, 1.0);
  for (std::size_t iy = 0; iy < 7; ++iy) grid.add_h_usage(4, iy, 1.0);
  MazeOptions options;
  options.window_margin_bins = 1;
  MazeWorkspace workspace;
  const auto path = maze_route(grid, {0, 0}, {9, 0}, options, workspace);
  ASSERT_TRUE(path.has_value());
  bool used_top = false;
  for (const auto& bin : *path) used_top = used_top || bin.iy == 7;
  EXPECT_TRUE(used_top);
  EXPECT_GE(workspace.stats().window_retries, 1u);
  // Same cost as the unwindowed search: growth reaches the whole grid.
  MazeOptions full = options;
  full.window_margin_bins = MazeOptions::kNoWindow;
  const auto reference = maze_route(grid, {0, 0}, {9, 0}, full);
  ASSERT_TRUE(reference.has_value());
  EXPECT_NEAR(path_cost(grid, *path, options),
              path_cost(grid, *reference, full), 1e-9);
}

TEST(BidiMaze, UnroutableAfterFullGrowthReportsNoPath) {
  GridGraph grid(8, 6, 1.0, 0.0, 0.0, 1.0);
  for (std::size_t iy = 0; iy < 6; ++iy) grid.add_h_usage(3, iy, 1.0);
  MazeOptions options;
  options.window_margin_bins = 1;
  EXPECT_FALSE(maze_route(grid, {0, 2}, {7, 2}, options).has_value());
}

TEST(BidiMaze, WarmStartSeedNeverChangesCost) {
  const GridGraph grid = congested_grid(20, 16, 3.0, 5150);
  MazeOptions plain;
  plain.congestion_penalty = 4.0;
  const BinRef source{1, 2};
  const BinRef target{17, 13};
  const auto cold = maze_route(grid, source, target, plain);
  ASSERT_TRUE(cold.has_value());
  // Seed with the previous route of the same segment (the common case).
  MazeOptions seeded = plain;
  seeded.seed_path = &*cold;
  const auto warm = maze_route(grid, source, target, seeded);
  ASSERT_TRUE(warm.has_value());
  EXPECT_NEAR(path_cost(grid, *cold, plain), path_cost(grid, *warm, seeded),
              1e-9);
  // A seed for DIFFERENT endpoints is ignored, not misapplied.
  MazeOptions mismatched = plain;
  mismatched.seed_path = &*cold;
  const auto other = maze_route(grid, {0, 0}, {19, 15}, mismatched);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->front(), (BinRef{0, 0}));
  EXPECT_EQ(other->back(), (BinRef{19, 15}));
}

TEST(BidiMaze, OptimalSeedOnEmptyGridReturnsSeedWithoutExpansion) {
  // On an empty grid a Manhattan-shortest seed is provably optimal, so the
  // frontiers terminate before expanding anything and the seed comes back.
  GridGraph grid(16, 16, 1.0, 0.0, 0.0, 4.0);
  MazeOptions options;
  const auto first = maze_route(grid, {2, 2}, {10, 2}, options);
  ASSERT_TRUE(first.has_value());
  MazeWorkspace workspace;
  MazeOptions seeded = options;
  seeded.seed_path = &*first;
  const auto again = maze_route(grid, {2, 2}, {10, 2}, seeded, workspace);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(workspace.stats().nodes_expanded, 0u);
}

TEST(BidiMaze, BlockedSeedStillRoutesCorrectly) {
  // The seed crosses an edge that is now blocked: the seed bound must NOT
  // apply (it is not achievable), but the search still routes around.
  GridGraph grid(10, 6, 1.0, 0.0, 0.0, 1.0);
  const std::vector<BinRef> seed = {{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 2}};
  grid.add_h_usage(2, 2, 1.0);  // block the seed's third edge
  MazeOptions options;
  options.seed_path = &seed;
  const auto path = maze_route(grid, {0, 2}, {4, 2}, options);
  ASSERT_TRUE(path.has_value());
  for (std::size_t k = 0; k + 1 < path->size(); ++k) {
    const BinRef a = (*path)[k];
    const BinRef b = (*path)[k + 1];
    if (a.iy == b.iy && a.iy == 2) {
      EXPECT_NE(std::min(a.ix, b.ix), 2u);
    }
  }
}

TEST(BidiMaze, StatsCountExpansionsAndMeets) {
  const GridGraph grid = congested_grid(24, 20, 3.0, 2020);
  MazeOptions options;
  MazeWorkspace workspace;
  const auto path = maze_route(grid, {2, 2}, {20, 17}, options, workspace);
  ASSERT_TRUE(path.has_value());
  const MazeStats& stats = workspace.stats();
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GT(stats.heap_pushes, 0u);
  EXPECT_EQ(stats.meets, 1u);  // exactly one search, settled by a meet
  // Bidirectional search touches FEWER nodes than unidirectional on the
  // same problem — the point of the kernel. A unidirectional A* search
  // with the Manhattan heuristic expanded 148 nodes here.
  EXPECT_LT(stats.nodes_expanded, 148u);
}

TEST(BidiMaze, WorkspaceFootprintCountsHeapCapacity) {
  // prepare() clears the heaps but keeps their allocation; the footprint
  // must report the retained capacity, not the (near-zero) live size.
  GridGraph grid(32, 32, 1.0, 0.0, 0.0, 4.0);
  MazeWorkspace workspace;
  ASSERT_TRUE(maze_route(grid, {0, 0}, {31, 31}, {}, workspace));
  const double after_search = workspace.footprint_bytes();
  workspace.prepare(grid.node_count());  // clears heaps, keeps storage
  EXPECT_EQ(workspace.footprint_bytes(), after_search);
  EXPECT_GT(after_search,
            static_cast<double>(2 * grid.node_count() *
                                (sizeof(double) + sizeof(std::size_t) +
                                 sizeof(std::uint64_t))));
}

TEST(BidiRouter, KernelsProduceComparableQuality) {
  // Each individual search is equal-cost to any exact search (property
  // tests above), but equal-cost ties can resolve to different paths, and
  // the sequential commits then diverge — so at the router level assert
  // quality comparable to a unidirectional A* router, which routed this
  // instance to 988 um of wirelength with 16 tracks of overflow.
  netlist::Netlist net;
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      netlist::Cell cell;
      cell.width = 0.5;
      cell.height = 0.5;
      cell.x = static_cast<double>(c) * 6.0;
      cell.y = static_cast<double>(r) * 6.0;
      net.cells.push_back(cell);
    }
  }
  std::uint64_t state = 404;
  const auto next = [&state](std::size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((state >> 33) % bound);
  };
  for (std::size_t w = 0; w < 40; ++w) {
    netlist::Wire wire;
    wire.pins.push_back(next(36));
    std::size_t other = next(36);
    while (other == wire.pins[0]) other = next(36);
    wire.pins.push_back(other);
    wire.weight = 1.0;
    net.wires.push_back(wire);
  }
  RouterOptions options;
  options.theta = 4.0;
  options.capacity_per_um = 0.5;
  const auto result = route(net, options);
  // Every wire routes (the default flow guarantees it).
  EXPECT_TRUE(result.failed_wires.empty());
  // Comparable quality: within 5% on wirelength, no worse on overflow
  // (deterministic instance, so these are stable expectations).
  EXPECT_NEAR(result.total_wirelength_um, 988.0, 0.05 * 988.0);
  EXPECT_LE(result.total_overflow, 16.0);
  EXPECT_GT(result.maze_meets, 0u);
  EXPECT_GT(result.maze_nodes_expanded, 0u);
}

}  // namespace
}  // namespace autoncs::route

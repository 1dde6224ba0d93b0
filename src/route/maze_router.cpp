#include "route/maze_router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace autoncs::route {

namespace {

/// Frontier heap order: lowest priority first; priority ties pop the
/// DEEPEST entry (highest g — commit to the frontier's current corridor
/// instead of ping-ponging between equally promising ones), and remaining
/// ties pop the MOST RECENT push (a depth-first march across equal-cost
/// plateaus instead of a breadth-first flood). Both rules only pick among
/// equal-priority entries, so the returned cost is unaffected — but the
/// equal-cost path SHAPE they select measurably improves aggregate
/// wirelength/overflow once thousands of segment routes interact. seq is
/// unique within a search pass, so the pop sequence — and with it the
/// committed path — is a total order, a pure function of the grid state
/// independent of thread count.
struct FrontierOrder {
  bool operator()(const MazeQueueEntry& a, const MazeQueueEntry& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.cost != b.cost) return a.cost < b.cost;  // deeper first
    return a.seq < b.seq;
  }
};

struct Window {
  std::uint16_t lo_x = 0;
  std::uint16_t lo_y = 0;
  std::uint16_t hi_x = 0;
  std::uint16_t hi_y = 0;
  bool contains(std::uint16_t ix, std::uint16_t iy) const {
    return ix >= lo_x && ix <= hi_x && iy >= lo_y && iy <= hi_y;
  }
};

/// Inclusive bin bounding box, grown by `margin` and clamped to the grid.
Window make_window(std::size_t min_x, std::size_t min_y, std::size_t max_x,
                   std::size_t max_y, std::size_t margin, std::size_t nx,
                   std::size_t ny) {
  Window w;
  w.lo_x = static_cast<std::uint16_t>(min_x > margin ? min_x - margin : 0);
  w.lo_y = static_cast<std::uint16_t>(min_y > margin ? min_y - margin : 0);
  const std::size_t hx = max_x + margin;
  const std::size_t hy = max_y + margin;
  w.hi_x = static_cast<std::uint16_t>((hx < max_x || hx > nx - 1) ? nx - 1 : hx);
  w.hi_y = static_cast<std::uint16_t>((hy < max_y || hy > ny - 1) ? ny - 1 : hy);
  return w;
}

/// Shared edge-cost model: base length plus congestion and history terms.
struct EdgeCostModel {
  double bin;
  double inv_capacity;
  double congestion_penalty;
  double history_weight;
  double limit;
  double operator()(double usage, double history) const {
    return bin * (1.0 + congestion_penalty * usage * inv_capacity +
                  history_weight * history * inv_capacity);
  }
};

}  // namespace

std::optional<std::vector<BinRef>> maze_route(const GridGraph& grid,
                                              BinRef source, BinRef target,
                                              const MazeOptions& options,
                                              MazeWorkspace& workspace) {
  AUTONCS_CHECK(source.ix < grid.nx() && source.iy < grid.ny(),
                "source bin out of range");
  AUTONCS_CHECK(target.ix < grid.nx() && target.iy < grid.ny(),
                "target bin out of range");
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  const auto node_of = [nx](BinRef b) { return b.iy * nx + b.ix; };
  const std::size_t start = node_of(source);
  const std::size_t goal = node_of(target);
  const std::size_t nodes = nx * ny;

  const double bin = grid.bin_um();
  const EdgeCostModel edge_cost{bin, 1.0 / grid.edge_capacity(),
                                options.congestion_penalty,
                                options.history_weight,
                                options.capacity_limit_factor *
                                    grid.edge_capacity()};
  MazeStats& stats = workspace.stats();

  // Ikeda balanced potential: p(v) = (dist(v,target) - dist(v,source))/2
  // in cost units. Forward orders by g + p, backward by g - p; under this
  // potential both frontiers run Dijkstra on the same reweighted graph
  // (reduced edge costs >= 0 because each edge costs >= bin while p moves
  // by at most bin), which makes the top_f + top_b >= best_meet stop rule
  // exact (see the header comment).
  const double half_bin = 0.5 * bin;
  const auto potential = [&](std::size_t ix, std::size_t iy) {
    const double to_target =
        std::abs(static_cast<double>(ix) - static_cast<double>(target.ix)) +
        std::abs(static_cast<double>(iy) - static_cast<double>(target.iy));
    const double to_source =
        std::abs(static_cast<double>(ix) - static_cast<double>(source.ix)) +
        std::abs(static_cast<double>(iy) - static_cast<double>(source.iy));
    return half_bin * (to_target - to_source);
  };

  // Warm start: a previous route of this segment seeds the window and —
  // when traversable under the current limit — the initial meet bound.
  const std::vector<BinRef>* seed = options.seed_path;
  if (seed != nullptr &&
      (seed->size() < 2 || seed->front() != source || seed->back() != target))
    seed = nullptr;
  double seed_bound = std::numeric_limits<double>::infinity();
  if (seed != nullptr) {
    double bound = 0.0;
    bool traversable = true;
    for (std::size_t k = 0; k + 1 < seed->size(); ++k) {
      const BinRef a = (*seed)[k];
      const BinRef b = (*seed)[k + 1];
      const bool horizontal = a.iy == b.iy;
      const double usage =
          horizontal ? grid.h_usage(std::min(a.ix, b.ix), a.iy)
                     : grid.v_usage(a.ix, std::min(a.iy, b.iy));
      if (edge_blocked(usage, edge_cost.limit)) {
        traversable = false;
        break;
      }
      const double history =
          horizontal ? grid.h_history(std::min(a.ix, b.ix), a.iy)
                     : grid.v_history(a.ix, std::min(a.iy, b.iy));
      bound += edge_cost(usage, history);
    }
    if (traversable) seed_bound = bound;
  }

  constexpr std::size_t kNoMeet = static_cast<std::size_t>(-1);
  struct SearchOutcome {
    double best_meet = 0.0;
    std::size_t meet_node = kNoMeet;
    bool found = false;
  };

  // One balanced two-frontier pass inside the window.
  const auto search = [&](const Window& window) {
    workspace.prepare(nodes);
    SearchOutcome out;
    out.best_meet = seed_bound;

    std::uint64_t push_seq = 0;  // pass-local push order for tie-breaking
    const auto push = [&workspace, &stats, &push_seq](
                          MazeWorkspace::Direction d, MazeQueueEntry entry) {
      entry.seq = push_seq++;
      auto& open = workspace.heap(d);
      open.push_back(entry);
      std::push_heap(open.begin(), open.end(), FrontierOrder{});
      ++stats.heap_pushes;
    };
    // Meet bookkeeping: a node labeled by both frontiers witnesses a real
    // source-to-target path of cost g_f + g_b. Strict improvement only, so
    // an equal-cost seed path wins ties deterministically.
    const auto try_meet = [&](std::size_t node, double g,
                              MazeWorkspace::Direction d) {
      const auto other = static_cast<MazeWorkspace::Direction>(1 - d);
      if (!workspace.reached(node, other)) return;
      const double candidate = g + workspace.best(node, other);
      if (candidate < out.best_meet) {
        out.best_meet = candidate;
        out.meet_node = node;
      }
    };

    workspace.record(start, 0.0, nodes, MazeWorkspace::kForward);
    push(MazeWorkspace::kForward,
         {potential(source.ix, source.iy), 0.0, start});
    workspace.record(goal, 0.0, nodes, MazeWorkspace::kBackward);
    try_meet(goal, 0.0, MazeWorkspace::kBackward);  // source == target
    push(MazeWorkspace::kBackward,
         {-potential(target.ix, target.iy), 0.0, goal});

    auto& open_f = workspace.heap(MazeWorkspace::kForward);
    auto& open_b = workspace.heap(MazeWorkspace::kBackward);
    while (true) {
      const double top_f = open_f.empty()
                               ? std::numeric_limits<double>::infinity()
                               : open_f.front().priority;
      const double top_b = open_b.empty()
                               ? std::numeric_limits<double>::infinity()
                               : open_b.front().priority;
      // Meet-in-the-middle termination; also exits when both frontiers
      // are exhausted (both tops infinite) with or without a meet.
      if (top_f + top_b >= out.best_meet) break;
      if (open_f.empty() && open_b.empty()) break;

      // Balanced expansion: advance the frontier with the cheaper top
      // entry; ties go forward (deterministic).
      const MazeWorkspace::Direction dir = top_f <= top_b
                                               ? MazeWorkspace::kForward
                                               : MazeWorkspace::kBackward;
      auto& open = workspace.heap(dir);
      const MazeQueueEntry entry = open.front();
      std::pop_heap(open.begin(), open.end(), FrontierOrder{});
      open.pop_back();
      if (entry.cost > workspace.best(entry.node, dir)) continue;  // stale
      ++stats.nodes_expanded;

      const GridNeighbor* neighbors = grid.neighbors(entry.node);
      const std::size_t count = grid.neighbor_count(entry.node);
      // The backward frontier walks neighbors in reverse so its plateau
      // march mirrors the forward frontier's — the composed path keeps
      // one consistent bend style across the meet point.
      const bool fwd = dir == MazeWorkspace::kForward;
      for (std::size_t k = 0; k < count; ++k) {
        const GridNeighbor& n = neighbors[fwd ? k : count - 1 - k];
        if (!window.contains(n.ix, n.iy)) continue;
        const double usage = grid.edge_usage(n.edge);
        if (edge_blocked(usage, edge_cost.limit)) continue;
        const double g =
            entry.cost + edge_cost(usage, grid.edge_history(n.edge));
        if (g < workspace.best(n.node, dir)) {
          workspace.record(n.node, g, entry.node, dir);
          try_meet(n.node, g, dir);
          const double p = potential(n.ix, n.iy);
          push(dir, {fwd ? g + p : g - p, g, n.node});
        }
      }
    }
    out.found = std::isfinite(out.best_meet);
    if (out.found && out.meet_node != kNoMeet) ++stats.meets;
    return out;
  };

  // Window schedule: start from the endpoints' (and seed path's) bounding
  // box plus the configured margin, then grow the margin geometrically on
  // failure until the window covers the grid. A windowed SUCCESS is
  // accepted as-is (exact within the window); keeping detours window-
  // local also spreads congestion better than globally-cheapest detours,
  // which pile onto the same few corridors.
  SearchOutcome outcome;
  const Window full = make_window(0, 0, nx - 1, ny - 1, 0, nx, ny);
  if (options.window_margin_bins == MazeOptions::kNoWindow) {
    outcome = search(full);
  } else {
    std::size_t min_x = std::min(source.ix, target.ix);
    std::size_t min_y = std::min(source.iy, target.iy);
    std::size_t max_x = std::max(source.ix, target.ix);
    std::size_t max_y = std::max(source.iy, target.iy);
    if (seed != nullptr) {
      for (const BinRef& b : *seed) {
        min_x = std::min(min_x, b.ix);
        min_y = std::min(min_y, b.iy);
        max_x = std::max(max_x, b.ix);
        max_y = std::max(max_y, b.iy);
      }
    }
    std::size_t margin = options.window_margin_bins;
    while (true) {
      const Window window =
          make_window(min_x, min_y, max_x, max_y, margin, nx, ny);
      const bool windowed =
          window.lo_x > full.lo_x || window.lo_y > full.lo_y ||
          window.hi_x < full.hi_x || window.hi_y < full.hi_y;
      outcome = search(window);
      if (outcome.found || !windowed) break;
      ++stats.window_retries;
      margin = margin == 0 ? 1 : margin * 2;
    }
  }
  if (!outcome.found) return std::nullopt;

  // The seed bound stood: nothing cheaper exists, reuse the seed path.
  if (outcome.meet_node == kNoMeet) return *seed;

  std::vector<BinRef> path;
  path.reserve((source.ix > target.ix ? source.ix - target.ix
                                      : target.ix - source.ix) +
               (source.iy > target.iy ? source.iy - target.iy
                                      : target.iy - source.iy) +
               1);
  // Forward half: meet -> start via forward parents, then reverse.
  for (std::size_t node = outcome.meet_node;;) {
    path.push_back({node % nx, node / nx});
    if (node == start) break;
    node = workspace.parent(node, MazeWorkspace::kForward);
    AUTONCS_CHECK(node < nodes, "broken forward parent chain in maze route");
  }
  std::reverse(path.begin(), path.end());
  // Backward half: meet -> goal via backward parents.
  for (std::size_t node = outcome.meet_node; node != goal;) {
    node = workspace.parent(node, MazeWorkspace::kBackward);
    AUTONCS_CHECK(node < nodes, "broken backward parent chain in maze route");
    path.push_back({node % nx, node / nx});
  }
  return path;
}

std::optional<std::vector<BinRef>> maze_route(const GridGraph& grid,
                                              BinRef source, BinRef target,
                                              const MazeOptions& options) {
  MazeWorkspace workspace;
  return maze_route(grid, source, target, options, workspace);
}

std::size_t first_routable_rung(const GridGraph& grid, BinRef source,
                                BinRef target, std::span<const double> limits,
                                std::size_t first_rung,
                                MazeWorkspace& workspace) {
  AUTONCS_CHECK(source.ix < grid.nx() && source.iy < grid.ny(),
                "source bin out of range");
  AUTONCS_CHECK(target.ix < grid.nx() && target.iy < grid.ny(),
                "target bin out of range");
  const std::size_t rungs = limits.size();
  if (first_rung >= rungs) return rungs;
  MazeStats& stats = workspace.stats();
  ++stats.oracle_calls;
  if (source == target) return first_rung;

  const std::size_t levels = rungs - first_rung;
  MazeWorkspace::Flood& flood =
      workspace.prepare_flood(grid.node_count(), levels);
  // Levels: the candidate rungs in ascending limit order, ties by rung
  // (insertion sort over a handful of rungs). A NaN limit blocks nothing,
  // exactly like +inf, and sorts as such.
  std::vector<double>& level_limit = flood.level_limit;
  std::vector<std::size_t>& level_rung = flood.level_rung;
  level_limit.clear();
  level_rung.clear();
  for (std::size_t r = first_rung; r < rungs; ++r) {
    const double limit = std::isnan(limits[r])
                             ? std::numeric_limits<double>::infinity()
                             : limits[r];
    level_limit.push_back(limit);
    level_rung.push_back(r);
    for (std::size_t k = level_limit.size() - 1;
         k > 0 && level_limit[k - 1] > limit; --k) {
      std::swap(level_limit[k - 1], level_limit[k]);
      std::swap(level_rung[k - 1], level_rung[k]);
    }
  }
  // Every rung at level >= c has a limit >= level c's, so once level c
  // connects, the lowest of them routes. (An equal-limit rung at a lower
  // level admits the same edges and would have connected first.)
  for (std::size_t c = levels - 1; c-- > 0;)
    level_rung[c] = std::min(level_rung[c], level_rung[c + 1]);

  // Smallest level >= `from` whose limit unblocks an edge with `usage`
  // (`levels` when none does).
  const auto edge_level = [&](double usage, std::size_t from) {
    std::size_t level = from;
    while (level < levels && edge_blocked(usage, level_limit[level])) ++level;
    return level;
  };
  const std::uint64_t base = flood.base;
  // Adds `node` to `side`'s reached set; true when the other side already
  // holds it (source and target connected).
  const auto reach = [&](std::size_t side, std::uint32_t node) {
    const std::uint64_t mark = flood.mark[node];
    if (mark == base + (1 - side)) return true;
    if (mark != base + side) {
      flood.mark[node] = base + side;
      flood.stack[side].push_back(node);
    }
    return false;
  };
  const std::size_t nx = grid.nx();
  const auto manhattan = [](std::size_t ix, std::size_t iy, BinRef to) {
    return (ix > to.ix ? ix - to.ix : to.ix - ix) +
           (iy > to.iy ? iy - to.iy : to.iy - iy);
  };
  reach(0, static_cast<std::uint32_t>(source.iy * nx + source.ix));
  reach(1, static_cast<std::uint32_t>(target.iy * nx + target.ix));

  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t side = 0; side < 2 && level > 0; ++side) {
      for (std::uint32_t node : flood.deferred[side][level])
        if (reach(side, node)) return level_rung[level];
    }
    // Alternate the sides until one runs dry: its reached set is then
    // closed under this level's edges without touching the other's.
    while (!flood.stack[0].empty() && !flood.stack[1].empty()) {
      for (std::size_t side = 0; side < 2; ++side) {
        const std::uint32_t node = flood.stack[side].back();
        flood.stack[side].pop_back();
        ++stats.oracle_nodes;
        const GridNeighbor* neighbors = grid.neighbors(node);
        const std::size_t count = grid.neighbor_count(node);
        // Depth first toward the other side's root: neighbors that step
        // toward it are pushed last, so they are expanded first. On a
        // connected level the sides then meet after a few corridors
        // instead of after flooding them.
        const BinRef aim = side == 0 ? target : source;
        const std::size_t here = manhattan(node % nx, node / nx, aim);
        for (const bool toward : {false, true}) {
          for (std::size_t k = 0; k < count; ++k) {
            const GridNeighbor& n = neighbors[k];
            if ((manhattan(n.ix, n.iy, aim) < here) != toward) continue;
            const std::size_t opens =
                edge_level(grid.edge_usage(n.edge), level);
            if (opens == level) {
              if (reach(side, n.node)) return level_rung[level];
            } else if (opens < levels && flood.mark[n.node] != base + side) {
              flood.deferred[side][opens].push_back(n.node);
            }
          }
        }
      }
    }
  }
  return rungs;
}

namespace {

void apply_path(GridGraph& grid, const std::vector<BinRef>& path, double amount) {
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const BinRef a = path[k];
    const BinRef b = path[k + 1];
    if (a.iy == b.iy) {
      grid.add_h_usage(std::min(a.ix, b.ix), a.iy, amount);
    } else {
      AUTONCS_CHECK(a.ix == b.ix, "path steps must be axis-aligned");
      grid.add_v_usage(a.ix, std::min(a.iy, b.iy), amount);
    }
  }
}

double step_usage(const GridGraph& grid, BinRef a, BinRef b) {
  return a.iy == b.iy ? grid.h_usage(std::min(a.ix, b.ix), a.iy)
                      : grid.v_usage(a.ix, std::min(a.iy, b.iy));
}

}  // namespace

void commit_path(GridGraph& grid, const std::vector<BinRef>& path) {
  apply_path(grid, path, 1.0);
}

void uncommit_path(GridGraph& grid, const std::vector<BinRef>& path) {
  apply_path(grid, path, -1.0);
}

bool path_overflows(const GridGraph& grid, const std::vector<BinRef>& path,
                    double limit) {
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    if (edge_overflowed(step_usage(grid, path[k], path[k + 1]), limit))
      return true;
  }
  return false;
}

bool path_overflows(const GridGraph& grid, const std::vector<BinRef>& path) {
  return path_overflows(grid, path, grid.edge_capacity());
}

bool path_blocked(const GridGraph& grid, const std::vector<BinRef>& path,
                  double limit) {
  if (!std::isfinite(limit)) return false;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    if (edge_blocked(step_usage(grid, path[k], path[k + 1]), limit))
      return true;
  }
  return false;
}

double path_length_um(const GridGraph& grid, const std::vector<BinRef>& path) {
  if (path.size() < 2) return 0.0;
  return static_cast<double>(path.size() - 1) * grid.bin_um();
}

}  // namespace autoncs::route

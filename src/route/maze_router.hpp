// Maze routing on the grid graph — Lee's algorithm [16] generalized to
// weighted edges (Dijkstra with an admissible Manhattan A* heuristic).
// Edge cost grows with congestion; edges whose usage cannot absorb one
// more wire under the current virtual-capacity limit are blocked, and the
// caller relaxes the limit for wires that cannot be routed
// (FastRoute-style rip-up avoidance [17]).
//
// ## Bidirectional kernel
//
// The kernel runs two opposing searches — forward from the source,
// backward from the target — with balanced expansion (the frontier with
// the cheaper top entry advances). Both searches order their heaps by the
// Ikeda balanced potential p(v) = (dist(v,target) - dist(v,source))/2 *
// bin: forward priority g_f + p(v), backward priority g_b - p(v). Under
// this potential both searches are Dijkstra on the SAME reweighted graph
// (reduced edge costs stay nonnegative because every grid edge costs at
// least one bin width and p changes by at most one bin width per edge), so
// the meet-in-the-middle stop rule
//
//     top_f + top_b >= best_meet
//
// is EXACT: the returned path has minimal cost, equal to what a plain
// Dijkstra search finds. Ties in the heaps break toward the deepest
// entry, then the most recent push (see MazeQueueEntry::seq), making the
// search — and the committed path — a pure function of the grid state,
// bit-identical across thread counts. All search state (both
// best/parent/stamp sets, both heaps) lives in the per-worker
// MazeWorkspace; grid nodes carry nothing.
//
// A windowed search that fails GROWS its window geometrically (the margin
// doubles per retry) until the window covers the grid; a windowed success
// is accepted as-is (exact within the window). A seed path (the segment's
// previous route, see MazeOptions::seed_path) warm-starts the window and
// the initial meet bound so relax retries and negotiated reroutes
// terminate early.
//
// ## Capacity invariant (shared by routing and negotiated rerouting)
//
// All capacity comparisons derive from ONE virtual limit
//   L = capacity_limit_factor * edge_capacity:
//
//  * An edge is BLOCKED for the maze when committing one more wire would
//    push its usage above L:   usage + 1 > L   (edge_blocked).
//  * An edge (or a path crossing it) is OVERFLOWED — eligible for history
//    accumulation and negotiated rip-up — when its usage already exceeds
//    the same limit:           usage > L       (edge_overflowed).
//
// Hence a path produced by the maze under limit L never overflows L: the
// two predicates are exact complements around the commit. Overflow can
// only be introduced by routes found under a RELAXED limit (or the
// unconstrained fallback), and exactly those edges accumulate history and
// trigger rerouting — including when capacity_limit_factor < 1 reserves
// headroom below the physical capacity.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "route/grid_graph.hpp"

namespace autoncs::route {

struct MazeOptions {
  /// Multiplier on usage/capacity added to the base edge cost.
  double congestion_penalty = 2.0;
  /// Virtual limit factor: edges are blocked when committing one more wire
  /// would push usage above capacity_limit_factor * capacity.
  double capacity_limit_factor = 1.0;
  /// Multiplier on history/capacity (negotiated rerouting); 0 ignores the
  /// grid's congestion history.
  double history_weight = 0.0;
  /// Sentinel for window_margin_bins: search the whole grid.
  static constexpr std::size_t kNoWindow = static_cast<std::size_t>(-1);
  /// Restrict the search to the source/target bounding box expanded by
  /// this many bins on each side. A failed window grows geometrically
  /// (margin doubles per retry) until it covers the grid, so routability
  /// is unchanged.
  std::size_t window_margin_bins = kNoWindow;
  /// Optional warm-start path from a previous route of the same segment
  /// (same source/target). Seeds the initial search window with the
  /// path's bounding box, and — when every seed edge is unblocked under
  /// the current limit — seeds the initial meet bound with the seed
  /// path's cost, so a reroute that cannot improve on its old path
  /// terminates as soon as the frontiers prove it optimal and returns the
  /// seed path itself. Never changes the returned path's cost. Not owned;
  /// must outlive the call.
  const std::vector<BinRef>* seed_path = nullptr;
};

/// True when committing one more wire on an edge with `usage` would exceed
/// the virtual limit (see the capacity invariant above).
inline bool edge_blocked(double usage, double limit) {
  return usage + 1.0 > limit;
}

/// True when an edge's usage already exceeds the virtual limit.
inline bool edge_overflowed(double usage, double limit) {
  return usage > limit;
}

/// Open-list entry of the A* search; exposed so MazeWorkspace can own the
/// heap storage across calls.
struct MazeQueueEntry {
  double priority = 0.0;  // g + heuristic (potential)
  double cost = 0.0;      // g
  std::size_t node = 0;
  /// Push sequence number within one search pass — (priority, cost) ties
  /// break toward the most recent push, a depth-first march across
  /// equal-cost plateaus instead of a breadth-first flood.
  std::uint64_t seq = 0;
};

/// Cumulative search-effort counters. A workspace accumulates across
/// calls; callers snapshot before/after to attribute deltas. The counts
/// are pure functions of (grid state, endpoints, options), so per-segment
/// sums are thread-count invariant and safe to expose as metrics.
struct MazeStats {
  /// Heap pops that were processed (not stale lazy-deletion entries).
  std::uint64_t nodes_expanded = 0;
  /// Entries pushed onto either frontier's heap.
  std::uint64_t heap_pushes = 0;
  /// Window enlargements: geometric growth steps after a failed windowed
  /// pass.
  std::uint64_t window_retries = 0;
  /// Searches that terminated through the meet-in-the-middle rule with a
  /// frontier meet (excludes searches settled purely by a seed bound).
  std::uint64_t meets = 0;
  /// first_routable_rung floods run, and the nodes they expanded.
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_nodes = 0;
};

/// Reusable scratch for maze_route and first_routable_rung: per-direction
/// best-cost/parent arrays, open heaps and the oracle's flood state
/// survive across calls, and generation stamps make each reset O(1)
/// instead of O(nx * ny). One workspace serves one thread; the parallel
/// router keeps a workspace per pool worker.
class MazeWorkspace {
 public:
  enum Direction : std::size_t { kForward = 0, kBackward = 1 };

  /// Sizes both directions' buffers for `nodes` grid nodes and invalidates
  /// all entries from previous searches (constant time unless the grid
  /// size changed).
  void prepare(std::size_t nodes) {
    for (Side& side : sides_) {
      if (side.stamp.size() != nodes) {
        side.best.assign(nodes, 0.0);
        side.parent.assign(nodes, nodes);
        side.stamp.assign(nodes, 0);
        side.generation = 0;
      }
      ++side.generation;
      side.heap.clear();
    }
  }

  double best(std::size_t node, Direction d) const {
    const Side& side = sides_[d];
    return side.stamp[node] == side.generation
               ? side.best[node]
               : std::numeric_limits<double>::infinity();
  }
  bool reached(std::size_t node, Direction d) const {
    const Side& side = sides_[d];
    return side.stamp[node] == side.generation;
  }
  std::size_t parent(std::size_t node, Direction d) const {
    return sides_[d].parent[node];
  }
  void record(std::size_t node, double cost, std::size_t from, Direction d) {
    Side& side = sides_[d];
    side.stamp[node] = side.generation;
    side.best[node] = cost;
    side.parent[node] = from;
  }

  std::vector<MazeQueueEntry>& heap(Direction d) {
    return sides_[d].heap;
  }

  MazeStats& stats() { return stats_; }
  const MazeStats& stats() const { return stats_; }

  /// Flood state of first_routable_rung. A node belongs to at most one
  /// side (the first node both sides reach ends the flood), so one stamp
  /// array serves both: mark == base + side means "reached by side".
  struct Flood {
    std::vector<std::uint64_t> mark;
    std::uint64_t base = 0;
    /// Reached nodes still to expand, per side.
    std::vector<std::uint32_t> stack[2];
    /// Per side and level: nodes behind an edge that opens at that level.
    std::vector<std::vector<std::uint32_t>> deferred[2];
    /// Per level: its limit and the lowest rung that routes once the
    /// level connects.
    std::vector<double> level_limit;
    std::vector<std::size_t> level_rung;
  };
  /// Readies the flood state for `nodes` grid nodes and `levels` levels
  /// and invalidates every mark of the previous flood.
  Flood& prepare_flood(std::size_t nodes, std::size_t levels) {
    if (flood_.mark.size() != nodes) {
      flood_.mark.assign(nodes, 0);
      flood_.base = 0;
    }
    flood_.base += 2;
    for (std::size_t side = 0; side < 2; ++side) {
      flood_.stack[side].clear();
      if (flood_.deferred[side].size() < levels)
        flood_.deferred[side].resize(levels);
      for (auto& list : flood_.deferred[side]) list.clear();
    }
    return flood_;
  }

  /// Logical footprint of the search buffers in bytes. Heaps report their
  /// CAPACITY: prepare() clears them but keeps the allocation, so size()
  /// right after a search returns near-zero and would undercount the
  /// retained scratch. Workspaces are per-worker, so sums over them are
  /// NOT thread-count invariant — manifest-only.
  double footprint_bytes() const {
    double bytes = 0.0;
    for (const Side& side : sides_) {
      bytes += static_cast<double>(
          side.best.size() * sizeof(double) +
          side.parent.size() * sizeof(std::size_t) +
          side.stamp.size() * sizeof(std::uint64_t) +
          side.heap.capacity() * sizeof(MazeQueueEntry));
    }
    bytes += static_cast<double>(flood_.mark.size() * sizeof(std::uint64_t));
    for (std::size_t side = 0; side < 2; ++side) {
      bytes += static_cast<double>(flood_.stack[side].capacity() *
                                   sizeof(std::uint32_t));
      for (const auto& list : flood_.deferred[side])
        bytes += static_cast<double>(list.capacity() * sizeof(std::uint32_t));
    }
    return bytes;
  }

 private:
  struct Side {
    std::vector<double> best;
    std::vector<std::size_t> parent;
    std::vector<std::uint64_t> stamp;
    std::uint64_t generation = 0;
    std::vector<MazeQueueEntry> heap;
  };
  Side sides_[2];
  Flood flood_;
  MazeStats stats_;
};

/// Bin path from source to target inclusive; nullopt when no path exists
/// under the capacity limit. The workspace overload reuses its buffers —
/// the hot path for bulk routing; the plain overload is a convenience
/// wrapper that allocates a fresh workspace.
std::optional<std::vector<BinRef>> maze_route(const GridGraph& grid,
                                              BinRef source, BinRef target,
                                              const MazeOptions& options,
                                              MazeWorkspace& workspace);
std::optional<std::vector<BinRef>> maze_route(const GridGraph& grid,
                                              BinRef source, BinRef target,
                                              const MazeOptions& options);

/// Rung oracle for the capacity-relaxation ladder. Rung r of the ladder
/// is a maze search under the virtual limit `limits[r]`; since a failed
/// windowed search grows its window until it covers the grid, rung r
/// succeeds exactly when source and target are connected over the edges
/// that limit leaves unblocked (edge_blocked). Returns the lowest rung
/// r >= first_rung that routes, or limits.size() when none does (also
/// when first_rung >= limits.size()), without running a maze search.
///
/// Connectivity is monotone in the limit, so the flood visits the
/// candidate rungs in ascending limit order ("levels"); an edge's level
/// is the first level whose limit unblocks it. The flood is bidirectional
/// and cost-free: each side expands its reached set depth first, toward
/// the other side's root, over edges of level <= the current level and
/// parks the nodes behind higher-level edges on that level's deferred
/// list. A node reached from both sides proves the current level
/// connected; a side that runs out of nodes proves it disconnected, and
/// the next level's deferred nodes join the reached sets. The answer is the lowest-indexed rung whose limit is at least
/// the first connecting level's. For the ladder's own limits (one
/// repeated product, so monotone) levels and rungs coincide or, for a
/// shrinking ladder, only first_rung can route.
std::size_t first_routable_rung(const GridGraph& grid, BinRef source,
                                BinRef target, std::span<const double> limits,
                                std::size_t first_rung,
                                MazeWorkspace& workspace);

/// Commits one unit of usage along a path returned by maze_route.
void commit_path(GridGraph& grid, const std::vector<BinRef>& path);

/// Removes a previously committed path's usage (rip-up for rerouting).
void uncommit_path(GridGraph& grid, const std::vector<BinRef>& path);

/// True when any edge along the path is overflowed against `limit`
/// (usage > limit); the two-argument form uses the physical capacity.
bool path_overflows(const GridGraph& grid, const std::vector<BinRef>& path,
                    double limit);
bool path_overflows(const GridGraph& grid, const std::vector<BinRef>& path);

/// True when committing the path now would push some edge above `limit`
/// (the maze's blocking predicate applied to a finished path) — used by
/// the parallel router to validate speculative paths before commit.
bool path_blocked(const GridGraph& grid, const std::vector<BinRef>& path,
                  double limit);

/// Length of a committed path in um (edges * bin width).
double path_length_um(const GridGraph& grid, const std::vector<BinRef>& path);

}  // namespace autoncs::route

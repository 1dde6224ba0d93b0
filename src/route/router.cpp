#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace autoncs::route {

namespace {

/// Maze cost: base congestion penalty on usage / capacity.
constexpr double kCongestionPenalty = 2.0;
/// Virtual-capacity limit factor of the ladder's first rung (see the
/// capacity invariant in maze_router.hpp).
constexpr double kCapacityLimitFactor = 1.0;
/// Virtual-capacity relaxation multiplier per ladder rung.
constexpr double kRelaxFactor = 1.5;
/// Weight of the accumulated history in the maze cost during negotiated
/// reroutes (the initial pass ignores history).
constexpr double kHistoryWeight = 2.0;
/// Maze window: each segment's search is restricted to its bounding box
/// expanded by this many bins. A failed windowed search grows the margin
/// geometrically until the window covers the grid, so routability is
/// unchanged; only searches whose congested detour exceeds the margin pay
/// extra passes.
constexpr std::size_t kWindowMarginBins = 16;

struct Segment {
  std::size_t wire_index;
  std::size_t pin_a;  // cell indices
  std::size_t pin_b;
  double sort_distance;
  double weight;
};

/// Outcome of speculatively routing one segment against a frozen grid.
struct Attempt {
  std::optional<std::vector<BinRef>> path;
  /// Virtual limit the path was found under (infinite for the fallback).
  double limit = 0.0;
  /// Relax steps used; max_relax_steps + 1 marks the unconstrained fallback.
  std::size_t relaxations = 0;
  /// Maze searches spent (successful + failed).
  std::size_t searches = 0;
};

/// The capacity-relaxation ladder of Sec. 3.5. Rung r searches under the
/// limit factor `factors[r]` (virtual limit `limits[r]`): factors[0] is
/// kCapacityLimitFactor and each rung multiplies by kRelaxFactor, the
/// same repeated product a retry loop computes, so every rung's limit is
/// the same double whichever rung a search starts at.
struct Ladder {
  std::vector<double> factors;
  std::vector<double> limits;

  Ladder(const RouterOptions& options, double capacity) {
    double factor = kCapacityLimitFactor;
    for (std::size_t r = 0; r <= options.max_relax_steps; ++r) {
      factors.push_back(factor);
      limits.push_back(factor * capacity);
      factor *= kRelaxFactor;
    }
  }
  /// One past the last rung: the unconstrained fallback.
  std::size_t exhausted() const { return factors.size(); }
};

/// Routes one segment with the paper's relaxation schedule: the lowest
/// rung at or above `entry_rung` that routes, and once max_relax_steps is
/// exhausted an unconstrained route (always succeeds on a connected grid).
/// With strict_capacity the fallback is disabled and exhaustion returns an
/// empty attempt (path == nullopt) for the caller to report as partial
/// routing.
///
/// Only the winning rung runs a maze search (plus rung 0 when the ladder
/// enters there): the rung oracle (first_routable_rung) names the first
/// rung that routes without searching the failing ones. It is exact because
/// the window schedule always reaches the full grid, so a rung's success
/// is full-grid routability under its limit — with or without `seed` (a
/// previous route of the same segment, or null), which warm-starts the
/// searches but never changes which rung succeeds. The path is therefore
/// the one a rung-by-rung retry loop would find. `entry_rung` > 0 is the
/// caller's promise that every lower rung is blocked on this grid.
/// `sabotage` (decided deterministically in sequential setup code by the
/// router.force_overflow fault point) skips the constrained ladder as if
/// every rung had failed.
Attempt route_segment(const GridGraph& grid, BinRef source, BinRef target,
                      const RouterOptions& options, const Ladder& ladder,
                      double history_weight, MazeWorkspace& workspace,
                      bool sabotage = false,
                      const std::vector<BinRef>* seed = nullptr,
                      std::size_t entry_rung = 0) {
  Attempt out;
  MazeOptions maze;
  maze.congestion_penalty = kCongestionPenalty;
  maze.history_weight = history_weight;
  maze.window_margin_bins = kWindowMarginBins;
  maze.seed_path = seed;
  const auto search_rung = [&](std::size_t rung) {
    maze.capacity_limit_factor = ladder.factors[rung];
    ++out.searches;
    out.path = maze_route(grid, source, target, maze, workspace);
    out.limit = ladder.limits[rung];
    out.relaxations = rung;
  };
  if (!sabotage && entry_rung < ladder.exhausted()) {
    // Rung 0 routes most speculations outright, so it is searched
    // directly. A later entry rung is known to be contested (an inline
    // reroute's speculation needed it on a grid that has since filled), so
    // the oracle judges it along with the rungs above it.
    std::size_t from = entry_rung;
    if (entry_rung == 0) {
      search_rung(0);
      if (out.path) return out;
      from = 1;
    }
    // Relax the virtual capacity for this wire (Sec. 3.5): straight to
    // the first rung that routes.
    const std::size_t rung =
        first_routable_rung(grid, source, target, ladder.limits, from,
                            workspace);
    if (rung < ladder.exhausted()) {
      search_rung(rung);
      AUTONCS_CHECK(out.path.has_value(),
                    "maze search failed on the rung the oracle chose");
      return out;
    }
  }
  out.relaxations = ladder.exhausted();
  if (options.strict_capacity) {
    out.path.reset();  // unroutable under the most-relaxed capacity
    return out;
  }
  maze.capacity_limit_factor = std::numeric_limits<double>::infinity();
  ++out.searches;
  out.path = maze_route(grid, source, target, maze, workspace);
  AUTONCS_CHECK(out.path.has_value(), "unconstrained maze route failed");
  out.limit = std::numeric_limits<double>::infinity();
  return out;
}

}  // namespace

RoutingResult route(const netlist::Netlist& netlist, const RouterOptions& options,
                    const tech::TechnologyModel& tech) {
  AUTONCS_TRACE_SCOPE("route");
  util::WallTimer timer;
  AUTONCS_CHECK(netlist.validate().empty(), "netlist failed validation");
  AUTONCS_CHECK(options.theta > 0.0, "theta must be positive");

  RoutingResult result;
  if (netlist.cells.empty() || netlist.wires.empty()) {
    // Nothing to route: an empty cell set would otherwise divide by zero
    // below and propagate infinite extents into the grid dimensions.
    result.wires.reserve(netlist.wires.size());
    for (std::size_t w = 0; w < netlist.wires.size(); ++w) {
      result.wires.push_back({w, 0.0, netlist.wires[w].device_delay_ns, 0});
    }
    result.runtime_ms = timer.elapsed_ms();
    return result;
  }

  // Die extent over cell centers (cells already placed).
  double min_x = std::numeric_limits<double>::infinity();
  double max_x = -min_x;
  double min_y = min_x;
  double max_y = -min_x;
  double cog_x = 0.0;
  double cog_y = 0.0;
  for (const auto& cell : netlist.cells) {
    min_x = std::min(min_x, cell.x);
    max_x = std::max(max_x, cell.x);
    min_y = std::min(min_y, cell.y);
    max_y = std::max(max_y, cell.y);
    cog_x += cell.x;
    cog_y += cell.y;
  }
  const auto cell_count = static_cast<double>(netlist.cells.size());
  cog_x /= cell_count;
  cog_y /= cell_count;

  const double margin = static_cast<double>(options.margin_bins) * options.theta;
  const double origin_x = min_x - margin;
  const double origin_y = min_y - margin;
  const auto nx = static_cast<std::size_t>(
      std::ceil((max_x - min_x + 2.0 * margin) / options.theta)) + 1;
  const auto ny = static_cast<std::size_t>(
      std::ceil((max_y - min_y + 2.0 * margin) / options.theta)) + 1;
  const double capacity = std::max(1.0, options.theta * options.capacity_per_um);

  result.grid = GridGraph(nx, ny, options.theta, origin_x, origin_y, capacity);
  GridGraph& grid = result.grid;
  const Ladder ladder(options, grid.edge_capacity());

  // Decompose wires into 2-pin segments: an MST over the pin positions
  // (better trunk sharing for multi-pin nets than a star from the driver).
  std::vector<Segment> segments;
  for (std::size_t w = 0; w < netlist.wires.size(); ++w) {
    const auto& wire = netlist.wires[w];
    double closest = std::numeric_limits<double>::infinity();
    for (std::size_t pin : wire.pins) {
      const auto& cell = netlist.cells[pin];
      closest = std::min(closest, std::abs(cell.x - cog_x) +
                                      std::abs(cell.y - cog_y));
    }
    if (wire.pins.size() <= 2) {
      for (std::size_t p = 1; p < wire.pins.size(); ++p) {
        segments.push_back(
            {w, wire.pins[0], wire.pins[p], closest, wire.weight});
      }
    } else {
      // Prim's MST over the pins (Manhattan distance between cell centers).
      const std::size_t pins = wire.pins.size();
      const auto distance = [&](std::size_t a, std::size_t b) {
        const auto& ca = netlist.cells[wire.pins[a]];
        const auto& cb = netlist.cells[wire.pins[b]];
        return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
      };
      std::vector<bool> in_tree(pins, false);
      std::vector<double> best(pins, std::numeric_limits<double>::infinity());
      std::vector<std::size_t> attach(pins, 0);
      in_tree[0] = true;  // grow from the driver
      for (std::size_t p = 1; p < pins; ++p) {
        best[p] = distance(0, p);
        attach[p] = 0;
      }
      for (std::size_t added = 1; added < pins; ++added) {
        std::size_t next = pins;
        for (std::size_t p = 0; p < pins; ++p)
          if (!in_tree[p] && (next == pins || best[p] < best[next])) next = p;
        in_tree[next] = true;
        segments.push_back({w, wire.pins[attach[next]], wire.pins[next],
                            closest, wire.weight});
        for (std::size_t p = 0; p < pins; ++p) {
          if (in_tree[p]) continue;
          const double d = distance(next, p);
          if (d < best[p]) {
            best[p] = d;
            attach[p] = next;
          }
        }
      }
    }
  }
  // Canonical routing order: ascending center-of-gravity distance, weight
  // breaks ties (heavier first), then wire index for determinism.
  std::sort(segments.begin(), segments.end(), [](const Segment& a, const Segment& b) {
    if (a.sort_distance != b.sort_distance) return a.sort_distance < b.sort_distance;
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.wire_index < b.wire_index;
  });
  result.segments_total = segments.size();

  // Source/target bins are fixed by the placement; compute them once.
  std::vector<BinRef> seg_source(segments.size());
  std::vector<BinRef> seg_target(segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto& ca = netlist.cells[segments[s].pin_a];
    const auto& cb = netlist.cells[segments[s].pin_b];
    seg_source[s] = grid.bin_of(ca.x, ca.y);
    seg_target[s] = grid.bin_of(cb.x, cb.y);
  }

  util::ThreadPool pool(options.threads, "route");
  result.threads_used = pool.size();
  std::vector<MazeWorkspace> workspaces(pool.size());
  // Fixed batch of segments per dispatched block. The block grid is keyed
  // on the pending-segment index only — never on pool.size() — so the
  // batch boundaries (and the per-thread MazeWorkspace reuse pattern) are
  // invariant to the thread count, and a wave that fits one batch runs
  // inline on worker 0 without waking the pool at all.
  constexpr std::size_t kSpeculateGrain = 4;

  // Committed grid path per segment (empty = intra-bin connection), plus
  // the relaxations its FINAL committed route used (reset on rip-up).
  std::vector<std::vector<BinRef>> segment_path(segments.size());
  std::vector<std::size_t> segment_relax(segments.size(), 0);
  std::vector<Attempt> attempts(segments.size());
  // Warm-start seeds for pending segments: a deferred segment keeps its
  // invalidated speculative path here so the next wave's search starts
  // from it. Written only in the sequential commit phase, read by the
  // (parallel) speculative phase of the NEXT wave — no data race, and the
  // contents depend only on the canonical commit order, never the
  // partition, so seeding preserves thread-count determinism.
  std::vector<std::vector<BinRef>> segment_seed(segments.size());
  const auto seed_of = [&](std::size_t s) -> const std::vector<BinRef>* {
    return segment_seed[s].empty() ? nullptr : &segment_seed[s];
  };
  // Strict-capacity failures (1 = unroutable after the full ladder) and
  // fault-injected sabotage marks. Sabotage is decided below in sequential
  // setup code so the fault hit order — and therefore which segments are
  // hit — never depends on the thread count.
  std::vector<std::uint8_t> segment_failed(segments.size(), 0);
  std::vector<std::uint8_t> sabotaged(segments.size(), 0);
  bool sabotage_fired = false;
  const auto record = [&](const char* point, const char* action,
                          bool recovered, bool alters_result,
                          std::string detail) {
    if (options.recovery != nullptr)
      options.recovery->record({"routing", point, action, recovered,
                                alters_result, std::move(detail)});
  };

  // Wave engine: `pending` must be in canonical (ascending segment) order.
  const auto route_waves = [&](std::vector<std::size_t> pending,
                               double history_weight) {
    while (!pending.empty()) {
      ++result.waves;
      result.wave_sizes.push_back(pending.size());
      AUTONCS_TRACE_SCOPE("route/wave", "pending",
                          static_cast<std::int64_t>(pending.size()));
      // Speculative phase: every pending segment searches against the
      // frozen grid. The grid is read-only here, each worker owns its
      // workspace, and each segment owns its attempt slot — no shared
      // mutable state, so the paths are independent of the partition.
      pool.parallel_for(
          pending.size(),
          [&](std::size_t begin, std::size_t end, std::size_t worker) {
            AUTONCS_TRACE_SCOPE("route/speculate", "segments",
                                static_cast<std::int64_t>(end - begin));
            for (std::size_t k = begin; k < end; ++k) {
              const std::size_t s = pending[k];
              attempts[s] = route_segment(grid, seg_source[s], seg_target[s],
                                          options, ladder, history_weight,
                                          workspaces[worker],
                                          sabotaged[s] != 0, seed_of(s));
            }
          },
          kSpeculateGrain);
      // Commit phase: sequential, in canonical order. Only clean
      // (unrelaxed) speculative paths commit; one invalidated by an
      // earlier commit of this wave is deferred and rerouted against the
      // updated grid next wave. A speculation that needed capacity
      // relaxation is discarded outright — relaxed paths chosen against a
      // stale snapshot pile overflow onto the same edges without seeing
      // each other — and the segment is rerouted inline against the live
      // grid, exactly what a sequential negotiated pass would do.
      std::vector<std::size_t> deferred;
      for (std::size_t s : pending) {
        Attempt& attempt = attempts[s];
        result.maze_invocations += attempt.searches;
        if (attempt.path && attempt.relaxations == 0 &&
            !path_blocked(grid, *attempt.path, attempt.limit)) {
          commit_path(grid, *attempt.path);
          segment_path[s] = std::move(*attempt.path);
          segment_relax[s] = 0;
          segment_seed[s].clear();
          continue;
        }
        if (attempt.path && attempt.relaxations == 0) {
          // Keep the invalidated path as next wave's warm start: its
          // bounding box still brackets the likely detour, and when the
          // conflicting edges drain it is re-proven optimal immediately.
          segment_seed[s] = std::move(*attempt.path);
          deferred.push_back(s);
          continue;
        }
        // Relaxed speculations reroute inline against the live grid; the
        // discarded speculative path still makes a good warm start.
        //
        // The reroute enters the ladder at the speculation's rung. Between
        // the snapshot and this commit the grid has only GAINED usage —
        // route_waves runs only for the initial pass, whose commit phases
        // call commit_path and never uncommit_path — and edge_blocked is
        // monotone in usage, so every rung the speculation found blocked
        // is still blocked here. A strict-capacity or fallback speculation
        // (relaxations = max_relax_steps + 1) skips the constrained ladder.
        if (attempt.path) segment_seed[s] = std::move(*attempt.path);
        Attempt fresh = route_segment(grid, seg_source[s], seg_target[s],
                                      options, ladder, history_weight,
                                      workspaces[0], sabotaged[s] != 0,
                                      seed_of(s), attempt.relaxations);
        result.maze_invocations += fresh.searches;
        if (!fresh.path) {
          // Strict capacity: unroutable against the live grid too — final.
          // The wire stays partially routed and is reported, not forced.
          segment_failed[s] = 1;
          segment_path[s].clear();
          segment_relax[s] = fresh.relaxations;
          segment_seed[s].clear();
          continue;
        }
        commit_path(grid, *fresh.path);
        segment_path[s] = std::move(*fresh.path);
        segment_relax[s] = fresh.relaxations;
        segment_seed[s].clear();
      }
      result.segments_deferred += deferred.size();
      pending = std::move(deferred);
    }
  };

  std::vector<std::size_t> initial;
  initial.reserve(segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    // Intra-bin segments are handled by the direct-length term below.
    if (seg_source[s] == seg_target[s]) continue;
    // Deterministic fault injection: hit accounting runs here, in the
    // canonical segment order, so `router.force_overflow@N` always marks
    // the same N segments regardless of thread count.
    if (AUTONCS_FAULT_POINT("router.force_overflow")) {
      sabotaged[s] = 1;
      sabotage_fired = true;
      record("router.force_overflow",
             options.strict_capacity ? "partial_routing"
                                     : "capacity_relaxation",
             true, true,
             "segment " + std::to_string(s) +
                 " forced past the constrained relaxation ladder");
    }
    initial.push_back(s);
  }
  result.segments_routed = initial.size();
  route_waves(std::move(initial), 0.0);

  // Negotiated rerouting: accumulate history on overflowed edges, then rip
  // up and reroute the crossing segments ONE AT A TIME — each reroute sees
  // every other committed path (ripping the whole overflowed set first
  // would let the reroutes pile straight back into the emptied cut).
  // Overflow is judged against the SAME virtual limit the maze blocks on
  // (see the capacity invariant in maze_router.hpp). This stage is
  // sequential by construction; the heavy initial pass above carries the
  // parallelism.
  const double overflow_limit = kCapacityLimitFactor * capacity;
  if (options.reroute_passes > 0) {
    // Negotiated rerouting is not monotone — a pass can trade overflow up.
    // Keep the best configuration seen (the initial routing included) and
    // restore it if the passes end somewhere worse, so reroute_passes > 0
    // is never worse than the single-pass flow.
    double best_overflow = grid.total_overflow();
    std::vector<std::vector<BinRef>> best_path = segment_path;
    std::vector<std::size_t> best_relax = segment_relax;
    std::vector<std::uint8_t> best_failed = segment_failed;
    for (std::size_t pass = 0; pass < options.reroute_passes; ++pass) {
      if (options.wall_budget_ms > 0.0 &&
          timer.elapsed_ms() >= options.wall_budget_ms) {
        // The committed routing is complete and valid; only the optional
        // improvement passes are cut short.
        record("router.wall_budget", "budget_exhausted", true, true,
               "reroute passes stopped after " + std::to_string(pass) +
                   " of " + std::to_string(options.reroute_passes));
        result.budget_exhausted = true;
        break;
      }
      if (grid.accumulate_history(overflow_limit) == 0) break;
      AUTONCS_TRACE_SCOPE("route/reroute_pass", "pass",
                          static_cast<std::int64_t>(pass + 1));
      std::size_t rerouted = 0;
      for (std::size_t s = 0; s < segments.size(); ++s) {
        if (segment_path[s].empty() ||
            !path_overflows(grid, segment_path[s], overflow_limit))
          continue;
        // Rip up, then warm-start the reroute from the old path: it seeds
        // the search window (the detour usually stays nearby) and, when
        // still traversable, the meet bound — a reroute that cannot beat
        // its old path terminates as soon as the frontiers prove it.
        std::vector<BinRef> old_path = std::move(segment_path[s]);
        segment_path[s].clear();
        uncommit_path(grid, old_path);
        // Entry rung 0: the rip-up freed usage, so lower rungs may route.
        Attempt fresh =
            route_segment(grid, seg_source[s], seg_target[s], options, ladder,
                          kHistoryWeight, workspaces[0],
                          sabotaged[s] != 0, &old_path);
        result.maze_invocations += fresh.searches;
        if (!fresh.path) {
          // Strict capacity: the ripped-up segment no longer routes under
          // the relaxed ladder. Leave it unrouted and reported.
          segment_failed[s] = 1;
          segment_relax[s] = fresh.relaxations;
          ++rerouted;
          continue;
        }
        commit_path(grid, *fresh.path);
        segment_path[s] = std::move(*fresh.path);
        segment_relax[s] = fresh.relaxations;
        ++rerouted;
      }
      const double pass_overflow = grid.total_overflow();
      result.reroute_stats.push_back({rerouted, pass_overflow});
      if (pass_overflow < best_overflow) {
        best_overflow = pass_overflow;
        best_path = segment_path;
        best_relax = segment_relax;
        best_failed = segment_failed;
      }
    }
    if (grid.total_overflow() > best_overflow) {
      for (const auto& path : segment_path)
        if (!path.empty()) uncommit_path(grid, path);
      for (const auto& path : best_path)
        if (!path.empty()) commit_path(grid, path);
      segment_path = std::move(best_path);
      segment_relax = std::move(best_relax);
      segment_failed = std::move(best_failed);
    }
  }

  // Wire lengths: grid paths plus the detailed (intra-bin) spans.
  std::vector<double> wire_length(netlist.wires.size(), 0.0);
  std::vector<std::size_t> wire_relax(netlist.wires.size(), 0);
  std::vector<std::uint8_t> wire_failed(netlist.wires.size(), 0);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const Segment& segment = segments[s];
    if (segment_failed[s]) {
      // Unrouted under strict capacity: no length contribution — the wire
      // is incomplete and reported below.
      ++result.segments_failed;
      wire_failed[segment.wire_index] = 1;
      continue;
    }
    if (segment_path[s].empty()) {
      const auto& ca = netlist.cells[segment.pin_a];
      const auto& cb = netlist.cells[segment.pin_b];
      wire_length[segment.wire_index] +=
          std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
    } else {
      wire_length[segment.wire_index] += path_length_um(grid, segment_path[s]);
    }
    wire_relax[segment.wire_index] += segment_relax[s];
    if (segment_relax[s] > 0) ++result.segments_relaxed;
    if (segment_relax[s] > options.max_relax_steps) ++result.segments_fallback;
  }

  result.wires.reserve(netlist.wires.size());
  double delay_sum = 0.0;
  for (std::size_t w = 0; w < netlist.wires.size(); ++w) {
    RoutedWire routed;
    routed.wire_index = w;
    routed.length_um = wire_length[w];
    routed.relaxations = wire_relax[w];
    routed.delay_ns =
        tech.wire_delay_ns(wire_length[w]) + netlist.wires[w].device_delay_ns;
    delay_sum += routed.delay_ns;
    result.max_delay_ns = std::max(result.max_delay_ns, routed.delay_ns);
    result.total_wirelength_um += routed.length_um;
    result.wires.push_back(routed);
  }
  result.average_delay_ns =
      netlist.wires.empty() ? 0.0
                            : delay_sum / static_cast<double>(netlist.wires.size());
  result.total_overflow = grid.total_overflow();
  result.peak_congestion = grid.peak_congestion();
  if (result.segments_failed > 0) {
    for (std::size_t w = 0; w < netlist.wires.size(); ++w)
      if (wire_failed[w]) result.failed_wires.push_back(w);
    record("router.unroutable", "partial_routing", true, true,
           std::to_string(result.segments_failed) + " segments across " +
               std::to_string(result.failed_wires.size()) +
               " wires unroutable under strict capacity");
  }
  result.degraded = result.segments_failed > 0 || result.budget_exhausted ||
                    sabotage_fired;
  // Search-effort totals: every maze call charged one of the per-worker
  // workspaces, and each search's counts depend only on (grid state,
  // endpoints, options) — so the sum over workspaces is independent of how
  // segments were partitioned across workers.
  for (const MazeWorkspace& ws : workspaces) {
    const MazeStats& st = ws.stats();
    result.maze_nodes_expanded += st.nodes_expanded;
    result.maze_heap_pushes += st.heap_pushes;
    result.maze_window_retries += st.window_retries;
    result.maze_meets += st.meets;
    result.oracle_calls += st.oracle_calls;
    result.oracle_nodes += st.oracle_nodes;
  }
  result.runtime_ms = timer.elapsed_ms();

  // Memory accounting. The grid's edge arrays derive from the placement;
  // the per-worker maze workspaces scale with the pool.
  util::mem_record_bytes("route/grid", grid.footprint_bytes());
  double workspace_bytes = 0.0;
  for (const MazeWorkspace& ws : workspaces)
    workspace_bytes += ws.footprint_bytes();
  util::mem_record_bytes("route/maze_workspaces", workspace_bytes);

  if (result.segments_failed > 0) {
    util::LogLine(util::LogLevel::kWarn, "route")
        << "partial routing: " << result.segments_failed
        << " segments across " << result.failed_wires.size()
        << " wires unroutable under strict capacity";
  }

  util::LogLine(util::LogLevel::kInfo, "route")
      << "routed " << netlist.wires.size() << " wires, L="
      << result.total_wirelength_um << " um, overflow=" << result.total_overflow
      << " (" << result.segments_routed << " segments, " << result.waves
      << " waves, " << result.threads_used << " threads, "
      << result.runtime_ms << " ms)";
  return result;
}

}  // namespace autoncs::route

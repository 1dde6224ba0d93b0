// Global routing driver — Sec. 3.5 of the paper.
//
// A grid graph with user bin width theta is built over the placed die.
// Wires are decomposed into two-pin segments and ordered by "distance from
// the center of gravity of all cells to the wire's closest pin", with the
// wire weight as tie breaker. A wire that cannot be routed under the
// current virtual capacity is retried with the capacity relaxed until it
// routes, as the paper describes. The failing retries are not searched:
// a rung oracle (first_routable_rung in maze_router.hpp) finds the first
// relaxed capacity under which the wire routes, and the maze search runs
// once, under that capacity — the same path a search per relaxation step
// would end with.
//
// ## Parallel wave model (deterministic)
//
// Segments are routed in WAVES: every still-unrouted segment is routed
// speculatively — in parallel, against a frozen snapshot of the grid —
// and the resulting paths are then committed sequentially in the canonical
// segment order. A clean (unrelaxed) speculative path is committed only if
// the commits made earlier in the same wave left every one of its edges
// able to absorb one more wire under the limit the path was found with
// (path_blocked); otherwise the segment is deferred into the next wave and
// rerouted against the updated grid. A speculation that needed capacity
// relaxation is never committed — it was chosen against a stale view of
// congestion — and the segment is instead rerouted inline against the live
// grid during the commit phase, matching a fully sequential negotiated
// pass. The inline reroute starts the relaxation ladder at the
// speculation's rung: these waves only ever add usage, so every rung the
// speculation found blocked is still blocked. Each wave commits at least
// its first pending segment, so the engine terminates, and because the
// wave composition,
// the per-segment searches, and the commit order depend only on the
// canonical order — never on the thread count or scheduling — the routing
// result is bit-identical for any `threads` value.
//
// Negotiated reroute passes (reroute_passes > 0) rip up and reroute the
// overflowed segments one at a time, sequentially: each reroute must see
// every other committed path, or the reroutes pile straight back into the
// cut they were ripped from. The initial pass carries the parallelism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "route/grid_graph.hpp"
#include "route/maze_router.hpp"
#include "tech/tech_model.hpp"
#include "util/error.hpp"

namespace autoncs::route {

/// How multi-pin wires decompose into routable 2-pin segments.
enum class MultiPinDecomposition {
  /// Every sink connects straight to the driver (pin 0).
  kStar,
  /// Minimum spanning tree over pin positions (Manhattan metric) — shorter
  /// trunks for shared output nets.
  kMst,
};

struct RouterOptions {
  /// Bin width theta (um).
  double theta = 4.0;
  MultiPinDecomposition decomposition = MultiPinDecomposition::kMst;
  /// Routing tracks per edge per um of bin width (capacity = theta * this).
  double capacity_per_um = 2.0;
  /// Base congestion penalty for maze cost.
  double congestion_penalty = 2.0;
  /// Starting virtual-capacity limit factor (see the capacity invariant in
  /// maze_router.hpp); < 1 reserves headroom below the physical capacity
  /// and makes at-limit edges eligible for negotiated rerouting.
  double capacity_limit_factor = 1.0;
  /// Virtual-capacity relaxation multiplier per failed attempt.
  double relax_factor = 1.5;
  /// Maximum relaxation retries per segment before routing unconstrained.
  std::size_t max_relax_steps = 8;
  /// Extra margin of empty bins around the die.
  std::size_t margin_bins = 1;
  /// Negotiated rip-up-and-reroute passes after the initial routing
  /// (PathFinder-style): overflowed edges accumulate history cost and the
  /// wires crossing them are rerouted. 0 = the paper's single-pass flow.
  std::size_t reroute_passes = 0;
  /// Weight of the accumulated history in the maze cost during reroutes.
  double history_weight = 2.0;
  /// Maze window: each segment's search is restricted to its bounding box
  /// expanded by this many bins (MazeOptions::kNoWindow = whole grid). A
  /// failed windowed search grows the margin geometrically until the
  /// window covers the grid, so routability — including unroutable-net
  /// handling — is unchanged; only searches whose congested detour exceeds
  /// the margin pay extra passes.
  std::size_t window_margin_bins = 16;
  /// Worker threads for the speculative routing waves; 0 = the CPUs the
  /// process may run on. The routing result is bit-identical for any value.
  std::size_t threads = 0;
  /// Strict capacity mode: disable the unconstrained fallback after
  /// max_relax_steps. A segment that cannot route under the most-relaxed
  /// virtual capacity is reported in `failed_wires` (partial routing,
  /// flagged degraded) instead of being forced through overflowed edges.
  /// Default off — the paper's flow guarantees every wire a route.
  bool strict_capacity = false;
  /// Wall-clock budget for the negotiated reroute passes in milliseconds;
  /// 0 = unlimited (clean runs never consult the clock). The initial
  /// routing always completes — the budget only stops the optional
  /// improvement passes, returning the best complete routing so far
  /// flagged budget_exhausted.
  double wall_budget_ms = 0.0;
  /// Optional recovery-event sink (forced overflow, partial routing,
  /// budget exhaustion). Null runs the identical ladder silently.
  util::RecoveryLog* recovery = nullptr;
};

struct RoutedWire {
  std::size_t wire_index = 0;
  double length_um = 0.0;
  /// Routed Elmore delay plus the wire's device delay (ns).
  double delay_ns = 0.0;
  /// Capacity relaxations used by the FINAL committed routes of this
  /// wire's segments: a segment routed after k relax steps contributes k,
  /// and a segment that exhausted max_relax_steps and fell back to an
  /// unconstrained route contributes max_relax_steps + 1. Ripped-up
  /// segments contribute only their final (re)route.
  std::size_t relaxations = 0;
};

/// Convergence record of one negotiated reroute pass.
struct ReroutePassStats {
  /// Segments ripped up and rerouted in this pass.
  std::size_t segments_rerouted = 0;
  /// Grid overflow after the pass committed.
  double overflow_after = 0.0;
};

struct RoutingResult {
  std::vector<RoutedWire> wires;
  double total_wirelength_um = 0.0;
  double average_delay_ns = 0.0;
  double max_delay_ns = 0.0;
  double total_overflow = 0.0;
  double peak_congestion = 0.0;
  GridGraph grid = GridGraph(1, 1, 1.0, 0.0, 0.0, 1.0);

  // --- throughput telemetry ---
  /// Two-pin segments the wires decomposed into (including intra-bin ones).
  std::size_t segments_total = 0;
  /// Segments that needed a grid path (inter-bin).
  std::size_t segments_routed = 0;
  /// Maze searches actually run: speculations, inline and negotiated
  /// reroutes, and the one search on the rung the oracle picks. Rungs the
  /// oracle skips are not searched and not counted.
  std::size_t maze_invocations = 0;
  /// Search-effort counters summed over all maze searches (see MazeStats).
  /// Pure functions of the deterministic search sequence, so thread-count
  /// invariant and metric-safe.
  std::uint64_t maze_nodes_expanded = 0;
  std::uint64_t maze_heap_pushes = 0;
  std::uint64_t maze_window_retries = 0;
  std::uint64_t maze_meets = 0;
  /// Rung-oracle floods (first_routable_rung) and the nodes they expanded;
  /// thread-count invariant like the maze counters.
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_nodes = 0;
  /// Speculative routing waves executed across all passes.
  std::size_t waves = 0;
  /// Pool workers used (1 = sequential).
  std::size_t threads_used = 1;
  double runtime_ms = 0.0;

  // --- convergence telemetry (deterministic: depends only on the
  // canonical segment order, never on thread count) ---
  /// Pending-segment count of each speculative wave, in execution order.
  std::vector<std::size_t> wave_sizes;
  /// Clean speculative paths invalidated by earlier commits of their wave
  /// and pushed to the next wave (summed over all waves).
  std::size_t segments_deferred = 0;
  /// Segments whose FINAL committed route needed >= 1 capacity relaxation.
  std::size_t segments_relaxed = 0;
  /// Segments whose final route exhausted relaxation and fell back to an
  /// unconstrained search.
  std::size_t segments_fallback = 0;
  /// One entry per executed negotiated reroute pass (empty when
  /// reroute_passes == 0 or the first pass found no overflow).
  std::vector<ReroutePassStats> reroute_stats;

  // --- robustness reporting (all empty/false on the clean path) ---
  /// Segments strict_capacity left unrouted after the full relaxation
  /// ladder.
  std::size_t segments_failed = 0;
  /// Wires with at least one unrouted segment, ascending. A wire listed
  /// here keeps the lengths of its routed segments but is incomplete.
  std::vector<std::size_t> failed_wires;
  /// True when RouterOptions::wall_budget_ms cut the reroute passes short.
  bool budget_exhausted = false;
  /// True when the routing differs from the clean path (partial routing,
  /// budget exhaustion, or an injected forced overflow).
  bool degraded = false;
};

/// Routes all wires of the placed netlist. On the default path every wire
/// is guaranteed to be routed (capacity is relaxed as needed), so
/// total_wirelength covers the entire design; with strict_capacity the
/// unroutable residue is reported in failed_wires instead. An empty
/// netlist (no cells or no wires) yields an empty result with a degenerate
/// 1x1 grid.
RoutingResult route(const netlist::Netlist& netlist,
                    const RouterOptions& options = {},
                    const tech::TechnologyModel& tech = tech::default_tech());

}  // namespace autoncs::route

// Overlap legalization — Alg. 4 line 7 ("pushes away the cells to legalize
// the remaining overlap between cells").
//
// After the penalty loop the residual overlap is small, so a deterministic
// pairwise push-apart relaxation is applied: every overlapping pair of
// virtual rectangles is separated along its minimum-penetration axis, the
// lighter (smaller-area) cell moving further, and cells are clamped into
// the die after every pass, until the residual overlap ratio drops below
// the tolerance or the pass budget is exhausted. A pass that finds no
// overlap ends the run only if its clamp moved no cell.
//
// Each pass visits the overlapping pairs (i, j) in ascending (i, j)
// against the evolving state. Row i's candidates come from two live grids
// (place/spatial_grid.hpp: LiveGrid) that hold the current positions of
// the small cells and of the macros, rebinned in O(1) whenever a
// separation or the clamp moves a cell; a row re-collects its candidates
// only after cell i itself changes bucket. Any candidate superset visited
// in ascending j gives the same bits as checking every pair, because
// checking a clear pair moves nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace autoncs::place {

struct LegalizerOptions {
  /// Virtual-width factor (must match the placer's omega).
  double omega = 1.2;
  /// Extra clearance added when separating a pair (um).
  double margin = 0.01;
  std::size_t max_passes = 400;
  /// Stop when overlap_ratio() falls below this.
  double overlap_tolerance = 1e-4;
  /// Half-side of the square die centered at the origin; cells are clamped
  /// inside after every pass. 0 disables clamping.
  double die_half = 0.0;
};

struct LegalizerReport {
  std::size_t passes = 0;
  double final_overlap_ratio = 0.0;
  /// final_overlap_ratio < overlap_tolerance.
  bool converged = false;
  /// Work counters over all passes: pairs the sweep checked against the
  /// current state, and the separations it performed. The ratio is the
  /// sweep's useful work per attempt.
  std::size_t pairs_checked = 0;
  std::size_t separations = 0;
};

/// Separates overlapping cells in `state` (interleaved coordinates).
LegalizerReport legalize(const netlist::Netlist& netlist,
                         std::vector<double>& state,
                         const LegalizerOptions& options = {});

}  // namespace autoncs::place

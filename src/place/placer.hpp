// Analytical placement driver — Algorithm 4 of the paper.
//
//   min WL(x, y) + lambda * D(x, y)
//
// Line 1 initializes cells on a regular grid and sets
// lambda_0 = sum|dWL| / sum|dD|; lines 3-6 repeatedly solve the penalty
// function with conjugate gradient and double lambda until the remaining
// overlap is below the user threshold; line 7 legalizes the residue.
#pragma once

#include <cstdint>

#include "place/conjugate_gradient.hpp"
#include "place/density.hpp"
#include "place/legalizer.hpp"
#include "place/wa_wirelength.hpp"
#include "util/fields.hpp"

namespace autoncs::place {

struct PlacerOptions {
  /// Routing-space factor for virtual widths.
  double omega = 1.2;
  /// Fraction of the square die the virtual cell area should fill; the die
  /// side is sqrt(total virtual area / target_density). Cells straying
  /// outside pay a quadratic penalty scaled by the same lambda as the
  /// density term, so the outline tightens together with overlap removal.
  double target_density = 0.8;
  std::size_t max_outer_iterations = 24;
  CgOptions cg{.max_iterations = 100, .gradient_tolerance = 1e-6};
  LegalizerOptions legalizer{};
  /// Deterministic jitter seed for the initial grid (breaks exact ties).
  std::uint64_t seed = 1;
  /// Worker threads for the WA-wirelength and density gradient evaluation;
  /// 0 = the CPUs the process may run on. The placement is bit-identical
  /// for any value (per-item parallel phase, sequential fixed-order
  /// reduction).
  std::size_t threads = 0;
  /// Wall-clock budget for the outer penalty loop in milliseconds; 0 =
  /// unlimited (the default — clean runs never consult the clock). When
  /// the budget runs out the placer stops after the current outer
  /// iteration, legalizes the best-so-far state and reports
  /// budget_exhausted (a degraded but valid placement).
  double wall_budget_ms = 0.0;
  /// Optional recovery-event sink (CG numerical guards, budget exhaustion,
  /// non-finite state reverts). Null runs the identical guards silently.
  util::RecoveryLog* recovery = nullptr;
};

/// The manifest `config.placer` fields, with the CG and legalizer options
/// flattened under cg_ / legalizer_ names (util/fields.hpp).
template <util::RecordOf<PlacerOptions> Options, class F>
void visit_fields(Options& options, F&& f) {
  auto& [omega, target_density, max_outer_iterations, cg, legalizer, seed,
         threads, wall_budget_ms, recovery] = options;
  auto& [cg_max_iterations, cg_gradient_tolerance, cg_recovery] = cg;
  auto& [legalizer_omega, legalizer_margin, legalizer_max_passes,
         legalizer_overlap_tolerance, legalizer_die_half] = legalizer;
  f("omega", omega);
  f("target_density", target_density);
  f("max_outer_iterations", max_outer_iterations);
  f("cg_max_iterations", cg_max_iterations);
  f("cg_gradient_tolerance", cg_gradient_tolerance);
  f("legalizer_margin", legalizer_margin);
  f("legalizer_max_passes", legalizer_max_passes);
  f("legalizer_overlap_tolerance", legalizer_overlap_tolerance);
  f("threads", threads);
  f("wall_budget_ms", wall_budget_ms);
}

struct BoundingBox {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  double area() const { return width() * height(); }
};

/// Convergence record of one outer penalty iteration (Alg. 4 lines 3-6):
/// the lambda trajectory, the CG effort it took, and how far overlap and
/// wirelength had come when it finished.
struct PlacerOuterStats {
  double lambda = 0.0;
  /// Penalty-function value CG converged to (WL + lambda * D).
  double objective = 0.0;
  double overlap_ratio = 0.0;
  /// Exact unweighted HPWL at this iteration's solution (um).
  double hpwl_um = 0.0;
  std::size_t cg_iterations = 0;
  bool cg_converged = false;
  /// Objective calls this CG run made (every call computes the value).
  std::size_t cg_value_evals = 0;
  /// Objective calls that also computed the gradient (<= cg_value_evals;
  /// with value-only trials, one per accepted step plus the initial point).
  std::size_t cg_gradient_evals = 0;
  /// Density spatial-structure rebuilds during this outer iteration.
  std::size_t density_grid_builds = 0;
};

struct PlacementReport {
  std::size_t outer_iterations = 0;
  double lambda_final = 0.0;
  double overlap_ratio_before_legalization = 0.0;
  /// Per-outer-iteration convergence trajectory, in iteration order.
  std::vector<PlacerOuterStats> outer;
  LegalizerReport legalization;
  /// Exact HPWL of the final placement (um), unweighted.
  double hpwl_um = 0.0;
  /// Chip area: bounding box of the virtual cell extents (um^2) — routing
  /// space is part of the die.
  double area_um2 = 0.0;
  BoundingBox die;
  /// Evaluation-engine effort totals across all outer iterations (the
  /// lambda_0 bootstrap evaluations are not CG calls and are excluded).
  std::size_t cg_value_evals_total = 0;
  std::size_t cg_gradient_evals_total = 0;
  std::size_t density_grid_builds_total = 0;
  /// Index rebuilds that had to grow a buffer (0 in steady state).
  std::size_t density_grid_reallocations = 0;
  /// Density work across all outer iterations (bootstrap excluded, like
  /// the eval totals): candidate pairs handed to the pair kernel, and the
  /// pairs kept inside the softplus tail. Thread-count-invariant. The
  /// legalizer's counterparts are legalization.{pairs_checked,
  /// separations}.
  std::size_t density_pair_candidates_total = 0;
  std::size_t density_pairs_kept_total = 0;
  /// True when PlacerOptions::wall_budget_ms stopped the outer loop early.
  bool budget_exhausted = false;
  /// True when any recovery rung that alters the result fired (budget
  /// exhaustion, CG restart exhaustion, non-finite state revert). The
  /// placement is still valid and legalized — just not the clean-path one.
  bool degraded = false;
};

/// The report fields a placement checkpoint and the manifest's
/// `result.placement` carry, with the legalizer report and the die box
/// flattened under legalization_ / die_ names (util/fields.hpp).
template <util::RecordOf<PlacementReport> Report, class F>
void visit_fields(Report& report, F&& f) {
  auto& [outer_iterations, lambda_final, overlap_ratio_before_legalization,
         outer, legalization, hpwl_um, area_um2, die, cg_value_evals_total,
         cg_gradient_evals_total, density_grid_builds_total,
         density_grid_reallocations, density_pair_candidates_total,
         density_pairs_kept_total, budget_exhausted, degraded] = report;
  auto& [passes, final_overlap_ratio, converged, pairs_checked,
         separations] = legalization;
  auto& [min_x, min_y, max_x, max_y] = die;
  f("outer_iterations", outer_iterations);
  f("lambda_final", lambda_final);
  f("overlap_ratio_before_legalization", overlap_ratio_before_legalization);
  f("legalization_passes", passes);
  f("legalization_final_overlap", final_overlap_ratio);
  f("legalization_converged", converged);
  f("hpwl_um", hpwl_um);
  f("area_um2", area_um2);
  f("die_min_x", min_x);
  f("die_min_y", min_y);
  f("die_max_x", max_x);
  f("die_max_y", max_y);
  f("cg_value_evals_total", cg_value_evals_total);
  f("cg_gradient_evals_total", cg_gradient_evals_total);
  f("density_grid_builds_total", density_grid_builds_total);
  f("density_grid_reallocations", density_grid_reallocations);
  f("density_pair_candidates_total", density_pair_candidates_total);
  f("density_pairs_kept_total", density_pairs_kept_total);
  f("legalization_pairs_checked", pairs_checked);
  f("legalization_separations", separations);
  f("budget_exhausted", budget_exhausted);
  f("degraded", degraded);
}

/// Places `netlist` in-place (cell x/y updated) and reports the outcome.
PlacementReport place(netlist::Netlist& netlist, const PlacerOptions& options = {});

/// Quadratic out-of-die penalty, sharing lambda with the density term.
/// Returns the penalty; accumulates into `gradient` when nonnull (nullptr
/// is the value-only mode — same value, no gradient work).
double boundary_penalty(const netlist::Netlist& netlist,
                        const std::vector<double>& state, double omega,
                        double die_half, std::vector<double>* gradient);

/// Bounding box of the placed cells' virtual extents.
BoundingBox placement_bounding_box(const netlist::Netlist& netlist, double omega);

}  // namespace autoncs::place

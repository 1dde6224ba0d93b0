#include "place/placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace autoncs::place {

namespace {

/// WA smoothness gamma (um).
constexpr double kWaGamma = 2.0;
/// Softplus sharpness of the density model (1/um).
constexpr double kDensityBeta = 16.0;
/// The outer loop stops once overlap_ratio() <= this (Alg. 4 line 6).
constexpr double kOverlapStopRatio = 0.03;
/// lambda multiplier per outer iteration (Alg. 4 line 5).
constexpr double kLambdaGrowth = 2.0;

/// Regular-grid initial placement (Alg. 4 line 1) within the die, with a
/// small deterministic jitter so symmetric configurations don't stall CG.
void initial_grid(netlist::Netlist& netlist, double die_side, std::uint64_t seed) {
  const std::size_t n = netlist.cells.size();
  if (n == 0) return;
  const auto cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double pitch = die_side / static_cast<double>(cols);
  util::Rng rng(seed);
  for (std::size_t c = 0; c < n; ++c) {
    const double gx = static_cast<double>(c % cols);
    const double gy = static_cast<double>(c / cols);
    netlist.cells[c].x =
        (gx + 0.5) * pitch - 0.5 * die_side + rng.uniform(-0.05, 0.05) * pitch;
    netlist.cells[c].y =
        (gy + 0.5) * pitch - 0.5 * die_side + rng.uniform(-0.05, 0.05) * pitch;
  }
}

double sum_abs(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += std::abs(x);
  return acc;
}

}  // namespace

double boundary_penalty(const netlist::Netlist& netlist,
                        const std::vector<double>& state, double omega,
                        double die_half, std::vector<double>* gradient) {
  double total = 0.0;
  for (std::size_t c = 0; c < netlist.cells.size(); ++c) {
    const auto& cell = netlist.cells[c];
    const double limit_x =
        std::max(0.0, die_half - 0.5 * omega * cell.width);
    const double limit_y =
        std::max(0.0, die_half - 0.5 * omega * cell.height);
    for (int axis = 0; axis < 2; ++axis) {
      const double v = state[2 * c + static_cast<std::size_t>(axis)];
      const double limit = axis == 0 ? limit_x : limit_y;
      const double excess = std::abs(v) - limit;
      if (excess <= 0.0) continue;
      total += excess * excess;
      if (gradient != nullptr) {
        (*gradient)[2 * c + static_cast<std::size_t>(axis)] +=
            2.0 * excess * (v > 0.0 ? 1.0 : -1.0);
      }
    }
  }
  return total;
}

BoundingBox placement_bounding_box(const netlist::Netlist& netlist, double omega) {
  BoundingBox box;
  if (netlist.cells.empty()) return box;
  box.min_x = box.min_y = std::numeric_limits<double>::infinity();
  box.max_x = box.max_y = -std::numeric_limits<double>::infinity();
  for (const auto& cell : netlist.cells) {
    const double hw = 0.5 * omega * cell.width;
    const double hh = 0.5 * omega * cell.height;
    box.min_x = std::min(box.min_x, cell.x - hw);
    box.max_x = std::max(box.max_x, cell.x + hw);
    box.min_y = std::min(box.min_y, cell.y - hh);
    box.max_y = std::max(box.max_y, cell.y + hh);
  }
  return box;
}

PlacementReport place(netlist::Netlist& netlist, const PlacerOptions& options) {
  AUTONCS_TRACE_SCOPE("place");
  AUTONCS_CHECK(netlist.validate().empty(), "netlist failed validation");
  AUTONCS_CHECK(!netlist.cells.empty(), "cannot place an empty netlist");

  AUTONCS_CHECK(options.target_density > 0.0 && options.target_density <= 1.0,
                "target density must be in (0, 1]");
  double virtual_area = 0.0;
  for (const auto& cell : netlist.cells)
    virtual_area += options.omega * cell.width * options.omega * cell.height;
  const double die_side = std::sqrt(virtual_area / options.target_density);
  const double die_half = 0.5 * die_side;

  initial_grid(netlist, die_side, options.seed);
  std::vector<double> state = pack_positions(netlist);

  CgOptions cg_options = options.cg;
  cg_options.recovery = options.recovery;
  util::ThreadPool pool(options.threads, "place");
  WaModel wl_model(netlist, kWaGamma, &pool);
  DensityModel density_model(netlist, options.omega, kDensityBeta, &pool);
  // lambda_0 = sum |dWL| / sum |dD| at the initial placement.
  std::vector<double> grad_wl(state.size(), 0.0);
  std::vector<double> grad_d(state.size(), 0.0);
  wl_model.evaluate(state, &grad_wl);
  density_model.evaluate(state, &grad_d);
  const double denom = sum_abs(grad_d);
  double lambda = denom > 0.0 ? sum_abs(grad_wl) / denom : 1.0;
  if (lambda <= 0.0) lambda = 1.0;

  PlacementReport report;
  const std::size_t candidates_at_start = density_model.pair_candidates();
  const std::size_t kept_at_start = density_model.pairs_kept();
  const auto record = [&](const char* point, const char* action,
                          bool recovered, bool alters_result,
                          std::string detail) {
    if (options.recovery != nullptr)
      options.recovery->record({"placement", point, action, recovered,
                                alters_result, std::move(detail)});
  };
  const auto budget_start = std::chrono::steady_clock::now();
  // Snapshot of the last known-finite state, restored if an outer
  // iteration ever produces a non-finite coordinate.
  std::vector<double> finite_state = state;
  // Density + boundary gradient scratch, hoisted out of the objective so
  // the CG loop performs no per-evaluation allocation.
  std::vector<double> dgrad;
  for (std::size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    AUTONCS_TRACE_SCOPE("place/outer", "iter",
                        static_cast<std::int64_t>(outer + 1));
    report.outer_iterations = outer + 1;
    const double lambda_now = lambda;
    const std::size_t grid_builds_at_start = density_model.grid_builds();
    const Objective objective = [&](const std::vector<double>& x,
                                    std::vector<double>* gradient) {
      if (gradient == nullptr) {
        // Value-only line-search trial: same terms, same FP operation
        // order as below, with all gradient work skipped.
        const double wl = wl_model.evaluate(x, nullptr);
        double d = density_model.evaluate(x, nullptr);
        d += boundary_penalty(netlist, x, options.omega, die_half, nullptr);
        return wl + lambda_now * d;
      }
      dgrad.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        (*gradient)[i] = 0.0;
        dgrad[i] = 0.0;
      }
      const double wl = wl_model.evaluate(x, gradient);
      // Density + boundary gradients accumulate unscaled into the scratch
      // vector, then fold in scaled by lambda.
      double d = density_model.evaluate(x, &dgrad);
      d += boundary_penalty(netlist, x, options.omega, die_half, &dgrad);
      for (std::size_t i = 0; i < gradient->size(); ++i)
        (*gradient)[i] += lambda_now * dgrad[i];
      return wl + lambda_now * d;
    };
    const CgResult cg = [&] {
      AUTONCS_TRACE_SCOPE("place/cg");
      return minimize_cg(state, objective, cg_options);
    }();
    if (cg.degraded) report.degraded = true;
    // Stage-boundary finite sweep: CG's own guards make a non-finite state
    // unreachable from finite input, so this catches model-level poisoning
    // before it reaches legalization. Revert to the last finite snapshot
    // and stop with the best placement that exists.
    bool state_finite = true;
    for (double v : state)
      if (!std::isfinite(v)) {
        state_finite = false;
        break;
      }
    if (!state_finite) {
      state = finite_state;
      record("placement.nonfinite_state", "revert", true, true,
             "outer iteration " + std::to_string(outer + 1) +
                 " produced non-finite coordinates; reverted to the last "
                 "finite state");
      report.degraded = true;
      break;
    }
    finite_state = state;
    const double ratio = overlap_ratio(netlist, state, options.omega);
    util::LogLine(util::LogLevel::kInfo, "place")
        << "outer " << outer + 1 << ": lambda=" << lambda_now
        << " f=" << cg.value << " overlap=" << ratio;
    PlacerOuterStats stats;
    stats.lambda = lambda_now;
    stats.objective = cg.value;
    stats.overlap_ratio = ratio;
    stats.hpwl_um = hpwl(netlist, state);
    stats.cg_iterations = cg.iterations;
    stats.cg_converged = cg.converged;
    stats.cg_value_evals = cg.value_evaluations;
    stats.cg_gradient_evals = cg.gradient_evaluations;
    stats.density_grid_builds =
        density_model.grid_builds() - grid_builds_at_start;
    report.cg_value_evals_total += stats.cg_value_evals;
    report.cg_gradient_evals_total += stats.cg_gradient_evals;
    report.density_grid_builds_total += stats.density_grid_builds;
    report.outer.push_back(stats);
    report.lambda_final = lambda_now;
    report.overlap_ratio_before_legalization = ratio;
    if (ratio <= kOverlapStopRatio) break;
    if (options.wall_budget_ms > 0.0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - budget_start)
              .count();
      if (elapsed_ms >= options.wall_budget_ms) {
        record("placement.wall_budget", "budget_exhausted", true, true,
               "outer loop stopped after " + std::to_string(outer + 1) +
                   " iterations, overlap " + std::to_string(ratio));
        report.budget_exhausted = true;
        report.degraded = true;
        break;
      }
    }
    lambda *= kLambdaGrowth;
  }

  LegalizerOptions legal = options.legalizer;
  legal.omega = options.omega;
  legal.die_half = die_half;
  {
    AUTONCS_TRACE_SCOPE("place/legalize");
    report.legalization = legalize(netlist, state, legal);
  }

  unpack_positions(state, netlist);
  report.hpwl_um = hpwl(netlist, state);
  report.die = placement_bounding_box(netlist, options.omega);
  report.area_um2 = report.die.area();
  report.density_grid_reallocations = density_model.grid_reallocations();
  report.density_pair_candidates_total =
      density_model.pair_candidates() - candidates_at_start;
  report.density_pairs_kept_total = density_model.pairs_kept() - kept_at_start;
  // Memory accounting: objective scratch/cache footprints, including the
  // pool-dependent buffers (WA pin index, parallel pair scratch).
  util::mem_record_bytes("place/wa_model", wl_model.footprint_bytes());
  util::mem_record_bytes("place/density_model",
                         density_model.footprint_bytes());
  return report;
}

}  // namespace autoncs::place

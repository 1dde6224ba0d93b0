// Flow configuration: one struct bundling every stage's options, with the
// paper's experimental defaults (crossbar sizes 16..64 step 4, alpha = beta
// = delta = 1, ISC threshold tied to the FullCro baseline utilization).
//
// Each setting has exactly one field. visit_fields(FlowConfig) below is the
// config view, every field that can change a result: it is the run
// manifest's `config` object, which checkpoint::config_hash hashes
// (docs/observability.md). Solver constants that no caller sets (WA gamma,
// density beta, the lambda schedule, the Armijo line search, the routing
// ladder) are named constants in the one .cpp that reads them, not options.
// Stage wall-clock budgets live on the stages: isc / placer /
// router.wall_budget_ms (docs/robustness.md).
//
// Members the visitors bind but do not visit (util/fields.hpp), and why:
//   - seed, threads: written at the manifest's top level; checkpoints
//     stamp the seed in their header.
//   - telemetry, checkpoint, cancel: none can change a completed run.
//   - the stages' recovery pointers: event sinks the pipeline and place()
//     set; they record, not steer.
//   - placer.seed, placer.legalizer.omega / die_half: the pipeline and
//     place() overwrite them (from FlowConfig::seed, placer.omega, the die).
//   - PlacementReport::outer: the per-iteration trajectory, carried by the
//     metrics series; checkpoints do not keep it.
//   - RoutingResult::wires, grid: the routed paths and the congestion grid,
//     far larger than a manifest should be; the summary fields describe
//     them.
//   - RoutingResult::wave_sizes: the per-wave series, carried by the
//     metrics series like PlacementReport::outer.
//   - RoutingResult::runtime_ms: timings_ms.routing holds the stage time.
#pragma once

#include <atomic>
#include <cstdint>

#include "autoncs/checkpoint.hpp"
#include "autoncs/telemetry.hpp"
#include "clustering/isc.hpp"
#include "place/placer.hpp"
#include "place/refine.hpp"
#include "route/router.hpp"
#include "tech/cost.hpp"
#include "tech/tech_model.hpp"
#include "util/check.hpp"
#include "util/fields.hpp"

namespace autoncs {

struct FlowConfig {
  clustering::IscOptions isc{};
  /// When true (default), isc.utilization_threshold is replaced by the
  /// average crossbar utilization of the FullCro baseline on the same
  /// network (Sec. 4.2's stopping rule).
  bool derive_threshold_from_baseline = true;
  /// Crossbar size of the FullCro baseline (the maximum available size).
  std::size_t baseline_crossbar_size = 64;

  place::PlacerOptions placer{};
  /// Extension (ablation A9): run the greedy detailed-placement refinement
  /// (swap/relocate) between legalization and routing. Never worsens the
  /// weighted HPWL; off by default to keep the paper's flow.
  bool refine_placement = false;
  route::RouterOptions router{};
  tech::TechnologyModel tech{};
  tech::CostWeights cost_weights{};

  /// Master seed for the flow's stochastic components.
  std::uint64_t seed = 2015;

  /// Worker threads for the parallel clustering / placement / routing hot
  /// paths; 0 = the CPUs the process may run on. Copied into isc.threads /
  /// placer.threads / router.threads by the pipeline unless those are set
  /// (nonzero) themselves. Results are bit-identical for any value (see
  /// docs/threading.md).
  std::size_t threads = 0;

  /// Telemetry sinks (trace / metrics / manifest paths). All empty by
  /// default: the flow runs with every instrumentation point reduced to a
  /// relaxed atomic load, and outputs are bit-identical either way (see
  /// docs/observability.md).
  TelemetryOptions telemetry{};

  /// Checkpoint/resume policy (docs/robustness.md). Empty dir = off.
  CheckpointOptions checkpoint{};

  /// Cooperative cancellation token (docs/service.md). When non-null the
  /// pipeline polls the flag at every stage boundary and aborts the run
  /// with ResourceError("resource.deadline") once it is set — this is how
  /// the resident service's deadline watchdog cancels a job between
  /// stages (in-stage hangs are bounded by the stages' wall_budget_ms).
  /// Null (the default) is never consulted; like the telemetry sinks this
  /// cannot change a completed run's results, so it is excluded from the
  /// config hash and checkpoints stay compatible across attempts.
  const std::atomic<bool>* cancel = nullptr;
};

/// The range of the largest crossbar size a run may ask for (the CLI's
/// --max-size, the service's max_size).
inline constexpr std::size_t kMinMaxCrossbarSize = 4;
inline constexpr std::size_t kMaxMaxCrossbarSize = 1024;

/// Sets the crossbar library for a largest size `max_size` in
/// [kMinMaxCrossbarSize, kMaxMaxCrossbarSize]: the FullCro baseline uses
/// max_size crossbars, and ISC the sizes 16, 20, ..., max_size, or just
/// {max_size} below 16, so both flows share the largest size.
inline void set_max_crossbar_size(FlowConfig& config, std::size_t max_size) {
  AUTONCS_CHECK(max_size >= kMinMaxCrossbarSize &&
                    max_size <= kMaxMaxCrossbarSize,
                "largest crossbar size out of range");
  config.baseline_crossbar_size = max_size;
  config.isc.crossbar_sizes.clear();
  if (max_size < 16) config.isc.crossbar_sizes.push_back(max_size);
  for (std::size_t s = 16; s <= max_size; s += 4)
    config.isc.crossbar_sizes.push_back(s);
}

/// The config view: the manifest `config` object and the config hash.
template <util::RecordOf<FlowConfig> Config, class F>
void visit_fields(Config& config, F&& f) {
  auto& [isc, derive_threshold_from_baseline, baseline_crossbar_size, placer,
         refine_placement, router, tech, cost_weights, seed, threads,
         telemetry, checkpoint, cancel] = config;
  f("isc", isc);
  f("derive_threshold_from_baseline", derive_threshold_from_baseline);
  f("baseline_crossbar_size", baseline_crossbar_size);
  f("placer", placer);
  f("refine_placement", refine_placement);
  f("router", router);
  f("tech", tech);
  f("cost_weights", cost_weights);
}

}  // namespace autoncs

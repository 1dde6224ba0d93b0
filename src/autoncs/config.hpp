// Flow configuration: one struct bundling every stage's options, with the
// paper's experimental defaults (crossbar sizes 16..64 step 4, alpha = beta
// = delta = 1, ISC threshold tied to the FullCro baseline utilization).
#pragma once

#include <atomic>
#include <cstdint>

#include "autoncs/checkpoint.hpp"
#include "autoncs/recovery.hpp"
#include "autoncs/telemetry.hpp"
#include "clustering/isc.hpp"
#include "place/placer.hpp"
#include "place/refine.hpp"
#include "route/router.hpp"
#include "tech/cost.hpp"
#include "tech/tech_model.hpp"

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

  /// Per-stage wall-clock budgets (docs/robustness.md). All zero by
  /// default: no stage consults the clock and results are bit-identical
  /// to a budget-free build. Filled into the per-stage wall_budget_ms
  /// options by the pipeline unless those are set (nonzero) themselves.
  StageBudget stage_budget{};

  /// Checkpoint/resume policy (docs/robustness.md). Empty dir = off.
  CheckpointOptions checkpoint{};

  /// Cooperative cancellation token (docs/service.md). When non-null the
  /// pipeline polls the flag at every stage boundary and aborts the run
  /// with ResourceError("resource.deadline") once it is set — this is how
  /// the resident service's deadline watchdog cancels a job between
  /// stages (in-stage hangs are bounded by stage_budget). Null (the
  /// default) is never consulted; like the telemetry sinks this cannot
  /// change a completed run's results, so it is excluded from the config
  /// hash and checkpoints stay compatible across attempts.
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace autoncs

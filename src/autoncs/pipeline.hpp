// End-to-end AutoNCS flow (Fig. 2 of the paper):
//   network -> ISC (MSC + GCP, partial selection) -> hybrid mapping
//           -> netlist -> analytical placement -> maze routing
//           -> physical cost (Eq. 3),
// plus the FullCro brute-force baseline flow that shares the physical
// back end.
#pragma once

#include <optional>

#include "autoncs/config.hpp"
#include "clustering/isc.hpp"
#include "mapping/hybrid_mapping.hpp"
#include "netlist/netlist.hpp"
#include "nn/connection_matrix.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "tech/cost.hpp"
#include "util/error.hpp"
#include "util/fields.hpp"

namespace autoncs {

/// Wall-clock per stage, for throughput reporting and the thread-scaling
/// bench. Stages that did not run (e.g. clustering in run_physical_design)
/// stay at zero.
struct StageTimings {
  double clustering_ms = 0.0;
  /// Clustering breakdown (subsets of clustering_ms): eigensolver,
  /// k-means/GCP, and the optional packing pass.
  double clustering_embedding_ms = 0.0;
  double clustering_kmeans_ms = 0.0;
  double clustering_packing_ms = 0.0;
  double netlist_ms = 0.0;
  double placement_ms = 0.0;
  double routing_ms = 0.0;
  double total_ms = 0.0;
};

/// The manifest `timings_ms` fields (util/fields.hpp).
template <util::RecordOf<StageTimings> Timings, class F>
void visit_fields(Timings& timings, F&& f) {
  auto& [clustering_ms, clustering_embedding_ms, clustering_kmeans_ms,
         clustering_packing_ms, netlist_ms, placement_ms, routing_ms,
         total_ms] = timings;
  f("clustering", clustering_ms);
  f("clustering_embedding", clustering_embedding_ms);
  f("clustering_kmeans", clustering_kmeans_ms);
  f("clustering_packing", clustering_packing_ms);
  f("netlist", netlist_ms);
  f("placement", placement_ms);
  f("routing", routing_ms);
  f("total", total_ms);
}

struct FlowResult {
  mapping::HybridMapping mapping;
  /// Clustering telemetry; absent for the FullCro baseline.
  std::optional<clustering::IscResult> isc;
  /// Placed netlist (cell coordinates are final).
  netlist::Netlist netlist;
  place::PlacementReport placement;
  route::RoutingResult routing;
  tech::PhysicalCost cost;
  StageTimings timings;

  // --- robustness reporting (docs/robustness.md) ---
  /// Recovery-ladder events from every stage, in execution order
  /// (clustering first). Empty on the clean path.
  util::RecoveryLog recovery;
  /// True when any stage returned a non-clean-path result (ladder rung
  /// that alters the result, budget exhaustion, partial routing). The
  /// result is still complete and valid — just not bit-identical to an
  /// unperturbed run.
  bool degraded = false;
  /// True when the run restarted from a checkpoint instead of recomputing
  /// the stages before it.
  bool resumed = false;
};

/// Runs the physical back end (netlist build, place, route, cost) on an
/// existing mapping. Shared by both flows. Throws util::NumericalError
/// when a non-finite value crosses a stage boundary after every in-stage
/// recovery rung was exhausted (see docs/robustness.md).
FlowResult run_physical_design(mapping::HybridMapping mapping,
                               const FlowConfig& config);

/// Full AutoNCS flow on `network`. Throws CheckError if the produced
/// mapping fails validation against the network (internal invariant) and
/// util::FlowError subtypes for runtime failures past every recovery rung.
/// With config.checkpoint set, saves restart points after clustering and
/// placement, and — when checkpoint.resume is true — restarts from the
/// furthest compatible one (result.resumed), reproducing the original
/// run's outputs bit-exactly.
FlowResult run_autoncs(const nn::ConnectionMatrix& network,
                       const FlowConfig& config = {});

/// FullCro baseline: maximum-size crossbars only, same back end.
FlowResult run_fullcro(const nn::ConnectionMatrix& network,
                       const FlowConfig& config = {});

/// Clustering front end only (no physical design) — used by the figure
/// benches that analyze ISC behaviour. `recovery` optionally collects the
/// embedding ladder / budget events (run_autoncs passes the flow log).
clustering::IscResult run_isc(const nn::ConnectionMatrix& network,
                              const FlowConfig& config = {},
                              util::RecoveryLog* recovery = nullptr);

}  // namespace autoncs

#include "autoncs/pipeline.hpp"

#include <utility>

#include "autoncs/checkpoint.hpp"
#include "autoncs/recovery.hpp"
#include "autoncs/telemetry.hpp"
#include "mapping/fullcro.hpp"
#include "netlist/builder.hpp"
#include "place/refine.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace autoncs {

namespace {

/// Stage-boundary cancellation poll (docs/service.md): one relaxed load
/// when a token is installed, nothing otherwise. Cancellation is
/// deliberately cooperative and coarse — it fires between stages, where
/// no partial state can leak, while each stage's wall_budget_ms bounds the
/// time spent inside it.
void throw_if_cancelled(const FlowConfig& config, const char* stage) {
  if (config.cancel != nullptr &&
      config.cancel->load(std::memory_order_relaxed)) {
    throw util::ResourceError(
        "resource.deadline", stage,
        std::string("job cancelled at the ") + stage +
            " stage boundary (deadline/watchdog)");
  }
}

/// Shared physical back end. `restored` carries a loaded placement
/// checkpoint (positions + report; its mapping member has already been
/// moved into `mapping`): the placement stage is skipped and the saved
/// coordinates are applied to the freshly rebuilt netlist instead.
FlowResult physical_design(mapping::HybridMapping mapping,
                           const FlowConfig& config,
                           const checkpoint::PlacementState* restored) {
  util::WallTimer stage;
  FlowResult result;
  result.mapping = std::move(mapping);
  throw_if_cancelled(config, "netlist");
  if (AUTONCS_FAULT_POINT("flow.bad_alloc"))
    throw util::ResourceError("resource.bad_alloc", "flow",
                              "injected allocation failure while building "
                              "the netlist");
  {
    AUTONCS_TRACE_SCOPE("flow/netlist");
    util::set_log_stage("netlist");
    result.netlist = netlist::build_netlist(result.mapping, config.tech);
  }
  recovery::check_netlist_finite(result.netlist, "netlist");
  result.timings.netlist_ms = stage.elapsed_ms();
  util::mem_stage_sample("netlist");

  throw_if_cancelled(config, "placement");
  stage.restart();
  if (restored != nullptr) {
    // The netlist builder is deterministic given the mapping, so the saved
    // positions apply index-for-index; a count mismatch means the
    // checkpoint does not belong to this mapping.
    if (restored->x.size() != result.netlist.cells.size())
      throw util::InputError(
          "input.checkpoint", "flow",
          "placement checkpoint position count does not match the netlist");
    for (std::size_t i = 0; i < result.netlist.cells.size(); ++i) {
      result.netlist.cells[i].x = restored->x[i];
      result.netlist.cells[i].y = restored->y[i];
    }
    result.placement = restored->report;
    result.resumed = true;
  } else {
    place::PlacerOptions placer = config.placer;
    placer.seed = config.seed;
    if (placer.threads == 0) placer.threads = config.threads;
    placer.recovery = &result.recovery;
    {
      AUTONCS_TRACE_SCOPE("flow/place");
      util::set_log_stage("placement");
      result.placement = place::place(result.netlist, placer);

      if (config.refine_placement) {
        AUTONCS_TRACE_SCOPE("place/refine");
        place::RefineOptions refine;
        refine.omega = placer.omega;
        place::refine_placement(result.netlist, refine);
        // The die box may have tightened; re-derive the area from the
        // refined positions.
        result.placement.die =
            place::placement_bounding_box(result.netlist, placer.omega);
        result.placement.area_um2 = result.placement.die.area();
      }
    }
  }
  recovery::check_netlist_finite(result.netlist, "placement");
  result.timings.placement_ms = stage.elapsed_ms();
  util::mem_stage_sample("placement");

  if (!config.checkpoint.dir.empty() && restored == nullptr) {
    checkpoint::save_placement(config.checkpoint.dir, config, result.mapping,
                               result.netlist, result.placement);
  }
  if (AUTONCS_FAULT_POINT("flow.crash_after_placement"))
    throw util::InternalError("internal.injected_crash", "flow",
                              "injected crash between placement and routing");

  throw_if_cancelled(config, "routing");
  route::RouterOptions router = config.router;
  if (router.threads == 0) router.threads = config.threads;
  router.recovery = &result.recovery;
  stage.restart();
  {
    AUTONCS_TRACE_SCOPE("flow/route");
    util::set_log_stage("routing");
    result.routing = route::route(result.netlist, router, config.tech);
  }
  recovery::check_routing_finite(result.routing);
  result.timings.routing_ms = stage.elapsed_ms();
  util::mem_stage_sample("routing");
  util::set_log_stage(nullptr);
  result.timings.total_ms = result.timings.netlist_ms +
                            result.timings.placement_ms +
                            result.timings.routing_ms;

  result.cost.total_wirelength_um = result.routing.total_wirelength_um;
  result.cost.area_um2 = result.placement.area_um2;
  result.cost.average_delay_ns = result.routing.average_delay_ns;
  result.degraded = result.placement.degraded || result.routing.degraded ||
                    result.recovery.degraded();
  return result;
}

}  // namespace

FlowResult run_physical_design(mapping::HybridMapping mapping,
                               const FlowConfig& config) {
  return physical_design(std::move(mapping), config, nullptr);
}

clustering::IscResult run_isc(const nn::ConnectionMatrix& network,
                              const FlowConfig& config,
                              util::RecoveryLog* recovery) {
  clustering::IscOptions isc = config.isc;
  if (isc.threads == 0) isc.threads = config.threads;
  if (isc.recovery == nullptr) isc.recovery = recovery;
  if (config.derive_threshold_from_baseline) {
    isc.utilization_threshold = mapping::fullcro_utilization_threshold(
        network, {config.baseline_crossbar_size, true});
    util::LogLine(util::LogLevel::kInfo, "flow")
        << "ISC threshold t = baseline utilization = "
        << isc.utilization_threshold;
  }
  util::Rng rng(config.seed);
  return clustering::iterative_spectral_clustering(network, isc, rng);
}

FlowResult run_autoncs(const nn::ConnectionMatrix& network,
                       const FlowConfig& config) {
  // Inert when the CLI (or a test) already opened an outer session.
  telemetry::Session session(config.telemetry);
  AUTONCS_TRACE_SCOPE("flow/autoncs");

  // Incompatible-checkpoint events recorded while probing restart points;
  // they are prepended to whichever path (resumed or full recompute) the
  // flow takes, so the manifest shows WHY a --resume run recomputed.
  util::RecoveryLog resume_log;
  if (config.checkpoint.resume && !config.checkpoint.dir.empty()) {
    if (auto placed = checkpoint::load_placement(
            config.checkpoint.dir, config, network, &resume_log)) {
      // physical_design only reads positions + report from the restored
      // state; the mapping member is handed over separately.
      mapping::HybridMapping restored_mapping = std::move(placed->mapping);
      FlowResult result =
          physical_design(std::move(restored_mapping), config, &*placed);
      util::RecoveryLog combined = std::move(resume_log);
      combined.merge(result.recovery);
      result.recovery = std::move(combined);
      telemetry::Session::record_manifest(config, result, "autoncs");
      return result;
    }
    if (auto restored = checkpoint::load_clustering(
            config.checkpoint.dir, config, network, &resume_log)) {
      FlowResult result = physical_design(std::move(*restored), config,
                                          nullptr);
      result.resumed = true;
      util::RecoveryLog combined = std::move(resume_log);
      combined.merge(result.recovery);
      result.recovery = std::move(combined);
      telemetry::Session::record_manifest(config, result, "autoncs");
      return result;
    }
    // Neither checkpoint was usable; load_* already logged why (and
    // resume_log carries the structured events). Fall through to the
    // full run.
  }

  throw_if_cancelled(config, "clustering");
  util::WallTimer stage;
  util::RecoveryLog clustering_log;
  clustering::IscResult isc = [&] {
    AUTONCS_TRACE_SCOPE("flow/clustering");
    util::set_log_stage("clustering");
    return run_isc(network, config, &clustering_log);
  }();
  util::mem_stage_sample("clustering");
  mapping::HybridMapping hybrid =
      mapping::mapping_from_isc(isc, network.size());
  const std::string error = mapping::validate_mapping(hybrid, network);
  AUTONCS_CHECK(error.empty(), "AutoNCS mapping invalid: " + error);
  const double clustering_ms = stage.elapsed_ms();

  if (!config.checkpoint.dir.empty())
    checkpoint::save_clustering(config.checkpoint.dir, config, hybrid);

  FlowResult result = physical_design(std::move(hybrid), config, nullptr);
  result.timings.clustering_ms = clustering_ms;
  result.timings.clustering_embedding_ms = isc.timings.embedding_ms;
  result.timings.clustering_kmeans_ms = isc.timings.kmeans_ms;
  result.timings.clustering_packing_ms = isc.timings.packing_ms;
  result.isc = std::move(isc);
  result.timings.total_ms += clustering_ms;
  // Checkpoint-probe events first, then clustering's ladder events, then
  // the back end's — execution order.
  util::RecoveryLog combined = std::move(resume_log);
  combined.merge(clustering_log);
  combined.merge(result.recovery);
  result.recovery = std::move(combined);
  if (result.recovery.degraded()) result.degraded = true;
  telemetry::Session::record_manifest(config, result, "autoncs");
  return result;
}

FlowResult run_fullcro(const nn::ConnectionMatrix& network,
                       const FlowConfig& config) {
  telemetry::Session session(config.telemetry);
  AUTONCS_TRACE_SCOPE("flow/fullcro");
  mapping::HybridMapping baseline = mapping::fullcro_mapping(
      network, {config.baseline_crossbar_size, true});
  const std::string error = mapping::validate_mapping(baseline, network);
  AUTONCS_CHECK(error.empty(), "FullCro mapping invalid: " + error);
  // The baseline shares the back end's guards and budgets but not the
  // checkpoint files — they hold AutoNCS state.
  FlowConfig baseline_config = config;
  baseline_config.checkpoint = {};
  FlowResult result =
      physical_design(std::move(baseline), baseline_config, nullptr);
  telemetry::Session::record_manifest(config, result, "fullcro");
  return result;
}

}  // namespace autoncs

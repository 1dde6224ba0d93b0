#include "autoncs/telemetry.hpp"

#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

#include "autoncs/pipeline.hpp"
#include "linalg/eigen_dispatch.hpp"
#include "util/flight.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

#ifndef AUTONCS_BUILD_TYPE
#define AUTONCS_BUILD_TYPE "unknown"
#endif

namespace autoncs::telemetry {

namespace {

/// The owning session, if any. Sessions are constructed from sequential
/// driver code (CLI main, pipeline entry points), so a plain pointer is
/// sufficient.
Session* g_active = nullptr;

const char* preference_name(clustering::PreferenceKind kind) {
  switch (kind) {
    case clustering::PreferenceKind::kPaper:
      return "paper";
    case clustering::PreferenceKind::kUtilization:
      return "utilization";
    case clustering::PreferenceKind::kConnectionsPerRow:
      return "connections_per_row";
  }
  return "unknown";
}

const char* solver_name(clustering::EmbeddingSolver solver) {
  switch (solver) {
    case clustering::EmbeddingSolver::kAuto:
      return "auto";
    case clustering::EmbeddingSolver::kDense:
      return "dense";
    case clustering::EmbeddingSolver::kLanczos:
      return "lanczos";
  }
  return "unknown";
}

void write_config_object(util::JsonWriter& w, const FlowConfig& config) {
  w.begin_object();

  w.key("isc").begin_object();
  w.key("crossbar_sizes").begin_array();
  for (std::size_t s : config.isc.crossbar_sizes) w.value(s);
  w.end_array();
  w.field("utilization_threshold", config.isc.utilization_threshold)
      .field("selection_fraction", config.isc.selection_fraction)
      .field("max_iterations", config.isc.max_iterations)
      .field("preference", preference_name(config.isc.preference))
      .field("pack_clusters", config.isc.pack_clusters)
      .field("pack_limit", config.isc.pack_limit)
      .field("size_by_demand", config.isc.size_by_demand)
      .field("embedding_solver", solver_name(config.isc.embedding_solver))
      .field("dense_fallback_n", config.isc.dense_fallback_n)
      .field("threads", config.isc.threads);
  w.end_object();
  w.field("derive_threshold_from_baseline",
          config.derive_threshold_from_baseline)
      .field("baseline_crossbar_size", config.baseline_crossbar_size);

  w.key("placer").begin_object();
  w.field("gamma", config.placer.gamma)
      .field("omega", config.placer.omega)
      .field("beta", config.placer.beta)
      .field("target_density", config.placer.target_density)
      .field("overlap_stop_ratio", config.placer.overlap_stop_ratio)
      .field("max_outer_iterations", config.placer.max_outer_iterations)
      .field("lambda_growth", config.placer.lambda_growth)
      .field("cg_max_iterations", config.placer.cg.max_iterations)
      .field("cg_gradient_tolerance", config.placer.cg.gradient_tolerance)
      .field("cg_armijo_c1", config.placer.cg.armijo_c1)
      .field("cg_backtrack", config.placer.cg.backtrack)
      .field("cg_max_backtracks", config.placer.cg.max_backtracks)
      .field("cg_initial_step", config.placer.cg.initial_step)
      .field("cg_max_recovery_restarts", config.placer.cg.max_recovery_restarts)
      .field("legalizer_margin", config.placer.legalizer.margin)
      .field("legalizer_max_passes", config.placer.legalizer.max_passes)
      .field("legalizer_overlap_tolerance",
             config.placer.legalizer.overlap_tolerance)
      .field("threads", config.placer.threads);
  w.end_object();
  w.field("refine_placement", config.refine_placement);

  w.key("router").begin_object();
  w.field("theta", config.router.theta)
      .field("decomposition",
             config.router.decomposition == route::MultiPinDecomposition::kMst
                 ? "mst"
                 : "star")
      .field("capacity_per_um", config.router.capacity_per_um)
      .field("congestion_penalty", config.router.congestion_penalty)
      .field("capacity_limit_factor", config.router.capacity_limit_factor)
      .field("relax_factor", config.router.relax_factor)
      .field("max_relax_steps", config.router.max_relax_steps)
      .field("margin_bins", config.router.margin_bins)
      .field("window_margin_bins", config.router.window_margin_bins)
      .field("strict_capacity", config.router.strict_capacity)
      .field("reroute_passes", config.router.reroute_passes)
      .field("history_weight", config.router.history_weight)
      .field("threads", config.router.threads);
  w.end_object();

  w.key("tech").begin_object();
  w.field("memristor_pitch_um", config.tech.memristor_pitch_um)
      .field("crossbar_periphery_um", config.tech.crossbar_periphery_um)
      .field("synapse_side_um", config.tech.synapse_side_um)
      .field("neuron_side_um", config.tech.neuron_side_um)
      .field("wire_resistance_ohm_per_um",
             config.tech.wire_resistance_ohm_per_um)
      .field("wire_capacitance_ff_per_um",
             config.tech.wire_capacitance_ff_per_um)
      .field("crossbar_delay_at_64_ns", config.tech.crossbar_delay_at_64_ns)
      .field("synapse_delay_ns", config.tech.synapse_delay_ns);
  w.end_object();

  w.key("cost_weights").begin_object();
  w.field("alpha", config.cost_weights.alpha)
      .field("beta", config.cost_weights.beta)
      .field("delta", config.cost_weights.delta);
  w.end_object();

  w.key("stage_budget_ms").begin_object();
  w.field("clustering", config.stage_budget.clustering_ms)
      .field("placement", config.stage_budget.placement_ms)
      .field("routing", config.stage_budget.routing_ms);
  w.end_object();

  w.end_object();  // config
}

void write_result(util::JsonWriter& w, const FlowConfig& config,
                  const FlowResult& result) {
  w.key("timings_ms").begin_object();
  w.field("clustering", result.timings.clustering_ms)
      .field("clustering_embedding", result.timings.clustering_embedding_ms)
      .field("clustering_kmeans", result.timings.clustering_kmeans_ms)
      .field("clustering_packing", result.timings.clustering_packing_ms)
      .field("netlist", result.timings.netlist_ms)
      .field("placement", result.timings.placement_ms)
      .field("routing", result.timings.routing_ms)
      .field("total", result.timings.total_ms);
  w.end_object();

  w.key("result").begin_object();
  w.field("crossbars", result.mapping.crossbars.size())
      .field("discrete_synapses", result.mapping.discrete_synapses.size())
      .field("average_utilization", result.mapping.average_utilization());
  if (result.isc.has_value()) {
    w.key("isc").begin_object();
    w.field("iterations", result.isc->iterations.size())
        .field("outliers", result.isc->outliers.size())
        .field("outlier_ratio", result.isc->outlier_ratio())
        .field("total_connections", result.isc->total_connections)
        .field("budget_exhausted", result.isc->budget_exhausted);
    w.end_object();
  }
  w.key("placement").begin_object();
  w.field("outer_iterations", result.placement.outer_iterations)
      .field("lambda_final", result.placement.lambda_final)
      .field("overlap_before_legalization",
             result.placement.overlap_ratio_before_legalization)
      .field("legalization_passes", result.placement.legalization.passes)
      .field("legalization_converged", result.placement.legalization.converged)
      .field("final_overlap",
             result.placement.legalization.final_overlap_ratio)
      .field("hpwl_um", result.placement.hpwl_um)
      .field("area_um2", result.placement.area_um2)
      .field("cg_value_evals", result.placement.cg_value_evals_total)
      .field("cg_gradient_evals", result.placement.cg_gradient_evals_total)
      .field("density_grid_builds", result.placement.density_grid_builds_total)
      .field("density_grid_reallocations",
             result.placement.density_grid_reallocations)
      .field("density_pair_candidates",
             result.placement.density_pair_candidates_total)
      .field("density_pairs_kept", result.placement.density_pairs_kept_total)
      .field("legalization_pairs_checked",
             result.placement.legalization.pairs_checked)
      .field("legalization_separations",
             result.placement.legalization.separations)
      .field("budget_exhausted", result.placement.budget_exhausted)
      .field("degraded", result.placement.degraded);
  w.end_object();
  w.key("routing").begin_object();
  w.field("wirelength_um", result.routing.total_wirelength_um)
      .field("average_delay_ns", result.routing.average_delay_ns)
      .field("max_delay_ns", result.routing.max_delay_ns)
      .field("total_overflow", result.routing.total_overflow)
      .field("peak_congestion", result.routing.peak_congestion)
      .field("segments_total", result.routing.segments_total)
      .field("segments_routed", result.routing.segments_routed)
      .field("segments_deferred", result.routing.segments_deferred)
      .field("segments_relaxed", result.routing.segments_relaxed)
      .field("segments_fallback", result.routing.segments_fallback)
      .field("maze_invocations", result.routing.maze_invocations)
      .field("maze_nodes_expanded", result.routing.maze_nodes_expanded)
      .field("maze_heap_pushes", result.routing.maze_heap_pushes)
      .field("maze_window_retries", result.routing.maze_window_retries)
      .field("maze_meets", result.routing.maze_meets)
      .field("oracle_calls", result.routing.oracle_calls)
      .field("oracle_nodes", result.routing.oracle_nodes)
      .field("waves", result.routing.waves)
      .field("reroute_passes", result.routing.reroute_stats.size())
      .field("threads_used", result.routing.threads_used)
      .field("segments_failed", result.routing.segments_failed)
      .field("failed_wires", result.routing.failed_wires.size())
      .field("budget_exhausted", result.routing.budget_exhausted)
      .field("degraded", result.routing.degraded);
  w.end_object();
  w.key("cost").begin_object();
  w.field("total_wirelength_um", result.cost.total_wirelength_um)
      .field("area_um2", result.cost.area_um2)
      .field("average_delay_ns", result.cost.average_delay_ns)
      .field("combined", result.cost.combined(config.cost_weights));
  w.end_object();
  w.end_object();  // result
}

/// Strips a known artifact suffix to recover the shared stem.
std::string artifact_stem(const TelemetryOptions& options) {
  std::string base = !options.manifest_path.empty() ? options.manifest_path
                     : !options.trace_path.empty()  ? options.trace_path
                                                    : options.metrics_path;
  if (base.empty()) return {};
  const auto strip = [&base](const char* suffix) {
    const std::string s(suffix);
    if (base.size() > s.size() &&
        base.compare(base.size() - s.size(), s.size(), s) == 0)
      base.resize(base.size() - s.size());
  };
  strip(".manifest.json");
  strip(".jsonl");
  strip(".json");
  return base;
}

/// <stem>.manifest.json next to the artifact the user did ask for.
std::string derived_manifest_path(const TelemetryOptions& options) {
  if (!options.manifest_path.empty()) return options.manifest_path;
  const std::string stem = artifact_stem(options);
  return stem.empty() ? std::string() : stem + ".manifest.json";
}

/// <stem>.flight.json; written only when the flow dies.
std::string derived_flight_path(const TelemetryOptions& options) {
  if (!options.flight_path.empty()) return options.flight_path;
  const std::string stem = artifact_stem(options);
  return stem.empty() ? std::string() : stem + ".flight.json";
}

// How this binary was built and which kernels it picked at run time: the
// dense eigensolver's ISA variant depends on the host, never on the config.
void write_build_section(util::JsonWriter& w) {
  namespace isa = linalg::detail;
  w.key("build").begin_object();
  w.field("type", AUTONCS_BUILD_TYPE)
      .field("eigen_isa", isa::eigen_isa_name(isa::dispatched_eigen_isa()));
  w.key("eigen_isas_supported").begin_array();
  for (isa::EigenIsa variant : isa::kEigenIsas)
    if (isa::eigen_isa_supported(variant))
      w.value(isa::eigen_isa_name(variant));
  w.end_array();
  w.end_object();
}

/// "pool" manifest section: per-label scheduler statistics aggregated by
/// util::ThreadPool. Wall-clock quantities are allowed here (the manifest
/// already records stage timings); they never enter the metrics stream.
void write_pool_section(util::JsonWriter& w) {
  w.key("pool").begin_array();
  for (const util::PoolStats& p : util::pool_stats_snapshot()) {
    w.begin_object();
    w.field("label", p.label)
        .field("workers", p.workers)
        .field("pools", static_cast<long long>(p.pools))
        .field("dispatches", static_cast<long long>(p.dispatches))
        .field("inline_runs", static_cast<long long>(p.inline_runs))
        .field("items", static_cast<long long>(p.items))
        .field("blocks", static_cast<long long>(p.blocks))
        .field("parks", static_cast<long long>(p.parks))
        .field("wakes", static_cast<long long>(p.wakes))
        .field("spin_wakes", static_cast<long long>(p.spin_wakes))
        .field("wall_ns", static_cast<long long>(p.wall_ns));
    w.key("busy_ns").begin_array();
    for (std::uint64_t ns : p.busy_ns) w.value(static_cast<long long>(ns));
    w.end_array();
    w.key("blocks_run").begin_array();
    for (std::uint64_t b : p.blocks_run) w.value(static_cast<long long>(b));
    w.end_array();
    w.key("busy_fraction").begin_array();
    for (std::uint64_t ns : p.busy_ns) {
      w.value(p.wall_ns > 0
                  ? static_cast<double>(ns) / static_cast<double>(p.wall_ns)
                  : 0.0);
    }
    w.end_array();
    w.key("imbalance").begin_object();
    w.field("lt5", static_cast<long long>(p.imbalance[0]))
        .field("lt10", static_cast<long long>(p.imbalance[1]))
        .field("lt25", static_cast<long long>(p.imbalance[2]))
        .field("lt50", static_cast<long long>(p.imbalance[3]))
        .field("ge50", static_cast<long long>(p.imbalance[4]));
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

/// "memory" manifest section: stage-boundary RSS samples and instrumented
/// structure footprints from util/mem.
void write_memory_section(util::JsonWriter& w) {
  const util::MemSnapshot mem = util::mem_snapshot();
  w.key("memory").begin_object();
  w.field("peak_rss_bytes", mem.peak_rss_bytes);
  w.key("stages").begin_array();
  for (const util::MemStageSample& s : mem.stages) {
    w.begin_object();
    w.field("stage", s.stage)
        .field("current_rss_bytes", s.current_rss_bytes)
        .field("peak_rss_bytes", s.peak_rss_bytes);
    w.end_object();
  }
  w.end_array();
  w.key("structures").begin_array();
  for (const util::MemStructure& s : mem.structures) {
    w.begin_object();
    w.field("name", s.name).field("bytes", s.bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

#if defined(__unix__) || defined(__APPLE__)
/// Fatal-signal flight dump. The handler only touches pre-computed state
/// and async-signal-safe calls (open/write, manual formatting inside
/// flight_dump_fd), then re-raises with the default disposition so the
/// process still dies with the original signal.
char g_flight_signal_path[1024] = {};
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
struct sigaction g_previous_actions[sizeof(kFatalSignals) /
                                    sizeof(kFatalSignals[0])];
bool g_handlers_installed = false;

extern "C" void autoncs_flight_signal_handler(int sig) {
  if (g_flight_signal_path[0] != '\0') {
    const int fd = ::open(g_flight_signal_path,
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      util::flight_dump_fd(fd);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_signal_handlers(const std::string& flight_path) {
  if (g_handlers_installed || flight_path.empty() ||
      flight_path.size() >= sizeof(g_flight_signal_path))
    return;
  std::memcpy(g_flight_signal_path, flight_path.c_str(),
              flight_path.size() + 1);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = autoncs_flight_signal_handler;
  sigemptyset(&action.sa_mask);
  for (std::size_t i = 0;
       i < sizeof(kFatalSignals) / sizeof(kFatalSignals[0]); ++i) {
    sigaction(kFatalSignals[i], &action, &g_previous_actions[i]);
  }
  g_handlers_installed = true;
}

void remove_signal_handlers() {
  if (!g_handlers_installed) return;
  for (std::size_t i = 0;
       i < sizeof(kFatalSignals) / sizeof(kFatalSignals[0]); ++i) {
    sigaction(kFatalSignals[i], &g_previous_actions[i], nullptr);
  }
  g_flight_signal_path[0] = '\0';
  g_handlers_installed = false;
}
#else
void install_signal_handlers(const std::string&) {}
void remove_signal_handlers() {}
#endif

}  // namespace

std::string flow_config_json(const FlowConfig& config) {
  util::JsonWriter w;
  write_config_object(w, config);
  return w.str();
}

std::string run_manifest_json(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name) {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "autoncs-run-manifest/3")
      .field("flow", flow_name)
      .field("build_type", AUTONCS_BUILD_TYPE)
      .field("seed", config.seed)
      .field("threads_configured", config.threads)
      .field("threads_used", result.routing.threads_used)
      .field("status", result.degraded ? "degraded" : "ok")
      .field("degraded", result.degraded)
      .field("resumed", result.resumed)
      .field("error_code", result.recovery.first_degraded_code());
  write_build_section(w);
  w.key("recovery").begin_array();
  for (const util::RecoveryEvent& event : result.recovery.events()) {
    w.begin_object();
    w.field("stage", event.stage)
        .field("point", event.point)
        .field("action", event.action)
        .field("recovered", event.recovered)
        .field("alters_result", event.alters_result)
        .field("detail", event.detail);
    w.end_object();
  }
  w.end_array();
  w.key("config");
  write_config_object(w, config);
  write_result(w, config, result);
  write_pool_section(w);
  write_memory_section(w);
  w.end_object();
  return w.str();
}

std::string run_error_manifest_json(const util::FlowError& error,
                                    const std::string& flight_path) {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "autoncs-run-manifest/3")
      .field("build_type", AUTONCS_BUILD_TYPE)
      .field("status", "error")
      .field("error_category", util::error_category_name(error.category()))
      .field("error_code", error.code())
      .field("error_stage", error.stage())
      .field("exit_code", static_cast<long long>(error.exit_code()))
      .field("message", std::string(error.what()))
      .field("flight_path", flight_path);
  write_build_section(w);
  write_pool_section(w);
  write_memory_section(w);
  w.end_object();
  return w.str();
}

Session::Session(const TelemetryOptions& options) : options_(options) {
  if (!options_.any() || g_active != nullptr) return;
  owner_ = true;
  g_active = this;
  if (!options_.trace_path.empty()) util::start_tracing();
  if (!options_.metrics_path.empty()) util::start_metrics();
  // The observatory layers are cheap enough to arm for every owned
  // session: scheduler stats and memory accounting feed the manifest,
  // the flight recorder only materializes an artifact if the flow dies.
  util::start_pool_stats();
  util::start_mem_accounting();
  util::start_flight_recorder();
  install_signal_handlers(derived_flight_path(options_));
}

Session::~Session() {
  if (!owner_) return;
  g_active = nullptr;
  remove_signal_handlers();
  if (!options_.trace_path.empty()) {
    const std::string json = util::chrome_trace_json(util::stop_tracing());
    if (!util::write_text_file(options_.trace_path, json)) {
      util::LogLine(util::LogLevel::kError, "telemetry")
          << "failed to write trace to " << options_.trace_path;
    }
  }
  if (!options_.metrics_path.empty()) {
    // Export-time pool metrics: ONLY thread-count-invariant quantities
    // may enter the metrics stream (byte-identity contract); everything
    // wall-clock or partition-dependent stays in the manifest's "pool"
    // section. Snapshot order is sorted by label, so the JSONL stays
    // deterministic.
    for (const util::PoolStats& p : util::pool_stats_snapshot()) {
      util::metric_gauge("pool/" + p.label + "/pools",
                         static_cast<double>(p.pools));
    }
    const std::string jsonl = util::metrics_jsonl(util::stop_metrics());
    if (!util::write_text_file(options_.metrics_path, jsonl)) {
      util::LogLine(util::LogLevel::kError, "telemetry")
          << "failed to write metrics to " << options_.metrics_path;
    }
  }
  if (error_recorded_) {
    const std::string flight_path = derived_flight_path(options_);
    if (!flight_path.empty()) {
      if (util::flight_write_json(flight_path)) {
        util::LogLine(util::LogLevel::kInfo, "telemetry")
            << "flight recorder dumped to " << flight_path;
      } else {
        util::LogLine(util::LogLevel::kError, "telemetry")
            << "failed to write flight recorder to " << flight_path;
      }
    }
  }
  util::stop_flight_recorder();
  util::stop_mem_accounting();
  util::stop_pool_stats();
  const std::string manifest_path = derived_manifest_path(options_);
  if (!manifest_path.empty() && !manifest_json_.empty()) {
    if (!util::write_text_file(manifest_path, manifest_json_)) {
      util::LogLine(util::LogLevel::kError, "telemetry")
          << "failed to write manifest to " << manifest_path;
    }
  }
}

void Session::record_manifest(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name) {
  if (g_active == nullptr || !g_active->manifest_json_.empty()) return;
  g_active->manifest_json_ = run_manifest_json(config, result, flow_name);
}

void Session::record_error(const util::FlowError& error) {
  if (g_active == nullptr) return;
  // The flight artifact is written for any recorded error, even when an
  // earlier flow already claimed the manifest slot.
  g_active->error_recorded_ = true;
  if (!g_active->manifest_json_.empty()) return;
  g_active->manifest_json_ = run_error_manifest_json(
      error, derived_flight_path(g_active->options_));
}

Session* Session::active() { return g_active; }

}  // namespace autoncs::telemetry

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

void write_result(util::JsonWriter& w, const FlowConfig& config,
                  const FlowResult& result) {
  w.key("timings_ms");
  util::write_json(w, result.timings);

  // The mapping and ISC counts, the ISC outlier ratio and the combined
  // cost are computed from the records, so they are written by name.
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
  w.key("placement");
  util::write_json(w, result.placement);
  w.key("routing");
  util::write_json(w, result.routing);
  w.key("cost").begin_object();
  util::write_fields(w, result.cost);
  w.field("combined", result.cost.combined(config.cost_weights));
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

/// <stem>.<flow>.manifest.json: the manifest of a flow after the first.
std::string later_flow_manifest_path(const TelemetryOptions& options,
                                     const std::string& flow_name) {
  const std::string stem = artifact_stem(options);
  return stem.empty() ? std::string()
                      : stem + "." + flow_name + ".manifest.json";
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

/// "pool" and "memory" manifest sections (util/thread_pool, util/mem). Their
/// wall-clock quantities never enter the metrics stream.
void write_pool_and_memory_sections(util::JsonWriter& w) {
  w.key("pool");
  util::write_json(w, util::pool_stats_snapshot());
  w.key("memory");
  util::write_json(w, util::mem_snapshot());
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
  util::write_json(w, config);
  return w.str();
}

std::string run_manifest_json(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name) {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "autoncs-run-manifest/5")
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
  w.key("recovery");
  util::write_json(w, result.recovery.events());
  w.key("config");
  util::write_json(w, config);
  write_result(w, config, result);
  write_pool_and_memory_sections(w);
  w.end_object();
  return w.str();
}

std::string run_error_manifest_json(const util::FlowError& error,
                                    const std::string& flight_path) {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "autoncs-run-manifest/5")
      .field("build_type", AUTONCS_BUILD_TYPE)
      .field("status", "error")
      .field("error_category", util::error_category_name(error.category()))
      .field("error_code", error.code())
      .field("error_stage", error.stage())
      .field("exit_code", static_cast<long long>(error.exit_code()))
      .field("message", std::string(error.what()))
      .field("flight_path", flight_path);
  write_build_section(w);
  write_pool_and_memory_sections(w);
  w.end_object();
  return w.str();
}

std::string metrics_jsonl(const FlowResult& result,
                          const std::string& flow_name) {
  std::string out;
  const auto sample = [&](const char* series, double index, double value) {
    util::JsonWriter json;
    json.begin_object()
        .field("type", "sample")
        .field("name", flow_name + "/" + series)
        .field("index", index)
        .field("value", value)
        .end_object();
    out += json.str();
    out += '\n';
  };
  // One series per field: `row.*field` of every row, indexed from 1.
  const auto series = [&](const char* name, const auto& rows, auto field) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      sample(name, static_cast<double>(i + 1),
             static_cast<double>(rows[i].*field));
  };

  using clustering::IscIterationStats;
  const std::vector<IscIterationStats> no_isc;  // FullCro does no clustering
  const auto& isc = result.isc ? result.isc->iterations : no_isc;
  series("isc/clusters_formed", isc, &IscIterationStats::clusters_formed);
  series("isc/crossbars_placed", isc, &IscIterationStats::crossbars_placed);
  series("isc/connections_realized", isc,
         &IscIterationStats::connections_realized);
  series("isc/utilization", isc, &IscIterationStats::average_utilization);
  series("isc/preference", isc, &IscIterationStats::average_preference);
  series("isc/outlier_ratio", isc, &IscIterationStats::outlier_ratio);
  // The Lanczos series skip the iterations the dense solver embedded (an
  // empty basis); the residual checks are numbered from 0 across
  // iterations.
  for (const IscIterationStats& s : isc)
    if (s.embedding_basis_size > 0)
      sample("isc/lanczos/basis", static_cast<double>(s.iteration),
             static_cast<double>(s.embedding_basis_size));
  for (const IscIterationStats& s : isc)
    if (s.embedding_basis_size > 0)
      sample("isc/lanczos/matvecs", static_cast<double>(s.iteration),
             static_cast<double>(s.embedding_matvecs));
  std::size_t check = 0;
  for (const IscIterationStats& s : isc)
    for (const double residual : s.embedding_residuals)
      sample("isc/lanczos/residual", static_cast<double>(check++), residual);

  using place::PlacerOuterStats;
  const auto& outer = result.placement.outer;
  series("place/lambda", outer, &PlacerOuterStats::lambda);
  series("place/objective", outer, &PlacerOuterStats::objective);
  series("place/overlap", outer, &PlacerOuterStats::overlap_ratio);
  series("place/hpwl", outer, &PlacerOuterStats::hpwl_um);
  series("place/cg_iterations", outer, &PlacerOuterStats::cg_iterations);
  series("place/cg_value_evals", outer, &PlacerOuterStats::cg_value_evals);
  series("place/cg_gradient_evals", outer,
         &PlacerOuterStats::cg_gradient_evals);
  series("place/density_grid_builds", outer,
         &PlacerOuterStats::density_grid_builds);

  const route::RoutingResult& routing = result.routing;
  for (std::size_t w = 0; w < routing.wave_sizes.size(); ++w)
    sample("route/wave_size", static_cast<double>(w + 1),
           static_cast<double>(routing.wave_sizes[w]));
  series("route/reroute/segments", routing.reroute_stats,
         &route::ReroutePassStats::segments_rerouted);
  series("route/reroute/overflow", routing.reroute_stats,
         &route::ReroutePassStats::overflow_after);
  return out;
}

Session::Session(const TelemetryOptions& options) : options_(options) {
  if (!options_.any() || g_active != nullptr) return;
  owner_ = true;
  g_active = this;
  if (!options_.trace_path.empty()) util::start_tracing();
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
    if (!util::write_text_file(options_.metrics_path, metrics_jsonl_)) {
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
  for (const auto& [path, json] : manifests_) {
    if (!path.empty() && !util::write_text_file(path, json)) {
      util::LogLine(util::LogLevel::kError, "telemetry")
          << "failed to write manifest to " << path;
    }
  }
}

void Session::record_manifest(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name) {
  if (g_active == nullptr) return;
  if (!g_active->options_.metrics_path.empty())
    g_active->metrics_jsonl_ += metrics_jsonl(result, flow_name);
  const TelemetryOptions& options = g_active->options_;
  g_active->manifests_.emplace_back(
      g_active->manifests_.empty()
          ? derived_manifest_path(options)
          : later_flow_manifest_path(options, flow_name),
      run_manifest_json(config, result, flow_name));
  // Each manifest describes its own flow: the next one starts from empty
  // pool and memory registries. The peak RSS stays the process's.
  util::start_pool_stats();
  util::start_mem_accounting();
}

void Session::record_error(const util::FlowError& error) {
  if (g_active == nullptr) return;
  // The flight artifact is written for any recorded error, even when an
  // earlier flow already claimed the manifest path.
  g_active->error_recorded_ = true;
  if (!g_active->manifests_.empty()) return;
  g_active->manifests_.emplace_back(
      derived_manifest_path(g_active->options_),
      run_error_manifest_json(error, derived_flight_path(g_active->options_)));
}

Session* Session::active() { return g_active; }

}  // namespace autoncs::telemetry

// Flow telemetry session: one RAII object that turns the passive trace
// layer on, collects the results of the flows run under it, and writes
// the machine-readable run artifacts on destruction:
//
//   - <trace_path>     Chrome trace-event JSON (Perfetto / chrome://tracing)
//   - <metrics_path>   metrics JSONL: the convergence series of every
//                      completed flow, one sample per line
//   - <manifest_path>  run manifest: flow config, seed, thread count,
//                      build type, stage wall times and the final cost
//
// Ownership model: the OUTERMOST Session owns the collection — nested
// Sessions (the pipeline constructs one per flow run, the CLI wraps both
// flows of a --baseline comparison in its own) are inert, so artifacts are
// written exactly once, by whoever enabled telemetry first. Every flow
// completed under the owning session leaves a manifest: the first one (the
// AutoNCS run of a comparison) at <manifest_path>, each later one at
// <stem>.<flow>.manifest.json (e.g. trace.fullcro.manifest.json). All
// flows' stage timings land in the one trace, and their series in the one
// metrics file under each flow's name.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace autoncs {

struct FlowConfig;
struct FlowResult;

/// Telemetry sinks, carried inside FlowConfig. All empty (the default)
/// means telemetry stays disabled and every trace point is a single
/// relaxed atomic load.
struct TelemetryOptions {
  /// Chrome trace-event JSON output path ("" = no tracing).
  std::string trace_path;
  /// Metrics JSONL output path ("" = no metrics).
  std::string metrics_path;
  /// Run manifest path; when empty it is derived from trace_path (or
  /// metrics_path) by appending ".manifest.json" to the stem.
  std::string manifest_path;
  /// Crash flight-recorder artifact path; when empty it is derived like
  /// the manifest (".flight.json" on the same stem). The file is only
  /// written when the flow dies — from the FlowError path or the
  /// fatal-signal handler — so clean runs keep their artifact set.
  std::string flight_path;

  bool any() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !manifest_path.empty() || !flight_path.empty();
  }
};

namespace telemetry {

/// Canonical JSON of the FlowConfig's config view (visit_fields in
/// autoncs/config.hpp) — the "config" object of the run manifest. Also
/// serves as the checkpoint compatibility stamp: the checkpoint layer
/// hashes this string, so any option that can change the flow's results
/// invalidates stale checkpoints.
std::string flow_config_json(const FlowConfig& config);

/// Renders the run manifest for one completed flow as a JSON document:
/// schema version, flow name, the full FlowConfig (every stage's options),
/// build type, stage wall times, throughput counters and the final
/// PhysicalCost.
std::string run_manifest_json(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name);

/// Renders the error manifest of a flow that died with a typed FlowError
/// (status "error", category/code/stage, the exit code the CLI will
/// return, and the message). Same schema version as the success manifest;
/// `flight_path` (when nonempty) points triage scripts at the flight
/// recorder artifact written alongside.
std::string run_error_manifest_json(const util::FlowError& error,
                                    const std::string& flight_path = "");

/// Renders one completed flow's convergence series as metrics JSONL, one
/// {"type":"sample","name":"<flow_name>/<series>","index":i,"value":v}
/// line per sample, series after series: the ISC iterations (Alg. 3),
/// then the placer's outer lambda loop (Alg. 4), then the routing waves
/// and reroute passes. A pure function of `result`, so the stream is
/// byte-identical at any thread count.
std::string metrics_jsonl(const FlowResult& result,
                          const std::string& flow_name);

/// RAII telemetry session (see the ownership model above). Constructing
/// with options.any() == false, or while another session is active, yields
/// an inert session.
class Session {
 public:
  explicit Session(const TelemetryOptions& options);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  /// True when this session owns collection and will write artifacts.
  bool owns() const { return owner_; }

  /// Records a completed flow into the active session: appends its
  /// metrics series (when the session has a metrics sink) and keeps its
  /// manifest (the first at the manifest path, later ones per flow, see
  /// above). A no-op when no session is active.
  static void record_manifest(const FlowConfig& config,
                              const FlowResult& result,
                              const std::string& flow_name);

  /// Records an ERROR manifest for a flow that died with a typed error:
  /// schema, error category/code/stage, exit code and message — so scripts
  /// can triage a failed run from its artifacts alone. Only written when
  /// no flow completed before (that flow keeps the manifest path).
  static void record_error(const util::FlowError& error);

  /// The currently owning session, or nullptr.
  static Session* active();

 private:
  TelemetryOptions options_;
  bool owner_ = false;
  bool error_recorded_ = false;
  /// (path, manifest JSON) per recorded flow, in record order.
  std::vector<std::pair<std::string, std::string>> manifests_;
  std::string metrics_jsonl_;
};

}  // namespace telemetry
}  // namespace autoncs

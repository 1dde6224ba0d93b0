// Flow checkpoint/resume.
//
// Two restart points cover the expensive prefix of the flow:
//
//   <dir>/clustering.ckpt.json   the hybrid mapping after ISC — resuming
//                                here reruns only the physical back end.
//   <dir>/placement.ckpt.json    mapping + final cell positions + the
//                                placement report — resuming here reruns
//                                only routing.
//
// Checkpoints are versioned JSON (schema "autoncs-checkpoint/2") stamped
// with the flow seed (a decimal string) and an FNV-1a hash of the canonical
// config JSON (telemetry::flow_config_json); the payload is written and
// read from visit_fields (util/json.hpp). Loading validates schema, kind,
// seed and config hash, then checks the mapping against the network like a
// computed one; any mismatch — or a missing, truncated or corrupt file —
// is reported with a warning and the load returns nothing, so the flow
// falls back to a full recompute instead of resuming into an inconsistent
// state.
//
// Every stage downstream of a restart point is deterministic given the
// checkpointed state and the seed, so a resumed run reproduces the
// original run's mapping, placement, routing and cost fields bit-exactly
// (checkpoint_test asserts it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mapping/hybrid_mapping.hpp"
#include "netlist/netlist.hpp"
#include "place/placer.hpp"
#include "util/error.hpp"
#include "util/fields.hpp"

namespace autoncs {

struct FlowConfig;

/// Checkpoint policy, carried inside FlowConfig. An empty dir (the
/// default) disables checkpointing entirely.
struct CheckpointOptions {
  /// Directory the checkpoint files live in; created on first save.
  std::string dir;
  /// Resume from the furthest compatible checkpoint in `dir` instead of
  /// recomputing (placement preferred over clustering). Incompatible or
  /// unreadable checkpoints degrade to a full run with a warning.
  bool resume = false;
};

namespace checkpoint {

/// FNV-1a 64-bit hash of telemetry::flow_config_json(config) — the
/// compatibility stamp written into every checkpoint.
std::uint64_t config_hash(const FlowConfig& config);

/// Post-placement state: the mapping plus everything the back end needs to
/// skip straight to routing (PlacementReport::outer is not kept; see
/// autoncs/config.hpp).
struct PlacementState {
  mapping::HybridMapping mapping;
  std::vector<double> x;  // final cell centers, netlist cell order
  std::vector<double> y;
  place::PlacementReport report;
};

/// The placement checkpoint's payload after its header (util/fields.hpp).
template <util::RecordOf<PlacementState> State, class F>
void visit_fields(State& state, F&& f) {
  auto& [mapping, x, y, report] = state;
  f("mapping", mapping);
  f("x", x);
  f("y", y);
  f("report", report);
}

std::string clustering_path(const std::string& dir);
std::string placement_path(const std::string& dir);

/// Write the post-clustering / post-placement checkpoint. Returns false
/// (with a warning logged) on I/O failure — checkpointing is best-effort
/// and never fails the flow.
bool save_clustering(const std::string& dir, const FlowConfig& config,
                     const mapping::HybridMapping& mapping);
bool save_placement(const std::string& dir, const FlowConfig& config,
                    const mapping::HybridMapping& mapping,
                    const netlist::Netlist& netlist,
                    const place::PlacementReport& report);

/// Load a checkpoint compatible with `config` (schema + seed + config
/// hash) whose mapping realizes `network` (mapping::validate_mapping).
/// Returns nullopt — after logging why — when the file is missing,
/// unparsable, stamped by a different seed/config, or holds a mapping that
/// does not realize `network`. When `recovery` is non-null, any
/// incompatible-but-present checkpoint (corrupt payload, wrong
/// schema/kind, seed or config-hash mismatch, invalid mapping)
/// additionally records a structured RecoveryEvent (point
/// "checkpoint.mismatch", action "recompute") so a resumed-with-recompute
/// run is visible in the run manifest, not just the warning log. A missing
/// file is normal and records nothing.
std::optional<mapping::HybridMapping> load_clustering(
    const std::string& dir, const FlowConfig& config,
    const nn::ConnectionMatrix& network,
    util::RecoveryLog* recovery = nullptr);
std::optional<PlacementState> load_placement(
    const std::string& dir, const FlowConfig& config,
    const nn::ConnectionMatrix& network,
    util::RecoveryLog* recovery = nullptr);

}  // namespace checkpoint
}  // namespace autoncs

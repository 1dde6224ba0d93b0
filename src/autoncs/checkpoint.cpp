#include "autoncs/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autoncs/config.hpp"
#include "autoncs/telemetry.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace autoncs::checkpoint {

namespace {

constexpr const char* kSchema = "autoncs-checkpoint/2";

std::string hash_hex(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Incompatible-checkpoint diagnostics: always a log warning, plus — when
/// the caller collects recovery events — a structured event so the
/// recompute decision lands in the run manifest. recovered=true and
/// alters_result=false because falling back to a full recompute produces
/// the clean-path result bit-identically; the run is visible, not degraded.
void warn(const std::string& path, const std::string& why,
          util::RecoveryLog* recovery) {
  util::LogLine(util::LogLevel::kWarn, "checkpoint")
      << path << ": " << why << " — recomputing from scratch";
  if (recovery != nullptr)
    recovery->record({"flow", "checkpoint.mismatch", "recompute", true, false,
                      path + ": " + why});
}

/// A header field: its value for this run, and why another one recomputes.
struct StampField {
  const char* key;
  std::string value;
  const char* mismatch;
};

/// The header, in order. The seed is a string: JSON numbers hold 53 bits.
std::array<StampField, 4> stamp(const FlowConfig& config, const char* kind) {
  return {{{"schema", kSchema, "unknown checkpoint schema"},
           {"kind", kind, "wrong checkpoint kind"},
           {"seed", std::to_string(config.seed),
            "checkpoint was written under a different seed"},
           {"config_hash", hash_hex(config_hash(config)),
            "checkpoint was written under a different config"}}};
}

/// A checkpoint document opened with its header (write_checkpoint closes it).
util::JsonWriter open_document(const FlowConfig& config, const char* kind) {
  util::JsonWriter w;
  w.begin_object();
  for (const StampField& field : stamp(config, kind))
    w.field(field.key, field.value);
  return w;
}

bool write_checkpoint(const std::string& dir, const std::string& path,
                      util::JsonWriter& w) {
  w.end_object();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !util::write_text_file(path, w.str())) {
    util::LogLine(util::LogLevel::kWarn, "checkpoint")
        << "cannot write " << path << " — continuing without a checkpoint";
    return false;
  }
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "saved " << path;
  return true;
}

/// A loaded mapping is checked like a computed one: a valid stamp does not
/// prove that the payload realizes `network` (an index past the neuron
/// count would reach the netlist builder). False after warning why.
bool realizes(const std::string& path, const mapping::HybridMapping& mapping,
              const nn::ConnectionMatrix& network,
              util::RecoveryLog* recovery) {
  const std::string error = mapping::validate_mapping(mapping, network);
  if (!error.empty())
    warn(path, "mapping does not realize the network: " + error, recovery);
  return error.empty();
}

/// Reads + parses + validates the stamp. Returns false after logging why.
bool load_document(const std::string& path, const FlowConfig& config,
                   const char* kind, util::JsonValue& doc,
                   util::RecoveryLog* recovery) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // silently: a missing checkpoint is normal
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!util::json_parse(buffer.str(), doc) || !doc.is_object()) {
    warn(path, "corrupt or truncated checkpoint", recovery);
    return false;
  }
  for (const StampField& field : stamp(config, kind)) {
    std::string value;
    if (!util::json_read(doc.find(field.key), value) || value != field.value) {
      warn(path, field.mismatch, recovery);
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t config_hash(const FlowConfig& config) {
  // FNV-1a 64-bit over the canonical config JSON.
  const std::string text = telemetry::flow_config_json(config);
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string clustering_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "clustering.ckpt.json").string();
}

std::string placement_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "placement.ckpt.json").string();
}

bool save_clustering(const std::string& dir, const FlowConfig& config,
                     const mapping::HybridMapping& mapping) {
  util::JsonWriter w = open_document(config, "clustering");
  w.key("mapping");
  util::write_json(w, mapping);
  return write_checkpoint(dir, clustering_path(dir), w);
}

bool save_placement(const std::string& dir, const FlowConfig& config,
                    const mapping::HybridMapping& mapping,
                    const netlist::Netlist& netlist,
                    const place::PlacementReport& report) {
  PlacementState state{mapping, {}, {}, report};
  for (const netlist::Cell& cell : netlist.cells) {
    state.x.push_back(cell.x);
    state.y.push_back(cell.y);
  }
  util::JsonWriter w = open_document(config, "placement");
  util::write_fields(w, state);
  return write_checkpoint(dir, placement_path(dir), w);
}

std::optional<mapping::HybridMapping> load_clustering(
    const std::string& dir, const FlowConfig& config,
    const nn::ConnectionMatrix& network, util::RecoveryLog* recovery) {
  const std::string path = clustering_path(dir);
  util::JsonValue doc;
  if (!load_document(path, config, "clustering", doc, recovery))
    return std::nullopt;
  mapping::HybridMapping mapping;
  if (!util::read_fields(doc.find("mapping"), mapping)) {
    warn(path, "malformed mapping payload", recovery);
    return std::nullopt;
  }
  if (!realizes(path, mapping, network, recovery)) return std::nullopt;
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "loaded " << path;
  return mapping;
}

std::optional<PlacementState> load_placement(
    const std::string& dir, const FlowConfig& config,
    const nn::ConnectionMatrix& network, util::RecoveryLog* recovery) {
  const std::string path = placement_path(dir);
  util::JsonValue doc;
  if (!load_document(path, config, "placement", doc, recovery))
    return std::nullopt;
  PlacementState state;
  // read_fields reads null as NaN. A coordinate that is not finite would
  // make the netlist check throw instead of recomputing.
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!util::read_fields(&doc, state) || state.x.size() != state.y.size() ||
      !std::ranges::all_of(state.x, finite) ||
      !std::ranges::all_of(state.y, finite)) {
    warn(path, "malformed placement payload", recovery);
    return std::nullopt;
  }
  if (!realizes(path, state.mapping, network, recovery)) return std::nullopt;
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "loaded " << path;
  return state;
}

}  // namespace autoncs::checkpoint

#include "autoncs/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "autoncs/config.hpp"
#include "autoncs/telemetry.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace autoncs::checkpoint {

namespace {

constexpr const char* kSchema = "autoncs-checkpoint/1";

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
  if (recovery != nullptr) {
    util::RecoveryEvent event;
    event.stage = "flow";
    event.point = "checkpoint.mismatch";
    event.action = "recompute";
    event.recovered = true;
    event.alters_result = false;
    event.detail = path + ": " + why;
    recovery->record(std::move(event));
  }
}

// ---- writing ----

void write_connections(util::JsonWriter& w,
                       const std::vector<nn::Connection>& list) {
  w.begin_array();
  for (const nn::Connection& c : list) {
    w.begin_array();
    w.value(c.from);
    w.value(c.to);
    w.end_array();
  }
  w.end_array();
}

void write_indices(util::JsonWriter& w, const std::vector<std::size_t>& list) {
  w.begin_array();
  for (std::size_t v : list) w.value(v);
  w.end_array();
}

void write_mapping(util::JsonWriter& w, const mapping::HybridMapping& mapping) {
  w.begin_object();
  w.field("neuron_count", mapping.neuron_count);
  w.key("crossbars").begin_array();
  for (const clustering::CrossbarInstance& xbar : mapping.crossbars) {
    w.begin_object();
    w.field("size", xbar.size).field("iteration", xbar.iteration);
    w.key("rows");
    write_indices(w, xbar.rows);
    w.key("cols");
    write_indices(w, xbar.cols);
    w.key("connections");
    write_connections(w, xbar.connections);
    w.end_object();
  }
  w.end_array();
  w.key("discrete_synapses");
  write_connections(w, mapping.discrete_synapses);
  w.end_object();
}

void write_header(util::JsonWriter& w, const FlowConfig& config,
                  const char* kind) {
  w.field("schema", kSchema)
      .field("kind", kind)
      .field("seed", config.seed)
      .field("config_hash", hash_hex(config_hash(config)));
}

bool write_checkpoint(const std::string& dir, const std::string& path,
                      const std::string& json) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !util::write_text_file(path, json)) {
    util::LogLine(util::LogLevel::kWarn, "checkpoint")
        << "cannot write " << path << " — continuing without a checkpoint";
    return false;
  }
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "saved " << path;
  return true;
}

// ---- reading ----

bool read_indices(const util::JsonValue* v, std::vector<std::size_t>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->items.size());
  for (const util::JsonValue& item : v->items)
    if (!util::json_read(&item, out.emplace_back())) return false;
  return true;
}

bool read_connections(const util::JsonValue* v,
                      std::vector<nn::Connection>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->items.size());
  for (const util::JsonValue& item : v->items) {
    if (!item.is_array() || item.items.size() != 2 ||
        !item.items[0].is_number() || !item.items[1].is_number())
      return false;
    nn::Connection c;
    c.from = static_cast<std::size_t>(item.items[0].number_value);
    c.to = static_cast<std::size_t>(item.items[1].number_value);
    out.push_back(c);
  }
  return true;
}

bool read_mapping(const util::JsonValue* v, mapping::HybridMapping& out) {
  if (v == nullptr || !v->is_object()) return false;
  if (!util::json_read(v->find("neuron_count"), out.neuron_count))
    return false;
  const util::JsonValue* crossbars = v->find("crossbars");
  if (crossbars == nullptr || !crossbars->is_array()) return false;
  out.crossbars.clear();
  out.crossbars.reserve(crossbars->items.size());
  for (const util::JsonValue& item : crossbars->items) {
    if (!item.is_object()) return false;
    clustering::CrossbarInstance xbar;
    if (!util::json_read(item.find("size"), xbar.size) ||
        !util::json_read(item.find("iteration"), xbar.iteration) ||
        !read_indices(item.find("rows"), xbar.rows) ||
        !read_indices(item.find("cols"), xbar.cols) ||
        !read_connections(item.find("connections"), xbar.connections))
      return false;
    out.crossbars.push_back(std::move(xbar));
  }
  return read_connections(v->find("discrete_synapses"),
                          out.discrete_synapses);
}

bool read_doubles(const util::JsonValue* v, std::vector<double>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->items.size());
  for (const util::JsonValue& item : v->items) {
    if (!item.is_number()) return false;
    out.push_back(item.number_value);
  }
  return true;
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
  const util::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kSchema) {
    warn(path, "unknown checkpoint schema", recovery);
    return false;
  }
  const util::JsonValue* file_kind = doc.find("kind");
  if (file_kind == nullptr || !file_kind->is_string() ||
      file_kind->string_value != kind) {
    warn(path, "wrong checkpoint kind", recovery);
    return false;
  }
  std::size_t seed = 0;
  if (!util::json_read(doc.find("seed"), seed) ||
      static_cast<std::uint64_t>(seed) != config.seed) {
    warn(path, "checkpoint was written under a different seed", recovery);
    return false;
  }
  const util::JsonValue* hash = doc.find("config_hash");
  if (hash == nullptr || !hash->is_string() ||
      hash->string_value != hash_hex(config_hash(config))) {
    warn(path, "checkpoint was written under a different config", recovery);
    return false;
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
  util::JsonWriter w;
  w.begin_object();
  write_header(w, config, "clustering");
  w.key("mapping");
  write_mapping(w, mapping);
  w.end_object();
  return write_checkpoint(dir, clustering_path(dir), w.str());
}

bool save_placement(const std::string& dir, const FlowConfig& config,
                    const mapping::HybridMapping& mapping,
                    const netlist::Netlist& netlist,
                    const place::PlacementReport& report) {
  util::JsonWriter w;
  w.begin_object();
  write_header(w, config, "placement");
  w.key("mapping");
  write_mapping(w, mapping);
  w.key("x").begin_array();
  for (const netlist::Cell& cell : netlist.cells) w.value(cell.x);
  w.end_array();
  w.key("y").begin_array();
  for (const netlist::Cell& cell : netlist.cells) w.value(cell.y);
  w.end_array();
  w.key("report");
  util::write_json(w, report);
  w.end_object();
  return write_checkpoint(dir, placement_path(dir), w.str());
}

std::optional<mapping::HybridMapping> load_clustering(
    const std::string& dir, const FlowConfig& config,
    util::RecoveryLog* recovery) {
  const std::string path = clustering_path(dir);
  util::JsonValue doc;
  if (!load_document(path, config, "clustering", doc, recovery))
    return std::nullopt;
  mapping::HybridMapping mapping;
  if (!read_mapping(doc.find("mapping"), mapping)) {
    warn(path, "malformed mapping payload", recovery);
    return std::nullopt;
  }
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "loaded " << path;
  return mapping;
}

std::optional<PlacementState> load_placement(const std::string& dir,
                                             const FlowConfig& config,
                                             util::RecoveryLog* recovery) {
  const std::string path = placement_path(dir);
  util::JsonValue doc;
  if (!load_document(path, config, "placement", doc, recovery))
    return std::nullopt;
  PlacementState state;
  if (!read_mapping(doc.find("mapping"), state.mapping) ||
      !read_doubles(doc.find("x"), state.x) ||
      !read_doubles(doc.find("y"), state.y) ||
      state.x.size() != state.y.size()) {
    warn(path, "malformed placement payload", recovery);
    return std::nullopt;
  }
  const util::JsonValue* report = doc.find("report");
  if (report == nullptr || !util::read_fields(*report, state.report)) {
    warn(path, "malformed placement report payload", recovery);
    return std::nullopt;
  }
  util::LogLine(util::LogLevel::kInfo, "checkpoint") << "loaded " << path;
  return state;
}

}  // namespace autoncs::checkpoint

#include "service/protocol.hpp"

#include <cmath>

#include "autoncs/config.hpp"

namespace autoncs::service {

namespace {

ParseResult reject(const std::string& code, const std::string& message) {
  ParseResult result;
  result.ok = false;
  result.error_code = code;
  result.error_message = message;
  return result;
}

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Non-negative integer field within [lo, hi]; absent keeps the default.
bool take_size(const util::JsonValue& doc, const char* key, std::size_t lo,
               std::size_t hi, std::size_t& out, std::string& why) {
  const util::JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number_value < 0.0 ||
      v->number_value != std::floor(v->number_value)) {
    why = std::string("field '") + key + "' must be a non-negative integer";
    return false;
  }
  const double value = v->number_value;
  if (value < static_cast<double>(lo) || value > static_cast<double>(hi)) {
    why = std::string("field '") + key + "' out of range";
    return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

ParseResult parse_request(const std::string& line,
                          const RequestLimits& limits) {
  if (line.size() > limits.max_request_bytes)
    return reject("request_too_large",
                  "request line exceeds max_request_bytes");
  util::JsonLimits json_limits;
  json_limits.max_depth = limits.max_json_depth;
  json_limits.max_bytes = limits.max_request_bytes;
  util::JsonValue doc;
  if (!util::json_parse(line, doc, json_limits))
    return reject("invalid_request", "request is not valid JSON (or "
                  "exceeds the nesting limit)");
  if (!doc.is_object())
    return reject("invalid_request", "request must be a JSON object");

  ParseResult result;
  JobRequest& request = result.request;

  const util::JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is_string())
    return reject("invalid_request", "missing string field 'op'");
  if (op->string_value == "flow") request.op = Op::kFlow;
  else if (op->string_value == "ping") request.op = Op::kPing;
  else if (op->string_value == "stats") request.op = Op::kStats;
  else if (op->string_value == "shutdown") request.op = Op::kShutdown;
  else
    return reject("invalid_request",
                  "unknown op '" + op->string_value + "'");

  // Whitelist-validate every member: an unknown field is a protocol error,
  // not something to silently ignore — typos in knob names must not turn
  // into defaulted production jobs.
  for (const auto& [key, value] : doc.members) {
    (void)value;
    if (key != "op" && key != "id" && key != "network" && key != "seed" &&
        key != "max_size" && key != "threads" && key != "deadline_ms" &&
        key != "max_attempts" && key != "fault")
      return reject("invalid_request", "unknown field '" + key + "'");
  }

  if (const util::JsonValue* id = doc.find("id")) {
    if (!id->is_string() || !valid_id(id->string_value))
      return reject("invalid_request",
                    "field 'id' must match [A-Za-z0-9._-]{1,64}");
    request.id = id->string_value;
  }

  if (request.op != Op::kFlow) {
    // Control ops carry no flow fields.
    for (const char* key : {"network", "seed", "max_size", "threads",
                            "deadline_ms", "max_attempts", "fault"}) {
      if (doc.find(key) != nullptr)
        return reject("invalid_request",
                      std::string("field '") + key +
                          "' is only valid with op \"flow\"");
    }
    result.ok = true;
    return result;
  }

  const util::JsonValue* network = doc.find("network");
  if (network == nullptr || !network->is_string() ||
      network->string_value.empty() || network->string_value.size() > 4096)
    return reject("invalid_request",
                  "flow requests need a non-empty string field 'network' "
                  "(at most 4096 bytes)");
  request.network = network->string_value;

  std::string why;
  std::size_t seed = static_cast<std::size_t>(request.seed);
  if (!take_size(doc, "seed", 0, static_cast<std::size_t>(1) << 53, seed,
                 why) ||
      !take_size(doc, "max_size", kMinMaxCrossbarSize, kMaxMaxCrossbarSize,
                 request.max_size, why) ||
      !take_size(doc, "threads", 1, 64, request.threads, why) ||
      !take_size(doc, "max_attempts", 1, 10, request.max_attempts, why))
    return reject("invalid_request", why);
  request.seed = static_cast<std::uint64_t>(seed);

  if (const util::JsonValue* deadline = doc.find("deadline_ms")) {
    if (!deadline->is_number() || !(deadline->number_value >= 0.0) ||
        deadline->number_value > 1e9)
      return reject("invalid_request",
                    "field 'deadline_ms' must be a number in [0, 1e9]");
    request.deadline_ms = deadline->number_value;
  }

  if (const util::JsonValue* fault = doc.find("fault")) {
    if (!fault->is_string() || fault->string_value.size() > 256)
      return reject("invalid_request",
                    "field 'fault' must be a string of at most 256 bytes");
    request.fault = fault->string_value;
  }

  result.ok = true;
  return result;
}

std::string response_ok(const std::string& id, const JobOutcome& outcome,
                        double queue_ms) {
  util::JsonWriter w;
  w.begin_object();
  w.field("id", id)
      .field("status", "ok")
      .field("degraded", outcome.degraded)
      .field("resumed", outcome.resumed)
      .field("attempts", outcome.attempts)
      .field("recovery_events", outcome.recovery_events)
      .field("queue_ms", queue_ms)
      .field("run_ms", outcome.run_ms);
  w.key("cost").begin_object();
  w.field("wirelength_um", outcome.cost.total_wirelength_um)
      .field("area_um2", outcome.cost.area_um2)
      .field("average_delay_ns", outcome.cost.average_delay_ns);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string response_error(const std::string& id, const JobOutcome& outcome,
                           double queue_ms) {
  util::JsonWriter w;
  w.begin_object();
  w.field("id", id)
      .field("status", "error")
      .field("attempts", outcome.attempts)
      .field("queue_ms", queue_ms)
      .field("run_ms", outcome.run_ms);
  w.key("error").begin_object();
  w.field("category", outcome.error_category)
      .field("code", outcome.error_code)
      .field("stage", outcome.error_stage)
      .field("message", outcome.error_message);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string response_rejected(const std::string& id, const std::string& code,
                              const std::string& message) {
  util::JsonWriter w;
  w.begin_object();
  if (!id.empty()) w.field("id", id);
  w.field("status", "rejected");
  w.key("error").begin_object();
  w.field("code", code).field("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string response_pong() {
  return "{\"status\":\"pong\"}";
}

std::string response_stats(const ServiceStats& stats) {
  util::JsonWriter w;
  w.begin_object();
  w.field("status", "stats")
      .field("connections", stats.connections)
      .field("requests", stats.requests)
      .field("jobs_ok", stats.jobs_ok)
      .field("jobs_failed", stats.jobs_failed)
      .field("jobs_rejected_queue_full", stats.jobs_rejected_queue_full)
      .field("jobs_rejected_shutting_down",
             stats.jobs_rejected_shutting_down)
      .field("requests_invalid", stats.requests_invalid)
      .field("retries", stats.retries)
      .field("deadline_cancelled", stats.deadline_cancelled)
      .field("queue_depth", stats.queue_depth)
      .field("workers", stats.workers)
      .field("network_cache_hits", stats.network_cache_hits)
      .field("network_cache_misses", stats.network_cache_misses)
      .field("threshold_cache_hits", stats.threshold_cache_hits)
      .field("threshold_cache_misses", stats.threshold_cache_misses);
  w.end_object();
  return w.str();
}

std::string response_shutting_down() {
  return "{\"status\":\"shutting_down\"}";
}

}  // namespace autoncs::service

// Low-overhead trace spans with Chrome trace-event export.
//
// Stages mark scopes with AUTONCS_TRACE_SCOPE("place/cg"): an RAII span
// that records a begin timestamp and, on scope exit, a complete ("ph":"X")
// trace event into a per-thread buffer. The layer is strictly passive:
//
//  - Disabled (the default), a span is one relaxed atomic load — no
//    allocation, no lock, no timestamp. Instrumentation can therefore stay
//    compiled into the hot paths.
//  - Enabled, each span costs two steady_clock reads and one push into its
//    thread's buffer (the buffer's mutex is only ever contended by the
//    final collection pass, never by another writer).
//  - Nothing in the flow ever READS trace state, so results are
//    bit-identical with tracing on or off, at any thread count.
//
// Spans nest naturally (Chrome's viewer stacks overlapping X events per
// thread), and each event carries the recording thread's id, so pool
// workers show up as separate rows in Perfetto / chrome://tracing. Export
// with chrome_trace_json() and load the file via the "Open trace file"
// dialog in either tool (see docs/observability.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/flight.hpp"

namespace autoncs::util {

/// One completed span. Timestamps are microseconds since start_tracing().
struct TraceEvent {
  const char* name;      // static string (span label, e.g. "route/wave")
  double ts_us;          // begin timestamp
  double dur_us;         // duration
  std::uint32_t tid;     // stable per-thread id (registration order)
  const char* arg_name;  // optional numeric argument, nullptr = none
  std::int64_t arg;
};

namespace trace_detail {
extern std::atomic<bool> g_enabled;
/// Microseconds since the current session's epoch.
double now_us();
void record(const TraceEvent& event);
}  // namespace trace_detail

/// True while a trace session is collecting. Relaxed load — safe and cheap
/// from any thread.
inline bool tracing_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Clears all span buffers and starts collecting (idempotent).
void start_tracing();

/// Stops collecting and drains every thread's buffer, sorted by begin
/// timestamp. Spans still open when tracing stops are dropped.
std::vector<TraceEvent> stop_tracing();

/// Renders events as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}), loadable in Perfetto and chrome://tracing.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// RAII span. The name (and optional arg name) must be string literals or
/// otherwise outlive the trace session — they are stored by pointer.
/// Spans also feed the crash flight recorder when it is armed, so the
/// last spans before a crash are reconstructable without a trace sink;
/// disabled cost is two relaxed atomic loads.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (tracing_enabled() || flight_enabled()) open(name, nullptr, 0);
  }
  TraceSpan(const char* name, const char* arg_name, std::int64_t arg) {
    if (tracing_enabled() || flight_enabled()) open(name, arg_name, arg);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (name_ != nullptr) close();
  }

  /// Replaces the numeric argument, for a count known only at the end of
  /// the span.
  void set_arg(std::int64_t arg) { arg_ = arg; }

 private:
  void open(const char* name, const char* arg_name, std::int64_t arg);
  void close();

  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = 0;
  double start_us_ = 0.0;
};

#define AUTONCS_TRACE_CONCAT_INNER(a, b) a##b
#define AUTONCS_TRACE_CONCAT(a, b) AUTONCS_TRACE_CONCAT_INNER(a, b)
/// AUTONCS_TRACE_SCOPE("stage/step") or
/// AUTONCS_TRACE_SCOPE("stage/step", "iter", i) for a numeric argument.
#define AUTONCS_TRACE_SCOPE(...)                                    \
  ::autoncs::util::TraceSpan AUTONCS_TRACE_CONCAT(autoncs_trace_span_, \
                                                  __LINE__)(__VA_ARGS__)

}  // namespace autoncs::util

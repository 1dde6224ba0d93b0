// Crash flight recorder: a bounded lock-free ring of the most recent
// trace-span begin/end events and log lines, kept cheap enough to stay
// armed for the whole run and dumped as a JSON artifact only when the
// flow dies — from the FlowError path (telemetry session) or from a
// fatal-signal handler.
//
// Passivity contract (same as trace/metrics): disabled, every hook is a
// single relaxed atomic load; enabled, a record is a relaxed fetch_add
// plus a handful of relaxed atomic stores into a fixed slot — no
// allocation, no lock, no syscall. Nothing in the flow reads the ring.
//
// Concurrency: writers claim slots with an atomic head counter; a reader
// validates each slot's sequence number before and after copying it and
// skips slots that were torn by a concurrent writer (a reader, or a
// writer that wrapped the ring onto a slot still being filled). Every
// slot field is an atomic, so a torn slot is a dropped entry, never a
// data race. The fatal-signal dump path uses
// only async-signal-safe primitives (open/write, manual integer
// formatting) — a slot being overwritten mid-crash loses that one entry,
// which is acceptable for a post-mortem aid.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace autoncs::util {

namespace flight_detail {
extern std::atomic<bool> g_enabled;
}

/// True while the flight recorder is armed. Relaxed load — safe and
/// cheap from any thread.
inline bool flight_enabled() {
  return flight_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Slots in the ring; oldest entries are overwritten once full.
constexpr std::size_t kFlightRingSlots = 1024;

/// Clears the ring, resets the epoch and arms the recorder (idempotent).
void start_flight_recorder();

/// Disarms the recorder; the ring contents stay readable for a dump.
void stop_flight_recorder();

/// Records a span boundary. `name` must be a static string (the trace
/// layer stores span labels by pointer already).
void flight_record_span(const char* name, bool begin);

/// Records one formatted log line (truncated to the slot's text buffer).
void flight_record_log(const char* line);

/// Entries currently readable (capped at kFlightRingSlots).
std::size_t flight_recorder_size();

/// Renders the ring oldest-to-newest as a JSON document:
///   {"schema":"autoncs-flight/1","events":[{"type":...,"t_us":...,
///    "tid":...,"name"|"line":...}, ...]}
/// Safe from normal (non-signal) code.
std::string flight_recorder_json();

/// Writes flight_recorder_json() to `path`; false on I/O failure.
bool flight_write_json(const std::string& path);

/// Async-signal-safe dump of the ring as the same JSON document to an
/// already-open file descriptor — the fatal-signal handler path.
void flight_dump_fd(int fd);

}  // namespace autoncs::util

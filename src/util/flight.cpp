#include "util/flight.hpp"

#include <chrono>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/json.hpp"

namespace autoncs::util {

namespace flight_detail {
std::atomic<bool> g_enabled{false};
}

namespace {

using Clock = std::chrono::steady_clock;

enum : std::uint8_t { kSpanBegin = 0, kSpanEnd = 1, kLog = 2 };

/// Slot payload as a reader copies it out.
struct Entry {
  std::uint8_t type = kLog;
  std::uint32_t tid = 0;
  std::uint64_t t_us = 0;
  const char* name = nullptr;  // static span label; nullptr for log lines
  char text[120] = {};
};

constexpr std::size_t kTextWords = sizeof(Entry::text) / sizeof(std::uint64_t);
static_assert(sizeof(Entry::text) % sizeof(std::uint64_t) == 0);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<const char*>::is_always_lock_free,
              "the fatal-signal dump needs lock-free slot fields");

/// One ring slot: a sequence lock over relaxed-atomic fields. `seq` is 0
/// while a writer fills the slot and claim-index + 1 once the contents
/// are published; a reader that sees a different value than it expects,
/// before or after its copy, skips the slot as torn. Every field is an
/// atomic, so a wrapped writer racing another writer, or a reader racing
/// a writer, can tear an entry (which the reader then drops) but is never
/// a data race. The text travels as 64-bit words.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint8_t> type{kLog};
  std::atomic<std::uint32_t> tid{0};
  std::atomic<std::uint64_t> t_us{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> text[kTextWords] = {};
};

Slot g_ring[kFlightRingSlots];
std::atomic<std::uint64_t> g_head{0};
/// Session epoch (steady-clock ticks), reset by start_flight_recorder.
std::atomic<Clock::rep> g_epoch{Clock::now().time_since_epoch().count()};
std::atomic<std::uint32_t> g_next_tid{0};

std::uint32_t flight_tid() {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::uint64_t now_us() {
  const Clock::duration since_epoch(
      Clock::now().time_since_epoch().count() -
      g_epoch.load(std::memory_order_relaxed));
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(since_epoch)
          .count());
}

/// Claims the next slot, marks it in progress and fills it.
void record(std::uint8_t type, const char* name, const char* line) {
  const std::uint64_t index = g_head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = g_ring[index % kFlightRingSlots];
  slot.seq.store(0, std::memory_order_relaxed);
  // Orders the in-progress mark before the field stores below.
  std::atomic_thread_fence(std::memory_order_release);
  slot.type.store(type, std::memory_order_relaxed);
  slot.tid.store(flight_tid(), std::memory_order_relaxed);
  slot.t_us.store(now_us(), std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  if (line != nullptr) {
    char text[sizeof(Entry::text)] = {};
    std::strncpy(text, line, sizeof(text) - 1);
    for (std::size_t w = 0; w < kTextWords; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, text + w * sizeof(word), sizeof(word));
      slot.text[w].store(word, std::memory_order_relaxed);
    }
  }
  slot.seq.store(index + 1, std::memory_order_release);  // publish
}

/// Copies one slot if it is intact (not concurrently rewritten). The
/// seq check after the copy catches writers that raced us.
bool read_slot(std::uint64_t index, Entry* out) {
  const Slot& slot = g_ring[index % kFlightRingSlots];
  if (slot.seq.load(std::memory_order_acquire) != index + 1) return false;
  out->type = slot.type.load(std::memory_order_relaxed);
  out->tid = slot.tid.load(std::memory_order_relaxed);
  out->t_us = slot.t_us.load(std::memory_order_relaxed);
  out->name = slot.name.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < kTextWords; ++w) {
    const std::uint64_t word = slot.text[w].load(std::memory_order_relaxed);
    std::memcpy(out->text + w * sizeof(word), &word, sizeof(word));
  }
  out->text[sizeof(out->text) - 1] = '\0';
  // Orders the field loads above before the re-check.
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.seq.load(std::memory_order_relaxed) == index + 1;
}

const char* type_name(std::uint8_t type) {
  switch (type) {
    case kSpanBegin:
      return "span_begin";
    case kSpanEnd:
      return "span_end";
    default:
      return "log";
  }
}

// ---- async-signal-safe formatting helpers (fd dump path) ----

#if defined(__unix__) || defined(__APPLE__)
void fd_write(int fd, const char* data, std::size_t length) {
  while (length > 0) {
    const ssize_t written = ::write(fd, data, length);
    if (written <= 0) return;
    data += written;
    length -= static_cast<std::size_t>(written);
  }
}
#else
void fd_write(int, const char*, std::size_t) {}
#endif

void fd_puts(int fd, const char* text) { fd_write(fd, text, std::strlen(text)); }

void fd_u64(int fd, std::uint64_t value) {
  char buffer[24];
  char* cursor = buffer + sizeof(buffer);
  *--cursor = '\0';
  do {
    *--cursor = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  fd_puts(fd, cursor);
}

/// Minimal JSON string escaping with no allocation: quotes and
/// backslashes are escaped, control characters become spaces.
void fd_json_string(int fd, const char* text) {
  fd_puts(fd, "\"");
  for (const char* c = text; *c != '\0'; ++c) {
    char ch = *c;
    if (ch == '"' || ch == '\\') {
      const char escaped[3] = {'\\', ch, '\0'};
      fd_puts(fd, escaped);
    } else {
      if (static_cast<unsigned char>(ch) < 0x20) ch = ' ';
      fd_write(fd, &ch, 1);
    }
  }
  fd_puts(fd, "\"");
}

}  // namespace

void start_flight_recorder() {
  for (Slot& slot : g_ring) slot.seq.store(0, std::memory_order_relaxed);
  g_head.store(0, std::memory_order_relaxed);
  g_epoch.store(Clock::now().time_since_epoch().count(),
                std::memory_order_relaxed);
  flight_detail::g_enabled.store(true, std::memory_order_release);
}

void stop_flight_recorder() {
  flight_detail::g_enabled.store(false, std::memory_order_release);
}

void flight_record_span(const char* name, bool begin) {
  if (!flight_enabled()) return;
  record(begin ? kSpanBegin : kSpanEnd, name, nullptr);
}

void flight_record_log(const char* line) {
  if (!flight_enabled()) return;
  record(kLog, nullptr, line);
}

std::size_t flight_recorder_size() {
  const std::uint64_t head = g_head.load(std::memory_order_acquire);
  return static_cast<std::size_t>(
      head < kFlightRingSlots ? head : kFlightRingSlots);
}

std::string flight_recorder_json() {
  const std::uint64_t head = g_head.load(std::memory_order_acquire);
  const std::uint64_t start =
      head > kFlightRingSlots ? head - kFlightRingSlots : 0;
  JsonWriter json;
  json.begin_object();
  json.field("schema", "autoncs-flight/1")
      .field("recorded", static_cast<long long>(head))
      .field("capacity", kFlightRingSlots);
  json.key("events").begin_array();
  for (std::uint64_t i = start; i < head; ++i) {
    Entry copy;
    if (!read_slot(i, &copy)) continue;
    json.begin_object();
    json.field("type", type_name(copy.type))
        .field("t_us", static_cast<long long>(copy.t_us))
        .field("tid", static_cast<std::size_t>(copy.tid));
    if (copy.type == kLog) {
      json.field("line", std::string(copy.text));
    } else {
      json.field("name", copy.name != nullptr ? copy.name : "");
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

bool flight_write_json(const std::string& path) {
  return write_text_file(path, flight_recorder_json());
}

void flight_dump_fd(int fd) {
  const std::uint64_t head = g_head.load(std::memory_order_acquire);
  const std::uint64_t start =
      head > kFlightRingSlots ? head - kFlightRingSlots : 0;
  fd_puts(fd, "{\"schema\":\"autoncs-flight/1\",\"recorded\":");
  fd_u64(fd, head);
  fd_puts(fd, ",\"capacity\":");
  fd_u64(fd, kFlightRingSlots);
  fd_puts(fd, ",\"events\":[");
  bool first = true;
  for (std::uint64_t i = start; i < head; ++i) {
    // Read in place — a concurrent writer can tear a slot, but the crash
    // path must not retry or allocate; a torn entry is simply skipped.
    Entry copy;
    if (!read_slot(i, &copy)) continue;
    if (!first) fd_puts(fd, ",");
    first = false;
    fd_puts(fd, "{\"type\":\"");
    fd_puts(fd, type_name(copy.type));
    fd_puts(fd, "\",\"t_us\":");
    fd_u64(fd, copy.t_us);
    fd_puts(fd, ",\"tid\":");
    fd_u64(fd, copy.tid);
    if (copy.type == kLog) {
      fd_puts(fd, ",\"line\":");
      fd_json_string(fd, copy.text);
    } else {
      fd_puts(fd, ",\"name\":");
      fd_json_string(fd, copy.name != nullptr ? copy.name : "");
    }
    fd_puts(fd, "}");
  }
  fd_puts(fd, "]}\n");
}

}  // namespace autoncs::util

// Stage memory accounting (docs/observability.md).
//
// Two kinds of measurements, both passive — nothing in the flow reads
// them back, and every call is one relaxed atomic load while accounting
// is disabled (the default):
//
//  - RSS samples at stage boundaries (mem_stage_sample): current and
//    peak resident set size read from /proc/self/status. Inherently
//    nondeterministic (allocator, thread count, kernel).
//  - Instrumented byte counters on the big flow structures
//    (mem_record_bytes): logical footprints computed from element counts
//    (size() * sizeof, not capacity).
//
// Both land in the run manifest's "memory" section only.
//
// Recording happens from sequential driver code (stage epilogues), so a
// plain mutex-guarded registry suffices.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "util/fields.hpp"

namespace autoncs::util {

/// Current resident set size in bytes (VmRSS), or 0 where unsupported.
std::size_t current_rss_bytes();

/// Peak resident set size in bytes (VmHWM), or 0 where unsupported.
std::size_t peak_rss_bytes();

/// One stage-boundary RSS sample, in call order.
struct MemStageSample {
  std::string stage;
  std::size_t current_rss_bytes = 0;
  std::size_t peak_rss_bytes = 0;
};

/// One row of the manifest's `memory.stages` (util/fields.hpp).
template <RecordOf<MemStageSample> Sample, class F>
void visit_fields(Sample& sample, F&& f) {
  auto& [stage, current_rss_bytes, peak_rss_bytes] = sample;
  f("stage", stage);
  f("current_rss_bytes", current_rss_bytes);
  f("peak_rss_bytes", peak_rss_bytes);
}

/// One instrumented structure footprint (last write per name wins).
struct MemStructure {
  std::string name;
  double bytes = 0.0;
};

/// One row of the manifest's `memory.structures` (util/fields.hpp).
template <RecordOf<MemStructure> Structure, class F>
void visit_fields(Structure& structure, F&& f) {
  auto& [name, bytes] = structure;
  f("name", name);
  f("bytes", bytes);
}

/// Everything collected by a memory-accounting session.
struct MemSnapshot {
  std::vector<MemStageSample> stages;
  std::vector<MemStructure> structures;
  /// Peak RSS at snapshot time (manifest convenience; 0 if unsupported).
  std::size_t peak_rss_bytes = 0;
};

/// The manifest's `memory` section (util/fields.hpp).
template <RecordOf<MemSnapshot> Snapshot, class F>
void visit_fields(Snapshot& snapshot, F&& f) {
  auto& [stages, structures, peak_rss_bytes] = snapshot;
  f("peak_rss_bytes", peak_rss_bytes);
  f("stages", stages);
  f("structures", structures);
}

namespace mem_detail {
extern std::atomic<bool> g_enabled;
}

/// True while memory accounting is collecting.
inline bool mem_accounting_enabled() {
  return mem_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Clears the registry and starts collecting (idempotent).
void start_mem_accounting();

/// Copies everything recorded so far (plus the peak RSS right now).
MemSnapshot mem_snapshot();

/// Stops collecting and clears the registry.
void stop_mem_accounting();

/// Records a stage-boundary RSS sample. No-op while disabled.
void mem_stage_sample(const std::string& stage);

/// Records the logical footprint of one named structure (last write per
/// name wins). No-op while disabled.
void mem_record_bytes(const std::string& name, double bytes);

/// sizeof-based logical footprint of a vector-like container's elements.
template <typename Container>
double container_bytes(const Container& c) {
  return static_cast<double>(c.size()) *
         static_cast<double>(sizeof(typename Container::value_type));
}

}  // namespace autoncs::util

#include "util/mem.hpp"

#include <cstdio>
#include <cstring>
#include <mutex>

namespace autoncs::util {

namespace mem_detail {
std::atomic<bool> g_enabled{false};
}

namespace {

/// Reads one "Vm...: N kB" field from /proc/self/status. Returns 0 on
/// non-Linux platforms or when the field is missing.
std::size_t proc_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 &&
        line[field_len] == ':') {
      unsigned long long value = 0;
      if (std::sscanf(line + field_len + 1, "%llu", &value) == 1) {
        kb = static_cast<std::size_t>(value);
      }
      break;
    }
  }
  std::fclose(file);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

struct MemRegistry {
  std::mutex mutex;
  std::vector<MemStageSample> stages;
  std::vector<MemStructure> structures;
};

MemRegistry& registry() {
  static MemRegistry* r = new MemRegistry();
  return *r;
}

}  // namespace

std::size_t current_rss_bytes() { return proc_status_kb("VmRSS") * 1024; }

std::size_t peak_rss_bytes() { return proc_status_kb("VmHWM") * 1024; }

void start_mem_accounting() {
  MemRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.stages.clear();
  r.structures.clear();
  mem_detail::g_enabled.store(true, std::memory_order_release);
}

MemSnapshot mem_snapshot() {
  MemSnapshot out;
  MemRegistry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    out.stages = r.stages;
    out.structures = r.structures;
  }
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

void stop_mem_accounting() {
  mem_detail::g_enabled.store(false, std::memory_order_release);
  MemRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.stages.clear();
  r.structures.clear();
}

void mem_stage_sample(const std::string& stage) {
  if (!mem_accounting_enabled()) return;
  MemStageSample sample;
  sample.stage = stage;
  sample.current_rss_bytes = current_rss_bytes();
  sample.peak_rss_bytes = peak_rss_bytes();
  MemRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.stages.push_back(std::move(sample));
}

void mem_record_bytes(const std::string& name, double bytes) {
  if (!mem_accounting_enabled()) return;
  MemRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (MemStructure& s : r.structures) {
    if (s.name == name) {
      s.bytes = bytes;
      return;
    }
  }
  r.structures.push_back({name, bytes});
}

}  // namespace autoncs::util

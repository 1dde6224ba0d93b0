#include "util/mem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace autoncs::util {
namespace {

TEST(Mem, DisabledRecordsNothing) {
  ASSERT_FALSE(mem_accounting_enabled());
  mem_stage_sample("never");
  mem_record_bytes("never/structure", 128.0);
  start_mem_accounting();
  const MemSnapshot snapshot = mem_snapshot();
  stop_mem_accounting();
  EXPECT_TRUE(snapshot.stages.empty());
  EXPECT_TRUE(snapshot.structures.empty());
}

TEST(Mem, StageSamplesKeepCallOrder) {
  start_mem_accounting();
  mem_stage_sample("clustering");
  mem_stage_sample("placement");
  mem_stage_sample("routing");
  const MemSnapshot snapshot = mem_snapshot();
  stop_mem_accounting();
  ASSERT_EQ(snapshot.stages.size(), 3u);
  EXPECT_EQ(snapshot.stages[0].stage, "clustering");
  EXPECT_EQ(snapshot.stages[1].stage, "placement");
  EXPECT_EQ(snapshot.stages[2].stage, "routing");
}

TEST(Mem, LastWritePerStructureNameWins) {
  start_mem_accounting();
  mem_record_bytes("grid", 100.0);
  mem_record_bytes("cache", 50.0);
  mem_record_bytes("grid", 300.0);
  const MemSnapshot snapshot = mem_snapshot();
  stop_mem_accounting();
  ASSERT_EQ(snapshot.structures.size(), 2u);
  const auto it = std::find_if(
      snapshot.structures.begin(), snapshot.structures.end(),
      [](const MemStructure& s) { return s.name == "grid"; });
  ASSERT_NE(it, snapshot.structures.end());
  EXPECT_DOUBLE_EQ(it->bytes, 300.0);
}

TEST(Mem, RssReadersReturnPlausibleValues) {
#if defined(__linux__)
  // The test process certainly occupies at least a page and peak >= now.
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
#else
  // Unsupported platforms degrade to 0 rather than lying.
  EXPECT_GE(current_rss_bytes(), 0u);
#endif
}

TEST(Mem, ContainerBytesUsesSizeNotCapacity) {
  std::vector<std::uint64_t> v;
  v.reserve(100);
  v.resize(10);
  EXPECT_DOUBLE_EQ(container_bytes(v), 10.0 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace autoncs::util

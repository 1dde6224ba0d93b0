// Golden route digests: the paper testbenches tb1-3 (built at seed 2015)
// pushed through the AutoNCS and FullCro flows, with the routing hashed
// bit for bit, once at 1 thread and once at the hardware's thread count.
// Any change to the maze kernel's search order, its tie-breaking, or the
// router's wave/commit schedule moves these digests.
//
// The expected values live in tests/data/route_digests.txt, one
// `<flow> <testbench> <16 hex digits>` line each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>

#include "autoncs/pipeline.hpp"
#include "nn/testbench.hpp"
#include "support/golden.hpp"

namespace autoncs {
namespace {

/// FNV-1a over every wire's (index, length, delay, relaxations), the
/// usage of every grid edge (the committed paths), total wirelength and
/// overflow, and the maze counters (searches, nodes expanded, heap
/// pushes, window retries, meets, relaxed segments).
std::uint64_t route_digest(const route::RoutingResult& r) {
  testing::Fnv1a h;
  for (const auto& wire : r.wires) {
    h.add(static_cast<std::uint64_t>(wire.wire_index));
    h.add(wire.length_um);
    h.add(wire.delay_ns);
    h.add(static_cast<std::uint64_t>(wire.relaxations));
  }
  const std::size_t nx = r.grid.nx();
  const std::size_t ny = r.grid.ny();
  const std::size_t edges = (nx - 1) * ny + nx * (ny - 1);
  for (std::size_t e = 0; e < edges; ++e)
    h.add(r.grid.edge_usage(static_cast<std::uint32_t>(e)));
  h.add(r.total_wirelength_um);
  h.add(r.total_overflow);
  h.add(static_cast<std::uint64_t>(r.maze_invocations));
  h.add(r.maze_nodes_expanded);
  h.add(r.maze_heap_pushes);
  h.add(r.maze_window_retries);
  h.add(r.maze_meets);
  h.add(static_cast<std::uint64_t>(r.segments_relaxed));
  return h.value();
}

void expect_golden(const std::string& flow, int testbench) {
  const nn::ConnectionMatrix network =
      nn::build_testbench(testbench, 2015).topology;
  const std::string key = flow + " tb" + std::to_string(testbench);
  const auto expected = testing::read_table("route_digests.txt", 2);
  const auto it = expected.find(key);
  const std::string want =
      it == expected.end() || it->second.empty() ? "(missing)" : it->second[0];
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, nproc}) {
    FlowConfig config;
    config.threads = threads;
    const FlowResult result = flow == "autoncs"
                                  ? run_autoncs(network, config)
                                  : run_fullcro(network, config);
    EXPECT_EQ(want, testing::hex(route_digest(result.routing)))
        << key << " at " << threads << " threads";
  }
}

TEST(RouteGolden, AutoncsTb1) { expect_golden("autoncs", 1); }
TEST(RouteGolden, AutoncsTb2) { expect_golden("autoncs", 2); }
TEST(RouteGolden, AutoncsTb3) { expect_golden("autoncs", 3); }
TEST(RouteGolden, FullcroTb1) { expect_golden("fullcro", 1); }
TEST(RouteGolden, FullcroTb2) { expect_golden("fullcro", 2); }
TEST(RouteGolden, FullcroTb3) { expect_golden("fullcro", 3); }

}  // namespace
}  // namespace autoncs

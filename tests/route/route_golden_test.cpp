// Golden route digests: the paper testbenches tb1-3 (built at seed 2015)
// pushed through the AutoNCS and FullCro flows, checked once at 1 thread
// and once at the hardware's thread count. Each design has two lines:
//
//  * `result` — the routing itself hashed bit for bit. Any change to the
//    maze kernel's search order, its tie-breaking, or the router's
//    wave/commit schedule moves it.
//  * `effort` — the search-effort counters, exact. A change that only
//    saves search work (same routes, fewer or cheaper searches) moves
//    these and leaves the result digest alone.
//
// The expected values live in tests/data/route_digests.txt.
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
/// overflow, and the relaxed-segment count.
std::uint64_t result_digest(const route::RoutingResult& r) {
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
  h.add(static_cast<std::uint64_t>(r.segments_relaxed));
  return h.value();
}

/// The search-effort counters in the column order of the `effort` lines.
std::string effort_line(const route::RoutingResult& r) {
  std::string line;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(r.maze_invocations),
        r.maze_nodes_expanded, r.maze_heap_pushes, r.maze_window_retries,
        r.maze_meets, r.oracle_calls, r.oracle_nodes}) {
    if (!line.empty()) line += ' ';
    line += std::to_string(v);
  }
  return line;
}

void expect_golden(const std::string& flow, int testbench) {
  const nn::ConnectionMatrix network =
      nn::build_testbench(testbench, 2015).topology;
  const std::string key = flow + " tb" + std::to_string(testbench);
  const auto expected = testing::read_table("route_digests.txt", 3);
  const auto lookup = [&](const std::string& kind) {
    const auto it = expected.find(key + " " + kind);
    if (it == expected.end() || it->second.empty())
      return std::string("(missing)");
    std::string joined;
    for (const std::string& field : it->second)
      joined += (joined.empty() ? "" : " ") + field;
    return joined;
  };
  const std::string want_result = lookup("result");
  const std::string want_effort = lookup("effort");
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, nproc}) {
    FlowConfig config;
    config.threads = threads;
    const FlowResult result = flow == "autoncs"
                                  ? run_autoncs(network, config)
                                  : run_fullcro(network, config);
    EXPECT_EQ(want_result, testing::hex(result_digest(result.routing)))
        << key << " result at " << threads << " threads";
    EXPECT_EQ(want_effort, effort_line(result.routing))
        << key << " effort at " << threads << " threads";
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

// Performance study — routing-only microbenchmark of the maze kernel.
//
// Places the selected Hopfield testbench once (FullCro mapping, so the
// netlist and placement are fixed), then routes the placed netlist at one
// thread and at the hardware's thread count, reporting wall-clock, search
// effort (nodes expanded, heap pushes, window retries, frontier meets,
// rung-oracle calls and nodes), and the routing quality (wirelength,
// overflow). The default flow config
// is used (the paper's single-pass flow), so the warm-start seeds are
// exercised through wave deferrals and relaxation retries. Each thread
// count runs several repetitions and keeps the fastest (the searches are
// deterministic, so quality and effort are identical across reps — only
// the clock varies). The two routings must be identical; the bench exits
// nonzero otherwise. The search-effort counts are deterministic, so
// tools/bench_gate.py compares them with the committed
// BENCH_perf_route.json for the same testbench.
//
// Usage: bench_perf_route [testbench_id] [reps]
//   testbench_id selects the Hopfield testbench (1..3, default 3 — the
//   largest, the one the committed artifact records).
#include <cstdio>
#include <cstdlib>

#include <string>
#include <thread>
#include <utility>

#include "autoncs/pipeline.hpp"
#include "common.hpp"
#include "mapping/fullcro.hpp"
#include "nn/testbench.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace autoncs;

/// Same committed paths (every grid edge's usage), per-wire results and
/// search counters.
bool same_routing(const route::RoutingResult& a,
                  const route::RoutingResult& b) {
  if (a.wires.size() != b.wires.size()) return false;
  for (std::size_t w = 0; w < a.wires.size(); ++w) {
    if (a.wires[w].length_um != b.wires[w].length_um ||
        a.wires[w].delay_ns != b.wires[w].delay_ns ||
        a.wires[w].relaxations != b.wires[w].relaxations)
      return false;
  }
  if (a.grid.nx() != b.grid.nx() || a.grid.ny() != b.grid.ny()) return false;
  const std::size_t nx = a.grid.nx();
  const std::size_t ny = a.grid.ny();
  for (std::size_t e = 0; e < (nx - 1) * ny + nx * (ny - 1); ++e) {
    const auto edge = static_cast<std::uint32_t>(e);
    if (a.grid.edge_usage(edge) != b.grid.edge_usage(edge)) return false;
  }
  return a.total_wirelength_um == b.total_wirelength_um &&
         a.total_overflow == b.total_overflow &&
         a.maze_invocations == b.maze_invocations &&
         a.maze_nodes_expanded == b.maze_nodes_expanded &&
         a.maze_heap_pushes == b.maze_heap_pushes &&
         a.maze_window_retries == b.maze_window_retries &&
         a.maze_meets == b.maze_meets && a.oracle_calls == b.oracle_calls &&
         a.oracle_nodes == b.oracle_nodes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Performance: maze kernel, 1 thread vs nproc");

  int testbench_id = 3;  // largest testbench (N = 500)
  if (argc > 1) testbench_id = std::atoi(argv[1]);
  int reps = 3;
  if (argc > 2) reps = std::atoi(argv[2]);
  if (reps < 1) reps = 1;

  const auto tb = nn::build_testbench(testbench_id);
  FlowConfig config = bench::default_config();
  const mapping::HybridMapping mapping = mapping::fullcro_mapping(
      tb.topology, {config.baseline_crossbar_size, true});
  // One placement shared by every routing run.
  const FlowResult placed = run_physical_design(mapping, config);

  const std::size_t nproc = util::resolve_thread_count(0);
  struct Variant {
    std::size_t threads;
    route::RoutingResult result;
    double best_ms = 0.0;
  };
  Variant variants[] = {{1, {}, 0.0}, {nproc, {}, 0.0}};
  for (Variant& v : variants) {
    route::RouterOptions options = config.router;
    options.threads = v.threads;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      route::RoutingResult result = route::route(placed.netlist, options);
      const double ms = timer.elapsed_ms();
      if (rep == 0 || ms < v.best_ms) v.best_ms = ms;
      if (rep == 0) v.result = std::move(result);
    }
  }
  const route::RoutingResult& serial = variants[0].result;
  const bool identical = same_routing(serial, variants[1].result);

  util::ConsoleTable table({"threads", "route (ms)", "nodes expanded",
                            "heap pushes", "window retries", "meets",
                            "oracle calls", "oracle nodes", "L (um)",
                            "overflow"});
  for (const Variant& v : variants) {
    table.add_row({std::to_string(v.threads), util::fmt_double(v.best_ms, 1),
                   std::to_string(v.result.maze_nodes_expanded),
                   std::to_string(v.result.maze_heap_pushes),
                   std::to_string(v.result.maze_window_retries),
                   std::to_string(v.result.maze_meets),
                   std::to_string(v.result.oracle_calls),
                   std::to_string(v.result.oracle_nodes),
                   util::fmt_double(v.result.total_wirelength_um, 1),
                   util::fmt_double(v.result.total_overflow, 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("routing identical at 1 and %zu threads: %s\n", nproc,
              identical ? "yes" : "NO — determinism violated");

  bench::write_bench_json(
      "perf_route",
      {{"testbench", static_cast<double>(testbench_id)},
       {"route_ms", variants[0].best_ms},
       {"route_mt_ms", variants[1].best_ms},
       {"mt_threads", static_cast<double>(nproc)},
       {"hardware_threads",
        static_cast<double>(std::thread::hardware_concurrency())},
       {"nodes_expanded", static_cast<double>(serial.maze_nodes_expanded)},
       {"heap_pushes", static_cast<double>(serial.maze_heap_pushes)},
       {"window_retries", static_cast<double>(serial.maze_window_retries)},
       {"meets", static_cast<double>(serial.maze_meets)},
       {"maze_invocations", static_cast<double>(serial.maze_invocations)},
       {"oracle_calls", static_cast<double>(serial.oracle_calls)},
       {"oracle_nodes", static_cast<double>(serial.oracle_nodes)},
       {"wirelength_um", serial.total_wirelength_um},
       {"overflow", serial.total_overflow},
       {"deterministic", identical ? 1.0 : 0.0}});
  return identical ? 0 : 1;
}

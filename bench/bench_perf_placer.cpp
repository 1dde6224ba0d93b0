// Performance study — the analytical placer's evaluation engine.
//
// Sweeps the cell count and runs the full analytical placer (Alg. 4) on
// two instances per size: uniform cells of 0.5-3 um, and a mixed-size one
// with ~5% macros of 10-20 um among 1-2.5 um cells (the AutoNCS shape,
// where the macro/small split of place/spatial_grid.hpp matters). Each
// instance is placed at one thread and with a fixed 8-thread pool; the
// two placements must be BIT-identical — the bench verifies it on every
// row and exits nonzero otherwise. Progress is judged against the
// committed BENCH_perf_placer.json (tools/bench_gate.py compares runs of
// the same size).
//
// Usage: bench_perf_placer [max_n]
//   max_n caps the size sweep (default 8000); CI smoke-runs with a tiny
//   cap.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "place/placer.hpp"
#include "place/wa_wirelength.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace autoncs;

/// Synthetic placement instance: random cell sizes, a sparse mix of
/// two-pin and multi-pin wires (~4 wires per cell). `mixed` makes every
/// 20th cell a 10-20 um macro among 1-2.5 um cells.
netlist::Netlist bench_netlist(std::size_t cells, bool mixed) {
  util::Rng rng(2015);
  netlist::Netlist net;
  for (std::size_t c = 0; c < cells; ++c) {
    netlist::Cell cell;
    if (!mixed) {
      cell.width = rng.uniform(0.5, 3.0);
      cell.height = rng.uniform(0.5, 3.0);
    } else if (c % 20 == 7) {
      cell.width = cell.height = rng.uniform(10.0, 20.0);
    } else {
      cell.width = rng.uniform(1.0, 2.5);
      cell.height = rng.uniform(1.0, 2.5);
    }
    net.cells.push_back(cell);
  }
  for (std::size_t w = 0; w < cells * 4; ++w) {
    const auto a = static_cast<std::size_t>(rng.next_below(cells));
    auto b = static_cast<std::size_t>(rng.next_below(cells));
    if (b == a) b = (b + 1) % cells;
    net.wires.push_back({{a, b}, 1.0 + rng.uniform(), 0.0});
  }
  for (std::size_t w = 0; w + 8 < cells; w += 29) {
    net.wires.push_back({{w, w + 1, w + 3, w + 8}, 1.0, 0.0});
  }
  return net;
}

place::PlacerOptions bench_options(std::size_t threads) {
  place::PlacerOptions options;
  options.seed = 7;
  options.threads = threads;
  // Bound the bench runtime: fewer, representative outer iterations.
  options.max_outer_iterations = 10;
  options.cg.max_iterations = 60;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Performance: analytical placer evaluation engine");

  std::size_t max_n = 8000;
  if (argc > 1) max_n = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));

  std::vector<std::size_t> sizes;
  for (std::size_t n = 500; n <= max_n; n *= 2) sizes.push_back(n);
  if (sizes.empty() || sizes.back() != max_n) sizes.push_back(max_n);

  // A FIXED thread count is requested — hardware_concurrency() resolves to
  // 1 on single-core CI runners and would silently rerun the serial
  // configuration while labeling it multithreaded. The artifact records
  // the requested count, the resolved pool size, and the hardware's
  // parallelism so a reader can tell oversubscribed numbers apart.
  constexpr std::size_t kMtThreadsRequested = 8;
  const std::size_t mt_threads =
      util::resolve_thread_count(kMtThreadsRequested);
  const std::size_t hardware_threads = std::thread::hardware_concurrency();

  util::ConsoleTable table({"n", "cells", "1 thread (ms)",
                            std::to_string(mt_threads) + " threads (ms)",
                            "value evals", "grad evals", "density kept/cand",
                            "legal sep/checked", "identical"});
  util::CsvWriter csv(bench::output_path("perf_placer.csv"),
                      {"n", "mixed", "place_ms", "place_mt_ms", "value_evals",
                       "gradient_evals", "grid_builds", "pair_candidates",
                       "pairs_kept", "legalize_pairs_checked",
                       "legalize_separations", "bit_identical"});

  bool all_identical = true;
  bool grad_le_value = true;
  // Largest row of each instance kind.
  struct Row {
    double ms = 0.0;
    double mt_ms = 0.0;
    place::PlacementReport report;
  };
  Row largest[2];

  for (std::size_t n : sizes) {
    for (const bool mixed : {false, true}) {
      netlist::Netlist net = bench_netlist(n, mixed);
      util::WallTimer timer;
      const auto report = place::place(net, bench_options(1));
      const double ms = timer.elapsed_ms();

      netlist::Netlist mt_net = bench_netlist(n, mixed);
      timer.restart();
      place::place(mt_net, bench_options(mt_threads));
      const double mt_ms = timer.elapsed_ms();

      const bool identical =
          place::pack_positions(net) == place::pack_positions(mt_net);
      all_identical = all_identical && identical;
      for (const auto& outer : report.outer) {
        grad_le_value =
            grad_le_value && outer.cg_gradient_evals <= outer.cg_value_evals;
      }

      largest[mixed ? 1 : 0] = {ms, mt_ms, report};
      const auto& legal = report.legalization;
      table.add_row(
          {std::to_string(n), mixed ? "mixed" : "uniform",
           util::fmt_double(ms, 1), util::fmt_double(mt_ms, 1),
           std::to_string(report.cg_value_evals_total),
           std::to_string(report.cg_gradient_evals_total),
           std::to_string(report.density_pairs_kept_total) + "/" +
               std::to_string(report.density_pair_candidates_total),
           std::to_string(legal.separations) + "/" +
               std::to_string(legal.pairs_checked),
           identical ? "yes" : "NO"});
      csv.row_values(
          {static_cast<double>(n), mixed ? 1.0 : 0.0, ms, mt_ms,
           static_cast<double>(report.cg_value_evals_total),
           static_cast<double>(report.cg_gradient_evals_total),
           static_cast<double>(report.density_grid_builds_total),
           static_cast<double>(report.density_pair_candidates_total),
           static_cast<double>(report.density_pairs_kept_total),
           static_cast<double>(legal.pairs_checked),
           static_cast<double>(legal.separations), identical ? 1.0 : 0.0});
    }
  }
  const Row& uniform_row = largest[0];
  const Row& mixed_row = largest[1];
  std::printf("%s", table.render().c_str());
  if (hardware_threads < mt_threads) {
    std::printf("WARNING: %zu threads on %zu hardware thread(s) — the pool "
                "is oversubscribed and the multithreaded column measures "
                "scheduling overhead, not scaling.\n",
                mt_threads, hardware_threads);
  }
  std::printf("placements bit-identical (1 vs %zu threads, uniform and "
              "mixed-size): %s\n",
              mt_threads,
              all_identical ? "yes" : "NO — determinism violated");
  std::printf("gradient evals <= value evals in every CG run: %s\n",
              grad_le_value ? "yes" : "NO");

  bench::write_bench_json(
      "perf_placer",
      {{"largest_n", static_cast<double>(sizes.back())},
       {"place_ms", uniform_row.ms},
       {"place_mt_ms", uniform_row.mt_ms},
       {"mt_threads", static_cast<double>(mt_threads)},
       {"mt_threads_requested", static_cast<double>(kMtThreadsRequested)},
       {"hardware_threads", static_cast<double>(hardware_threads)},
       {"value_evals",
        static_cast<double>(uniform_row.report.cg_value_evals_total)},
       {"gradient_evals",
        static_cast<double>(uniform_row.report.cg_gradient_evals_total)},
       {"grid_builds",
        static_cast<double>(uniform_row.report.density_grid_builds_total)},
       {"grid_reallocations",
        static_cast<double>(uniform_row.report.density_grid_reallocations)},
       {"mixed_place_ms", mixed_row.ms},
       {"mixed_place_mt_ms", mixed_row.mt_ms},
       {"mixed_pair_candidates",
        static_cast<double>(mixed_row.report.density_pair_candidates_total)},
       {"mixed_pairs_kept",
        static_cast<double>(mixed_row.report.density_pairs_kept_total)},
       {"mixed_legalize_pairs_checked",
        static_cast<double>(mixed_row.report.legalization.pairs_checked)},
       {"mixed_legalize_separations",
        static_cast<double>(mixed_row.report.legalization.separations)},
       {"bit_identical", all_identical ? 1.0 : 0.0}});
  return (all_identical && grad_le_value) ? 0 : 1;
}

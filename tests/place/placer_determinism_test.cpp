// Determinism and gradient-correctness guarantees of the placer's
// evaluation engine (value passes + a replay at the last valued point +
// mixed-size pair index):
//
//  * the final placed state is BIT-identical across thread counts,
//  * the placer lands on the exact bits frozen from the engine it
//    replaced (gradient on every trial, per-evaluation spatial hash,
//    all-pairs legalizer sweep), on uniform and on mixed-size netlists,
//  * every gradient CG asks for replays the value pass at its point,
//  * analytic gradients of WA, density, and the boundary penalty match
//    central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autoncs/pipeline.hpp"
#include "mapping/hybrid_mapping.hpp"
#include "netlist/builder.hpp"
#include "nn/testbench.hpp"
#include "place/density.hpp"
#include "place/placer.hpp"
#include "place/spatial_grid.hpp"
#include "place/wa_wirelength.hpp"
#include "support/golden.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {
namespace {

netlist::Netlist mesh_netlist(std::size_t side, std::uint64_t seed) {
  netlist::Netlist net;
  util::Rng rng(seed);
  const std::size_t n = side * side;
  for (std::size_t c = 0; c < n; ++c) {
    netlist::Cell cell;
    cell.width = rng.uniform(0.6, 1.8);
    cell.height = rng.uniform(0.6, 1.8);
    net.cells.push_back(cell);
  }
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c + 1 < side; ++c) {
      net.wires.push_back({{r * side + c, r * side + c + 1},
                           rng.uniform(0.5, 2.0), 0.0});
      net.wires.push_back({{c * side + r, (c + 1) * side + r},
                           rng.uniform(0.5, 2.0), 0.0});
    }
  }
  // A few multi-pin wires so the WA kernels see pin counts > 2.
  for (std::size_t w = 0; w + 4 < n; w += 17)
    net.wires.push_back({{w, w + 1, w + 2, w + 4}, 1.0, 0.0});
  return net;
}

std::vector<double> placed_state(const netlist::Netlist& net) {
  return pack_positions(net);
}

/// Checks a placement against the frozen reference `name` of
/// tests/data/placer_references.txt: the placed state with its summary
/// figures, and the per-outer-iteration trajectory.
void expect_matches_frozen(const std::string& name,
                           const netlist::Netlist& net,
                           const PlacementReport& report) {
  static const auto frozen = testing::read_table("placer_references.txt", 1);
  const auto it = frozen.find(name);
  ASSERT_TRUE(it != frozen.end() && it->second.size() == 4)
      << "no placer reference for " << name;
  std::vector<double> placement = placed_state(net);
  for (const double v :
       {report.hpwl_um, report.area_um2,
        static_cast<double>(report.outer_iterations),
        static_cast<double>(report.legalization.passes),
        report.legalization.final_overlap_ratio,
        static_cast<double>(report.legalization.separations)})
    placement.push_back(v);
  std::vector<double> trajectory;
  for (const auto& outer : report.outer) {
    trajectory.push_back(outer.objective);
    trajectory.push_back(outer.overlap_ratio);
    trajectory.push_back(static_cast<double>(outer.cg_iterations));
  }
  EXPECT_EQ(testing::hex(testing::digest(placement)), it->second[0]) << name;
  EXPECT_EQ(testing::hex(testing::digest(trajectory)), it->second[1]) << name;
  // Far fewer legalizer checks than the all-pairs sweep, and never more
  // gradients than an engine that computed one on every trial.
  EXPECT_LT(report.legalization.pairs_checked,
            testing::parse_u64(it->second[2]))
      << name;
  EXPECT_LE(report.cg_gradient_evals_total, testing::parse_u64(it->second[3]))
      << name;
}

TEST(PlacerDeterminism, BitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<double>> results;
  std::vector<PlacementReport> reports;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    netlist::Netlist net = mesh_netlist(7, 21);
    PlacerOptions options;
    options.threads = threads;
    options.seed = 5;
    reports.push_back(place(net, options));
    results.push_back(placed_state(net));
  }
  EXPECT_EQ(results[0], results[1]);  // exact bits, not tolerances
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(reports[0].hpwl_um, reports[1].hpwl_um);
  EXPECT_EQ(reports[0].cg_value_evals_total, reports[1].cg_value_evals_total);
  EXPECT_EQ(reports[0].cg_value_evals_total, reports[2].cg_value_evals_total);
}

TEST(PlacerDeterminism, FastEngineMatchesLegacyEngineBitForBit) {
  netlist::Netlist net = mesh_netlist(6, 9);
  PlacerOptions options;
  options.seed = 3;
  const auto report = place(net, options);
  expect_matches_frozen("mesh", net, report);
}

TEST(PlacerDeterminism, GradientEvalsNeverExceedValueEvals) {
  netlist::Netlist net = mesh_netlist(6, 2);
  const auto report = place(net);
  ASSERT_FALSE(report.outer.empty());
  for (const auto& outer : report.outer) {
    EXPECT_GT(outer.cg_value_evals, 0u);
    EXPECT_LE(outer.cg_gradient_evals, outer.cg_value_evals);
    EXPECT_GT(outer.density_grid_builds, 0u);
  }
  EXPECT_LE(report.cg_gradient_evals_total, report.cg_value_evals_total);
  EXPECT_GT(report.density_grid_builds_total, 0u);
}

TEST(PlacerDeterminism, EveryGradientReplaysTheValuePassAtItsPoint) {
  // CG asks for a gradient only at the point it valued last, and the
  // placer's acceptance key turns exactly those calls into replays: every
  // other call is one density value pass. Checked on tb1's AutoNCS
  // netlist at 1 and 4 threads.
  const nn::ConnectionMatrix network = nn::build_testbench(1, 2015).topology;
  FlowConfig config;
  config.threads = 1;
  const clustering::IscResult isc = run_isc(network, config);
  const netlist::Netlist built = netlist::build_netlist(
      mapping::mapping_from_isc(isc, network.size()), config.tech);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    netlist::Netlist net = built;
    PlacerOptions options = config.placer;
    options.seed = config.seed;
    options.threads = threads;
    const auto report = place(net, options);
    ASSERT_GT(report.cg_gradient_evals_total, 0u);
    EXPECT_EQ(report.density_grid_builds_total,
              report.cg_value_evals_total - report.cg_gradient_evals_total)
        << threads << " threads";
  }
}

// --- mixed-size netlists ---------------------------------------------

/// mesh_netlist with every 16th cell (6%) a 10-20 um macro among
/// 1-2.5 um cells — the AutoNCS shape, where the density model and the
/// legalizer enumerate pairs through the macro/small split.
netlist::Netlist mixed_mesh_netlist(std::size_t side, std::uint64_t seed) {
  netlist::Netlist net = mesh_netlist(side, seed);
  util::Rng rng(seed + 100);
  for (std::size_t c = 0; c < net.cells.size(); ++c) {
    auto& cell = net.cells[c];
    const bool macro = c % 16 == 5;
    cell.width = macro ? rng.uniform(10.0, 20.0) : rng.uniform(1.0, 2.5);
    cell.height = macro ? cell.width : rng.uniform(1.0, 2.5);
  }
  return net;
}

TEST(PlacerDeterminism, MixedSizeFastEngineMatchesLegacyEngineBitForBit) {
  netlist::Netlist net = mixed_mesh_netlist(8, 4);
  std::vector<std::uint32_t> macros;
  std::vector<std::uint8_t> is_macro;
  split_macros(net, macros, is_macro);
  ASSERT_EQ(macros.size(), 4u);
  PlacerOptions options;
  options.seed = 11;
  options.threads = 1;
  const auto report = place(net, options);
  expect_matches_frozen("mixed_mesh", net, report);
  EXPECT_GT(report.density_pairs_kept_total, 0u);
  EXPECT_LE(report.density_pairs_kept_total,
            report.density_pair_candidates_total);
}

TEST(PlacerDeterminism, MixedSizeBitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<double>> results;
  std::vector<PlacementReport> reports;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    netlist::Netlist net = mixed_mesh_netlist(8, 6);
    PlacerOptions options;
    options.threads = threads;
    options.seed = 2;
    reports.push_back(place(net, options));
    results.push_back(placed_state(net));
  }
  for (std::size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[0], results[k]);
    EXPECT_EQ(reports[0].cg_value_evals_total, reports[k].cg_value_evals_total);
    // The work counters are thread-count-invariant too.
    EXPECT_EQ(reports[0].density_pair_candidates_total,
              reports[k].density_pair_candidates_total);
    EXPECT_EQ(reports[0].density_pairs_kept_total,
              reports[k].density_pairs_kept_total);
    EXPECT_EQ(reports[0].legalization.pairs_checked,
              reports[k].legalization.pairs_checked);
    EXPECT_EQ(reports[0].legalization.separations,
              reports[k].legalization.separations);
  }
}

// --- finite-difference gradient checks -------------------------------

netlist::Netlist scattered_netlist(std::size_t n, std::uint64_t seed) {
  netlist::Netlist net;
  util::Rng rng(seed);
  for (std::size_t c = 0; c < n; ++c) {
    netlist::Cell cell;
    cell.x = rng.uniform(-6.0, 6.0);
    cell.y = rng.uniform(-6.0, 6.0);
    cell.width = rng.uniform(0.5, 2.0);
    cell.height = rng.uniform(0.5, 2.0);
    net.cells.push_back(cell);
  }
  for (std::size_t c = 0; c + 1 < n; ++c)
    net.wires.push_back({{c, c + 1}, rng.uniform(0.5, 1.5), 0.0});
  net.wires.push_back({{0, n / 2, n - 1}, 1.0, 0.0});
  return net;
}

/// Checks d f / d state against central differences, and that the
/// value-only mode (gradient == nullptr) returns the gradient-mode value
/// bit for bit.
template <typename EvalFn>
void check_gradient(const netlist::Netlist& net, const EvalFn& eval,
                    double step, double tolerance) {
  std::vector<double> state = pack_positions(net);
  std::vector<double> grad(state.size(), 0.0);
  const double value = eval(state, &grad);
  const double value_only = eval(state, nullptr);
  EXPECT_EQ(value, value_only);  // identical FP operations in both modes

  for (std::size_t i = 0; i < state.size(); ++i) {
    const double saved = state[i];
    state[i] = saved + step;
    const double plus = eval(state, nullptr);
    state[i] = saved - step;
    const double minus = eval(state, nullptr);
    state[i] = saved;
    const double fd = (plus - minus) / (2.0 * step);
    EXPECT_NEAR(grad[i], fd, tolerance + tolerance * std::abs(fd))
        << "component " << i;
  }
}

/// A model's value pass at x, plus its replay into `g` when nonnull.
template <typename Model>
double value_and_replay(Model& model, const std::vector<double>& x,
                        std::vector<double>* g) {
  const double value = model.value(x);
  if (g != nullptr) {
    std::fill(g->begin(), g->end(), 0.0);
    model.add_gradient(x, *g);
  }
  return value;
}

TEST(PlacerGradients, WaWirelengthMatchesFiniteDifferences) {
  const auto net = scattered_netlist(10, 77);
  util::ThreadPool pool(1);
  WaModel model(net, 1.5, pool);
  check_gradient(
      net,
      [&](const std::vector<double>& x, std::vector<double>* g) {
        return value_and_replay(model, x, g);
      },
      1e-5, 1e-5);
}

TEST(PlacerGradients, DensityMatchesFiniteDifferences) {
  const auto net = scattered_netlist(10, 31);
  util::ThreadPool pool(1);
  DensityModel model(net, 1.2, 4.0, pool);  // soft beta: smooth for FD
  check_gradient(
      net,
      [&](const std::vector<double>& x, std::vector<double>* g) {
        return value_and_replay(model, x, g);
      },
      1e-5, 1e-4);
}

TEST(PlacerGradients, BoundaryPenaltyMatchesFiniteDifferences) {
  const auto net = scattered_netlist(10, 55);
  const double die_half = 3.0;  // tight: several cells pay the penalty
  check_gradient(
      net,
      [&](const std::vector<double>& x, std::vector<double>* g) {
        if (g != nullptr) std::fill(g->begin(), g->end(), 0.0);
        return boundary_penalty(net, x, 1.2, die_half, g);
      },
      1e-6, 1e-5);
}

}  // namespace
}  // namespace autoncs::place

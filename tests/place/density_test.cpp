#include "place/density.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>

#include "autoncs/pipeline.hpp"
#include "mapping/hybrid_mapping.hpp"
#include "netlist/builder.hpp"
#include "nn/testbench.hpp"
#include "place/conjugate_gradient.hpp"
#include "place/spatial_grid.hpp"
#include "place/wa_wirelength.hpp"
#include "support/golden.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {
namespace {

/// Frozen value, gradient digest, pairs kept and candidates of the
/// spatial-hash engine for one case of tests/data/density_references.txt.
struct Reference {
  double value = 0.0;
  std::string gradient;
  std::size_t kept = 0;
  std::size_t candidates = 0;
};

Reference reference(const std::string& name) {
  static const auto table =
      testing::read_table("density_references.txt", 1);
  const auto it = table.find(name);
  if (it == table.end() || it->second.size() != 4) {
    ADD_FAILURE() << "no density reference for " << name;
    return {};
  }
  return {testing::parse_double(it->second[0]), it->second[1],
          testing::parse_u64(it->second[2]), testing::parse_u64(it->second[3])};
}

/// Smooth-overlap sum over ALL pairs, O(n^2), with no spatial pruning and
/// no tail check: the independent oracle for the pair set. (The softplus
/// is the model's own, which is exactly 0 below exp(-30).)
double all_pairs_density(const netlist::Netlist& net,
                         const std::vector<double>& state, double omega,
                         double beta) {
  double total = 0.0;
  for (std::size_t i = 0; i < net.cells.size(); ++i)
    for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
      const auto& a = net.cells[i];
      const auto& b = net.cells[j];
      const double zx = 0.5 * omega * (a.width + b.width) -
                        std::abs(state[2 * i] - state[2 * j]);
      const double zy = 0.5 * omega * (a.height + b.height) -
                        std::abs(state[2 * i + 1] - state[2 * j + 1]);
      total += density_softplus(zx, beta) * density_softplus(zy, beta);
    }
  return total;
}

netlist::Netlist boxes(const std::vector<std::array<double, 4>>& specs) {
  // Each spec: {x, y, width, height}.
  netlist::Netlist net;
  for (const auto& s : specs) {
    netlist::Cell cell;
    cell.x = s[0];
    cell.y = s[1];
    cell.width = s[2];
    cell.height = s[3];
    net.cells.push_back(cell);
  }
  return net;
}

TEST(ExactOverlap, DisjointCellsZero) {
  const auto net = boxes({{0, 0, 1, 1}, {10, 0, 1, 1}});
  const auto state = pack_positions(net);
  EXPECT_DOUBLE_EQ(exact_overlap_area(net, state, 1.0), 0.0);
}

TEST(ExactOverlap, FullyCoincidentCells) {
  const auto net = boxes({{0, 0, 2, 2}, {0, 0, 2, 2}});
  const auto state = pack_positions(net);
  EXPECT_DOUBLE_EQ(exact_overlap_area(net, state, 1.0), 4.0);
}

TEST(ExactOverlap, PartialOverlapHandComputed) {
  // Unit squares at distance 0.5 in x: overlap = 0.5 * 1.0.
  const auto net = boxes({{0, 0, 1, 1}, {0.5, 0, 1, 1}});
  const auto state = pack_positions(net);
  EXPECT_NEAR(exact_overlap_area(net, state, 1.0), 0.5, 1e-12);
}

TEST(ExactOverlap, OmegaInflatesVirtualCells) {
  // Touching unit squares overlap once omega > 1.
  const auto net = boxes({{0, 0, 1, 1}, {1.0, 0, 1, 1}});
  const auto state = pack_positions(net);
  EXPECT_DOUBLE_EQ(exact_overlap_area(net, state, 1.0), 0.0);
  EXPECT_GT(exact_overlap_area(net, state, 1.2), 0.0);
}

TEST(OverlapRatio, NormalizedByVirtualArea) {
  const auto net = boxes({{0, 0, 2, 2}, {0, 0, 2, 2}});
  const auto state = pack_positions(net);
  // Overlap 4, total virtual area 8 -> ratio 0.5.
  EXPECT_NEAR(overlap_ratio(net, state, 1.0), 0.5, 1e-12);
}

TEST(DensityModel, ZeroForFarCells) {
  const auto net = boxes({{0, 0, 1, 1}, {100, 100, 1, 1}});
  const auto state = pack_positions(net);
  const DensityModel model{1.0, 8.0};
  EXPECT_DOUBLE_EQ(model.evaluate(net, state, nullptr), 0.0);
}

TEST(DensityModel, ApproachesExactOverlapForLargeBeta) {
  const auto net = boxes({{0, 0, 2, 2}, {1.0, 0.5, 2, 2}});
  const auto state = pack_positions(net);
  const DensityModel sharp{1.0, 64.0};
  EXPECT_NEAR(sharp.evaluate(net, state, nullptr),
              exact_overlap_area(net, state, 1.0), 0.1);
}

TEST(DensityModel, GradientMatchesFiniteDifferences) {
  util::Rng rng(3);
  netlist::Netlist net;
  for (int c = 0; c < 6; ++c) {
    netlist::Cell cell;
    cell.x = rng.uniform(-2.0, 2.0);
    cell.y = rng.uniform(-2.0, 2.0);
    cell.width = rng.uniform(0.5, 2.0);
    cell.height = rng.uniform(0.5, 2.0);
    net.cells.push_back(cell);
  }
  auto state = pack_positions(net);
  const DensityModel model{1.1, 4.0};
  std::vector<double> gradient(state.size(), 0.0);
  model.evaluate(net, state, &gradient);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < state.size(); ++i) {
    auto plus = state;
    auto minus = state;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (model.evaluate(net, plus, nullptr) -
                            model.evaluate(net, minus, nullptr)) /
                           (2.0 * eps);
    EXPECT_NEAR(gradient[i], numeric, 1e-4) << "coordinate " << i;
  }
}

TEST(DensityModel, MatchesBruteForcePairSum) {
  // The pair index must not miss any interacting pair.
  util::Rng rng(5);
  netlist::Netlist net;
  for (int c = 0; c < 40; ++c) {
    netlist::Cell cell;
    cell.x = rng.uniform(-10.0, 10.0);
    cell.y = rng.uniform(-10.0, 10.0);
    cell.width = rng.uniform(0.3, 4.0);
    cell.height = rng.uniform(0.3, 4.0);
    net.cells.push_back(cell);
  }
  const auto state = pack_positions(net);
  const DensityModel model{1.2, 6.0};
  const double fast = model.evaluate(net, state, nullptr);

  // Brute force with the same softplus.
  auto softplus = [](double z, double beta) {
    const double t = beta * z;
    if (t > 30.0) return z;
    if (t < -30.0) return 0.0;
    return std::log1p(std::exp(t)) / beta;
  };
  double brute = 0.0;
  for (std::size_t i = 0; i < net.cells.size(); ++i) {
    for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
      const auto& a = net.cells[i];
      const auto& b = net.cells[j];
      const double tx = 0.6 * (a.width + b.width);
      const double ty = 0.6 * (a.height + b.height);
      const double zx = tx - std::abs(a.x - b.x);
      const double zy = ty - std::abs(a.y - b.y);
      if (zx < -5.0 || zy < -5.0) continue;
      brute += softplus(zx, 6.0) * softplus(zy, 6.0);
    }
  }
  EXPECT_NEAR(fast, brute, 1e-9 + 1e-9 * brute);
}

TEST(DensityModel, CacheKeyCoversCellExtents) {
  // A model that evaluated 1 um cells must not replay that pass for the
  // same positions once the cells are 4 um: the half extents are part of
  // the cache key.
  util::Rng rng(17);
  netlist::Netlist small;
  for (int c = 0; c < 12; ++c) {
    netlist::Cell cell;
    cell.x = rng.uniform(-6.0, 6.0);
    cell.y = rng.uniform(-6.0, 6.0);
    cell.width = 1.0;
    cell.height = 1.0;
    small.cells.push_back(cell);
  }
  netlist::Netlist large = small;
  for (auto& cell : large.cells) cell.width = cell.height = 4.0;
  const auto state = pack_positions(small);

  util::ThreadPool pool(2);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const DensityModel model{1.2, 8.0};
    model.evaluate(small, state, nullptr, p);  // fills the cache
    std::vector<double> gradient(state.size(), 0.0);
    const double value = model.evaluate(large, state, &gradient, p);

    const DensityModel fresh{1.2, 8.0};
    std::vector<double> fresh_gradient(state.size(), 0.0);
    EXPECT_EQ(value, fresh.evaluate(large, state, &fresh_gradient, p));
    EXPECT_EQ(gradient, fresh_gradient);
    EXPECT_GT(value, 1.0);
  }
}

TEST(DensityModel, SingleCellIsZero) {
  const auto net = boxes({{0, 0, 3, 3}});
  const auto state = pack_positions(net);
  const DensityModel model{1.2, 8.0};
  EXPECT_DOUBLE_EQ(model.evaluate(net, state, nullptr), 0.0);
}

TEST(DensityModel, InvalidParametersThrow) {
  const auto net = boxes({{0, 0, 1, 1}, {1, 1, 1, 1}});
  const auto state = pack_positions(net);
  DensityModel bad_omega{0.5, 8.0};
  EXPECT_THROW(bad_omega.evaluate(net, state, nullptr), util::CheckError);
  DensityModel bad_beta{1.2, 0.0};
  EXPECT_THROW(bad_beta.evaluate(net, state, nullptr), util::CheckError);
}

TEST(DensityModel, ExtremeCoordinatesDoNotAlias) {
  // Regression for a spatial hash that truncated bin coordinates to 32
  // bits: bins exactly 2^32 buckets apart aliased into one bucket. The
  // grid keeps 64-bit bin coordinates (and falls back to its sparse
  // layout for a spread this wide), so two overlapping clusters separated
  // by an astronomical offset must contribute exactly two local overlaps
  // and nothing across the gap.
  const double beta = 8.0;
  const DensityModel probe{1.2, beta};
  // Recover the evaluation bucket width: reach = 2 * r_max + 30 / beta,
  // bucket = reach / 2, with r_max = 0.6 * max extent below.
  const double r_max = 0.6 * 2.0;
  const double bucket = (2.0 * r_max + 30.0 / beta) / 2.0;
  const double far = bucket * 4294967296.0;  // 2^32 bins away
  const auto net = boxes({{0.0, 0.0, 2.0, 2.0},
                          {0.5, 0.0, 2.0, 2.0},
                          {far, 0.0, 2.0, 2.0},
                          {far + 0.5, 0.0, 2.0, 2.0}});
  const auto state = pack_positions(net);
  const double total = probe.evaluate(net, state, nullptr);

  // Reference: the same pair in isolation, twice.
  const auto pair = boxes({{0.0, 0.0, 2.0, 2.0}, {0.5, 0.0, 2.0, 2.0}});
  const double one = probe.evaluate(pair, pack_positions(pair), nullptr);
  EXPECT_DOUBLE_EQ(total, 2.0 * one);

  // The gradient path agrees and the far cluster pulls only locally.
  std::vector<double> grad(state.size(), 0.0);
  const double with_grad = probe.evaluate(net, state, &grad);
  EXPECT_DOUBLE_EQ(with_grad, total);
  EXPECT_DOUBLE_EQ(grad[0], grad[4]);  // same local geometry -> same pull
}

TEST(DensityModel, FlatGridMatchesLegacyHashBitForBit) {
  util::Rng rng(11);
  netlist::Netlist net;
  for (int i = 0; i < 80; ++i) {
    netlist::Cell cell;
    cell.x = rng.uniform(-15.0, 15.0);
    cell.y = rng.uniform(-15.0, 15.0);
    cell.width = rng.uniform(0.3, 3.0);
    cell.height = rng.uniform(0.3, 3.0);
    net.cells.push_back(cell);
  }
  const auto state = pack_positions(net);
  const Reference ref = reference("uniform80");
  DensityModel model{1.2, 8.0};
  std::vector<double> grad(state.size(), 0.0);
  const double value = model.evaluate(net, state, &grad);
  EXPECT_EQ(value, ref.value);
  EXPECT_EQ(testing::hex(testing::digest(grad)), ref.gradient);
  EXPECT_EQ(model.pairs_kept(), ref.kept);
  // Value-only mode returns the same bits as the gradient mode.
  DensityModel value_only{1.2, 8.0};
  EXPECT_EQ(value_only.evaluate(net, state, nullptr), value);
  // Buffer reuse: repeated value passes rebuild but do not regrow.
  const std::size_t reallocs = value_only.grid_reallocations();
  auto moved = state;
  for (int r = 0; r < 3; ++r) {
    moved[0] += 0.125;
    value_only.evaluate(net, moved, nullptr);
  }
  EXPECT_EQ(value_only.grid_reallocations(), reallocs);
  EXPECT_EQ(value_only.grid_builds(), 4u);
}

// --- mixed-size netlists ---------------------------------------------
//
// AutoNCS netlists mix a few crossbar macros (10-20 um) with many small
// neurons and synapses (1-2.5 um). The density model finds pairs through
// a fine grid over the small cells plus a macro grid, and must fold them
// in the exact order of the single all-cell grid. The frozen references
// in tests/data/density_references.txt were recorded from an engine that
// walked that order directly, so the model must match them bit for bit.

/// `count` cells of 1-2.5 um in a square of half side `spread`, about
/// `macro_share` of them macros of 10-20 um.
netlist::Netlist mixed_netlist(std::size_t count, double macro_share,
                               double spread, std::uint64_t seed) {
  util::Rng rng(seed);
  netlist::Netlist net;
  for (std::size_t c = 0; c < count; ++c) {
    netlist::Cell cell;
    const bool macro = rng.uniform() < macro_share;
    cell.width = macro ? rng.uniform(10.0, 20.0) : rng.uniform(1.0, 2.5);
    cell.height = macro ? cell.width : rng.uniform(1.0, 2.5);
    cell.x = rng.uniform(-spread, spread);
    cell.y = rng.uniform(-spread, spread);
    net.cells.push_back(cell);
  }
  return net;
}

std::size_t macro_count(const netlist::Netlist& net) {
  std::vector<std::uint32_t> macros;
  std::vector<std::uint8_t> is_macro;
  split_macros(net, macros, is_macro);
  return macros.size();
}

/// The model at 1, 2 and 8 threads against the frozen reference `name`:
/// identical value and gradient bits, the value-only pass and the
/// gradient replay at the same point independent of the threads, the
/// same pair set as the reference, and the value within 1e-12 relative of
/// the all-pairs oracle.
void expect_matches_reference(const netlist::Netlist& net, double beta,
                              const std::string& name) {
  const auto state = pack_positions(net);
  const Reference ref = reference(name);
  std::size_t candidates = 0;
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    // Gradient with no cache hit: a value pass, then the replay.
    DensityModel model{1.2, beta};
    std::vector<double> grad(state.size(), 0.0);
    EXPECT_EQ(model.evaluate(net, state, &grad, pool_ptr), ref.value)
        << name << ", " << threads << " threads";
    EXPECT_EQ(testing::hex(testing::digest(grad)), ref.gradient)
        << name << ", " << threads << " threads";
    EXPECT_EQ(model.pairs_kept(), ref.kept) << name;
    // Value-only pass, then the replayed gradient at the same point: the
    // cache hits, so neither call enumerates again.
    DensityModel trial{1.2, beta};
    EXPECT_EQ(trial.evaluate(net, state, nullptr, pool_ptr), ref.value);
    EXPECT_EQ(trial.evaluate(net, state, nullptr, pool_ptr), ref.value);
    std::vector<double> replay(state.size(), 0.0);
    EXPECT_EQ(trial.evaluate(net, state, &replay, pool_ptr), ref.value);
    EXPECT_EQ(replay, grad) << name << ", " << threads << " threads";
    EXPECT_EQ(trial.pairs_kept(), ref.kept) << name;
    EXPECT_EQ(trial.grid_builds(), 1u) << name;
    if (threads == 1) {
      candidates = model.pair_candidates();
      EXPECT_LE(ref.kept, candidates) << name;
    } else {
      EXPECT_EQ(model.pair_candidates(), candidates)
          << name << ", " << threads << " threads";
    }
  }
  // The tail cut drops pair terms below exp(-30) / beta each, so the
  // tolerance is relative with a floor at unit scale.
  const double oracle = all_pairs_density(net, state, 1.2, beta);
  EXPECT_NEAR(ref.value, oracle, 1e-12 * std::max(oracle, 1.0)) << name;
}

/// exact_overlap_area must reproduce, bit for bit, the single-grid sum:
/// every cell pair found through one all-cell grid (reach 2 * r_max,
/// bucket r_max), folded in that grid's candidate order.
double single_grid_overlap(const netlist::Netlist& net,
                           const std::vector<double>& state, double omega) {
  double r_max = 0.0;
  for (const auto& cell : net.cells)
    r_max = std::max(r_max, 0.5 * omega * std::max(cell.width, cell.height));
  UniformGrid grid;
  const double bucket = std::max(r_max, 1e-6);
  grid.build(net, state, 2.0 * r_max, bucket);
  const auto span = static_cast<long long>(std::ceil(2.0 * r_max / bucket));
  double total = 0.0;
  for (std::size_t i = 0; i < net.cells.size(); ++i) {
    const auto& ci = net.cells[i];
    grid.for_window(
        state[2 * i], state[2 * i + 1], span, span, [&](std::size_t k) {
          const std::size_t j = grid.id(k);
          if (j <= i) return;
          const auto& cj = net.cells[j];
          const double ox =
              std::max(0.0, 0.5 * omega * (ci.width + cj.width) -
                                std::abs(state[2 * i] - state[2 * j]));
          const double oy =
              std::max(0.0, 0.5 * omega * (ci.height + cj.height) -
                                std::abs(state[2 * i + 1] - state[2 * j + 1]));
          total += ox * oy;
        });
  }
  return total;
}

double brute_force_overlap(const netlist::Netlist& net,
                           const std::vector<double>& state, double omega) {
  double total = 0.0;
  for (std::size_t i = 0; i < net.cells.size(); ++i)
    for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
      const auto& a = net.cells[i];
      const auto& b = net.cells[j];
      total += std::max(0.0, 0.5 * omega * (a.width + b.width) -
                                 std::abs(state[2 * i] - state[2 * j])) *
               std::max(0.0, 0.5 * omega * (a.height + b.height) -
                                 std::abs(state[2 * i + 1] - state[2 * j + 1]));
    }
  return total;
}

void expect_overlap_exact(const netlist::Netlist& net) {
  const auto state = pack_positions(net);
  const double value = exact_overlap_area(net, state, 1.2);
  EXPECT_EQ(value, single_grid_overlap(net, state, 1.2));
  const double brute = brute_force_overlap(net, state, 1.2);
  EXPECT_NEAR(value, brute, 1e-9 * (1.0 + brute));
}

TEST(MacroSplit, MacrosAreCellsWellAboveTheMedianExtent) {
  const auto net = boxes({{0, 0, 1, 1},
                          {0, 0, 2, 1},
                          {0, 0, 1.5, 1.5},
                          {0, 0, 12, 12},
                          {0, 0, 1, 5}});
  std::vector<std::uint32_t> macros;
  std::vector<std::uint8_t> is_macro;
  split_macros(net, macros, is_macro);
  // Median extent 1.5: only the 12 um cell exceeds 3x that.
  EXPECT_EQ(macros, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(is_macro, (std::vector<std::uint8_t>{0, 0, 0, 1, 0}));
  // Similar sizes: no macros.
  EXPECT_EQ(macro_count(boxes({{0, 0, 1, 1}, {0, 0, 2.5, 2.5}})), 0u);
}

TEST(MixedSizeDensity, RandomNetlistsMatchHashBitForBit) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = mixed_netlist(240, 0.03 + 0.03 * static_cast<double>(seed),
                                   40.0, seed);
    ASSERT_GT(macro_count(net), 0u);
    const std::string name = "random_s" + std::to_string(seed);
    expect_matches_reference(net, 16.0, name + "_b16");
    expect_matches_reference(net, 4.0, name + "_b4");  // wide softplus tail
    expect_overlap_exact(net);
  }
}

TEST(MixedSizeDensity, CellsStackedAtOnePoint) {
  auto net = mixed_netlist(120, 0.08, 0.0, 4);
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_reference(net, 16.0, "stacked");
  expect_overlap_exact(net);
}

/// Small cells of 1-2 um around 15 um macros centered on multiples of the
/// fine bucket, with partners at the exact interaction distance and a
/// hair inside or outside it on either axis.
netlist::Netlist straddling_netlist() {
  const double omega = 1.2;
  const double tail = 30.0 / 16.0;
  const double r_small = 0.5 * omega * 2.0;
  const double bucket = covering_bucket(2.0 * r_small + tail, 2);
  const double macro_half = 0.5 * omega * 15.0;
  std::vector<std::array<double, 4>> specs;
  for (int m = 0; m < 3; ++m) {
    const double mx = bucket * 7.0 * m;
    const double my = -bucket * 3.0 * m;
    specs.push_back({mx, my, 15.0, 15.0});
    for (double eps : {-1e-9, 0.0, 1e-9}) {
      for (double w : {1.0, 2.0}) {
        const double reach = macro_half + 0.5 * omega * w + tail + eps;
        specs.push_back({mx + reach, my, w, w});
        specs.push_back({mx - reach, my + 0.5, w, w});
        specs.push_back({mx + 0.3, my + reach, w, 1.0});
        specs.push_back({mx + reach, my - reach, w, w});
      }
    }
  }
  // Filler so the macros stay well above the median extent.
  for (int f = 0; f < 40; ++f)
    specs.push_back({bucket * f, bucket * (f % 5), 1.0 + 0.025 * f, 1.5});
  return boxes(specs);
}

/// Two 10 um macros exactly 2 * reach / 2 buckets apart (beta 16): rounding
/// puts their single-grid bins three buckets apart, yet the pair's
/// penetration is exactly -tail and passes the tail check.
netlist::Netlist outside_window_netlist() {
  std::vector<std::array<double, 4>> specs = {{-6.9375000000000009, 0, 10, 10},
                                              {6.9375, 0, 10, 10}};
  for (int f = 0; f < 20; ++f) specs.push_back({3.0 * f, 40.0, 1.5, 1.5});
  return boxes(specs);
}

/// Two mixed clusters 1e12 um apart: every grid falls back to its sparse
/// layout.
netlist::Netlist extreme_netlist() {
  auto net = mixed_netlist(80, 0.08, 15.0, 5);
  const auto far = mixed_netlist(80, 0.08, 15.0, 6);
  for (auto cell : far.cells) {
    cell.x += 1e12;
    cell.y -= 1e12;
    net.cells.push_back(cell);
  }
  return net;
}

TEST(MixedSizeDensity, MacroStraddlingBucketEdges) {
  const auto net = straddling_netlist();
  ASSERT_EQ(macro_count(net), 3u);
  expect_matches_reference(net, 16.0, "straddling");
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, PairOutsideTheSingleGridWindowStaysOut) {
  // The single-grid engine never enumerated the macro pair of
  // outside_window_netlist. The macro grid does find it; the index must
  // still leave it out to keep the single grid's pair set.
  const auto net = outside_window_netlist();
  ASSERT_EQ(macro_count(net), 2u);
  const double zx =
      0.6 * (10 + 10) - std::abs(net.cells[0].x - net.cells[1].x);
  ASSERT_EQ(zx, -30.0 / 16.0);
  expect_matches_reference(net, 16.0, "outside_window");
}

TEST(MixedSizeDensity, ExtremeCoordinatesTakeTheSparsePath) {
  // Nothing may interact across the 1e12 um gap.
  const auto net = extreme_netlist();
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_reference(net, 16.0, "extreme");
  expect_overlap_exact(net);
}

/// Small cells of 1e-7 um among macros: a fine grid of 1e-7 um buckets
/// unless the macros' windows are kept a bounded number of buckets wide.
netlist::Netlist vanishing_netlist() {
  auto net = mixed_netlist(150, 0.06, 30.0, 9);
  for (auto& cell : net.cells)
    if (cell.width < 5.0) cell.width = cell.height = 1e-7;
  return net;
}

TEST(MixedSizeDensity, VanishinglySmallCellsAmongMacros) {
  const auto net = vanishing_netlist();
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_reference(net, 16.0, "vanishing");
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, NoMacrosMatchesHashBitForBit) {
  const auto net = mixed_netlist(200, 0.0, 20.0, 7);
  ASSERT_EQ(macro_count(net), 0u);
  expect_matches_reference(net, 16.0, "no_macros");
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, FineGridSkipsFarSmallCells) {
  // The point of the split: with macros present, small cells stop probing
  // the macro-sized window, so most candidates survive the tail. The
  // reference engine, which probed one macro-sized window for every cell,
  // examined more than twice the candidates for the same pairs.
  const auto net = mixed_netlist(600, 0.05, 60.0, 8);
  const Reference ref = reference("fine_grid");
  DensityModel model{1.2, 16.0};
  const auto state = pack_positions(net);
  EXPECT_EQ(model.evaluate(net, state, nullptr), ref.value);
  EXPECT_EQ(model.pairs_kept(), ref.kept);
  EXPECT_LT(2 * model.pair_candidates(), ref.candidates);
}


// --- fold-order oracle -----------------------------------------------
//
// An O(n^2) statement of the fold-order contract, independent of every
// grid: each pair (i, j), i < j, that passes the tail test and lies in
// the coarse window (bins of side (2 * r_max + tail) / 2 at most the
// coarse span apart on both axes) is kept, row i's pairs are summed in
// ascending (cbx_j, cby_j, j), and their gradient terms are scattered in
// that order. The model must match it bit for bit at any thread count.

struct OracleResult {
  double value = 0.0;
  std::vector<double> gradient;
  std::size_t kept = 0;
};

OracleResult fold_order_oracle(const netlist::Netlist& net,
                               const std::vector<double>& state, double omega,
                               double beta) {
  const std::size_t n = net.cells.size();
  const double tail = 30.0 / beta;
  std::vector<double> hw(n);
  std::vector<double> hh(n);
  double r_max = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const auto& cell = net.cells[c];
    hw[c] = 0.5 * omega * cell.width;
    hh[c] = 0.5 * omega * cell.height;
    r_max = std::max(r_max, 0.5 * omega * std::max(cell.width, cell.height));
  }
  const double reach = 2.0 * r_max + tail;
  const double bucket = std::max(reach / 2.0, 1e-6);
  const auto span = static_cast<long long>(std::ceil(reach / bucket));
  std::vector<long long> bx(n);
  std::vector<long long> by(n);
  for (std::size_t c = 0; c < n; ++c) {
    bx[c] = static_cast<long long>(std::floor(state[2 * c] / bucket));
    by[c] = static_cast<long long>(std::floor(state[2 * c + 1] / bucket));
  }

  struct Term {
    std::size_t j;
    double ox;
    double oy;
  };
  OracleResult out;
  out.gradient.assign(2 * n, 0.0);
  std::vector<Term> row;
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(bx[i] - bx[j]) > span || std::abs(by[i] - by[j]) > span)
        continue;
      const double zx = (hw[i] + hw[j]) - std::abs(state[2 * i] - state[2 * j]);
      const double zy =
          (hh[i] + hh[j]) - std::abs(state[2 * i + 1] - state[2 * j + 1]);
      if (zx < -tail || zy < -tail) continue;
      row.push_back({j, density_softplus(zx, beta), density_softplus(zy, beta)});
    }
    std::sort(row.begin(), row.end(), [&](const Term& a, const Term& b) {
      return std::tie(bx[a.j], by[a.j], a.j) < std::tie(bx[b.j], by[b.j], b.j);
    });
    for (const Term& t : row) {
      out.value += t.ox * t.oy;
      double sx = 0.0;
      double sy = 0.0;
      density_pair_gradient(state[2 * i] - state[2 * t.j],
                            state[2 * i + 1] - state[2 * t.j + 1],
                            hw[i] + hw[t.j], hh[i] + hh[t.j], t.ox, t.oy, beta,
                            sx, sy);
      out.gradient[2 * i] += sx;
      out.gradient[2 * t.j] -= sx;
      out.gradient[2 * i + 1] += sy;
      out.gradient[2 * t.j + 1] -= sy;
    }
    out.kept += row.size();
  }
  return out;
}

/// The model at 1 and 8 threads against the oracle: identical value and
/// gradient bits, the oracle's pair count, and candidate counts that do
/// not depend on the threads.
void expect_matches_oracle(const netlist::Netlist& net,
                           const std::vector<double>& state, double beta,
                           const std::string& name) {
  const OracleResult oracle = fold_order_oracle(net, state, 1.2, beta);
  ASSERT_GT(oracle.kept, 0u) << name;
  std::size_t candidates = 0;
  for (std::size_t threads : {1u, 8u}) {
    util::ThreadPool pool(threads);
    DensityModel model{1.2, beta};
    std::vector<double> grad(state.size(), 0.0);
    const double value =
        model.evaluate(net, state, &grad, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(testing::hex(testing::digest({value})),
              testing::hex(testing::digest({oracle.value})))
        << name << ", " << threads << " threads";
    EXPECT_EQ(testing::hex(testing::digest(grad)),
              testing::hex(testing::digest(oracle.gradient)))
        << name << ", " << threads << " threads";
    EXPECT_EQ(model.pairs_kept(), oracle.kept) << name;
    if (threads == 1)
      candidates = model.pair_candidates();
    else
      EXPECT_EQ(model.pair_candidates(), candidates) << name;
  }
}

TEST(FoldOrderOracle, MixedNetlistCorpus) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = mixed_netlist(240, 0.03 + 0.03 * static_cast<double>(seed),
                                   40.0, seed);
    const auto state = pack_positions(net);
    const std::string name = "random_s" + std::to_string(seed);
    expect_matches_oracle(net, state, 16.0, name + "_b16");
    expect_matches_oracle(net, state, 4.0, name + "_b4");
  }
  const auto stacked = mixed_netlist(120, 0.08, 0.0, 4);
  expect_matches_oracle(stacked, pack_positions(stacked), 16.0, "stacked");
  const auto no_macros = mixed_netlist(200, 0.0, 20.0, 7);
  expect_matches_oracle(no_macros, pack_positions(no_macros), 16.0,
                        "no_macros");
  const auto fine = mixed_netlist(600, 0.05, 60.0, 8);
  expect_matches_oracle(fine, pack_positions(fine), 16.0, "fine_grid");
  const auto vanishing = vanishing_netlist();
  expect_matches_oracle(vanishing, pack_positions(vanishing), 16.0,
                        "vanishing");
}

TEST(FoldOrderOracle, EdgeCases) {
  const auto straddling = straddling_netlist();
  expect_matches_oracle(straddling, pack_positions(straddling), 16.0,
                        "straddling");
  const auto outside = outside_window_netlist();
  expect_matches_oracle(outside, pack_positions(outside), 16.0,
                        "outside_window");
  const auto extreme = extreme_netlist();
  expect_matches_oracle(extreme, pack_positions(extreme), 16.0, "extreme");
}

TEST(FoldOrderOracle, Tb3StateMidCg) {
  // tb3's AutoNCS netlist (seed 2015) on a grid, pulled together by 40
  // CG iterations of WA + lambda * density: the clustered, overlapping
  // state the placer's value passes see.
  const nn::ConnectionMatrix network = nn::build_testbench(3, 2015).topology;
  FlowConfig config;
  config.threads = 1;
  const clustering::IscResult isc = run_isc(network, config);
  auto net = netlist::build_netlist(
      mapping::mapping_from_isc(isc, network.size()), config.tech);
  ASSERT_GT(macro_count(net), 0u);
  double area = 0.0;
  for (const auto& cell : net.cells) area += 1.44 * cell.width * cell.height;
  const double side = std::sqrt(area / 0.8);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(net.cells.size()))));
  const double pitch = side / static_cast<double>(cols);
  for (std::size_t c = 0; c < net.cells.size(); ++c) {
    net.cells[c].x = (static_cast<double>(c % cols) + 0.5) * pitch - 0.5 * side;
    net.cells[c].y = (static_cast<double>(c / cols) + 0.5) * pitch - 0.5 * side;
  }
  auto state = pack_positions(net);

  const WaModel wa{2.0};
  const DensityModel density{1.2, 16.0};
  std::vector<double> grad_wl(state.size(), 0.0);
  std::vector<double> grad_d(state.size(), 0.0);
  wa.evaluate(net, state, &grad_wl);
  density.evaluate(net, state, &grad_d);
  double sum_wl = 0.0;
  double sum_d = 0.0;
  for (std::size_t k = 0; k < state.size(); ++k) {
    sum_wl += std::abs(grad_wl[k]);
    sum_d += std::abs(grad_d[k]);
  }
  const double lambda = sum_d > 0.0 ? sum_wl / sum_d : 1.0;
  std::vector<double> scratch;
  const Objective objective = [&](const std::vector<double>& x,
                                  std::vector<double>* gradient) {
    if (gradient == nullptr)
      return wa.evaluate(net, x, nullptr) +
             lambda * density.evaluate(net, x, nullptr);
    std::fill(gradient->begin(), gradient->end(), 0.0);
    scratch.assign(x.size(), 0.0);
    const double value = wa.evaluate(net, x, gradient) +
                         lambda * density.evaluate(net, x, &scratch);
    for (std::size_t k = 0; k < x.size(); ++k)
      (*gradient)[k] += lambda * scratch[k];
    return value;
  };
  CgOptions cg;
  cg.max_iterations = 40;
  minimize_cg(state, objective, cg);
  expect_matches_oracle(net, state, 16.0, "tb3_mid_cg");
}

}  // namespace
}  // namespace autoncs::place

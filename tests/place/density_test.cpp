#include "place/density.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "place/spatial_grid.hpp"
#include "place/wa_wirelength.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {
namespace {

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
  // The spatial hash must not miss any interacting pair.
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
  // Regression for the legacy SpatialHash::pack 32-bit truncation: bins
  // exactly 2^32 buckets apart aliased into one hash bucket. The flat
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
  DensityModel flat{1.2, 8.0};
  DensityModel legacy{1.2, 8.0};
  legacy.use_flat_grid = false;
  std::vector<double> flat_grad(state.size(), 0.0);
  std::vector<double> legacy_grad(state.size(), 0.0);
  const double flat_value = flat.evaluate(net, state, &flat_grad);
  const double legacy_value = legacy.evaluate(net, state, &legacy_grad);
  EXPECT_EQ(flat_value, legacy_value);  // identical candidate order -> bits
  EXPECT_EQ(flat_grad, legacy_grad);
  // Value-only mode returns the same bits as the gradient mode.
  EXPECT_EQ(flat.evaluate(net, state, nullptr), flat_value);
  // Buffer reuse: repeated evaluations rebuild but do not regrow.
  const std::size_t reallocs = flat.grid_reallocations();
  for (int r = 0; r < 3; ++r) flat.evaluate(net, state, nullptr);
  EXPECT_EQ(flat.grid_reallocations(), reallocs);
  EXPECT_GE(flat.grid_builds(), 5u);
}


// --- mixed-size netlists ---------------------------------------------
//
// AutoNCS netlists mix a few crossbar macros (10-20 um) with many small
// neurons and synapses (1-2.5 um). The density model finds pairs through
// a fine grid over the small cells plus a macro grid, and must fold them
// in the exact order of the single all-cell grid; the legacy SpatialHash
// engine walks that order directly, so the two must agree bit for bit.

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

/// The index engine at 1, 2 and 8 threads against the SpatialHash engine:
/// identical value and gradient bits, and the value-only pass, its
/// acceptance replay and the work counters independent of the threads.
void expect_matches_hash(const netlist::Netlist& net, double beta) {
  const auto state = pack_positions(net);
  DensityModel legacy{1.2, beta};
  legacy.use_flat_grid = false;
  std::vector<double> legacy_grad(state.size(), 0.0);
  const double legacy_value = legacy.evaluate(net, state, &legacy_grad);

  std::size_t candidates = 0;
  std::size_t kept = 0;
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    DensityModel model{1.2, beta};
    std::vector<double> grad(state.size(), 0.0);
    EXPECT_EQ(model.evaluate(net, state, &grad, pool_ptr), legacy_value)
        << threads << " threads";
    EXPECT_EQ(grad, legacy_grad) << threads << " threads";
    // Value-only pass, then the replayed gradient at the same point.
    EXPECT_EQ(model.evaluate(net, state, nullptr, pool_ptr), legacy_value);
    std::vector<double> replay(state.size(), 0.0);
    EXPECT_EQ(model.evaluate(net, state, &replay, pool_ptr), legacy_value);
    EXPECT_EQ(replay, legacy_grad) << threads << " threads";
    if (threads == 1) {
      candidates = model.pair_candidates();
      kept = model.pairs_kept();
      EXPECT_LE(kept, candidates);
    } else {
      EXPECT_EQ(model.pair_candidates(), candidates) << threads << " threads";
      EXPECT_EQ(model.pairs_kept(), kept) << threads << " threads";
    }
  }
  // The legacy engine keeps the same pairs. (Two of the three calls above
  // enumerated; the replay enumerates nothing.)
  EXPECT_EQ(2 * legacy.pairs_kept(), kept);
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
  grid.build(net, state, 2.0 * r_max, std::max(r_max, 1e-6));
  double total = 0.0;
  for (std::size_t i = 0; i < net.cells.size(); ++i) {
    const auto& ci = net.cells[i];
    grid.for_candidates_packed(
        i, state[2 * i], state[2 * i + 1],
        [&](std::size_t j, const double* /*packed*/) {
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
    expect_matches_hash(net, 16.0);
    expect_matches_hash(net, 4.0);  // wide softplus tail
    expect_overlap_exact(net);
  }
}

TEST(MixedSizeDensity, CellsStackedAtOnePoint) {
  auto net = mixed_netlist(120, 0.08, 0.0, 4);
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_hash(net, 16.0);
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, MacroStraddlingBucketEdges) {
  // Small cells of 1-2 um around 15 um macros centered on multiples of
  // the fine bucket, with partners at the exact interaction distance and
  // a hair inside or outside it on either axis.
  const double omega = 1.2;
  const double beta = 16.0;
  const double tail = 30.0 / beta;
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
  const auto net = boxes(specs);
  ASSERT_EQ(macro_count(net), 3u);
  expect_matches_hash(net, beta);
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, PairOutsideTheSingleGridWindowStaysOut) {
  // Two 10 um macros exactly 2 * reach / 2 buckets apart: rounding puts
  // their single-grid bins three buckets apart, so that engine never
  // enumerated the pair, yet its penetration is exactly -tail and passes
  // the tail check. The macro grid does find it; the index must still
  // leave it out to keep the single grid's pair set.
  std::vector<std::array<double, 4>> specs = {{-6.9375000000000009, 0, 10, 10},
                                              {6.9375, 0, 10, 10}};
  for (int f = 0; f < 20; ++f) specs.push_back({3.0 * f, 40.0, 1.5, 1.5});
  const auto net = boxes(specs);
  ASSERT_EQ(macro_count(net), 2u);
  const double zx = 0.6 * (10 + 10) - std::abs(specs[0][0] - specs[1][0]);
  ASSERT_EQ(zx, -30.0 / 16.0);
  expect_matches_hash(net, 16.0);
}

TEST(MixedSizeDensity, ExtremeCoordinatesTakeTheSparsePath) {
  // Two mixed clusters 1e12 um apart: every grid falls back to its sparse
  // layout, and nothing may interact across the gap.
  auto net = mixed_netlist(80, 0.08, 15.0, 5);
  const auto far = mixed_netlist(80, 0.08, 15.0, 6);
  for (auto cell : far.cells) {
    cell.x += 1e12;
    cell.y -= 1e12;
    net.cells.push_back(cell);
  }
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_hash(net, 16.0);
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, VanishinglySmallCellsAmongMacros) {
  // Small cells of 1e-7 um would make a fine grid of 1e-7 um buckets; the
  // macros' windows must stay a bounded number of buckets wide.
  auto net = mixed_netlist(150, 0.06, 30.0, 9);
  for (auto& cell : net.cells)
    if (cell.width < 5.0) cell.width = cell.height = 1e-7;
  ASSERT_GT(macro_count(net), 0u);
  expect_matches_hash(net, 16.0);
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, NoMacrosMatchesHashBitForBit) {
  const auto net = mixed_netlist(200, 0.0, 20.0, 7);
  ASSERT_EQ(macro_count(net), 0u);
  expect_matches_hash(net, 16.0);
  expect_overlap_exact(net);
}

TEST(MixedSizeDensity, FineGridSkipsFarSmallCells) {
  // The point of the split: with macros present, small cells stop probing
  // the macro-sized window, so most candidates survive the tail.
  const auto net = mixed_netlist(600, 0.05, 60.0, 8);
  DensityModel flat{1.2, 16.0};
  DensityModel legacy{1.2, 16.0};
  legacy.use_flat_grid = false;
  const auto state = pack_positions(net);
  EXPECT_EQ(flat.evaluate(net, state, nullptr),
            legacy.evaluate(net, state, nullptr));
  EXPECT_EQ(flat.pairs_kept(), legacy.pairs_kept());
  EXPECT_LT(2 * flat.pair_candidates(), legacy.pair_candidates());
}

}  // namespace
}  // namespace autoncs::place

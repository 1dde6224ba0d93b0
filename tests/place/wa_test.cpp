#include "place/wa_wirelength.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace autoncs::place {
namespace {

netlist::Netlist simple_netlist(std::size_t cells) {
  netlist::Netlist net;
  for (std::size_t c = 0; c < cells; ++c) {
    netlist::Cell cell;
    cell.width = 1.0;
    cell.height = 1.0;
    net.cells.push_back(cell);
  }
  return net;
}

TEST(PackPositions, RoundTrip) {
  netlist::Netlist net = simple_netlist(3);
  net.cells[0].x = 1.0;
  net.cells[2].y = -4.5;
  const auto state = pack_positions(net);
  ASSERT_EQ(state.size(), 6u);
  EXPECT_DOUBLE_EQ(state[0], 1.0);
  EXPECT_DOUBLE_EQ(state[5], -4.5);
  netlist::Netlist other = simple_netlist(3);
  unpack_positions(state, other);
  EXPECT_DOUBLE_EQ(other.cells[0].x, 1.0);
  EXPECT_DOUBLE_EQ(other.cells[2].y, -4.5);
}

TEST(Hpwl, TwoPinWire) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 2.0, 0.0});
  net.cells[0].x = 0.0;
  net.cells[0].y = 0.0;
  net.cells[1].x = 3.0;
  net.cells[1].y = 4.0;
  const auto state = pack_positions(net);
  EXPECT_DOUBLE_EQ(hpwl(net, state), 7.0);
  EXPECT_DOUBLE_EQ(weighted_hpwl(net, state), 14.0);
}

TEST(Hpwl, MultiPinWireUsesBoundingBox) {
  netlist::Netlist net = simple_netlist(3);
  net.wires.push_back({{0, 1, 2}, 1.0, 0.0});
  net.cells[0].x = 0.0;
  net.cells[1].x = 5.0;
  net.cells[2].x = 2.0;
  net.cells[2].y = 3.0;
  const auto state = pack_positions(net);
  EXPECT_DOUBLE_EQ(hpwl(net, state), 8.0);  // (5-0) + (3-0)
}

TEST(WaModel, ApproachesHpwlForSmallGamma) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 1.0, 0.0});
  net.cells[1].x = 10.0;
  net.cells[1].y = -6.0;
  const auto state = pack_positions(net);
  WaModel tight(net, 0.01);
  EXPECT_NEAR(tight.evaluate(state, nullptr), hpwl(net, state), 0.1);
  // Larger gamma smooths (under-estimates for 2-pin wires).
  WaModel loose(net, 5.0);
  EXPECT_LT(loose.evaluate(state, nullptr), hpwl(net, state));
}

TEST(WaModel, ZeroForCoincidentPins) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 1.0, 0.0});
  const auto state = pack_positions(net);
  WaModel model(net, 1.0);
  EXPECT_NEAR(model.evaluate(state, nullptr), 0.0, 1e-12);
}

TEST(WaModel, GradientMatchesFiniteDifferences) {
  netlist::Netlist net = simple_netlist(4);
  net.wires.push_back({{0, 1}, 1.5, 0.0});
  net.wires.push_back({{1, 2, 3}, 0.7, 0.0});
  net.cells[0].x = 0.3;
  net.cells[0].y = -1.0;
  net.cells[1].x = 2.0;
  net.cells[1].y = 0.5;
  net.cells[2].x = -1.2;
  net.cells[2].y = 3.0;
  net.cells[3].x = 0.9;
  net.cells[3].y = 0.8;
  auto state = pack_positions(net);
  WaModel model(net, 0.8);

  std::vector<double> gradient(state.size(), 0.0);
  model.evaluate(state, &gradient);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < state.size(); ++i) {
    auto plus = state;
    auto minus = state;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (model.evaluate(plus, nullptr) -
                            model.evaluate(minus, nullptr)) /
                           (2.0 * eps);
    EXPECT_NEAR(gradient[i], numeric, 1e-5) << "coordinate " << i;
  }
}

TEST(WaModel, WeightScalesValueAndGradient) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 3.0, 0.0});
  net.cells[1].x = 4.0;
  const auto state = pack_positions(net);
  WaModel model(net, 0.5);
  std::vector<double> gradient(state.size(), 0.0);
  const double value = model.evaluate(state, &gradient);

  netlist::Netlist unit = net;
  unit.wires[0].weight = 1.0;
  WaModel unit_model(unit, 0.5);
  std::vector<double> unit_gradient(state.size(), 0.0);
  const double unit_value = unit_model.evaluate(state, &unit_gradient);

  EXPECT_NEAR(value, 3.0 * unit_value, 1e-9);
  for (std::size_t i = 0; i < gradient.size(); ++i)
    EXPECT_NEAR(gradient[i], 3.0 * unit_gradient[i], 1e-9);
}

TEST(WaModel, InvalidGammaThrows) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 1.0, 0.0});
  EXPECT_THROW(WaModel(net, 0.0), util::CheckError);
}

TEST(WaModel, StateSizeMismatchThrows) {
  netlist::Netlist net = simple_netlist(2);
  std::vector<double> bad(3, 0.0);
  WaModel model(net, 1.0);
  EXPECT_THROW(model.evaluate(bad, nullptr), util::CheckError);
}


/// wa_axis_fill's general per-pin loop: two exponentials per pin.
double general_axis_fill(const std::vector<std::size_t>& pins,
                         const std::vector<double>& state, std::size_t axis,
                         double gamma, double* exp_a, double* exp_b,
                         double* fp) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t pin : pins) {
    lo = std::min(lo, state[2 * pin + axis]);
    hi = std::max(hi, state[2 * pin + axis]);
  }
  double sum_a = 0.0;
  double sum_va = 0.0;
  double sum_b = 0.0;
  double sum_vb = 0.0;
  for (std::size_t k = 0; k < pins.size(); ++k) {
    const double v = state[2 * pins[k] + axis];
    const double ta = (v - hi) / gamma;
    const double tb = -(v - lo) / gamma;
    exp_a[k] = ta == 0.0 ? 1.0 : std::exp(ta);
    exp_b[k] = tb == 0.0 ? 1.0 : std::exp(tb);
    sum_a += exp_a[k];
    sum_va += v * exp_a[k];
    sum_b += exp_b[k];
    sum_vb += v * exp_b[k];
  }
  fp[0] = sum_va / sum_a;
  fp[1] = sum_vb / sum_b;
  fp[2] = sum_a;
  fp[3] = sum_b;
  return fp[0] - fp[1];
}

TEST(WaModel, TwoPinClosedFormMatchesGeneralLoopBitForBit) {
  // Pin coordinate pairs: random, equal, signed zeros, 1e12 spreads and
  // tiny differences.
  util::Rng rng(21);
  std::vector<std::array<double, 2>> cases = {
      {0.0, 0.0},     {0.0, -0.0},      {-0.0, 0.0},    {-0.0, -0.0},
      {-0.0, 1.5},    {2.5, -0.0},      {3.0, 3.0},     {-7.25, -7.25},
      {1e12, -1e12},  {-1e12, 1e12},    {1e12, 0.0},    {0.0, 1e-300},
      {1.0, std::nextafter(1.0, 2.0)},  {-1e12, -1e12 + 1e-3}};
  for (int r = 0; r < 200; ++r) {
    const double a = rng.uniform(-60.0, 60.0);
    cases.push_back({a, r % 5 == 0 ? a : rng.uniform(-60.0, 60.0)});
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (double gamma : {0.5, 2.0, 1e-3}) {
    for (const auto& c : cases) {
      // Cell 0 and cell 1 carry the pair on x, reversed on y.
      const std::vector<double> state = {c[0], c[1], c[1], c[0]};
      for (const std::vector<std::size_t>& pins :
           {std::vector<std::size_t>{0, 1}, std::vector<std::size_t>{1, 0}}) {
        for (std::size_t axis : {0u, 1u}) {
          double fast_a[2], fast_b[2], fast_fp[4];
          double ref_a[2], ref_b[2], ref_fp[4];
          const double fast = wa_axis_fill(pins, state, axis, gamma, fast_a,
                                           fast_b, fast_fp);
          const double ref = general_axis_fill(pins, state, axis, gamma, ref_a,
                                               ref_b, ref_fp);
          const std::string where = "pins (" + std::to_string(c[0]) + ", " +
                                    std::to_string(c[1]) + "), gamma " +
                                    std::to_string(gamma);
          EXPECT_EQ(bits(fast), bits(ref)) << where;
          for (int k = 0; k < 2; ++k) {
            EXPECT_EQ(bits(fast_a[k]), bits(ref_a[k])) << where;
            EXPECT_EQ(bits(fast_b[k]), bits(ref_b[k])) << where;
          }
          for (int k = 0; k < 4; ++k)
            EXPECT_EQ(bits(fast_fp[k]), bits(ref_fp[k])) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace autoncs::place

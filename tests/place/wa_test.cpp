#include "place/wa_wirelength.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

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
  const WaModel tight{0.01};
  EXPECT_NEAR(tight.evaluate(net, state, nullptr), hpwl(net, state), 0.1);
  // Larger gamma smooths (under-estimates for 2-pin wires).
  const WaModel loose{5.0};
  EXPECT_LT(loose.evaluate(net, state, nullptr), hpwl(net, state));
}

TEST(WaModel, ZeroForCoincidentPins) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 1.0, 0.0});
  const auto state = pack_positions(net);
  const WaModel model{1.0};
  EXPECT_NEAR(model.evaluate(net, state, nullptr), 0.0, 1e-12);
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
  const WaModel model{0.8};

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
    EXPECT_NEAR(gradient[i], numeric, 1e-5) << "coordinate " << i;
  }
}

TEST(WaModel, WeightScalesValueAndGradient) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 3.0, 0.0});
  net.cells[1].x = 4.0;
  const auto state = pack_positions(net);
  const WaModel model{0.5};
  std::vector<double> gradient(state.size(), 0.0);
  const double value = model.evaluate(net, state, &gradient);

  netlist::Netlist unit = net;
  unit.wires[0].weight = 1.0;
  std::vector<double> unit_gradient(state.size(), 0.0);
  const double unit_value = model.evaluate(unit, state, &unit_gradient);

  EXPECT_NEAR(value, 3.0 * unit_value, 1e-9);
  for (std::size_t i = 0; i < gradient.size(); ++i)
    EXPECT_NEAR(gradient[i], 3.0 * unit_gradient[i], 1e-9);
}

/// A model that evaluated `before` must answer for `after` exactly like a
/// fresh model: the acceptance cache may only replay when the wires the
/// value pass read are unchanged.
void expect_cache_follows_netlist(const netlist::Netlist& before,
                                  const netlist::Netlist& after,
                                  util::ThreadPool* pool) {
  const auto state = pack_positions(before);
  const WaModel model{0.5};
  model.evaluate(before, state, nullptr, pool);  // fills the cache
  std::vector<double> gradient(state.size(), 0.0);
  const double value = model.evaluate(after, state, &gradient, pool);

  const WaModel fresh{0.5};
  std::vector<double> fresh_gradient(state.size(), 0.0);
  EXPECT_EQ(value, fresh.evaluate(after, state, &fresh_gradient, pool));
  EXPECT_EQ(gradient, fresh_gradient);
  EXPECT_EQ(model.evaluate(after, state, nullptr, pool), value);
}

TEST(WaModel, CacheKeyCoversWirePinsAndWeights) {
  netlist::Netlist net = simple_netlist(5);
  for (std::size_t c = 0; c < 5; ++c) {
    net.cells[c].x = 1.5 * static_cast<double>(c);
    net.cells[c].y = static_cast<double>((c * 3) % 5);
  }
  net.wires.push_back({{0, 1}, 3.0, 0.0});
  net.wires.push_back({{1, 2, 4}, 1.0, 0.0});
  net.wires.push_back({{3, 4}, 2.0, 0.0});

  netlist::Netlist reweighted = net;
  reweighted.wires[0].weight = 1.0;
  netlist::Netlist rewired = net;  // same pin counts, different pins
  rewired.wires[1].pins = {0, 2, 3};
  netlist::Netlist grown = net;
  grown.wires.push_back({{0, 4}, 1.0, 0.0});
  netlist::Netlist shrunk = net;
  shrunk.wires.pop_back();

  util::ThreadPool pool(2);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    expect_cache_follows_netlist(net, reweighted, p);
    expect_cache_follows_netlist(net, rewired, p);
    expect_cache_follows_netlist(net, grown, p);
    expect_cache_follows_netlist(net, shrunk, p);
  }
}

TEST(WaModel, InvalidGammaThrows) {
  netlist::Netlist net = simple_netlist(2);
  net.wires.push_back({{0, 1}, 1.0, 0.0});
  const auto state = pack_positions(net);
  const WaModel model{0.0};
  EXPECT_THROW(model.evaluate(net, state, nullptr), util::CheckError);
}

TEST(WaModel, StateSizeMismatchThrows) {
  netlist::Netlist net = simple_netlist(2);
  std::vector<double> bad(3, 0.0);
  const WaModel model{1.0};
  EXPECT_THROW(model.evaluate(net, bad, nullptr), util::CheckError);
}

}  // namespace
}  // namespace autoncs::place

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "route/router.hpp"

namespace autoncs::netlist {
namespace {

mapping::HybridMapping fanout_mapping() {
  // Neuron 0 drives two crossbars and one synapse; neurons 1..3 receive.
  mapping::HybridMapping m;
  m.neuron_count = 4;
  for (std::size_t x = 0; x < 2; ++x) {
    mapping::CrossbarInstance xbar;
    xbar.size = 4;
    xbar.rows = {0};
    xbar.cols = {x + 1};
    xbar.connections = {{0, x + 1}};
    m.crossbars.push_back(xbar);
  }
  m.discrete_synapses = {{0, 3}};
  return m;
}

TEST(SharedNets, MergesNeuronFanoutIntoOneNet) {
  BuilderOptions shared;
  shared.share_output_nets = true;
  const Netlist net = build_netlist(fanout_mapping(), tech::default_tech(), shared);
  // Wires: 1 shared output net (neuron0 -> xbar0, xbar1, synapse)
  //        + 2 crossbar->neuron column wires + 1 synapse->neuron wire.
  EXPECT_EQ(net.wires.size(), 4u);
  std::size_t multi_pin = 0;
  for (const auto& wire : net.wires) {
    if (wire.pins.size() > 2) {
      ++multi_pin;
      EXPECT_EQ(wire.pins.size(), 4u);  // driver + 3 sinks
      // Weight accumulates all carried loads (1 + 1 + 1).
      EXPECT_DOUBLE_EQ(wire.weight, 3.0);
    }
  }
  EXPECT_EQ(multi_pin, 1u);
  EXPECT_EQ(net.validate(), "");
}

TEST(SharedNets, DefaultKeepsTwoPinWires) {
  const Netlist net = build_netlist(fanout_mapping());
  EXPECT_EQ(net.wires.size(), 6u);
  for (const auto& wire : net.wires) EXPECT_EQ(wire.pins.size(), 2u);
}

TEST(SharedNets, DeviceDelayIsWorstAttached) {
  BuilderOptions shared;
  shared.share_output_nets = true;
  const tech::TechnologyModel& t = tech::default_tech();
  const Netlist net = build_netlist(fanout_mapping(), t, shared);
  for (const auto& wire : net.wires) {
    if (wire.pins.size() > 2) {
      EXPECT_DOUBLE_EQ(wire.device_delay_ns,
                       std::max(t.crossbar_delay_ns(4), t.synapse_delay_ns));
    }
  }
}

TEST(MstDecomposition, ShorterThanStarForCollinearSinks) {
  // Driver at x=0, sinks at x = 10, 20, 30 (collinear): a star from the
  // driver would route 10+20+30 = 60 um; the MST routes 10+10+10 = 30.
  Netlist net;
  for (double x : {0.0, 10.0, 20.0, 30.0}) {
    Cell cell;
    cell.width = 1.0;
    cell.height = 1.0;
    cell.x = x;
    net.cells.push_back(cell);
  }
  net.wires.push_back(Wire{{0, 1, 2, 3}, 1.0, 0.0});

  route::RouterOptions options;
  options.theta = 2.0;
  options.capacity_per_um = 10.0;
  const double star_length_um = 60.0;
  EXPECT_LT(route::route(net, options).total_wirelength_um,
            0.6 * star_length_um);
}

}  // namespace
}  // namespace autoncs::netlist

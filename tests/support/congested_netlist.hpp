// Shared router test input: a deterministic congested netlist.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"

namespace autoncs::testing {

/// Deterministic congested netlist: a lattice of cells with pseudo-random
/// 2-pin and multi-pin wires (tiny LCG, no global RNG state) so both the
/// MST decomposition and the relaxation path are exercised.
inline netlist::Netlist congested_netlist(std::size_t cols, std::size_t rows,
                                          std::size_t wires) {
  netlist::Netlist net;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      netlist::Cell cell;
      cell.width = 0.5;
      cell.height = 0.5;
      cell.x = static_cast<double>(c) * 6.0;
      cell.y = static_cast<double>(r) * 6.0;
      net.cells.push_back(cell);
    }
  }
  std::uint64_t state = 2015;
  const auto next = [&state](std::size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((state >> 33) % bound);
  };
  const std::size_t n = net.cells.size();
  for (std::size_t w = 0; w < wires; ++w) {
    netlist::Wire wire;
    const std::size_t pins = 2 + (w % 3);  // mix of 2-, 3-, 4-pin wires
    std::size_t previous = next(n);
    wire.pins.push_back(previous);
    while (wire.pins.size() < pins) {
      const std::size_t pin = next(n);
      if (pin != previous) {
        wire.pins.push_back(pin);
        previous = pin;
      }
    }
    wire.weight = 1.0 + static_cast<double>(w % 4);
    wire.device_delay_ns = 0.1;
    net.wires.push_back(wire);
  }
  return net;
}

}  // namespace autoncs::testing

#include "place/wa_wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace autoncs::place {

std::vector<double> pack_positions(const netlist::Netlist& netlist) {
  std::vector<double> state(netlist.cells.size() * 2);
  for (std::size_t c = 0; c < netlist.cells.size(); ++c) {
    state[2 * c] = netlist.cells[c].x;
    state[2 * c + 1] = netlist.cells[c].y;
  }
  return state;
}

void unpack_positions(const std::vector<double>& state, netlist::Netlist& netlist) {
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  for (std::size_t c = 0; c < netlist.cells.size(); ++c) {
    netlist.cells[c].x = state[2 * c];
    netlist.cells[c].y = state[2 * c + 1];
  }
}

double wa_axis_fill(const std::vector<std::size_t>& pins,
                    const std::vector<double>& state, std::size_t axis,
                    double gamma, double* exp_a, double* exp_b, double* fp) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t pin : pins) {
    const double v = state[2 * pin + axis];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Max-shifted exponentials: a_i = e^{(v-hi)/g}, b_i = e^{-(v-lo)/g}.
  double sum_a = 0.0;
  double sum_va = 0.0;
  double sum_b = 0.0;
  double sum_vb = 0.0;
  const auto add = [&](std::size_t k, double v, double a, double b) {
    exp_a[k] = a;
    exp_b[k] = b;
    sum_a += a;
    sum_va += v * a;
    sum_b += b;
    sum_vb += v * b;
  };
  // exp(0) == 1.0 exactly (IEEE 754), so the extreme pins skip the libm
  // call without changing a bit. Each pin of a two-pin wire sits at lo or
  // hi, and its other exponent is the same double for both sums,
  // -(hi - lo) / g == (lo - hi) / g exactly: one exp per wire and axis.
  if (pins.size() == 2) {
    const double t = (lo - hi) / gamma;
    const double e = t == 0.0 ? 1.0 : std::exp(t);
    for (std::size_t k = 0; k < 2; ++k) {
      const double v = state[2 * pins[k] + axis];
      add(k, v, v == hi ? 1.0 : e, v == lo ? 1.0 : e);
    }
  } else {
    for (std::size_t k = 0; k < pins.size(); ++k) {
      const double v = state[2 * pins[k] + axis];
      const double ta = (v - hi) / gamma;
      const double tb = -(v - lo) / gamma;
      add(k, v, ta == 0.0 ? 1.0 : std::exp(ta), tb == 0.0 ? 1.0 : std::exp(tb));
    }
  }
  const double f_plus = sum_va / sum_a;    // smooth max
  const double f_minus = sum_vb / sum_b;   // smooth min
  fp[0] = f_plus;
  fp[1] = f_minus;
  fp[2] = sum_a;
  fp[3] = sum_b;
  return f_plus - f_minus;
}

namespace {

/// Work per dispatched block of the loops, sized so one block is worth a
/// wakeup: ~64 wires of exponentials, ~256 cells of gather adds.
constexpr std::size_t kWireGrain = 64;
constexpr std::size_t kCellGrain = 256;

}  // namespace

WaModel::WaModel(const netlist::Netlist& netlist, double gamma,
                 util::ThreadPool& pool)
    : netlist_(netlist), gamma_(gamma), pool_(pool) {
  AUTONCS_CHECK(gamma > 0.0, "gamma must be positive");
  offsets_.assign(1, 0);
  for (const auto& wire : netlist.wires)
    offsets_.push_back(offsets_.back() + wire.pins.size());
  const std::size_t cells = netlist.cells.size();
  cell_off_.assign(cells + 1, 0);
  for (const auto& wire : netlist.wires)
    for (std::size_t pin : wire.pins) ++cell_off_[pin + 1];
  for (std::size_t c = 0; c < cells; ++c) cell_off_[c + 1] += cell_off_[c];
  cell_wire_.resize(offsets_.back());
  cell_slot_.resize(offsets_.back());
  std::vector<std::size_t> cursor(cell_off_.begin(), cell_off_.end() - 1);
  // Scanning wires then pins in ascending order leaves every cell's entry
  // list sorted (wire, pin) ascending.
  for (std::size_t w = 0; w < netlist.wires.size(); ++w) {
    const auto& pins = netlist.wires[w].pins;
    for (std::size_t k = 0; k < pins.size(); ++k) {
      const std::size_t at = cursor[pins[k]]++;
      cell_wire_[at] = static_cast<std::uint32_t>(w);
      cell_slot_[at] = static_cast<std::uint32_t>(offsets_[w] + k);
    }
  }
}

double WaModel::value(const std::vector<double>& state) {
  AUTONCS_CHECK(state.size() == netlist_.cells.size() * 2,
                "state size must be 2 * cell count");
  AUTONCS_TRACE_SCOPE("place/wa");
  // Each wire owns its slots, so the pass parallelizes; the total is
  // folded sequentially in wire order, independent of the thread count.
  const std::size_t wires = netlist_.wires.size();
  const std::size_t pins = offsets_.back();
  wire_value_.resize(wires);
  fp_.resize(8 * wires);
  ax_.resize(pins);
  bx_.resize(pins);
  ay_.resize(pins);
  by_.resize(pins);
  pool_.parallel_for(
      wires,
      [&](std::size_t begin, std::size_t end, std::size_t /*worker*/) {
        for (std::size_t w = begin; w < end; ++w) {
          const auto& wire = netlist_.wires[w];
          const std::size_t off = offsets_[w];
          double* fp = &fp_[8 * w];
          wire_value_[w] =
              wire.weight *
              (wa_axis_fill(wire.pins, state, 0, gamma_, &ax_[off], &bx_[off],
                            fp) +
               wa_axis_fill(wire.pins, state, 1, gamma_, &ay_[off], &by_[off],
                            fp + 4));
        }
      },
      kWireGrain);
  double total = 0.0;
  for (std::size_t w = 0; w < wires; ++w) total += wire_value_[w];
  return total;
}

void WaModel::add_gradient(const std::vector<double>& state,
                           std::vector<double>& gradient) const {
  AUTONCS_CHECK(state.size() == netlist_.cells.size() * 2 &&
                    gradient.size() == state.size(),
                "state and gradient sizes must be 2 * cell count");
  AUTONCS_TRACE_SCOPE("place/wa_replay");
  // d WA / d v per pin, from the recorded exponentials and sums.
  const auto term = [&](double exp_a, double exp_b, const double* fp,
                        double v) {
    const double d_plus = exp_a / fp[2] * (1.0 + (v - fp[0]) / gamma_);
    const double d_minus = exp_b / fp[3] * (1.0 - (v - fp[1]) / gamma_);
    return d_plus - d_minus;
  };
  const auto& wires = netlist_.wires;
  pool_.parallel_for(
      netlist_.cells.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*worker*/) {
        for (std::size_t c = begin; c < end; ++c) {
          const double vx = state[2 * c];
          const double vy = state[2 * c + 1];
          for (std::size_t e = cell_off_[c]; e < cell_off_[c + 1]; ++e) {
            const std::size_t w = cell_wire_[e];
            const std::size_t slot = cell_slot_[e];
            const double weight = wires[w].weight;
            const double* fp = &fp_[8 * w];
            gradient[2 * c] += weight * term(ax_[slot], bx_[slot], fp, vx);
            gradient[2 * c + 1] +=
                weight * term(ay_[slot], by_[slot], fp + 4, vy);
          }
        }
      },
      kCellGrain);
}

namespace {

double hpwl_impl(const netlist::Netlist& netlist, const std::vector<double>& state,
                 bool weighted) {
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  double total = 0.0;
  for (const auto& wire : netlist.wires) {
    double min_x = std::numeric_limits<double>::infinity();
    double max_x = -min_x;
    double min_y = min_x;
    double max_y = -min_x;
    for (std::size_t pin : wire.pins) {
      min_x = std::min(min_x, state[2 * pin]);
      max_x = std::max(max_x, state[2 * pin]);
      min_y = std::min(min_y, state[2 * pin + 1]);
      max_y = std::max(max_y, state[2 * pin + 1]);
    }
    const double length = (max_x - min_x) + (max_y - min_y);
    total += weighted ? wire.weight * length : length;
  }
  return total;
}

}  // namespace

double weighted_hpwl(const netlist::Netlist& netlist,
                     const std::vector<double>& state) {
  return hpwl_impl(netlist, state, true);
}

double hpwl(const netlist::Netlist& netlist, const std::vector<double>& state) {
  return hpwl_impl(netlist, state, false);
}

}  // namespace autoncs::place

// Weighted-average (WA) smooth wirelength model — Eq. (1) of the paper,
// adopted from Hsu et al. [13] to approximate the nonconvex HPWL, with
// per-wire weights w_i that bias the optimizer toward shortening
// RC-critical wires.
//
// For one wire e with pin coordinates {x_v}:
//   WA_x(e) = sum x e^{x/g} / sum e^{x/g} - sum x e^{-x/g} / sum e^{-x/g}
// (g = gamma, the user-defined smoothness), likewise for y, and
//   WL(x, y) = sum_e w_e (WA_x(e) + WA_y(e)).
// Exponentials are max-shifted for numerical stability.
//
// A model is bound to one netlist: it is built once per placement from the
// netlist, gamma and the pool, and its passes take only a state.
//
// The model has two passes. The VALUE PASS, value(state), returns WL and
// records, per wire and axis, the smooth max/min and exponential sums
// plus every pin's max-shifted exponentials. The REPLAY,
// add_gradient(state, gradient), runs only the gradient loop over those
// recorded doubles, so a gradient at the last valued point pays the
// exponentials once. Which calls are at the last valued point is the
// caller's business: the placer keeps that one acceptance key for both
// models (place/placer.cpp).
//
// Both passes run through the pool's parallel_for; a one-thread pool runs
// them inline. The value pass computes the wires in parallel (each wire
// writes only its own slots) and folds the total sequentially in wire
// order; the replay GATHERS per cell through a static cell ->
// (wire, pin-slot) inverse index, so each gradient entry receives its
// additions in (wire, pin) ascending order. Every result is bit-identical
// for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {

/// Interleaved coordinate state [x0, y0, x1, y1, ...] of netlist cells.
std::vector<double> pack_positions(const netlist::Netlist& netlist);
void unpack_positions(const std::vector<double>& state, netlist::Netlist& netlist);

/// One-dimensional WA term of a wire along one axis, the per-wire kernel
/// of WaModel::value (exposed for bench_micro_kernels). Records the
/// per-pin max-shifted exponentials into exp_a / exp_b (pins.size() slots
/// each) and {f_plus, f_minus, sum_a, sum_b} into fp[0..3], the terms the
/// gradient replay reads; returns WA = f_plus - f_minus.
double wa_axis_fill(const std::vector<std::size_t>& pins,
                    const std::vector<double>& state, std::size_t axis,
                    double gamma, double* exp_a, double* exp_b, double* fp);

/// WL of one netlist, read in place: the netlist must outlive the model
/// and keep its wires and weights.
class WaModel {
 public:
  /// `gamma` is the smoothness of Eq. (1), in the same unit as the
  /// coordinates. `pool` runs the per-wire and per-cell loops; the result
  /// is identical for any pool size.
  WaModel(const netlist::Netlist& netlist, double gamma,
          util::ThreadPool& pool);

  /// Value pass: WL(x, y) at `state`, recording the terms add_gradient
  /// replays. Traced as place/wa.
  double value(const std::vector<double>& state);

  /// Replay of the last value pass: accumulates d WL / d state into
  /// `gradient` (state.size() entries; the caller zeroes it). `state` must
  /// be the state of the last value() call. Traced as place/wa_replay.
  void add_gradient(const std::vector<double>& state,
                    std::vector<double>& gradient) const;

  /// Logical footprint of the pass buffers and the pin inverse index in
  /// bytes (element counts, not capacities); the same for any pool size.
  double footprint_bytes() const {
    return static_cast<double>(
        (wire_value_.size() + fp_.size() + ax_.size() + bx_.size() +
         ay_.size() + by_.size()) *
            sizeof(double) +
        (offsets_.size() + cell_off_.size()) * sizeof(std::size_t) +
        (cell_wire_.size() + cell_slot_.size()) * sizeof(std::uint32_t));
  }

 private:
  const netlist::Netlist& netlist_;
  const double gamma_;
  util::ThreadPool& pool_;
  /// Start of each wire's pin slots in the per-pin arrays, by pin count;
  /// offsets_.back() is the total pin count.
  std::vector<std::size_t> offsets_;
  /// The static cell -> incident (wire, pin-slot) CSR inverse of the wire
  /// pin lists, entries sorted (wire, pin) ascending per cell: the order
  /// in which the replay adds into each cell's gradient entries.
  std::vector<std::size_t> cell_off_;
  std::vector<std::uint32_t> cell_wire_;
  std::vector<std::uint32_t> cell_slot_;
  /// Per-wire values of the last value pass, folded in wire order.
  std::vector<double> wire_value_;
  // The last value pass: per wire-axis the smooth max/min and exponential
  // sums {f_plus, f_minus, sum_a, sum_b} (x at 8w, y at 8w + 4) plus every
  // pin's max-shifted exponentials, in the offsets_ layout.
  std::vector<double> fp_;
  std::vector<double> ax_;
  std::vector<double> bx_;
  std::vector<double> ay_;
  std::vector<double> by_;
};

/// Exact weighted HPWL: sum_e w_e (max x - min x + max y - min y) — the
/// nonsmooth quantity the WA model approximates.
double weighted_hpwl(const netlist::Netlist& netlist,
                     const std::vector<double>& state);

/// Unweighted HPWL (every wire counted once).
double hpwl(const netlist::Netlist& netlist, const std::vector<double>& state);

}  // namespace autoncs::place

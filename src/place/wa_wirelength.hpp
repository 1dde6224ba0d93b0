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
// Every evaluation has one shape: a VALUE PASS that records, per wire and
// axis, the smooth max/min and exponential sums plus every pin's
// max-shifted exponentials (the acceptance cache), skipped when the cache
// already holds this exact point; then, when a gradient is asked for, a
// REPLAY of the gradient loop over the recorded doubles. The Armijo line
// search evaluates trials value-only and asks for the gradient at the
// accepted trial, so each accepted step pays the exponentials once.
//
// With a thread pool, the value pass computes the wires in parallel (each
// wire writes only its own cache slots) and folds the total sequentially
// in wire order; the replay GATHERS per cell through a static cell ->
// (wire, pin-slot) inverse index, so each gradient entry receives exactly
// the additions of the single-thread wire-major loop, in the same
// (wire, pin) ascending order. Every result is bit-identical for any
// thread count.
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
/// of WaModel::evaluate (exposed for bench_micro_kernels). Records the
/// per-pin max-shifted exponentials into exp_a / exp_b (pins.size() slots
/// each) and {f_plus, f_minus, sum_a, sum_b} into fp[0..3], the terms the
/// gradient replay reads; returns WA = f_plus - f_minus.
double wa_axis_fill(const std::vector<std::size_t>& pins,
                    const std::vector<double>& state, std::size_t axis,
                    double gamma, double* exp_a, double* exp_b, double* fp);

struct WaModel {
  /// Smoothness gamma of Eq. (1), in the same unit as the coordinates.
  double gamma = 1.0;

  WaModel() = default;
  explicit WaModel(double gamma_in) : gamma(gamma_in) {}

  /// WL(x, y); if `gradient` is nonnull it must have state.size() entries
  /// and receives d WL / d state (accumulated, caller zeroes it). `pool`
  /// parallelizes the per-wire terms; the cache makes this method
  /// non-reentrant, but the result is identical with or without a pool.
  double evaluate(const netlist::Netlist& netlist,
                  const std::vector<double>& state,
                  std::vector<double>* gradient,
                  util::ThreadPool* pool = nullptr) const;

  /// Logical footprint of the scratch/acceptance-cache buffers in bytes
  /// (element counts, not capacities). NOT thread-count invariant: the
  /// pin inverse index is built only for pooled gather paths.
  double footprint_bytes() const {
    return static_cast<double>(
        (wire_value_.size() + weights_.size() + cache_fp_.size() +
         cache_ax_.size() + cache_bx_.size() + cache_ay_.size() +
         cache_by_.size() + cache_state_.size()) *
            sizeof(double) +
        (offsets_.size() + pins_.size() + cell_off_.size()) *
            sizeof(std::size_t) +
        (cell_wire_.size() + cell_slot_.size()) * sizeof(std::uint32_t));
  }

 private:
  /// Compares the wire pin lists and weights with the copies the cache was
  /// filled from; true when nothing changed. Otherwise refreshes the
  /// copies and drops the pin inverse index.
  bool sync_wires(const netlist::Netlist& netlist) const;
  /// Value pass: fills the acceptance cache at `state`.
  void fill(const netlist::Netlist& netlist, const std::vector<double>& state,
            util::ThreadPool* pool) const;
  /// Gradient replay over the cache (accumulates into `gradient`).
  void replay(const netlist::Netlist& netlist,
              const std::vector<double>& state, std::vector<double>& gradient,
              util::ThreadPool* pool) const;
  /// Static cell -> incident (wire, pin-slot) CSR inverse of the wire pin
  /// lists, entries sorted (wire, pin) ascending per cell — the order the
  /// sequential replay touches each gradient entry. Built lazily for the
  /// pooled replay.
  void build_pin_index() const;

  /// The wires the cache was filled from: pin lists flattened through
  /// `offsets_` by pin count, and the weights. Part of the cache key.
  mutable std::vector<std::size_t> offsets_;
  mutable std::vector<std::size_t> pins_;
  mutable std::vector<double> weights_;
  mutable std::size_t cells_ = 0;
  /// Pooled value pass: per-wire values, folded in wire order.
  mutable std::vector<double> wire_value_;
  // Acceptance cache: per wire-axis the smooth max/min and exponential
  // sums {f_plus, f_minus, sum_a, sum_b} (x at 8w, y at 8w + 4) plus every
  // pin's max-shifted exponentials, in the offsets_ layout. A call at the
  // same state, gamma and wires byte for byte skips the value pass; the
  // replay runs only the gradient loops over the cached doubles.
  mutable std::vector<double> cache_fp_;
  mutable std::vector<double> cache_ax_;
  mutable std::vector<double> cache_bx_;
  mutable std::vector<double> cache_ay_;
  mutable std::vector<double> cache_by_;
  mutable std::vector<double> cache_state_;
  mutable double cache_gamma_ = 0.0;
  /// Total of the cached value pass, folded in wire order.
  mutable double cache_value_ = 0.0;
  mutable bool cache_valid_ = false;
  mutable std::vector<std::size_t> cell_off_;
  mutable std::vector<std::uint32_t> cell_wire_;
  mutable std::vector<std::uint32_t> cell_slot_;
  mutable bool pin_index_valid_ = false;
};

/// Exact weighted HPWL: sum_e w_e (max x - min x + max y - min y) — the
/// nonsmooth quantity the WA model approximates.
double weighted_hpwl(const netlist::Netlist& netlist,
                     const std::vector<double>& state);

/// Unweighted HPWL (every wire counted once).
double hpwl(const netlist::Netlist& netlist, const std::vector<double>& state);

}  // namespace autoncs::place

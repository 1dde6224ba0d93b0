// Spatial queries behind the placer's pair enumeration: which cell pairs
// are close enough to interact in the density model, to overlap in the
// exact overlap oracle, or to need separating in the legalizer.
//
// AutoNCS netlists are mixed-size. A handful of crossbar macros (up to
// ~20 um) sit among hundreds of neurons and discrete synapses of at most
// ~2.2 um. A single grid whose probe window must cover the largest pair
// reach spans a good part of the die for every small cell. So the cells
// are split once per netlist (split_macros): macros, those larger than
// 3x the median extent, get a grid of their own; the
// small cells are binned in a fine grid whose reach comes from the
// largest SMALL extent. Small-small pairs come from a half-shell sweep of
// the fine grid; a macro probes both grids with windows widened by its
// own extent, so small-macro pairs are found from the macro side only.
// Any split yields a superset of the interacting pairs, so correctness
// never depends on where the split falls, and with no macros every cell
// is in the fine grid.
//
//  * UniformGrid — static CSR buckets over cell centers, rebuilt per
//    evaluation into reused buffers (stable counting sort, or a sorted
//    sparse list when the bins span an extreme coordinate range).
//  * MixedSizeIndex — the static split over two UniformGrids, for the
//    density model and exact_overlap_area: fine (small cells) and macro
//    (macros), plus each cell's bin in the COARSE all-cell grid (reach =
//    2 * largest half extent + tail) that is never built. Those bins are
//    the fold-order contract: a cell's pair terms are summed in ascending
//    (coarse bx, coarse by, partner id), the order the single-grid
//    enumeration visited them in, so sums stay bit-identical whichever
//    grid found the pair.
//  * LiveGrid — hashed buckets with O(1) moves, so the legalizer's grids
//    always hold the current positions while its sweep separates cells.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace autoncs::place {

/// Splits the cells of `netlist` by extent: a macro is a cell whose
/// max(width, height) exceeds 3x the median extent (AutoNCS's smallest
/// crossbar is 3.4x a neuron; 3x still leaves neurons small when synapses
/// are the median). `macros` receives the macro ids ascending, `is_macro`
/// one flag per cell. At most half the cells can be macros, and a netlist
/// of similar sizes has none.
void split_macros(const netlist::Netlist& netlist,
                  std::vector<std::uint32_t>& macros,
                  std::vector<std::uint8_t>& is_macro);

/// Bucket side for a probe of `span` buckets that must reach `reach`: a
/// hair over reach / span, so two centers exactly `reach` apart still land
/// within `span` buckets after floor() rounding.
inline double covering_bucket(double reach, long long span) {
  return std::max(reach / static_cast<double>(span) * (1.0 + 1e-6), 1e-6);
}

/// Probe span (at least 1) that covers `reach` in buckets of side
/// `bucket`, with the same rounding margin.
inline long long covering_span(double reach, double bucket) {
  return std::max<long long>(
      1, static_cast<long long>(std::ceil(reach * (1.0 + 1e-6) / bucket)));
}

class UniformGrid {
 public:
  /// Rebins the cells of `netlist` at the positions in `state` — all of
  /// them, or only `cells` (ascending ids) when given. `interaction_reach`
  /// sets the half-shell sweep's span. The counting sort is O(n + buckets)
  /// and stable in cell index. Buffers are reused across builds —
  /// steady-state rebuilds allocate nothing.
  ///
  /// `aux_a` / `aux_b` (optional, indexed by cell id) are per-cell
  /// payloads packed next to each cell's coordinates in bucket order, so a
  /// scan streams {x, y, aux_a, aux_b} from one contiguous array instead
  /// of gathering through the cell index — the packed doubles are copies
  /// of the caller's values, so consumers see the identical bits either
  /// way.
  void build(const netlist::Netlist& netlist, const std::vector<double>& state,
             double interaction_reach, double bucket,
             const double* aux_a = nullptr, const double* aux_b = nullptr,
             const std::vector<std::uint32_t>* cells = nullptr);

  /// Binned cells; slot k in [0, size()) runs in (bx, by, id) order.
  std::size_t size() const { return ids_.size(); }
  /// Cell id and packed payload {x, y, aux_a, aux_b} of slot k — copies
  /// of the build-time values.
  std::size_t id(std::size_t k) const { return ids_[k]; }
  const double* packed(std::size_t k) const { return &packed_[4 * k]; }

  /// Calls fn(k) for every slot whose bucket lies within span_x / span_y
  /// buckets of the bucket of (x, y), in ascending slot. The probe visits
  /// buckets column by column, and the table is laid out x-major, so each
  /// column is ONE contiguous slot range (one lower_bound in the sparse
  /// list, sorted by (bx, by)).
  template <typename Fn>
  void for_window(double x, double y, long long span_x, long long span_y,
                  Fn&& fn) const {
    const long long bx = bin_coord(x);
    const long long by = bin_coord(y);
    for (long long cx = bx - span_x; cx <= bx + span_x; ++cx) {
      const auto [begin, end] = column(cx, by - span_y, by + span_y);
      for (std::size_t k = begin; k < end; ++k) fn(k);
    }
  }

  /// Half-shell sweep: calls fn(a, b), a in [begin, end), once for every
  /// unordered pair of slots whose buckets are at most the probe span
  /// (from the build's reach) apart on both axes. A slot pairs with the
  /// later slots of its own column up to bucket by + span (the column is
  /// sorted by (by, id)), then with the windows of the span columns to
  /// its right.
  template <typename Fn>
  void for_half_shell(std::size_t begin, std::size_t end, Fn&& fn) const {
    for (std::size_t a = begin; a < end; ++a) {
      const long long bx = bin_coord(packed_[4 * a]);
      const long long by = bin_coord(packed_[4 * a + 1]);
      const std::size_t own_end = column(bx, by, by + span_).second;
      for (std::size_t b = a + 1; b < own_end; ++b) fn(a, b);
      for (long long cx = bx + 1; cx <= bx + span_; ++cx) {
        const auto [lo, hi] = column(cx, by - span_, by + span_);
        for (std::size_t b = lo; b < hi; ++b) fn(a, b);
      }
    }
  }

  /// Bucket side of the last build.
  double bucket() const { return bucket_; }

  /// Times build() ran over the lifetime of this grid.
  std::size_t builds() const { return builds_; }
  /// Builds that had to grow a buffer (steady state: 0 growth per build).
  std::size_t reallocations() const { return reallocs_; }

  /// Logical footprint of the bucket/scratch buffers in bytes (element
  /// counts, not capacities) — the memory-accounting probe.
  double footprint_bytes() const {
    return static_cast<double>(
        (starts_.size() + cursor_.size() + ids_.size()) *
            sizeof(std::uint32_t) +
        packed_.size() * sizeof(double) +
        (bin_x_.size() + bin_y_.size()) * sizeof(long long) +
        entries_.size() * sizeof(SparseEntry));
  }

 private:
  long long bin_coord(double v) const {
    return static_cast<long long>(std::floor(v / bucket_));
  }

  struct SparseEntry {
    long long bx = 0;
    long long by = 0;
    std::uint32_t id = 0;
  };

  /// Slot range [first, second) of the buckets lo..hi of column cx.
  std::pair<std::size_t, std::size_t> column(long long cx, long long lo,
                                             long long hi) const {
    if (dense_) {
      if (cx < min_x_ || cx > max_x_) return {0, 0};
      lo = std::max(lo, min_y_);
      hi = std::min(hi, max_y_);
      if (lo > hi) return {0, 0};
      const std::size_t base = static_cast<std::size_t>(cx - min_x_) * ny_;
      return {starts_[base + static_cast<std::size_t>(lo - min_y_)],
              starts_[base + static_cast<std::size_t>(hi - min_y_) + 1]};
    }
    const auto first = std::lower_bound(
        entries_.begin(), entries_.end(), std::make_pair(cx, lo),
        [](const SparseEntry& e, const std::pair<long long, long long>& k) {
          return e.bx != k.first ? e.bx < k.first : e.by < k.second;
        });
    const auto last = std::partition_point(
        first, entries_.end(),
        [&](const SparseEntry& e) { return e.bx == cx && e.by <= hi; });
    return {static_cast<std::size_t>(first - entries_.begin()),
            static_cast<std::size_t>(last - entries_.begin())};
  }

  double bucket_ = 1.0;
  long long span_ = 0;
  bool dense_ = true;
  // Bin bounding box of the last build (dense table spans it exactly).
  long long min_x_ = 0, max_x_ = -1, min_y_ = 0, max_y_ = -1;
  // Dense bucket row length (y extent): the table is x-major so a probe
  // column of consecutive by bins is contiguous in the CSR arrays.
  std::size_t ny_ = 0;
  // Dense: CSR-style bucket table, starts_ holding buckets+1 prefix
  // offsets into the slots.
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> cursor_;
  // Cell id of each slot: bucket by bucket, ascending (both layouts).
  std::vector<std::uint32_t> ids_;
  // Packed per-slot payload {x, y, aux_a, aux_b}; zeros for aux when
  // build got no arrays.
  std::vector<double> packed_;
  // Per-binned-cell bin coordinates (phase-1 scratch, parallel-filled);
  // indexed by cell id on full builds, by position in `cells` otherwise.
  std::vector<long long> bin_x_;
  std::vector<long long> bin_y_;
  // Sparse fallback: bucket list sorted by (bx, by, id).
  std::vector<SparseEntry> entries_;
  std::size_t builds_ = 0;
  std::size_t reallocs_ = 0;
};

/// Static mixed-size pair index over one set of positions (see the file
/// comment). build() bins the small cells in the fine grid and the macros
/// in the macro grid, and records every cell's coarse bin; sweep() then
/// yields each candidate pair once, block by block.
class MixedSizeIndex {
 public:
  /// Fine-grid slots per sweep block.
  static constexpr std::size_t kSweepGrain = 64;

  /// Re-splits the cells by extent (split_macros). Call it whenever the
  /// netlist's cell extents may have changed, before build().
  void classify(const netlist::Netlist& netlist);

  /// Bins the cells at `state`. Pairs interact up to
  /// half_w[i] + half_w[j] + tail apart on x (likewise y); with r_max the
  /// largest half extent, the coarse reach is 2 * r_max + tail. `half_w` /
  /// `half_h` are packed with the positions.
  void build(const netlist::Netlist& netlist, const std::vector<double>& state,
             const double* half_w, const double* half_h, double tail);

  /// Sweep blocks: fine-grid slot ranges of kSweepGrain, then one block
  /// per macro. The grid depends on the split and the cell count only,
  /// never on a thread count.
  std::size_t blocks() const { return fine_blocks() + macro_grid_.size(); }

  /// Calls fn(i, j, pi, pj), i < j, p = {x, y, half_w, half_h}, for the
  /// candidate pairs of `block`. Over all blocks the candidates cover
  /// every pair within the pair reach, and no pair is yielded twice:
  /// small-small pairs come from the fine grid's half-shell sweep,
  /// small-macro and macro-macro pairs from the macro's windows, widened
  /// by its own extent, into both grids.
  template <typename Fn>
  void sweep(std::size_t block, Fn&& fn) const {
    const auto emit = [&](const UniformGrid& ga, std::size_t a,
                          const UniformGrid& gb, std::size_t b) {
      const std::size_t i = ga.id(a);
      const std::size_t j = gb.id(b);
      if (i < j)
        fn(i, j, ga.packed(a), gb.packed(b));
      else
        fn(j, i, gb.packed(b), ga.packed(a));
    };
    if (block < fine_blocks()) {
      const std::size_t begin = block * kSweepGrain;
      fine_.for_half_shell(
          begin, std::min(begin + kSweepGrain, fine_.size()),
          [&](std::size_t a, std::size_t b) { emit(fine_, a, fine_, b); });
      return;
    }
    const std::size_t m = block - fine_blocks();
    const MacroSpans& s = spans_[m];
    const double* p = macro_grid_.packed(m);
    fine_.for_window(p[0], p[1], s.small_x, s.small_y,
                     [&](std::size_t b) { emit(macro_grid_, m, fine_, b); });
    macro_grid_.for_window(p[0], p[1], s.macro_x, s.macro_y,
                           [&](std::size_t b) {
                             if (macro_grid_.id(b) > macro_grid_.id(m))
                               emit(macro_grid_, m, macro_grid_, b);
                           });
  }

  /// True when the pair (i, j) is in the coarse window: bins of side
  /// (2 * r_max + tail) / 2 at most the coarse span apart on both axes.
  /// The sweep may add pairs outside it only when rounding puts two
  /// centers a hair beyond the pair reach; filtering kept pairs through
  /// this keeps the pair set exactly the single all-cell grid's.
  bool coarse_pair(std::size_t i, std::size_t j) const {
    return std::abs(coarse_[i].x - coarse_[j].x) <= coarse_span_ &&
           std::abs(coarse_[i].y - coarse_[j].y) <= coarse_span_;
  }

  /// The fold-order key of partner j in row i: orders the row's partners
  /// by (coarse bx, coarse by, id) — the slot order of the single all-cell
  /// grid, dense or sparse alike. A partner is in i's coarse window
  /// (coarse_pair), at most 2 bins away on each axis (the coarse span is
  /// at most 2), so its bins pack exactly into 5 bits relative to i's.
  std::uint64_t fold_key(std::size_t i, std::size_t j) const {
    const long long bx = coarse_[j].x - coarse_[i].x + 2;
    const long long by = coarse_[j].y - coarse_[i].y + 2;
    return static_cast<std::uint64_t>(bx * 5 + by) << 32 | j;
  }

  double footprint_bytes() const {
    return fine_.footprint_bytes() + macro_grid_.footprint_bytes() +
           static_cast<double>(
               coarse_.size() * sizeof(CoarseBin) +
               (macros_.size() + small_.size()) * sizeof(std::uint32_t) +
               spans_.size() * sizeof(MacroSpans));
  }

  std::size_t reallocations() const {
    return fine_.reallocations() + macro_grid_.reallocations();
  }

 private:
  /// A macro's probe spans, in buckets, into the fine and the macro grid.
  struct MacroSpans {
    long long small_x = 0, small_y = 0, macro_x = 0, macro_y = 0;
  };
  struct CoarseBin {
    long long x = 0, y = 0;
  };

  std::size_t fine_blocks() const {
    return (fine_.size() + kSweepGrain - 1) / kSweepGrain;
  }

  // Small cells; reach 2 * (largest small half extent) + tail.
  UniformGrid fine_;
  // Macros; reach (largest half extent) + (largest small one) + tail, the
  // farthest a small cell's macro partner can be.
  UniformGrid macro_grid_;
  // Per cell: its bin in the coarse all-cell grid, and that grid's span.
  std::vector<CoarseBin> coarse_;
  long long coarse_span_ = 0;
  std::vector<std::uint32_t> macros_;
  std::vector<std::uint32_t> small_;
  // Per macro-grid slot.
  std::vector<MacroSpans> spans_;
};

/// Hashed bucket grid over a subset of cells that tracks their positions
/// as they move: move() rebins one cell in O(1). Buckets are open-hashed
/// into a power-of-two table of doubly linked cell lists, so there is no
/// bounding box to outgrow — a cell may move anywhere, at any coordinate.
/// Bins that share a hash slot share its list; a window query checks each
/// listed cell's own bin, so it yields exactly the cells in the window.
class LiveGrid {
 public:
  /// Bins `cells` of a netlist with `n` cells at `state`.
  void build(const std::vector<double>& state,
             const std::vector<std::uint32_t>& cells, std::size_t n,
             double bucket);

  /// Records that tracked cell c now sits at (x, y).
  void move(std::size_t c, double x, double y);

  long long bin(double v) const {
    return static_cast<long long>(std::floor(v / bucket_));
  }
  double bucket() const { return bucket_; }

  /// Calls fn(j) once for every tracked cell in the buckets within span_x
  /// / span_y of bin (bx, by), in no useful order.
  template <typename Fn>
  void for_window(long long bx, long long by, long long span_x,
                  long long span_y, Fn&& fn) const {
    if (tracked_ == 0) return;
    for (long long cx = bx - span_x; cx <= bx + span_x; ++cx) {
      for (long long cy = by - span_y; cy <= by + span_y; ++cy) {
        for (std::int32_t c = head_[slot(cx, cy)]; c >= 0;) {
          const Node& node = nodes_[static_cast<std::size_t>(c)];
          if (node.bx == cx && node.by == cy) fn(static_cast<std::size_t>(c));
          c = node.next;
        }
      }
    }
  }

 private:
  /// A tracked cell: its bin and its links in the slot's list.
  struct Node {
    long long bx = 0;
    long long by = 0;
    std::int32_t next = -1;
    std::int32_t prev = -1;
  };

  /// A column hashes to a random start; its rows then take consecutive
  /// slots, so a window's dy run reads adjacent heads.
  std::size_t slot(long long bx, long long by) const {
    const std::uint64_t column =
        (static_cast<std::uint64_t>(bx) * 0x9E3779B97F4A7C15ull) >> shift_;
    return static_cast<std::size_t>(
        (column + static_cast<std::uint64_t>(by)) & (head_.size() - 1));
  }
  void link(std::size_t c);
  void unlink(std::size_t c);

  double bucket_ = 1.0;
  std::size_t tracked_ = 0;
  int shift_ = 60;
  std::vector<std::int32_t> head_;
  // Indexed by cell id; untracked cells are never linked.
  std::vector<Node> nodes_;
};

}  // namespace autoncs::place

// Cell density model — Eq. (2) of the paper, following the sigmoid-based
// overlap of Chou et al. [14]:
//   D(x, y) = sum_{ci, cj} Ox(ci, cj) * Oy(ci, cj)
// where Ox is a smooth one-dimensional overlap between the VIRTUAL extents
// of two cells. The virtual width is omega * width (Sec. 3.5), reserving
// routing space around every cell.
//
// Our smooth overlap is the softplus of the rectilinear penetration depth:
//   Ox = softplus_beta(tx - |xi - xj|),  tx = (wi' + wj') / 2,
// which matches the exact overlap (tx - |d|)+ as beta grows and has the
// sigmoid as its derivative.
//
// A model is bound to one netlist: it is built once per placement from the
// netlist, omega, beta and the pool, which fixes the virtual half extents
// and the split of the cells into small cells and macros. Its evaluations
// take only a state, the only key of the acceptance cache below.
//
// Pair enumeration (place/spatial_grid.hpp): a pair can contribute only
// while both penetrations exceed -tail (tail = 30 / beta). Candidates come
// from a MixedSizeIndex whose grids are rebuilt — into reused buffers — on
// every value pass: small cells through a fine grid sized by the largest
// SMALL extent, macros through a grid of their own.
//
// Every evaluation has one shape: a VALUE PASS that records each
// survivor (i, j), i < j, with its 1-D softplus overlaps in the
// acceptance cache, skipped when the cache already holds this exact
// point; then, when a gradient is asked for, a REPLAY that derives the
// sigmoid terms of the recorded pairs and scatters them in the recorded
// order. The Armijo line search evaluates trials value-only and asks for
// the gradient at the accepted trial, so each accepted step enumerates
// once. The value pass runs in three flat phases:
//  1. Sweep: the index yields every candidate pair once, block by block
//     (fine-grid slot ranges, then one block per macro); a pair inside
//     the tail and the coarse window goes into its block's buffer with
//     its penetration depths.
//  2. Kernel: a tight loop turns the buffer's depths into softplus
//     overlaps in place.
//  3. Fold: a stable counting sort groups all blocks' survivors by row i
//     straight into the cache; each row is sorted by the fold key.
// The fold order is a contract: row i's pairs (i, j) are summed in
// ascending (cbx_j, cby_j, j) — j's bin in the coarse all-cell grid
// (reach 2 * r_max + tail, bucket reach / 2), then its id — the order
// the single-grid enumeration visited them in. The key is a total order,
// so the cache, the total and the replayed gradient are bit-identical to
// that engine whichever grid, block or thread found a pair.
//
// With a thread pool, phases 1-2 run over the same fixed block grid in
// parallel (each block owns its buffer); the fold groups and sums
// sequentially and sorts its rows, which are independent, in parallel.
// The replay computes the per-pair sigmoid terms in parallel and scatters
// them sequentially. Both keep the exact FP operation order of the
// single-thread loops, so the result is bit-identical for any thread
// count.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/spatial_grid.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {

/// Softplus of the penetration depth — the smooth 1-D overlap. The +-30
/// clamp keeps exp in range; beyond it softplus is its own asymptote to
/// double precision.
inline double density_softplus(double z, double beta) {
  const double t = beta * z;
  if (t > 30.0) return z;
  if (t < -30.0) return 0.0;
  return std::log1p(std::exp(t)) / beta;
}

/// Sigmoid of the penetration depth — the softplus derivative, used only
/// on the gradient path.
inline double density_sigmoid(double z, double beta) {
  const double t = beta * z;
  if (t > 30.0) return 1.0;
  if (t < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-t));
}

/// Gradient terms of one surviving pair, given its geometry and the 1-D
/// overlaps from the value pass: sx / sy are applied to cell i and negated
/// on cell j.
inline void density_pair_gradient(double dx, double dy, double tx, double ty,
                                  double ox, double oy, double beta,
                                  double& sx, double& sy) {
  const double zx = tx - std::abs(dx);
  const double zy = ty - std::abs(dy);
  sx = (dx > 0.0 ? -1.0 : (dx < 0.0 ? 1.0 : 0.0)) *
       density_sigmoid(zx, beta) * oy;
  sy = (dy > 0.0 ? -1.0 : (dy < 0.0 ? 1.0 : 0.0)) *
       density_sigmoid(zy, beta) * ox;
}

/// D(x, y) of one netlist, read in place: the netlist must outlive the
/// model and keep its cell count and sizes.
class DensityModel {
 public:
  /// `omega` is the routing-space factor applied to both cell dimensions,
  /// `beta` the softplus sharpness (1/um; larger = closer to the exact
  /// hinge). `pool` parallelizes the pair enumeration and the replay when
  /// it has more than one thread; the result is identical with or
  /// without it.
  DensityModel(const netlist::Netlist& netlist, double omega, double beta,
               util::ThreadPool* pool = nullptr);

  /// D(x, y); accumulates into `gradient` when nonnull (caller zeroes it).
  /// `gradient == nullptr` is the cheap value-only mode (no sigmoids, no
  /// scatter). The cache makes this method non-reentrant. The value pass
  /// and the replay are traced as place/density and place/density_replay.
  double evaluate(const std::vector<double>& state,
                  std::vector<double>* gradient);

  /// Spatial-structure rebuilds performed so far (one per value pass —
  /// positions change between objective calls, but the index's buffers
  /// are reused so a rebuild allocates nothing in steady state).
  std::size_t grid_builds() const { return grid_builds_; }
  /// Rebuilds that had to grow a grid buffer.
  std::size_t grid_reallocations() const { return index_.reallocations(); }

  /// Work counters over every evaluation so far: candidate pairs the
  /// sweep handed to the tail test (each unordered pair once), and pairs
  /// kept (folded into the value). Both are independent of the thread
  /// count; a call that hits the acceptance cache enumerates nothing and
  /// adds to neither.
  std::size_t pair_candidates() const { return pair_candidates_; }
  std::size_t pairs_kept() const { return pairs_kept_; }

  /// Logical footprint of the block buffers, acceptance cache and the
  /// index's grids in bytes (element counts, not capacities). Buffer
  /// lengths track the final accepted state so the value is reproducible,
  /// but it is recorded manifest-only alongside the WA model's caches.
  double footprint_bytes() const {
    std::size_t pairs = cache_pairs_.size();
    for (const auto& block : block_pairs_) pairs += block.size();
    return static_cast<double>(
               (half_w_.size() + half_h_.size() + replay_sx_.size() +
                replay_sy_.size() + cache_state_.size()) *
                   sizeof(double) +
               pairs * sizeof(CachedPair) +
               row_end_.size() * sizeof(std::uint32_t) +
               fold_keys_.size() * sizeof(std::uint64_t) +
               block_candidates_.size() * sizeof(std::size_t)) +
           index_.footprint_bytes();
  }

 private:
  /// One surviving pair (i, j), i < j, recorded by the value pass: the
  /// pair plus its 1-D softplus overlaps, enough to replay the gradient at
  /// the same point without re-enumerating candidates or recomputing
  /// softplus. Kept minimal — the cache is refilled on every trial, so its
  /// write traffic is on the hot path. The pair geometry (dx, dy, tx, ty)
  /// is recomputed at replay from the state and half-extent arrays, which
  /// hold the identical doubles the value pass packed into the grid.
  struct CachedPair {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    double ox = 0.0;
    double oy = 0.0;
  };
  /// Value pass: enumerates the pairs at `state`, fills the acceptance
  /// cache and returns the total.
  double value_pass(const std::vector<double>& state);
  /// Gradient replay over the cached pairs (accumulates into `gradient`).
  void replay(const std::vector<double>& state, std::vector<double>& gradient);

  const netlist::Netlist& netlist_;
  const double beta_;
  /// Null for the serial loops.
  util::ThreadPool* const pool_;
  /// Virtual half extents 0.5 * omega * {width, height} per cell
  /// (cache-friendly vs chasing the cell structs).
  std::vector<double> half_w_;
  std::vector<double> half_h_;
  /// Mixed-size pair index, split once; its grids are rebuilt into reused
  /// buffers on every value pass.
  MixedSizeIndex index_;
  /// Phases 1-2 scratch, one buffer per sweep block, reused across
  /// evaluate() calls: the block's kept pairs (depths, then overlaps) and
  /// the candidates it examined.
  std::vector<std::vector<CachedPair>> block_pairs_;
  std::vector<std::size_t> block_candidates_;
  /// Fold scratch: per row the end of its range in the cache, per cached
  /// pair its fold key.
  std::vector<std::uint32_t> row_end_;
  std::vector<std::uint64_t> fold_keys_;
  std::size_t pair_candidates_ = 0;
  std::size_t pairs_kept_ = 0;
  std::size_t grid_builds_ = 0;
  /// Acceptance cache: the surviving pairs, in fold order, and total of
  /// the last value pass. A call whose state matches byte for byte skips
  /// the value pass; a gradient request replays the pairs (identical
  /// order, identical FP terms) and only pays the sigmoid work.
  std::vector<CachedPair> cache_pairs_;
  /// Replay scratch: per cached pair the gradient terms (sx, sy), computed
  /// in parallel — each pair owns its slot — then scattered sequentially
  /// in the recorded pair order, so the replayed gradient stays
  /// bit-identical for any thread count.
  std::vector<double> replay_sx_;
  std::vector<double> replay_sy_;
  std::vector<double> cache_state_;
  double cache_total_ = 0.0;
  bool cache_valid_ = false;
};

/// Exact total pairwise rectangle overlap AREA of the virtual cells; the
/// convergence criterion of Alg. 4 line 6 ("sum of overlap"). Pairs come
/// from the density model's sweep (no tail) and each row is summed in the
/// same fold order, so the sum — which the placer's and the legalizer's
/// stopping decisions read — is bit-identical to the single-grid
/// enumeration.
double exact_overlap_area(const netlist::Netlist& netlist,
                          const std::vector<double>& state, double omega);

/// Overlap area normalized by total virtual cell area (a scale-free
/// stopping threshold).
double overlap_ratio(const netlist::Netlist& netlist,
                     const std::vector<double>& state, double omega);

}  // namespace autoncs::place

#include "place/density.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace autoncs::place {

namespace {

double max_virtual_half_extent(const netlist::Netlist& netlist, double omega) {
  double out = 0.0;
  for (const auto& cell : netlist.cells) {
    out = std::max(out, 0.5 * omega * std::max(cell.width, cell.height));
  }
  return out;
}

/// Sorts a row's pairs by rank (ranks are distinct). Rows hold a handful
/// of pairs, where insertion sort beats std::sort's setup.
template <typename Term>
void sort_by_rank(std::vector<Term>& list) {
  if (list.size() > 32) {
    std::sort(list.begin(), list.end(), [](const Term& a, const Term& b) {
      return a.rank < b.rank;
    });
    return;
  }
  for (std::size_t a = 1; a < list.size(); ++a) {
    if (list[a - 1].rank < list[a].rank) continue;
    const Term term = list[a];
    std::size_t b = a;
    for (; b > 0 && list[b - 1].rank > term.rank; --b) list[b] = list[b - 1];
    list[b] = term;
  }
}

}  // namespace

template <typename Collect>
double DensityModel::fold_rows(std::size_t n, util::ThreadPool* pool,
                               const Collect& collect) const {
  double total = 0.0;
  const auto fold = [&](std::size_t i, const std::vector<PairTerm>& list) {
    pairs_kept_ += list.size();
    for (const PairTerm& term : list) {
      total += term.area;
      cache_pairs_.push_back(
          {static_cast<std::uint32_t>(i), term.j, term.ox, term.oy});
    }
  };

  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      row_.clear();
      pair_candidates_ += collect(i, row_);
      fold(i, row_);
    }
    return total;
  }

  // Phase 1 (parallel): cell i owns the pairs (i, j), j > i, and writes
  // only its own list, already in fold order. The index is read-only, so
  // the lists are independent of the thread count.
  // A block of ~32 cells of candidate enumeration amortizes one worker
  // wakeup; the fixed grain keeps the block grid thread-count-invariant.
  constexpr std::size_t kCellGrain = 32;
  pairs_.resize(n);
  worker_candidates_.assign(pool->size(), 0);
  pool->parallel_for(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t i = begin; i < end; ++i) {
          pairs_[i].clear();
          worker_candidates_[worker] += collect(i, pairs_[i]);
        }
      },
      kCellGrain);
  for (std::size_t count : worker_candidates_) pair_candidates_ += count;

  // Phase 2 (sequential reduction in (i, fold) order — the FP operation
  // order of the single-thread loop above).
  for (std::size_t i = 0; i < n; ++i) fold(i, pairs_[i]);
  return total;
}

double DensityModel::value_pass(const netlist::Netlist& netlist,
                                const std::vector<double>& state,
                                util::ThreadPool* pool) const {
  // Softplus tail: beyond penetration < -tail/beta the contribution is
  // below exp(-30) and can be skipped.
  const double tail = 30.0 / beta;
  const double r_max = max_virtual_half_extent(netlist, omega);
  ++grid_builds_;

  // Row i's pair kernel: appends candidate j (p = {x, y, half_w, half_h}
  // of j) to `list` when the pair survives the tail; true if it did.
  const auto row_kernel = [&](std::size_t i, std::vector<PairTerm>& list) {
    const double xi = state[2 * i];
    const double yi = state[2 * i + 1];
    const double hwi = half_w_[i];
    const double hhi = half_h_[i];
    return [&list, xi, yi, hwi, hhi, tail, beta = beta](std::size_t j,
                                                        const double* p) {
      DensityPairTerm term;
      if (!density_pair_kernel(xi - p[0], yi - p[1], hwi + p[2], hhi + p[3],
                               beta, tail, term)) {
        return false;
      }
      list.push_back({static_cast<std::uint32_t>(j), 0, term.area, term.ox,
                      term.oy});
      return true;
    };
  };

  if (index_stale_) {
    index_.classify(netlist);
    index_stale_ = false;
  }
  index_.build(netlist, state, half_w_.data(), half_h_.data(), r_max, tail,
               pool);
  cache_pairs_.clear();
  return fold_rows(
      netlist.cells.size(), pool,
      [&](std::size_t i, std::vector<PairTerm>& list) {
        std::size_t candidates = 0;
        const double xi = state[2 * i];
        const double yi = state[2 * i + 1];
        const auto keep = row_kernel(i, list);
        if (!index_.has_macros()) {
          // The coarse grid enumerates in rank order already.
          index_.coarse().for_candidates_packed(
              i, xi, yi, [&](std::size_t j, const double* p) {
                ++candidates;
                keep(j, p);
              });
          return candidates;
        }
        index_.for_candidates(i, xi, yi, [&](std::size_t j, const double* p) {
          ++candidates;
          if (!keep(j, p)) return;
          if (index_.coarse_pair(i, j))
            list.back().rank = index_.rank(j);
          else
            list.pop_back();
        });
        sort_by_rank(list);
        return candidates;
      });
}

void DensityModel::replay(const std::vector<double>& state,
                          std::vector<double>& gradient,
                          util::ThreadPool* pool) const {
  // The pair geometry is recomputed exactly as the value pass derived it:
  // dx from the same state doubles the grid packed, tx from the same
  // half-extent sums.
  const std::size_t pairs = cache_pairs_.size();
  const auto pair_terms = [&](std::size_t k, double& sx, double& sy) {
    const CachedPair& p = cache_pairs_[k];
    const double dx = state[2 * p.i] - state[2 * p.j];
    const double dy = state[2 * p.i + 1] - state[2 * p.j + 1];
    const double tx = half_w_[p.i] + half_w_[p.j];
    const double ty = half_h_[p.i] + half_h_[p.j];
    density_pair_gradient(dx, dy, tx, ty, p.ox, p.oy, beta, sx, sy);
  };
  const auto scatter = [&](std::size_t k, double sx, double sy) {
    const CachedPair& p = cache_pairs_[k];
    gradient[2 * p.i] += sx;
    gradient[2 * p.j] -= sx;
    gradient[2 * p.i + 1] += sy;
    gradient[2 * p.j + 1] -= sy;
  };
  if (pool == nullptr || pairs < 2) {
    for (std::size_t k = 0; k < pairs; ++k) {
      double sx = 0.0;
      double sy = 0.0;
      pair_terms(k, sx, sy);
      scatter(k, sx, sy);
    }
    return;
  }
  // The sigmoid work parallelizes — each pair owns its scratch slot — and
  // the scatter (whose additions alias across pairs sharing a cell) stays
  // sequential in the recorded order, so the gradient is bit-identical to
  // the serial replay.
  constexpr std::size_t kReplayGrain = 1024;
  replay_sx_.resize(pairs);
  replay_sy_.resize(pairs);
  pool->parallel_for(
      pairs,
      [&](std::size_t begin, std::size_t end, std::size_t /*worker*/) {
        for (std::size_t k = begin; k < end; ++k)
          pair_terms(k, replay_sx_[k], replay_sy_[k]);
      },
      kReplayGrain);
  for (std::size_t k = 0; k < pairs; ++k)
    scatter(k, replay_sx_[k], replay_sy_[k]);
}

double DensityModel::evaluate(const netlist::Netlist& netlist,
                              const std::vector<double>& state,
                              std::vector<double>* gradient,
                              util::ThreadPool* pool) const {
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  AUTONCS_CHECK(omega >= 1.0, "omega must be at least 1");
  AUTONCS_CHECK(beta > 0.0, "beta must be positive");
  if (gradient != nullptr) {
    AUTONCS_CHECK(gradient->size() == state.size(),
                  "gradient size must match the state");
  }
  const std::size_t n = netlist.cells.size();
  if (n < 2) return 0.0;
  if (pool != nullptr && pool->size() == 1) pool = nullptr;

  // The virtual half extents are the netlist data the value pass reads:
  // a change re-splits the index and drops the cache.
  bool extents_changed = half_w_.size() != n;
  half_w_.resize(n);
  half_h_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    const double hw = 0.5 * omega * netlist.cells[c].width;
    const double hh = 0.5 * omega * netlist.cells[c].height;
    extents_changed = extents_changed || hw != half_w_[c] || hh != half_h_[c];
    half_w_[c] = hw;
    half_h_[c] = hh;
  }
  if (extents_changed) {
    index_stale_ = true;
    cache_valid_ = false;
  }

  // The cache holds this exact point when beta, omega, the half extents
  // and the state all match the last value pass byte for byte — typically
  // the accepted Armijo trial whose gradient CG now asks for.
  if (!(cache_valid_ && cache_beta_ == beta && cache_omega_ == omega &&
        cache_state_ == state)) {
    cache_total_ = value_pass(netlist, state, pool);
    cache_state_ = state;
    cache_beta_ = beta;
    cache_omega_ = omega;
    cache_valid_ = true;
  }
  if (gradient != nullptr) replay(state, *gradient, pool);
  return cache_total_;
}

double exact_overlap_area(const netlist::Netlist& netlist,
                          const std::vector<double>& state, double omega) {
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  const std::size_t n = netlist.cells.size();
  if (n < 2) return 0.0;
  std::vector<double> half_w(n);
  std::vector<double> half_h(n);
  for (std::size_t c = 0; c < n; ++c) {
    half_w[c] = 0.5 * omega * netlist.cells[c].width;
    half_h[c] = 0.5 * omega * netlist.cells[c].height;
  }
  MixedSizeIndex index;
  index.classify(netlist);
  index.build(netlist, state, half_w.data(), half_h.data(),
              max_virtual_half_extent(netlist, omega), 0.0);

  // Overlap of row i with candidate j (p[0], p[1] hold j's center).
  const auto overlap = [&](std::size_t i, std::size_t j, const double* p) {
    const auto& ci = netlist.cells[i];
    const auto& cj = netlist.cells[j];
    const double ox = std::max(
        0.0, 0.5 * omega * (ci.width + cj.width) - std::abs(state[2 * i] - p[0]));
    const double oy = std::max(0.0, 0.5 * omega * (ci.height + cj.height) -
                                        std::abs(state[2 * i + 1] - p[1]));
    return ox * oy;
  };
  double total = 0.0;
  struct Term {
    std::uint32_t rank;
    double area;
  };
  std::vector<Term> row;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = state[2 * i];
    const double yi = state[2 * i + 1];
    if (!index.has_macros()) {
      index.coarse().for_candidates_packed(
          i, xi, yi,
          [&](std::size_t j, const double* p) { total += overlap(i, j, p); });
      continue;
    }
    // Adding a zero term leaves the sum unchanged, so only overlapping
    // pairs need their place in the rank order.
    row.clear();
    index.for_candidates(i, xi, yi, [&](std::size_t j, const double* p) {
      const double area = overlap(i, j, p);
      if (area > 0.0 && index.coarse_pair(i, j))
        row.push_back({index.rank(j), area});
    });
    sort_by_rank(row);
    for (const Term& term : row) total += term.area;
  }
  return total;
}

double overlap_ratio(const netlist::Netlist& netlist,
                     const std::vector<double>& state, double omega) {
  double area = 0.0;
  for (const auto& cell : netlist.cells)
    area += omega * cell.width * omega * cell.height;
  if (area <= 0.0) return 0.0;
  return exact_overlap_area(netlist, state, omega) / area;
}

}  // namespace autoncs::place

#include "place/density.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace autoncs::place {

namespace {

/// Sorts a row's pairs by their fold keys (distinct: a key holds the
/// partner's id). Rows hold a handful of pairs, where insertion sort beats
/// std::sort's setup. A macro's row may hold hundreds: std::sort orders
/// their positions, and `row` (scratch) gathers the pairs.
template <typename Pair>
void sort_row(std::uint64_t* keys, Pair* pairs, std::size_t count,
              std::vector<std::uint32_t>& order, std::vector<Pair>& row) {
  if (count > 32) {
    order.resize(count);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
    row.assign(pairs, pairs + count);
    for (std::size_t k = 0; k < count; ++k) pairs[k] = row[order[k]];
    return;
  }
  for (std::size_t a = 1; a < count; ++a) {
    const std::uint64_t key = keys[a];
    if (keys[a - 1] < key) continue;
    const Pair pair = pairs[a];
    std::size_t b = a;
    for (; b > 0 && keys[b - 1] > key; --b) {
      keys[b] = keys[b - 1];
      pairs[b] = pairs[b - 1];
    }
    keys[b] = key;
    pairs[b] = pair;
  }
}

/// Phase 3 of a pass: groups the pairs of `blocks`, taken in block
/// order, by row i into `out` (a stable counting sort; `row_end` and
/// `keys` are scratch), sorts each row by the index's fold key and
/// returns the sum of ox * oy in that order. Rows are independent, so
/// `pool` may sort them in parallel; the sum stays sequential.
template <typename Pair>
double fold_rows(const std::vector<std::vector<Pair>>& blocks,
                 const MixedSizeIndex& index, std::size_t n,
                 std::vector<std::uint32_t>& row_end,
                 std::vector<std::uint64_t>& keys, std::vector<Pair>& out,
                 util::ThreadPool* pool) {
  row_end.assign(n + 1, 0);
  std::size_t pairs = 0;
  for (const auto& block : blocks) {
    pairs += block.size();
    for (const Pair& p : block) ++row_end[p.i + 1];
  }
  for (std::size_t i = 0; i < n; ++i) row_end[i + 1] += row_end[i];
  out.resize(pairs);
  keys.resize(pairs);
  // Scattering advances row_end[i] from the start of row i to its end.
  for (const auto& block : blocks) {
    for (const Pair& p : block) {
      const std::uint32_t at = row_end[p.i]++;
      out[at] = p;
      keys[at] = index.fold_key(p.i, p.j);
    }
  }
  const auto sort_rows = [&](std::size_t first, std::size_t last) {
    std::vector<std::uint32_t> order;
    std::vector<Pair> row;
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t begin = i == 0 ? 0 : row_end[i - 1];
      sort_row(keys.data() + begin, out.data() + begin, row_end[i] - begin,
               order, row);
    }
  };
  if (pool == nullptr) {
    sort_rows(0, n);
  } else {
    constexpr std::size_t kRowGrain = 256;
    pool->parallel_for(
        n,
        [&](std::size_t first, std::size_t last, std::size_t /*worker*/) {
          sort_rows(first, last);
        },
        kRowGrain);
  }
  double total = 0.0;
  for (const Pair& p : out) total += p.ox * p.oy;
  return total;
}

}  // namespace

DensityModel::DensityModel(const netlist::Netlist& netlist, double omega,
                           double beta, util::ThreadPool* pool)
    : netlist_(netlist),
      beta_(beta),
      pool_(pool != nullptr && pool->size() > 1 ? pool : nullptr) {
  AUTONCS_CHECK(omega >= 1.0, "omega must be at least 1");
  AUTONCS_CHECK(beta > 0.0, "beta must be positive");
  const std::size_t n = netlist.cells.size();
  half_w_.resize(n);
  half_h_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    half_w_[c] = 0.5 * omega * netlist.cells[c].width;
    half_h_[c] = 0.5 * omega * netlist.cells[c].height;
  }
  index_.classify(netlist);
}

double DensityModel::value_pass(const std::vector<double>& state) {
  // Softplus tail: beyond penetration < -tail/beta the contribution is
  // below exp(-30) and can be skipped.
  const double tail = 30.0 / beta_;
  ++grid_builds_;
  index_.build(netlist_, state, half_w_.data(), half_h_.data(), tail);

  // Phases 1-2 of one block: the sweep records each kept pair with its
  // penetration depths (zx, zy) in the overlap slots, then the kernel
  // turns them into softplus overlaps in place.
  const std::size_t blocks = index_.blocks();
  block_pairs_.resize(blocks);
  block_candidates_.resize(blocks);
  const auto run_block = [&](std::size_t b) {
    std::vector<CachedPair>& out = block_pairs_[b];
    out.clear();
    std::size_t candidates = 0;
    index_.sweep(b, [&](std::size_t i, std::size_t j, const double* pi,
                        const double* pj) {
      ++candidates;
      const double zx = (pi[2] + pj[2]) - std::abs(pi[0] - pj[0]);
      const double zy = (pi[3] + pj[3]) - std::abs(pi[1] - pj[1]);
      if (zx < -tail || zy < -tail || !index_.coarse_pair(i, j)) return;
      out.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j), zx, zy});
    });
    for (CachedPair& p : out) {
      p.ox = density_softplus(p.ox, beta_);
      p.oy = density_softplus(p.oy, beta_);
    }
    block_candidates_[b] = candidates;
  };
  if (pool_ == nullptr) {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  } else {
    pool_->parallel_for(
        blocks,
        [&](std::size_t begin, std::size_t end, std::size_t /*worker*/) {
          for (std::size_t b = begin; b < end; ++b) run_block(b);
        },
        1);
  }
  for (std::size_t count : block_candidates_) pair_candidates_ += count;

  // Phase 3: the fold writes the cache in (i, key) order.
  const double total = fold_rows(block_pairs_, index_, netlist_.cells.size(),
                                 row_end_, fold_keys_, cache_pairs_, pool_);
  pairs_kept_ += cache_pairs_.size();
  return total;
}

void DensityModel::replay(const std::vector<double>& state,
                          std::vector<double>& gradient) {
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
    density_pair_gradient(dx, dy, tx, ty, p.ox, p.oy, beta_, sx, sy);
  };
  const auto scatter = [&](std::size_t k, double sx, double sy) {
    const CachedPair& p = cache_pairs_[k];
    gradient[2 * p.i] += sx;
    gradient[2 * p.j] -= sx;
    gradient[2 * p.i + 1] += sy;
    gradient[2 * p.j + 1] -= sy;
  };
  if (pool_ == nullptr || pairs < 2) {
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
  pool_->parallel_for(
      pairs,
      [&](std::size_t begin, std::size_t end, std::size_t /*worker*/) {
        for (std::size_t k = begin; k < end; ++k)
          pair_terms(k, replay_sx_[k], replay_sy_[k]);
      },
      kReplayGrain);
  for (std::size_t k = 0; k < pairs; ++k)
    scatter(k, replay_sx_[k], replay_sy_[k]);
}

double DensityModel::evaluate(const std::vector<double>& state,
                              std::vector<double>* gradient) {
  AUTONCS_CHECK(state.size() == netlist_.cells.size() * 2,
                "state size must be 2 * cell count");
  if (gradient != nullptr) {
    AUTONCS_CHECK(gradient->size() == state.size(),
                  "gradient size must match the state");
  }
  if (netlist_.cells.size() < 2) return 0.0;
  // The cache holds this exact point when the state matches the last
  // value pass byte for byte — typically the accepted Armijo trial whose
  // gradient CG now asks for.
  if (!(cache_valid_ && cache_state_ == state)) {
    AUTONCS_TRACE_SCOPE("place/density");
    cache_total_ = value_pass(state);
    cache_state_ = state;
    cache_valid_ = true;
  }
  if (gradient != nullptr) {
    AUTONCS_TRACE_SCOPE("place/density_replay");
    replay(state, *gradient);
  }
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
  index.build(netlist, state, half_w.data(), half_h.data(), 0.0);

  // Adding a zero term leaves the sum unchanged, so only overlapping
  // pairs need their place in the fold order.
  struct Pair {
    std::uint32_t i;
    std::uint32_t j;
    double ox;
    double oy;
  };
  std::vector<std::vector<Pair>> kept(1);
  for (std::size_t b = 0; b < index.blocks(); ++b) {
    index.sweep(b, [&](std::size_t i, std::size_t j, const double* pi,
                       const double* pj) {
      const auto& ci = netlist.cells[i];
      const auto& cj = netlist.cells[j];
      const double ox = std::max(0.0, 0.5 * omega * (ci.width + cj.width) -
                                          std::abs(pi[0] - pj[0]));
      const double oy = std::max(0.0, 0.5 * omega * (ci.height + cj.height) -
                                          std::abs(pi[1] - pj[1]));
      if (ox * oy > 0.0 && index.coarse_pair(i, j))
        kept[0].push_back({static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(j), ox, oy});
    });
  }
  std::vector<std::uint32_t> row_end;
  std::vector<std::uint64_t> keys;
  std::vector<Pair> rows;
  return fold_rows(kept, index, n, row_end, keys, rows, nullptr);
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

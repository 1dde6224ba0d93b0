#include "linalg/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/eigen_dispatch.hpp"
#include "util/check.hpp"

// The dense solver's output is pinned bit for bit (golden digests in
// tests/linalg/eigen_test.cpp), and every ISA variant below must produce
// the same bytes. So no variant may fuse a multiply and an add into an
// FMA: clang contracts within an expression by default (this pragma turns
// it off for the rest of the file), GCC contracts across statements
// (AUTONCS_EIGEN_KERNEL_OPTS), and AVX-512F carries FMA.
#if defined(__clang__)
#pragma clang fp contract(off)
#endif

// Each variant is one function carrying its own target attribute, so no
// AVX code leaks into the inline functions this file shares with the rest
// of the program (building the whole file with -mavx2 made the flow ~4x
// slower). Elsewhere only the baseline is built.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define AUTONCS_EIGEN_MULTIVERSION 1
#else
#define AUTONCS_EIGEN_MULTIVERSION 0
#endif

#if defined(__GNUC__) && !defined(__clang__)
// No contraction; vectorize at -O2 too, whose cheap cost model skips every
// loop that needs an epilogue, so each variant is the same code in every
// build type.
#define AUTONCS_EIGEN_KERNEL_OPTS \
  __attribute__((optimize("fp-contract=off", "tree-vectorize", \
                          "vect-cost-model=dynamic")))
#else
#define AUTONCS_EIGEN_KERNEL_OPTS
#endif

// The kernel bodies are inlined into every variant, which compiles them
// for its own ISA.
#if defined(__GNUC__) || defined(__clang__)
#define AUTONCS_EIGEN_BODY [[gnu::always_inline]] inline
#else
#define AUTONCS_EIGEN_BODY inline
#endif

namespace autoncs::linalg {

namespace {

// One pass of tred2's back-accumulation over rows z0..z3 (rows k..k+3):
// each row takes reflector i's update z[j] -= g[j] v_k (v_k = z[col], the
// reflector's column), its column entry is cleared, and the updated rows
// are added into the next reflector's gn in ascending row order, weighted
// by u[0..3].
AUTONCS_EIGEN_BODY void accumulate_rows4(
    double* __restrict z0, double* __restrict z1, double* __restrict z2,
    double* __restrict z3, const double* __restrict g, double* __restrict gn,
    std::size_t count, std::size_t col, const double* u) {
  const double v0 = z0[col];
  const double v1 = z1[col];
  const double v2 = z2[col];
  const double v3 = z3[col];
  const double u0 = u[0];
  const double u1 = u[1];
  const double u2 = u[2];
  const double u3 = u[3];
  for (std::size_t j = 0; j < count; ++j) {
    const double x0 = z0[j] - g[j] * v0;
    const double x1 = z1[j] - g[j] * v1;
    const double x2 = z2[j] - g[j] * v2;
    const double x3 = z3[j] - g[j] * v3;
    z0[j] = x0;
    z1[j] = x1;
    z2[j] = x2;
    z3[j] = x3;
    gn[j] = gn[j] + u0 * x0 + u1 * x1 + u2 * x2 + u3 * x3;
  }
  z0[col] = 0.0;
  z1[col] = 0.0;
  z2[col] = 0.0;
  z3[col] = 0.0;
  gn[col] = gn[col] + u0 * z0[col] + u1 * z1[col] + u2 * z2[col] +
            u3 * z3[col];
}

// Rows z0..z3 (rows j..j+3 of the active block) take the previous
// Householder step's rank-2 update over columns [0, count), z[c] -= f_r
// p[c] + g_r u[c] with f_r = u[j + r], g_r = p[j + r], and are then added
// into this step's q = A u' in ascending row order, weighted by w[0..3]
// (u'_j..u'_{j+3}).
AUTONCS_EIGEN_BODY void reduce_rows4(
    double* __restrict z0, double* __restrict z1, double* __restrict z2,
    double* __restrict z3, const double* __restrict p,
    const double* __restrict u, double* __restrict q, std::size_t count,
    std::size_t j, const double* w) {
  const double f0 = u[j];
  const double f1 = u[j + 1];
  const double f2 = u[j + 2];
  const double f3 = u[j + 3];
  const double g0 = p[j];
  const double g1 = p[j + 1];
  const double g2 = p[j + 2];
  const double g3 = p[j + 3];
  const double w0 = w[0];
  const double w1 = w[1];
  const double w2 = w[2];
  const double w3 = w[3];
  for (std::size_t c = 0; c < count; ++c) {
    const double x0 = z0[c] - (f0 * p[c] + g0 * u[c]);
    const double x1 = z1[c] - (f1 * p[c] + g1 * u[c]);
    const double x2 = z2[c] - (f2 * p[c] + g2 * u[c]);
    const double x3 = z3[c] - (f3 * p[c] + g3 * u[c]);
    z0[c] = x0;
    z1[c] = x1;
    z2[c] = x2;
    z3[c] = x3;
    q[c] = q[c] + x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3;
  }
}

// One row of the same pass: the pending rank-2 update (when u is not
// null), then the row's term of q (when q is not null).
AUTONCS_EIGEN_BODY void reduce_row(double* __restrict zj,
                                   const double* __restrict p,
                                   const double* __restrict u,
                                   double* __restrict q, std::size_t count,
                                   std::size_t j, double w) {
  if (u != nullptr) {
    const double f = u[j];
    const double g = p[j];
    for (std::size_t c = 0; c < count; ++c) zj[c] -= f * p[c] + g * u[c];
  }
  if (q != nullptr)
    for (std::size_t c = 0; c < count; ++c) q[c] += zj[c] * w;
}

// Householder reduction of a real symmetric matrix (stored in z, both
// triangles) to tridiagonal form; d receives the diagonal and e the
// subdiagonal (e[0] unused). On exit z holds the accumulated orthogonal
// transform. Classic tred2 (EISPACK / Numerical Recipes formulation); each
// element sees the textbook's floating-point operations in the textbook's
// order, so results stay bit-identical (golden digests in
// tests/linalg/eigen_test.cpp). Only element-wise loops vectorize; every
// sum keeps its order.
//
// The textbook reads the lower triangle only. Here the active block is
// kept in both triangles: the rank-2 update gives A(j, k) and A(k, j) the
// same two products in swapped order, so both stay bit-equal. With full
// rows, p = A u is sum_j u_j A(j, :) over rows j in ascending order: each
// p[k] adds A(k, 0..l) u in the textbook's order (its dot product over
// j < k, then A(k, k) u_k, then the terms A(j, k) u_j of the rows below),
// element-wise. The rank-2 update of step i rewrites exactly the rows
// step i - 1 reads, so it is deferred and applied in the same pass as
// step i - 1's product, one row after the other.
AUTONCS_EIGEN_BODY void tred2(double* const base, std::size_t n,
                              std::size_t ld, double* const d,
                              double* const ev) {
  const auto row = [base, ld](std::size_t r) { return base + r * ld; };
  // p: the pending step's vector for its rank-2 update; q: this step's.
  // The back-accumulation reuses the same storage for its g vectors.
  std::vector<double> scratch(2 * n);
  double* p = scratch.data();
  double* q = p + n;
  const double* pending = nullptr;  // the pending step's u (its row)
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* const zi = row(i);
    // Row i is this step's u: it takes the pending update first, over its
    // lower triangle and diagonal.
    reduce_row(zi, p, pending, nullptr, i + 1, i, 0.0);
    double h = 0.0;
    double scale = 0.0;
    bool reduce = false;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(zi[k]);
      if (scale == 0.0) {
        ev[i] = zi[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          zi[k] /= scale;
          h += zi[k] * zi[k];
        }
        const double f = zi[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        ev[i] = scale * g;
        h -= f * g;
        zi[l] = f - g;
        reduce = true;
      }
    } else {
      ev[i] = zi[l];
    }
    // The pending update of rows and columns 0..l, and q = A u.
    double* const qi = reduce ? q : nullptr;
    if (reduce) std::fill_n(q, l + 1, 0.0);
    std::size_t j = 0;
    if (reduce && pending != nullptr) {
      for (; j + 3 <= l; j += 4) {
        double* const zj = row(j);
        reduce_rows4(zj, zj + ld, zj + 2 * ld, zj + 3 * ld, p, pending, q,
                     l + 1, j, zi + j);
      }
    }
    for (; j <= l; ++j)
      reduce_row(row(j), p, pending, qi, l + 1, j, zi[j]);
    pending = nullptr;
    if (reduce) {
      double f = 0.0;
      for (std::size_t k = 0; k <= l; ++k) {
        row(k)[i] = zi[k] / h;
        q[k] /= h;
        f += q[k] * zi[k];
      }
      const double hh = f / (h + h);
      for (std::size_t k = 0; k <= l; ++k) q[k] -= hh * zi[k];
      pending = zi;
      std::swap(p, q);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  ev[0] = 0.0;
  // Back-accumulation. Reflector i (d[i] != 0, u = row i, v = column i)
  // forms g = u^T Z over the leading i x i block, each g[j] summing rows
  // k = 0..i-1 in order, and applies Z -= v g^T; then row and column i
  // become those of the identity. Reflector i + 1's g reads exactly the
  // rows this update writes, so one pass updates row k, clears its column
  // i entry and adds it into the next reflector's g (gn).
  double* g = scratch.data();
  double* gn = g + n;
  for (std::size_t i = 0; i < n; ++i) {
    double* const zi = row(i);
    const bool apply = d[i] != 0.0;
    const double* const un =
        i + 1 < n && d[i + 1] != 0.0 ? row(i + 1) : nullptr;
    std::size_t k = 0;
    if (un != nullptr) {
      std::fill_n(gn, i + 1, 0.0);
      if (apply) {
        for (; k + 4 <= i; k += 4) {
          double* const zk = row(k);
          accumulate_rows4(zk, zk + ld, zk + 2 * ld, zk + 3 * ld, g, gn, i,
                           i, un + k);
        }
      }
    }
    for (; k < i; ++k) {
      double* const zk = row(k);
      if (apply) {
        const double vk = zk[i];
        for (std::size_t j = 0; j < i; ++j) zk[j] -= g[j] * vk;
      }
      zk[i] = 0.0;
      if (un != nullptr) {
        const double uk = un[k];
        for (std::size_t j = 0; j <= i; ++j) gn[j] += uk * zk[j];
      }
    }
    d[i] = zi[i];
    zi[i] = 1.0;
    std::fill_n(zi, i, 0.0);
    if (un != nullptr) {
      const double ui = un[i];
      for (std::size_t j = 0; j <= i; ++j) gn[j] += ui * zi[j];
    }
    std::swap(g, gn);
  }
}

AUTONCS_EIGEN_BODY void transpose_in_place(double* const base, std::size_t n,
                                           std::size_t ld) {
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c)
      std::swap(base[r * ld + c], base[c * ld + r]);
}

AUTONCS_EIGEN_BODY double pythag(double a, double b) {
  // sqrt(a^2 + b^2) without destructive overflow/underflow.
  const double absa = std::abs(a);
  const double absb = std::abs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

// One Givens rotation of the textbook's tql2 on columns [0, width) of two
// adjacent rows of zt = Q^T: `lo` is row i, `hi` row i + 1.
template <std::size_t kWidth>
AUTONCS_EIGEN_BODY void rotate_rows(double* __restrict lo,
                                    double* __restrict hi, double c,
                                    double s, std::size_t width = kWidth) {
  for (std::size_t k = 0; k < (kWidth ? kWidth : width); ++k) {
    const double f = hi[k];
    hi[k] = s * lo[k] + c * f;
    lo[k] = c * lo[k] - s * f;
  }
}

// The QL sweeps' rotations, recorded in the order tql2 makes them.
struct RotationBatch {
  static constexpr std::size_t kSweeps = 8;
  std::vector<std::size_t> row;  // the rotation combines rows row, row + 1
  std::vector<double> c;
  std::vector<double> s;
  std::size_t sweeps = 0;
};

// A batch of rotations being applied to zt. A rotation of rows (i, i + 1)
// commutes with every rotation that shares neither row, so each one is
// scheduled at the earliest wavefront step after the last earlier rotation
// touching its rows: every element of zt still sees its rotations in the
// original order, with the original operands, while rotations from
// several sweeps interleave. The replay goes one column block at a time,
// so the rows a wavefront touches stay in cache across all its sweeps.
// It advances a few rotations at a time while the next batch's sweeps
// run: their scalar recurrence is latency-bound, the replay
// throughput-bound, so the core overlaps the two.
struct RotationReplay {
  static constexpr std::size_t kBlock = 64;
  std::vector<std::size_t> row;  // in wavefront order
  std::vector<double> c;
  std::vector<double> s;
  std::size_t k0 = 0;    // the column block being replayed
  std::size_t next = 0;  // its next rotation
  // Scheduling scratch.
  std::vector<std::size_t> step;
  std::vector<std::size_t> last;  // per zt row: last step touching it
  std::vector<std::size_t> begin;
};

// Schedules `batch` into `replay` (which must be finished) and empties it.
AUTONCS_EIGEN_BODY void schedule(RotationBatch& batch, RotationReplay& replay,
                                 std::size_t n) {
  const std::size_t count = batch.row.size();
  replay.step.resize(count);
  replay.last.assign(n, 0);
  std::size_t steps = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t i = batch.row[r];
    const std::size_t t = std::max(replay.last[i], replay.last[i + 1]) + 1;
    replay.step[r] = t;
    replay.last[i] = t;
    replay.last[i + 1] = t;
    steps = std::max(steps, t);
  }
  // Stable counting sort by step.
  replay.begin.assign(steps + 2, 0);
  for (std::size_t r = 0; r < count; ++r) ++replay.begin[replay.step[r] + 1];
  for (std::size_t t = 1; t <= steps + 1; ++t)
    replay.begin[t] += replay.begin[t - 1];
  replay.row.resize(count);
  replay.c.resize(count);
  replay.s.resize(count);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t q = replay.begin[replay.step[r]]++;
    replay.row[q] = batch.row[r];
    replay.c[q] = batch.c[r];
    replay.s[q] = batch.s[r];
  }
  replay.k0 = count == 0 ? n : 0;
  replay.next = 0;
  batch.row.clear();
  batch.c.clear();
  batch.s.clear();
  batch.sweeps = 0;
}

// Applies up to `budget` rotations (each to one column block) of the
// replay, or all that are left.
AUTONCS_EIGEN_BODY void advance(RotationReplay& replay, double* base,
                                std::size_t n, std::size_t ld,
                                std::size_t budget) {
  constexpr std::size_t kBlock = RotationReplay::kBlock;
  const std::size_t count = replay.row.size();
  while (budget > 0 && replay.k0 < n) {
    const std::size_t end = count - replay.next > budget ? replay.next + budget
                                                         : count;
    budget -= end - replay.next;
    if (replay.k0 + kBlock <= n) {
      for (std::size_t q = replay.next; q < end; ++q) {
        double* const lo = base + replay.row[q] * ld + replay.k0;
        rotate_rows<kBlock>(lo, lo + ld, replay.c[q], replay.s[q]);
      }
    } else {
      for (std::size_t q = replay.next; q < end; ++q) {
        double* const lo = base + replay.row[q] * ld + replay.k0;
        rotate_rows<0>(lo, lo + ld, replay.c[q], replay.s[q], n - replay.k0);
      }
    }
    replay.next = end;
    if (end == count) {
      replay.next = 0;
      replay.k0 += kBlock;
    }
  }
}

// QL with implicit shifts on a symmetric tridiagonal matrix. Classic tql2,
// except that it accumulates the rotations into zt = Q^T: each rotation
// combines two contiguous rows, and the rows of zt become the eigenvectors.
// The sweeps never read zt, so their rotations are recorded and applied in
// batches (RotationReplay), each while the next one is being recorded.
AUTONCS_EIGEN_BODY void tql2(double* const d, double* const e,
                             double* const base, std::size_t n,
                             std::size_t ld) {
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  // Rotations to replay per rotation recorded; the remainder of a batch is
  // applied when the next one is full.
  constexpr std::size_t kPace = 2;
  RotationBatch batch;
  RotationReplay replay;
  replay.k0 = n;  // nothing to replay yet
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        // The additive floor keeps the deflation test meaningful when both
        // neighbouring diagonal entries are zero (isolated graph nodes).
        if (std::abs(e[m]) <=
            std::numeric_limits<double>::epsilon() * dd + 1e-280)
          break;
      }
      if (m != l) {
        if (++iter == 50)
          throw std::runtime_error("tql2: too many QL iterations");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          batch.row.push_back(i);
          batch.c.push_back(c);
          batch.s.push_back(s);
          advance(replay, base, n, ld, kPace);
        }
        if (++batch.sweeps == RotationBatch::kSweeps) {
          advance(replay, base, n, ld, kAll);
          schedule(batch, replay, n);
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  advance(replay, base, n, ld, kAll);
  schedule(batch, replay, n);
  advance(replay, base, n, ld, kAll);
}

// tred2, then tql2 on the transposed transform, for the n x n matrix z
// with row stride ld. On exit z holds Q^T (eigenvector rows) and d the
// eigenvalues.
AUTONCS_EIGEN_BODY void tridiagonal_ql(double* z, std::size_t n, std::size_t ld,
                                       double* d, double* e) {
  tred2(z, n, ld, d, e);
  transpose_in_place(z, n, ld);
  tql2(d, e, z, n, ld);
}

using EigenKernel = void (*)(double*, std::size_t, std::size_t, double*,
                             double*);

AUTONCS_EIGEN_KERNEL_OPTS void tridiagonal_ql_baseline(
    double* z, std::size_t n, std::size_t ld, double* d, double* e) {
  tridiagonal_ql(z, n, ld, d, e);
}

#if AUTONCS_EIGEN_MULTIVERSION
__attribute__((target("avx2"))) AUTONCS_EIGEN_KERNEL_OPTS void
tridiagonal_ql_avx2(double* z, std::size_t n, std::size_t ld, double* d,
                    double* e) {
  tridiagonal_ql(z, n, ld, d, e);
}

__attribute__((target("avx512f"))) AUTONCS_EIGEN_KERNEL_OPTS void
tridiagonal_ql_avx512f(double* z, std::size_t n, std::size_t ld, double* d,
                       double* e) {
  tridiagonal_ql(z, n, ld, d, e);
}
#endif

EigenKernel kernel_for(detail::EigenIsa isa) {
  switch (isa) {
#if AUTONCS_EIGEN_MULTIVERSION
    case detail::EigenIsa::kAvx512f:
      return tridiagonal_ql_avx512f;
    case detail::EigenIsa::kAvx2:
      return tridiagonal_ql_avx2;
#endif
    default:
      return tridiagonal_ql_baseline;
  }
}

// The solver's n x n working matrix. Rows start on 64-byte boundaries and
// the row stride is an odd number of cache lines, so a vector access never
// splits a cache line and a walk down a column spreads over every cache
// set. The padding is never read. The storage is a std::vector, like the
// Matrix it replaces: an aligned operator new of the same size raised
// perfbench's multi-flow peak RSS by a fifth (the allocator kept the freed
// blocks in its per-thread arenas).
struct Workspace {
  explicit Workspace(std::size_t n) : ld((n + 7) / 8 * 8) {
    if ((ld / 8) % 2 == 0) ld += 8;
    storage.resize(n * ld + kAlign / sizeof(double));
    const auto address = reinterpret_cast<std::uintptr_t>(storage.data());
    data = storage.data() +
           (kAlign - address % kAlign) % kAlign / sizeof(double);
  }
  Workspace(const Workspace&) = delete;  // data points into storage
  Workspace& operator=(const Workspace&) = delete;
  double* row(std::size_t r) const { return data + r * ld; }

  static constexpr std::size_t kAlign = 64;
  std::size_t ld;
  std::vector<double> storage;
  double* data;
};

// The variant a ScopedEigenIsa on this thread asks for, or -1.
thread_local int t_isa_override = -1;

// Cyclic Jacobi rotation method. Roughly an order of magnitude slower than
// tred2/tql2 but unconditionally convergent for symmetric input; used as a
// fallback when QL stalls (which can happen on graph Laplacians with many
// exactly-repeated eigenvalues). Like tql2 it accumulates vt = V^T, whose
// rows are the eigenvectors.
void jacobi_eigen(Matrix& a, Matrix& vt, std::vector<double>& d) {
  const std::size_t n = a.rows();
  vt = Matrix::identity(n);
  constexpr std::size_t kMaxSweeps = 100;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    if (off < 1e-24) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);
        const double app = a(p, p);
        const double aqq = a(q, q);
        a(p, p) = app - t * apq;
        a(q, q) = aqq + t * apq;
        a(p, q) = 0.0;
        a(q, p) = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          if (k != p && k != q) {
            const double akp = a(k, p);
            const double akq = a(k, q);
            a(k, p) = akp - s * (akq + tau * akp);
            a(p, k) = a(k, p);
            a(k, q) = akq + s * (akp - tau * akq);
            a(q, k) = a(k, q);
          }
          const double vkp = vt(p, k);
          const double vkq = vt(q, k);
          vt(p, k) = vkp - s * (vkq + tau * vkp);
          vt(q, k) = vkq + s * (vkp - tau * vkq);
        }
      }
    }
  }
  d.resize(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a) {
  AUTONCS_CHECK(a.rows() == a.cols(), "symmetric_eigen needs a square matrix");
  AUTONCS_CHECK(a.is_symmetric(1e-9), "symmetric_eigen needs a symmetric matrix");
  const std::size_t n = a.rows();
  EigenDecomposition out;
  if (n == 0) return out;

  if (n == 1) {
    out.values = {a(0, 0)};
    out.vectors = Matrix::identity(1);
    return out;
  }
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  Workspace z(n);
  // The lower triangle, mirrored: tred2 keeps both triangles but the
  // result may depend on the lower one only.
  for (std::size_t r = 0; r < n; ++r) {
    const double* const src = a.row(r).data();
    for (std::size_t c = 0; c <= r; ++c) {
      z.row(r)[c] = src[c];
      z.row(c)[r] = src[c];
    }
  }
  try {
    const detail::EigenIsa isa =
        t_isa_override >= 0 ? static_cast<detail::EigenIsa>(t_isa_override)
                            : detail::dispatched_eigen_isa();
    kernel_for(isa)(z.data, n, z.ld, d.data(), e.data());
  } catch (const std::runtime_error&) {
    // QL stalled; fall back to the unconditionally convergent Jacobi method.
    Matrix work = a;
    Matrix vt;
    jacobi_eigen(work, vt, d);
    for (std::size_t r = 0; r < n; ++r)
      std::copy_n(vt.row(r).data(), n, z.row(r));
  }

  // Sort ascending; row order[j] of z = Q^T is eigenvector column j.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d[i] < d[j]; });
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) out.values[j] = d[order[j]];
  for (std::size_t i = 0; i < n; ++i) {
    double* const dst = out.vectors.row(i).data();
    for (std::size_t j = 0; j < n; ++j) dst[j] = z.row(order[j])[i];
  }
  return out;
}

namespace detail {

const char* eigen_isa_name(EigenIsa isa) {
  switch (isa) {
    case EigenIsa::kAvx512f:
      return "avx512f";
    case EigenIsa::kAvx2:
      return "avx2";
    case EigenIsa::kBaseline:
      break;
  }
  return "baseline";
}

bool eigen_isa_supported(EigenIsa isa) {
#if AUTONCS_EIGEN_MULTIVERSION
  switch (isa) {
    case EigenIsa::kAvx512f:
      return __builtin_cpu_supports("avx512f");
    case EigenIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case EigenIsa::kBaseline:
      break;
  }
  return true;
#else
  return isa == EigenIsa::kBaseline;
#endif
}

EigenIsa dispatched_eigen_isa() {
  static const EigenIsa chosen = [] {
    for (EigenIsa isa : kEigenIsas)
      if (eigen_isa_supported(isa)) return isa;
    return EigenIsa::kBaseline;
  }();
  return chosen;
}

ScopedEigenIsa::ScopedEigenIsa(EigenIsa isa) : previous_(t_isa_override) {
  AUTONCS_CHECK(eigen_isa_supported(isa),
                "eigen kernel variant not supported on this host");
  t_isa_override = static_cast<int>(isa);
}

ScopedEigenIsa::~ScopedEigenIsa() { t_isa_override = previous_; }

}  // namespace detail

}  // namespace autoncs::linalg

#include "linalg/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/check.hpp"

namespace autoncs::linalg {

namespace {

// Householder reduction of a real symmetric matrix (stored in z) to
// tridiagonal form; d receives the diagonal and e the subdiagonal
// (e[0] unused). On exit z holds the accumulated orthogonal transform.
// Classic tred2 (EISPACK / Numerical Recipes formulation), reading only the
// lower triangle of its input. Every O(n^3) loop walks rows of the
// row-major storage, yet each element sees the textbook's floating-point
// operations in the textbook's order: results must stay bit-identical
// (golden digests in tests/linalg/eigen_test.cpp).
void tred2(Matrix& z, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = z.rows();
  double* const base = z.data().data();
  const auto row = [base, n](std::size_t r) { return base + r * n; };
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* const zi = row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(zi[k]);
      if (scale == 0.0) {
        e[i] = zi[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          zi[k] /= scale;
          h += zi[k] * zi[k];
        }
        double f = zi[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        zi[l] = f - g;
        // e = A u over the active lower triangle (u = row i). Row k holds
        // A(k, 0..k): its dot product with u starts e[k], and by symmetry
        // it adds A(k, j) u_k to every e[j], j < k. So each e[j] sums its
        // terms in the textbook order: A(j, 0..j), then A(j+1..l, j).
        for (std::size_t k = 0; k <= l; ++k) {
          const double* const zk = row(k);
          const double uk = zi[k];
          g = 0.0;
          for (std::size_t j = 0; j < k; ++j) {
            g += zk[j] * zi[j];
            e[j] += zk[j] * uk;
          }
          e[k] = g + zk[k] * uk;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          row(j)[i] = zi[j] / h;
          e[j] /= h;
          f += e[j] * zi[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * zi[j];
        // Rank-2 update of the lower triangle, one row at a time.
        for (std::size_t j = 0; j <= l; ++j) {
          double* const zj = row(j);
          f = zi[j];
          g = e[j];
          for (std::size_t k = 0; k <= j; ++k) zj[k] -= f * e[k] + g * zi[k];
        }
      }
    } else {
      e[i] = zi[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Back-accumulation: for each reflector, g = u^T Z over the leading i x i
  // block as a vector-matrix product (each g[j] still sums k = 0..i-1 in
  // order), then the rank-1 update Z -= (u / h) g^T row by row.
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* const zi = row(i);
    if (d[i] != 0.0) {
      std::fill_n(g.begin(), i, 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        const double* const zk = row(k);
        const double uk = zi[k];
        for (std::size_t j = 0; j < i; ++j) g[j] += uk * zk[j];
      }
      for (std::size_t k = 0; k < i; ++k) {
        double* const zk = row(k);
        const double vk = zk[i];
        for (std::size_t j = 0; j < i; ++j) zk[j] -= g[j] * vk;
      }
    }
    d[i] = zi[i];
    zi[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      row(j)[i] = 0.0;
      zi[j] = 0.0;
    }
  }
}

void transpose_in_place(Matrix& z) {
  const std::size_t n = z.rows();
  double* const base = z.data().data();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c)
      std::swap(base[r * n + c], base[c * n + r]);
}

inline double pythag(double a, double b) {
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

// QL with implicit shifts on a symmetric tridiagonal matrix. Classic tql2,
// except that it accumulates the rotations into zt = Q^T: each rotation
// combines two contiguous rows, and the rows of zt become the eigenvectors.
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix& zt) {
  const std::size_t n = d.size();
  if (n == 0) return;
  double* const base = zt.data().data();
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
          double f = s * e[i];
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
          double* const zi = base + i * n;
          double* const zi1 = zi + n;
          for (std::size_t k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

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

  Matrix z = a;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  if (n == 1) {
    out.values = {a(0, 0)};
    out.vectors = Matrix::identity(1);
    return out;
  }
  try {
    tred2(z, d, e);
    transpose_in_place(z);
    tql2(d, e, z);
  } catch (const std::runtime_error&) {
    // QL stalled; fall back to the unconditionally convergent Jacobi method.
    Matrix work = a;
    jacobi_eigen(work, z, d);
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
    for (std::size_t j = 0; j < n; ++j) dst[j] = z.data()[order[j] * n + i];
  }
  return out;
}

}  // namespace autoncs::linalg

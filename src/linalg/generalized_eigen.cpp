#include "linalg/generalized_eigen.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace autoncs::linalg {

namespace {

std::vector<double> inverse_sqrt_degrees(const std::vector<double>& degrees,
                                         const GeneralizedEigenOptions& options) {
  std::vector<double> inv_sqrt(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    AUTONCS_CHECK(degrees[i] >= 0.0, "degrees must be nonnegative");
    inv_sqrt[i] = 1.0 / std::sqrt(std::max(degrees[i], options.degree_floor));
  }
  return inv_sqrt;
}

/// Finishes the reduction once m holds D^{-1/2} L D^{-1/2} entry by entry:
/// symmetrizes m in place, solves the ordinary problem and back-transforms
/// the eigenvectors, u = D^{-1/2} v.
EigenDecomposition solve_scaled(Matrix& m, const std::vector<double>& inv_sqrt,
                                const GeneralizedEigenOptions& options) {
  const std::size_t n = m.rows();
  double* const base = m.data().data();
  // Enforce exact symmetry against rounding in the transform.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (base[r * n + c] + base[c * n + r]);
      base[r * n + c] = avg;
      base[c * n + r] = avg;
    }

  EigenDecomposition dec = symmetric_eigen(m);
  // Column norms accumulate over i in order, one row at a time.
  std::vector<double> norm_sq(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* const v = dec.vectors.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      v[j] *= inv_sqrt[i];
      norm_sq[j] += v[j] * v[j];
    }
  }
  if (options.unit_normalize) {
    std::vector<double> inv(n, 1.0);
    for (std::size_t j = 0; j < n; ++j)
      if (norm_sq[j] > 0.0) inv[j] = 1.0 / std::sqrt(norm_sq[j]);
    for (std::size_t i = 0; i < n; ++i) {
      double* const v = dec.vectors.row(i).data();
      for (std::size_t j = 0; j < n; ++j) v[j] *= inv[j];
    }
  }
  return dec;
}

}  // namespace

EigenDecomposition generalized_symmetric_eigen(
    const Matrix& laplacian, const std::vector<double>& degrees,
    const GeneralizedEigenOptions& options) {
  const std::size_t n = laplacian.rows();
  AUTONCS_CHECK(laplacian.cols() == n, "Laplacian must be square");
  AUTONCS_CHECK(degrees.size() == n, "degree vector size must match");
  const std::vector<double> inv_sqrt = inverse_sqrt_degrees(degrees, options);

  // Symmetric similarity transform: M = D^{-1/2} L D^{-1/2}.
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const double* const lap = laplacian.row(r).data();
    double* const out = m.row(r).data();
    for (std::size_t c = 0; c < n; ++c)
      out[c] = inv_sqrt[r] * lap[c] * inv_sqrt[c];
  }
  return solve_scaled(m, inv_sqrt, options);
}

EigenDecomposition laplacian_embedding(const Matrix& weights,
                                       const GeneralizedEigenOptions& options) {
  return laplacian_embedding(Matrix(weights), options);
}

EigenDecomposition laplacian_embedding(Matrix&& weights,
                                       const GeneralizedEigenOptions& options) {
  const std::size_t n = weights.rows();
  AUTONCS_CHECK(weights.cols() == n, "weight matrix must be square");
  std::vector<double> degrees(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* const w = weights.row(r).data();
    double deg = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (c == r) continue;  // self loops cancel in L = D - W
      AUTONCS_DCHECK(w[c] >= 0.0, "similarity weights must be nonnegative");
      deg += w[c];
    }
    degrees[r] = deg;
  }
  const std::vector<double> inv_sqrt = inverse_sqrt_degrees(degrees, options);

  // Overwrite W with M = D^{-1/2} (D - W) D^{-1/2}, row by row: every
  // degree is known, and each entry needs only its own weight.
  for (std::size_t r = 0; r < n; ++r) {
    double* const w = weights.row(r).data();
    for (std::size_t c = 0; c < n; ++c) {
      const double lap = c == r ? degrees[r] : -w[c];
      w[c] = inv_sqrt[r] * lap * inv_sqrt[c];
    }
  }
  return solve_scaled(weights, inv_sqrt, options);
}

}  // namespace autoncs::linalg

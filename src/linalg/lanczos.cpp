#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/matrix.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace autoncs::linalg {

namespace {

/// Fixed reduction block: partial sums per block, folded in block order.
/// The block size is part of the arithmetic — changing it moves every
/// result whose vectors are longer than one block.
constexpr std::size_t kReductionBlock = 2048;

}  // namespace

double deterministic_dot(std::span<const double> a, std::span<const double> b) {
  AUTONCS_CHECK(a.size() == b.size(), "dot operand sizes must match");
  const std::size_t n = a.size();
  double total = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kReductionBlock) {
    const std::size_t hi = std::min(n, lo + kReductionBlock);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += a[i] * b[i];
    total += acc;
  }
  return total;
}

namespace {

/// Deterministic pseudo-random vector for block starts and deflation
/// restarts; `stream` distinguishes successive draws.
std::vector<double> seed_vector(std::size_t n, std::size_t stream) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull + i +
                      (static_cast<std::uint64_t>(stream) << 32);
    const double unit =
        static_cast<double>(util::split_mix64(h) >> 11) * 0x1.0p-53;
    v[i] = unit - 0.5;
  }
  return v;
}

/// w -= sum_i coeff[i] * basis[i], basis vectors in ascending i.
void subtract_projections(std::vector<double>& w,
                          const std::vector<std::vector<double>>& basis,
                          std::span<const double> coeff) {
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < coeff.size(); ++i) {
    const double c = coeff[i];
    if (c == 0.0) continue;
    const double* v = basis[i].data();
    for (std::size_t x = 0; x < n; ++x) w[x] -= c * v[x];
  }
}

/// Two-pass classical Gram-Schmidt of w against the whole basis — the
/// "full deterministic reorthogonalization" that keeps the computed basis
/// orthonormal to machine precision (plain Lanczos loses orthogonality and
/// produces ghost eigenvalues).
void full_reorthogonalize(std::vector<double>& w,
                          const std::vector<std::vector<double>>& basis) {
  std::vector<double> coeff(basis.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < basis.size(); ++i)
      coeff[i] = deterministic_dot(basis[i], w);
    subtract_projections(w, basis, coeff);
  }
}

/// y = sum_j s[j] * columns[j], columns in ascending j.
void combine_columns(const std::vector<std::vector<double>>& columns,
                     std::span<const double> s, std::vector<double>& y) {
  const std::size_t n = y.size();
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t j = 0; j < s.size(); ++j) {
    const double c = s[j];
    if (c == 0.0) continue;
    const double* v = columns[j].data();
    for (std::size_t x = 0; x < n; ++x) y[x] += c * v[x];
  }
}

}  // namespace

EigenDecomposition lanczos_smallest(const SparseMatrix& a, std::size_t k,
                                    const LanczosOptions& options) {
  const std::size_t n = a.rows();
  AUTONCS_CHECK(a.cols() == n, "lanczos needs a square matrix");
  AUTONCS_CHECK(k >= 1 && k <= n, "lanczos requires 1 <= k <= n");

  std::size_t cap = std::max(
      k, options.max_iterations == 0 ? n : std::min(n, options.max_iterations));
  // Injected non-convergence: collapse the budget to the bare k-vector
  // basis, yielding a genuinely unconverged Rayleigh-Ritz answer that the
  // caller's recovery ladder must detect and repair.
  if (AUTONCS_FAULT_POINT("lanczos.no_converge")) cap = k;

  // Matrix scale for the dimensionless breakdown test.
  double scale = 0.0;
  for (double v : a.values()) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  const double breakdown_tol = scale * 1e-10;

  // Block size: a Krylov space grown from a single vector contains exactly
  // one direction per distinct eigenvalue, so a b-vector block is what
  // captures eigenvalue multiplicities up to b (clusters of structurally
  // equivalent neurons and disconnected graph components produce them
  // routinely).
  const std::size_t block = std::min<std::size_t>(std::max<std::size_t>(k, 1), 8);

  std::vector<std::vector<double>> basis;   // orthonormal V, column per entry
  std::vector<std::vector<double>> av;      // A * basis[i], same indexing
  basis.reserve(std::min(cap, std::size_t{128}));
  av.reserve(std::min(cap, std::size_t{128}));
  std::size_t stream = 0;

  // Lower triangles (stored by column) of H = V^T A V and G = (AV)^T (AV).
  // Entries between already-appended vectors never change, so each append
  // fills exactly one new column — O(m) dots per vector instead of the
  // O(m^2) a from-scratch rebuild would cost at every convergence check.
  std::vector<std::vector<double>> h_col;
  std::vector<std::vector<double>> g_col;

  std::size_t matvec_count = 0;

  // Appends an already-orthonormalized vector and its matvec image.
  const auto append = [&](std::vector<double> v) {
    std::vector<double> image = a.multiply(v);
    ++matvec_count;
    basis.push_back(std::move(v));
    av.push_back(std::move(image));
    const std::size_t q = basis.size() - 1;
    std::vector<double> hc(q + 1);
    std::vector<double> gc(q + 1);
    for (std::size_t i = 0; i < q; ++i) {
      hc[i] = deterministic_dot(basis[i], av[q]);
      gc[i] = deterministic_dot(av[i], av[q]);
    }
    hc[q] = deterministic_dot(basis[q], av[q]);
    gc[q] = deterministic_dot(av[q], av[q]);
    h_col.push_back(std::move(hc));
    g_col.push_back(std::move(gc));
  };

  // Orthonormalizes fresh deterministic directions until one survives;
  // returns false once the basis spans the whole space.
  const auto inject_fresh = [&]() {
    while (stream < n + 2 * block + 16) {
      std::vector<double> w = seed_vector(n, stream++);
      const double raw = std::sqrt(deterministic_dot(w, w));
      for (double& x : w) x /= raw;
      full_reorthogonalize(w, basis);
      const double nrm = std::sqrt(deterministic_dot(w, w));
      if (nrm > 1e-8) {
        for (double& x : w) x /= nrm;
        append(std::move(w));
        return true;
      }
    }
    return false;
  };

  // Initial block.
  for (std::size_t i = 0; i < block && basis.size() < cap; ++i)
    if (!inject_fresh()) break;

  // Rayleigh-Ritz on the current basis: H = V^T A V (block tridiagonal in
  // exact arithmetic; assembled densely from the cached triangle and handed
  // to the dense tred2/tql2 solver, which is exactly the small-system role
  // the dense path keeps).
  EigenDecomposition ritz;
  const auto solve_projected = [&]() {
    const std::size_t m = basis.size();
    Matrix h(m, m);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i <= j; ++i) {
        h(i, j) = h_col[j][i];
        h(j, i) = h_col[j][i];
      }
    ritz = symmetric_eigen(h);
  };

  // Cheap residual estimate for Ritz pair i from the cached Gram matrices:
  // ||A y - theta y||^2 = s^T G s - 2 theta s^T H s + theta^2 s^T s with
  // y = V s. O(m^2), no length-n work — but the subtraction floors it near
  // sqrt(m * eps) * scale, so it can only GATE the true residual below.
  std::vector<double> s_buf;
  std::vector<double> hs_buf;
  std::vector<double> gs_buf;
  const auto pair_estimate = [&](std::size_t i) {
    const std::size_t m = basis.size();
    s_buf.assign(m, 0.0);
    hs_buf.assign(m, 0.0);
    gs_buf.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) s_buf[j] = ritz.vectors(j, i);
    for (std::size_t j = 0; j < m; ++j) {
      const double sj = s_buf[j];
      for (std::size_t r = 0; r < j; ++r) {
        hs_buf[r] += h_col[j][r] * sj;
        hs_buf[j] += h_col[j][r] * s_buf[r];
        gs_buf[r] += g_col[j][r] * sj;
        gs_buf[j] += g_col[j][r] * s_buf[r];
      }
      hs_buf[j] += h_col[j][j] * sj;
      gs_buf[j] += g_col[j][j] * sj;
    }
    double sgs = 0.0, shs = 0.0, ss = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      sgs += s_buf[j] * gs_buf[j];
      shs += s_buf[j] * hs_buf[j];
      ss += s_buf[j] * s_buf[j];
    }
    const double theta = ritz.values[i];
    return std::sqrt(std::max(0.0, sgs - 2.0 * theta * shs + theta * theta * ss));
  };

  // Residual-based convergence: ||A y - theta y|| for Ritz pair (theta, y),
  // y = V s. A pair whose cheap estimate sits clearly above tolerance is
  // refuted outright; only estimates near or below it pay for the O(k m n)
  // true-residual confirmation. Checked on a deterministic schedule.
  std::vector<double> y(n);
  std::vector<double> z(n);
  const auto converged = [&]() {
    const std::size_t m = basis.size();
    if (m < k) return false;
    if (options.stats != nullptr) {
      // Observational only: recomputes the cheap estimates the gate below
      // also derives from the cached triangles; never alters control flow.
      double worst = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        const double theta = ritz.values[i];
        worst = std::max(worst, pair_estimate(i) /
                                    std::max(scale, std::abs(theta)));
      }
      options.stats->residual_history.push_back(worst);
    }
    if (m >= n) return true;  // exact Rayleigh-Ritz on the full space
    const double gate = std::max(32.0 * options.tolerance, 1e-5);
    for (std::size_t i = 0; i < k; ++i) {
      const double theta = ritz.values[i];
      if (pair_estimate(i) > gate * std::max(scale, std::abs(theta)))
        return false;
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<double> s(m);
      for (std::size_t j = 0; j < m; ++j) s[j] = ritz.vectors(j, i);
      combine_columns(basis, s, y);
      combine_columns(av, s, z);
      const double theta = ritz.values[i];
      for (std::size_t x = 0; x < n; ++x) z[x] -= theta * y[x];
      const double resid = std::sqrt(deterministic_dot(z, z));
      if (resid > options.tolerance * std::max(scale, std::abs(theta)))
        return false;
    }
    return true;
  };

  const std::size_t min_basis = std::min(cap, std::max(2 * k, k + 2 * block));
  bool done = false;
  std::size_t steps_since_check = 0;
  while (!done && basis.size() < cap) {
    // Expand: children of the newest block are their matvec images,
    // orthogonalized against everything (block Lanczos recurrence; full
    // reorthogonalization makes the older terms vanish explicitly).
    const std::size_t block_lo = basis.size() - std::min(block, basis.size());
    const std::size_t block_hi = basis.size();
    bool space_exhausted = false;
    for (std::size_t idx = block_lo; idx < block_hi && basis.size() < cap;
         ++idx) {
      std::vector<double> w = av[idx];
      full_reorthogonalize(w, basis);
      const double nrm = std::sqrt(deterministic_dot(w, w));
      if (nrm > breakdown_tol) {
        for (double& x : w) x /= nrm;
        append(std::move(w));
      } else if (!inject_fresh()) {
        // Basis spans an invariant subspace covering the whole space.
        space_exhausted = true;
        break;
      }
    }
    ++steps_since_check;
    // Each check pays an O(m^3) projected eigensolve, so the cadence
    // stretches as the basis grows — frequent while checks are cheap,
    // sparse once they are not. Depends only on basis.size(): deterministic.
    const std::size_t check_interval =
        std::max<std::size_t>(2, basis.size() / (8 * block));
    if (space_exhausted || basis.size() >= cap ||
        (basis.size() >= min_basis && steps_since_check >= check_interval)) {
      steps_since_check = 0;
      solve_projected();
      done = converged();
      if (space_exhausted) break;
    }
  }
  if (ritz.values.size() != basis.size()) solve_projected();

  const std::size_t m = basis.size();
  AUTONCS_CHECK(m >= k, "lanczos basis smaller than requested pair count");
  if (options.stats != nullptr) {
    options.stats->converged = done;
    options.stats->basis_size = m;
    options.stats->matvecs = matvec_count;
  }

  // Ritz vectors for the k smallest Ritz values, renormalized so
  // downstream geometry sees exactly unit columns.
  EigenDecomposition out;
  out.values.assign(ritz.values.begin(),
                    ritz.values.begin() + static_cast<std::ptrdiff_t>(k));
  out.vectors = Matrix(n, k);
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<double> s(m);
    for (std::size_t j = 0; j < m; ++j) s[j] = ritz.vectors(j, i);
    combine_columns(basis, s, y);
    const double nrm = std::sqrt(deterministic_dot(y, y));
    const double inv = nrm > 0.0 ? 1.0 / nrm : 1.0;
    for (std::size_t x = 0; x < n; ++x) out.vectors(x, i) = y[x] * inv;
  }
  return out;
}

EigenDecomposition sparse_laplacian_embedding(
    const SparseMatrix& weights, std::size_t k,
    const GeneralizedEigenOptions& options, const LanczosOptions& lanczos) {
  const std::size_t n = weights.rows();
  AUTONCS_CHECK(weights.cols() == n, "weight matrix must be square");
  AUTONCS_CHECK(k >= 1 && k <= n, "embedding dimension must be in [1, n]");

  // Degrees (diagonal ignored, as in the dense path).
  std::vector<double> degrees(n, 0.0);
  const auto& offsets = weights.row_offsets();
  const auto& cols = weights.col_indices();
  const auto& vals = weights.values();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      if (cols[e] == r) continue;
      AUTONCS_DCHECK(vals[e] >= 0.0, "similarity weights must be nonnegative");
      degrees[r] += vals[e];
    }

  std::vector<double> inv_sqrt(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    inv_sqrt[i] = 1.0 / std::sqrt(std::max(degrees[i], options.degree_floor));

  // M = D^{-1/2} (D - W) D^{-1/2}, assembled directly in CSR — the network
  // is never densified on this path.
  std::vector<Triplet> triplets;
  triplets.reserve(weights.nonzeros() + n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const std::size_t c = cols[e];
      if (c == r) continue;
      triplets.push_back({r, c, inv_sqrt[r] * -vals[e] * inv_sqrt[c]});
    }
    triplets.push_back({r, r, inv_sqrt[r] * degrees[r] * inv_sqrt[r]});
  }
  const SparseMatrix m(n, n, std::move(triplets));

  EigenDecomposition dec = lanczos_smallest(m, k, lanczos);
  // Back-transform u = D^{-1/2} v and (optionally) unit-normalize, exactly
  // as generalized_symmetric_eigen does on the dense path.
  for (std::size_t j = 0; j < k; ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dec.vectors(i, j) *= inv_sqrt[i];
      norm_sq += dec.vectors(i, j) * dec.vectors(i, j);
    }
    if (options.unit_normalize && norm_sq > 0.0) {
      const double inv = 1.0 / std::sqrt(norm_sq);
      for (std::size_t i = 0; i < n; ++i) dec.vectors(i, j) *= inv;
    }
  }
  return dec;
}

}  // namespace autoncs::linalg

#include "linalg/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::linalg {

namespace {

/// Points per pool block. A range of at most one block (a GCP 2-means
/// split, a small subnetwork) runs inline on the caller.
constexpr std::size_t kPointGrain = 256;

/// fn(begin, end) over the points [0, n): on the pool in blocks of
/// kPointGrain when one is given, inline otherwise. Each point writes only
/// its own outputs, so the result is bit-identical for any thread count.
template <typename Fn>
void for_points(std::size_t n, util::ThreadPool* pool, const Fn& fn) {
  if (pool == nullptr) {
    fn(std::size_t{0}, n);
    return;
  }
  pool->parallel_for(
      n, [&](std::size_t begin, std::size_t end, std::size_t) { fn(begin, end); },
      kPointGrain);
}

std::size_t nearest_centroid(const Matrix& points, std::size_t i,
                             const Matrix& centroids) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d = squared_distance(points.row(i), centroids.row(c));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

/// Assigns every point to its nearest centroid. The tie-break (strict <,
/// first centroid wins) and each point's arithmetic are independent of
/// the partition.
void assign_all(const Matrix& points, const Matrix& centroids,
                std::vector<std::size_t>& assignment, util::ThreadPool* pool) {
  for_points(points.rows(), pool, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      assignment[i] = nearest_centroid(points, i, centroids);
  });
}

/// True when the centroid set carries no information (all rows identical),
/// e.g. the all-zeros initialization in GCP.
bool is_degenerate(const Matrix& centroids) {
  for (std::size_t r = 1; r < centroids.rows(); ++r)
    if (squared_distance(centroids.row(r), centroids.row(0)) > 0.0) return false;
  return centroids.rows() > 1;
}

}  // namespace

Matrix kmeans_plus_plus_seeds(const Matrix& points, std::size_t k, util::Rng& rng) {
  const std::size_t n = points.rows();
  AUTONCS_CHECK(k >= 1 && k <= n, "k-means++ requires 1 <= k <= n");
  const std::size_t dim = points.cols();
  Matrix centroids(k, dim);

  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  const auto first = static_cast<std::size_t>(rng.next_below(n));
  for (std::size_t c = 0; c < dim; ++c) centroids(0, c) = points(first, c);

  for (std::size_t picked = 1; picked < k; ++picked) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = squared_distance(points.row(i), centroids.row(picked - 1));
      min_d2[i] = std::min(min_d2[i], d);
      total += min_d2[i];
    }
    std::size_t choice;
    if (total <= 0.0) {
      // All points coincide with chosen seeds; any point works.
      choice = static_cast<std::size_t>(rng.next_below(n));
    } else {
      double target = rng.uniform() * total;
      choice = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        target -= min_d2[i];
        if (target <= 0.0) {
          choice = i;
          break;
        }
      }
    }
    for (std::size_t c = 0; c < dim; ++c) centroids(picked, c) = points(choice, c);
  }
  return centroids;
}

KMeansResult kmeans(const Matrix& points, std::size_t k, util::Rng& rng,
                    const KMeansOptions& options) {
  return kmeans_warm(points, kmeans_plus_plus_seeds(points, k, rng), rng, options);
}

KMeansResult kmeans_warm(const Matrix& points, Matrix centroids, util::Rng& rng,
                         const KMeansOptions& options) {
  const std::size_t n = points.rows();
  const std::size_t k = centroids.rows();
  AUTONCS_CHECK(k >= 1 && k <= n, "k-means requires 1 <= k <= n");
  AUTONCS_CHECK(centroids.cols() == points.cols(),
                "centroid dimension must match the points");
  if (is_degenerate(centroids)) {
    centroids = kmeans_plus_plus_seeds(points, k, rng);
  }

  const std::size_t dim = points.cols();
  KMeansResult result;
  result.assignment.assign(n, 0);
  std::vector<std::size_t> counts(k, 0);
  Matrix next(k, dim);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    assign_all(points, centroids, result.assignment, options.pool);

    // Update step.
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    std::fill(next.data().begin(), next.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) next(c, d) += points(i, d);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: reseed on the point farthest from its centroid.
        std::size_t worst = 0;
        double worst_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d =
              squared_distance(points.row(i), centroids.row(result.assignment[i]));
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        for (std::size_t d = 0; d < dim; ++d) next(c, d) = points(worst, d);
        result.assignment[worst] = c;
      } else {
        for (std::size_t d = 0; d < dim; ++d)
          next(c, d) /= static_cast<double>(counts[c]);
      }
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c)
      movement += squared_distance(next.row(c), centroids.row(c));
    centroids = next;
    if (movement <= options.tolerance) break;
  }

  // Final assignment against the converged centroids and inertia. The
  // per-point distances land in a buffer and are folded sequentially in
  // point order — the exact summation order of the sequential code — so
  // the inertia is bit-identical for any thread count.
  assign_all(points, centroids, result.assignment, options.pool);
  std::vector<double> d2(n, 0.0);
  for_points(n, options.pool, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      d2[i] = squared_distance(points.row(i), centroids.row(result.assignment[i]));
  });
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) result.inertia += d2[i];
  result.centroids = std::move(centroids);
  return result;
}

std::vector<std::vector<std::size_t>> cluster_members(
    const std::vector<std::size_t>& assignment, std::size_t k) {
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    AUTONCS_CHECK(assignment[i] < k, "assignment index out of range");
    members[assignment[i]].push_back(i);
  }
  return members;
}

}  // namespace autoncs::linalg

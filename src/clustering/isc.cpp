#include "clustering/isc.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "linalg/lanczos.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace autoncs::clustering {

double CrossbarInstance::utilization() const {
  return crossbar_utilization(connections.size(), size);
}

double CrossbarInstance::preference(PreferenceKind kind) const {
  return crossbar_preference(connections.size(), size, kind);
}

std::size_t IscResult::clustered_connections() const {
  std::size_t acc = 0;
  for (const auto& xbar : crossbars) acc += xbar.connections.size();
  return acc;
}

double IscResult::outlier_ratio() const {
  if (total_connections == 0) return 0.0;
  return static_cast<double>(outliers.size()) /
         static_cast<double>(total_connections);
}

double IscResult::average_utilization() const {
  if (crossbars.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& xbar : crossbars) acc += xbar.utilization();
  return acc / static_cast<double>(crossbars.size());
}

std::size_t minimum_satisfiable_size(const std::vector<std::size_t>& sizes,
                                     std::size_t cluster_size) {
  for (std::size_t s : sizes)
    if (s >= cluster_size) return s;
  return 0;
}

namespace {

/// Connections of `network` internal to `members`. Walks each member's
/// out-adjacency list against a membership position map — O(sum of
/// fanouts) instead of the O(|members|^2) has() probing. Matches the
/// historical emission order exactly (for each a in members order, targets
/// in members order), which downstream netlist/placement determinism
/// relies on.
std::vector<nn::Connection> connections_within(
    const nn::ConnectionMatrix& network, const std::vector<std::size_t>& members) {
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position(network.size(), kAbsent);
  for (std::size_t i = 0; i < members.size(); ++i) position[members[i]] = i;
  std::vector<nn::Connection> out;
  std::vector<std::pair<std::size_t, std::size_t>> hits;  // (pos in members, b)
  for (std::size_t a : members) {
    hits.clear();
    for (std::size_t b : network.out_neighbors(a))
      if (position[b] != kAbsent) hits.push_back({position[b], b});
    std::sort(hits.begin(), hits.end());
    for (const auto& hit : hits) out.push_back({a, hit.second});
  }
  return out;
}

/// The crossbar realizing a cluster only needs a horizontal wire for each
/// neuron that SOURCES a within-cluster connection and a vertical wire for
/// each neuron that SINKS one; neurons whose remaining connections all lie
/// outside the cluster occupy no crossbar resources. The minimum
/// satisfiable crossbar (Alg. 3 line 11) is therefore sized by
/// max(|used rows|, |used cols|), which matters a lot in late ISC
/// iterations where clusters contain many already-realized neurons.
struct TrimmedCluster {
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
  std::vector<nn::Connection> connections;

  std::size_t demand() const { return std::max(rows.size(), cols.size()); }
};

TrimmedCluster trim_cluster(const nn::ConnectionMatrix& network,
                            const std::vector<std::size_t>& members) {
  TrimmedCluster trimmed;
  trimmed.connections = connections_within(network, members);
  std::vector<bool> is_row;
  std::vector<bool> is_col;
  is_row.assign(network.size(), false);
  is_col.assign(network.size(), false);
  for (const auto& c : trimmed.connections) {
    is_row[c.from] = true;
    is_col[c.to] = true;
  }
  for (std::size_t v : members) {
    if (is_row[v]) trimmed.rows.push_back(v);
    if (is_col[v]) trimmed.cols.push_back(v);
  }
  return trimmed;
}

}  // namespace

/// Greedy cluster packing: merge pairs of clusters while the merged
/// crossbar is more area-efficient (realized connections per crossbar
/// area, m / s^2) than both parts. Uses the cross-cluster connection
/// counts of `network` to evaluate merges in O(k^2) after one O(E) sweep.
std::vector<std::vector<std::size_t>> pack_clusters(
    const nn::ConnectionMatrix& network,
    std::vector<std::vector<std::size_t>> clusters,
    const std::vector<std::size_t>& sizes, std::size_t pack_limit) {
  const std::size_t max_size = std::min(
      pack_limit == 0 ? sizes.front() : pack_limit, sizes.back());
  const std::size_t n = network.size();

  // Cluster label per neuron.
  std::vector<std::size_t> label(n, 0);
  for (std::size_t c = 0; c < clusters.size(); ++c)
    for (std::size_t v : clusters[c]) label[v] = c;

  // Internal and directed cross-cluster connection counts.
  const std::size_t k0 = clusters.size();
  std::vector<std::size_t> internal(k0, 0);
  std::vector<std::vector<std::size_t>> cross(k0, std::vector<std::size_t>(k0, 0));
  for (const auto& c : network.connections()) {
    const std::size_t a = label[c.from];
    const std::size_t b = label[c.to];
    if (a == b) ++internal[a];
    else ++cross[a][b];
  }

  // Row/col demand per cluster (trimmed). Merged demand is conservatively
  // bounded by the sum of parts; the exact value is recovered after the
  // merge by re-trimming, which can only shrink it further.
  std::vector<std::size_t> demand(k0, 0);
  for (std::size_t c = 0; c < clusters.size(); ++c)
    demand[c] = std::max<std::size_t>(1, trim_cluster(network, clusters[c]).demand());

  std::vector<bool> alive(k0, true);
  // Pairs whose EXACT merged demand proved oversize (merging can activate
  // members that were trimmed away in both parts, so the optimistic
  // demand_i + demand_j bound can under-estimate).
  std::unordered_set<std::uint64_t> forbidden;
  const auto pair_key = [k0](std::size_t i, std::size_t j) {
    return static_cast<std::uint64_t>(i) * k0 + j;
  };
  auto efficiency = [&](std::size_t m, std::size_t dem) {
    const std::size_t s = minimum_satisfiable_size(sizes, dem);
    if (s == 0) return -1.0;
    return static_cast<double>(m) / (static_cast<double>(s) * static_cast<double>(s));
  };

  for (;;) {
    double best_gain = 0.0;
    std::size_t best_i = k0;
    std::size_t best_j = k0;
    for (std::size_t i = 0; i < k0; ++i) {
      if (!alive[i]) continue;
      const double ei = efficiency(internal[i], demand[i]);
      for (std::size_t j = i + 1; j < k0; ++j) {
        if (!alive[j]) continue;
        if (demand[i] + demand[j] > max_size) continue;
        if (forbidden.contains(pair_key(i, j))) continue;
        const double ej = efficiency(internal[j], demand[j]);
        const std::size_t merged_m = internal[i] + internal[j] +
                                     cross[i][j] + cross[j][i];
        const double em = efficiency(merged_m, demand[i] + demand[j]);
        const double gain = em - std::max(ei, ej);
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i == k0) break;
    // Exact feasibility check before committing.
    {
      std::vector<std::size_t> merged_members = clusters[best_i];
      merged_members.insert(merged_members.end(), clusters[best_j].begin(),
                            clusters[best_j].end());
      const std::size_t exact =
          trim_cluster(network, merged_members).demand();
      if (exact > max_size) {
        forbidden.insert(pair_key(best_i, best_j));
        continue;
      }
    }
    // Merge j into i.
    internal[best_i] += internal[best_j] + cross[best_i][best_j] +
                        cross[best_j][best_i];
    internal[best_j] = 0;
    for (std::size_t x = 0; x < k0; ++x) {
      if (x == best_i || x == best_j) continue;
      cross[best_i][x] += cross[best_j][x];
      cross[x][best_i] += cross[x][best_j];
      cross[best_j][x] = 0;
      cross[x][best_j] = 0;
    }
    clusters[best_i].insert(clusters[best_i].end(), clusters[best_j].begin(),
                            clusters[best_j].end());
    clusters[best_j].clear();
    alive[best_j] = false;
    demand[best_i] = std::max<std::size_t>(
        1, trim_cluster(network, clusters[best_i]).demand());
  }

  std::vector<std::vector<std::size_t>> out;
  out.reserve(clusters.size());
  for (std::size_t c = 0; c < k0; ++c)
    if (alive[c]) out.push_back(std::move(clusters[c]));
  return out;
}

IscResult iterative_spectral_clustering(const nn::ConnectionMatrix& network,
                                        const IscOptions& options,
                                        util::Rng& rng) {
  AUTONCS_TRACE_SCOPE("isc");
  AUTONCS_CHECK(!options.crossbar_sizes.empty(), "crossbar size set is empty");
  AUTONCS_CHECK(std::is_sorted(options.crossbar_sizes.begin(),
                               options.crossbar_sizes.end()),
                "crossbar sizes must be sorted ascending");
  AUTONCS_CHECK(options.selection_fraction > 0.0 &&
                    options.selection_fraction <= 1.0,
                "selection fraction must be in (0, 1]");

  const std::size_t max_size = options.crossbar_sizes.back();

  IscResult result;
  result.total_connections = network.connection_count();

  util::ThreadPool pool(options.threads, "isc");
  result.threads_used = pool.size();
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };

  // Alg. 3 line 1: remaining network R = W.
  nn::ConnectionMatrix remaining = network;

  const auto budget_start = Clock::now();
  for (std::size_t iteration = 1;
       iteration <= options.max_iterations && remaining.connection_count() > 0;
       ++iteration) {
    if (options.wall_budget_ms > 0.0 &&
        elapsed_ms(budget_start) >= options.wall_budget_ms) {
      // Budget exhausted: stop clustering here. Everything still in R is
      // realized with discrete synapses below — a valid, outlier-heavy
      // mapping rather than a hung flow.
      if (options.recovery != nullptr)
        options.recovery->record(
            {"clustering", "isc.wall_budget", "budget_exhausted", true, true,
             "stopped before iteration " + std::to_string(iteration) + ", " +
                 std::to_string(remaining.connection_count()) +
                 " connections left to outliers"});
      result.budget_exhausted = true;
      break;
    }
    AUTONCS_TRACE_SCOPE("isc/iteration", "iter",
                        static_cast<std::int64_t>(iteration));
    // Line 3: cluster R with GCP, size capped at max(S). Only the active
    // subnetwork is clustered: every isolated neuron is its own graph
    // component, so leaving them in floods the Laplacian null space with
    // arbitrary zero-eigenvalue directions and blinds k-means to the real
    // communities.
    const std::vector<std::size_t> active = remaining.active_neurons();
    if (active.empty()) break;
    const nn::ConnectionMatrix compact = remaining.submatrix(active);

    // The embedding only needs as many columns as GCP can consume: k
    // starts at ceil(n / max_size) and grows by splitting, so a budget of
    // 2x the starting k plus slack covers the splits GCP performs in
    // practice (embedding_points clamps if it ever splits further).
    EmbeddingOptions embed;
    embed.solver = options.embedding_solver;
    embed.dense_fallback_n = options.dense_fallback_n;
    embed.recovery = options.recovery;
    const std::size_t base_k = (active.size() + max_size - 1) / max_size;
    embed.max_vectors = std::min(active.size(), 2 * base_k + 16);

    // Convergence telemetry of the sparse solver; stays zeroed when the
    // dense fallback handles this iteration.
    linalg::LanczosStats lanczos_stats;
    embed.lanczos_stats = &lanczos_stats;

    auto mark = Clock::now();
    linalg::EigenDecomposition embedding;
    {
      AUTONCS_TRACE_SCOPE("isc/embedding");
      embedding = spectral_embedding(compact, embed);
    }
    result.timings.embedding_ms += elapsed_ms(mark);

    mark = Clock::now();
    GcpResult gcp = [&] {
      AUTONCS_TRACE_SCOPE("isc/kmeans");
      return gcp_from_embedding(embedding, max_size, rng, &pool);
    }();
    result.timings.kmeans_ms += elapsed_ms(mark);

    std::vector<std::vector<std::size_t>> clusters = gcp.clustering.clusters;
    for (auto& cluster : clusters)
      for (auto& member : cluster) member = active[member];
    if (options.pack_clusters) {
      AUTONCS_TRACE_SCOPE("isc/packing");
      mark = Clock::now();
      clusters = pack_clusters(remaining, std::move(clusters),
                               options.crossbar_sizes, options.pack_limit);
      result.timings.packing_ms += elapsed_ms(mark);
    }

    // Line 4: CP for every cluster, computed against the crossbar that
    // would realize it — the minimum satisfiable size in S for the
    // cluster's trimmed row/column demand.
    struct Scored {
      std::size_t cluster_index;
      std::size_t crossbar_size;
      std::size_t connections;
      double preference;
      TrimmedCluster trimmed;
    };
    // Clusters without internal connections need no crossbar and are
    // excluded from the ranking (their neurons' connections, if any, are
    // all between-cluster and stay in R).
    std::vector<Scored> scored;
    scored.reserve(clusters.size());
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      TrimmedCluster trimmed = trim_cluster(remaining, clusters[c]);
      const std::size_t m = trimmed.connections.size();
      if (m == 0) continue;
      // Crossbar sizing: the paper's "minimum satisfiable crossbar" for a
      // cluster of |A_i| neurons; optionally shrunk to the trimmed demand.
      const std::size_t sizing = options.size_by_demand
                                     ? trimmed.demand()
                                     : clusters[c].size();
      const std::size_t s =
          minimum_satisfiable_size(options.crossbar_sizes, sizing);
      AUTONCS_CHECK(s != 0, "GCP produced a cluster above max crossbar size");
      scored.push_back({c, s, m, crossbar_preference(m, s, options.preference),
                        std::move(trimmed)});
    }
    if (scored.empty()) break;

    // Line 5: q = the CP quartile — the cutoff that keeps the top
    // selection_fraction of (connection-bearing) clusters.
    std::vector<double> preferences;
    preferences.reserve(scored.size());
    for (const auto& s : scored) preferences.push_back(s.preference);
    std::sort(preferences.begin(), preferences.end(), std::greater<>());
    const std::size_t select = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(preferences.size()) *
                                    options.selection_fraction));
    const double q = preferences[std::min(select, preferences.size()) - 1];

    // Line 6 of Alg. 3: when even the quartile cluster no longer earns a
    // crossbar (zero preference), stop clustering.
    if (q <= 0.0) break;

    // Lines 9-14: realize clusters with CP >= q, delete them from R.
    IscIterationStats stats;
    stats.iteration = iteration;
    stats.clusters_formed = clusters.size();
    double utilization_sum = 0.0;
    double preference_sum = 0.0;
    for (auto& s : scored) {
      if (s.preference < q || s.connections == 0) continue;
      CrossbarInstance xbar;
      xbar.size = s.crossbar_size;
      xbar.rows = std::move(s.trimmed.rows);
      xbar.cols = std::move(s.trimmed.cols);
      xbar.connections = std::move(s.trimmed.connections);
      xbar.iteration = iteration;
      remaining.remove_within(clusters[s.cluster_index]);
      stats.crossbars_placed += 1;
      stats.connections_realized += xbar.connections.size();
      utilization_sum += xbar.utilization();
      preference_sum += xbar.preference(options.preference);
      result.crossbars.push_back(std::move(xbar));
    }

    stats.average_utilization =
        stats.crossbars_placed > 0
            ? utilization_sum / static_cast<double>(stats.crossbars_placed)
            : 0.0;
    stats.average_preference =
        stats.crossbars_placed > 0
            ? preference_sum / static_cast<double>(stats.crossbars_placed)
            : 0.0;
    stats.outlier_ratio =
        result.total_connections > 0
            ? static_cast<double>(remaining.connection_count()) /
                  static_cast<double>(result.total_connections)
            : 0.0;
    stats.embedding_basis_size = lanczos_stats.basis_size;
    stats.embedding_matvecs = lanczos_stats.matvecs;
    stats.embedding_residuals = std::move(lanczos_stats.residual_history);
    result.iterations.push_back(stats);

    util::LogLine(util::LogLevel::kInfo, "isc")
        << "iter " << iteration << ": placed " << stats.crossbars_placed
        << " crossbars, u=" << stats.average_utilization
        << ", outliers=" << stats.outlier_ratio;

    // Line 17: stop when this iteration's average utilization fell below t.
    if (stats.crossbars_placed == 0 ||
        stats.average_utilization < options.utilization_threshold) {
      break;
    }
  }

  // Line 18: remaining connections become discrete synapses.
  result.outliers = remaining.connections();

  return result;
}

}  // namespace autoncs::clustering

// Performance study — sparse Lanczos embedding vs the dense eigensolver.
//
// Sweeps the network size and times the spectral embedding both ways: the
// historical dense tred2/tql2 path (all n eigenpairs, O(n^3)) and the
// block-Lanczos CSR path (only the k eigenpairs clustering consumes).
// Also reports the ISC front-end breakdown (embedding / k-means / packing)
// with the sparse solver at the largest size, verifies ISC is
// bit-identical at 1 thread and at the affinity count (the k-means pool;
// the determinism guarantee documented in docs/clustering_perf.md), and
// times the dense embedding with every ISA variant of the eigensolver
// this host runs at n = 300 / 400 / 500, checking that each one matches
// the baseline bit for bit.
//
// Usage: bench_perf_clustering [max_n]
//   max_n caps the size sweep (default 1600); CI smoke-runs with a tiny
//   cap so the dense reference stays cheap.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "clustering/embedding.hpp"
#include "clustering/isc.hpp"
#include "nn/generators.hpp"
#include "common.hpp"
#include "linalg/eigen_dispatch.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// The block-sparse network every measurement here runs on.
autoncs::nn::ConnectionMatrix block_network(std::size_t n) {
  autoncs::util::Rng rng(2015);
  autoncs::nn::BlockSparseOptions block;
  block.blocks = std::max<std::size_t>(4, n / 50);
  block.intra_density = 0.3;
  block.inter_density = 0.002;
  return autoncs::nn::block_sparse(n, block, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autoncs;
  bench::banner("Performance: sparse Lanczos embedding vs dense eigensolver");

  std::size_t max_n = 1600;
  if (argc > 1) max_n = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));

  std::vector<std::size_t> sizes;
  for (std::size_t n = 200; n <= max_n; n *= 2) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(max_n);

  util::ConsoleTable table({"n", "nnz", "k", "dense (ms)", "lanczos (ms)",
                            "speedup"});
  util::CsvWriter csv(bench::output_path("perf_clustering.csv"),
                      {"n", "nnz", "k", "dense_ms", "lanczos_ms", "speedup"});

  double largest_speedup = 0.0;
  double largest_dense_ms = 0.0;
  double largest_lanczos_ms = 0.0;

  for (std::size_t n : sizes) {
    const auto net = block_network(n);
    const std::size_t k = std::min(n, 2 * ((n + 63) / 64) + 16);

    clustering::EmbeddingOptions dense_options;
    dense_options.solver = clustering::EmbeddingSolver::kDense;
    util::WallTimer timer;
    const auto dense = clustering::spectral_embedding(net, dense_options);
    const double dense_ms = timer.elapsed_ms();

    clustering::EmbeddingOptions lanczos_options;
    lanczos_options.solver = clustering::EmbeddingSolver::kLanczos;
    lanczos_options.max_vectors = k;
    timer.restart();
    clustering::spectral_embedding(net, lanczos_options);
    const double lanczos_ms = timer.elapsed_ms();

    const double speedup = lanczos_ms > 0.0 ? dense_ms / lanczos_ms : 0.0;
    largest_speedup = speedup;
    largest_dense_ms = dense_ms;
    largest_lanczos_ms = lanczos_ms;
    table.add_row({std::to_string(n),
                   std::to_string(net.symmetrized_sparse().nonzeros()),
                   std::to_string(k), util::fmt_double(dense_ms, 1),
                   util::fmt_double(lanczos_ms, 1),
                   util::fmt_double(speedup, 1)});
    csv.row_values({static_cast<double>(n),
                    static_cast<double>(net.symmetrized_sparse().nonzeros()),
                    static_cast<double>(k), dense_ms, lanczos_ms, speedup});
  }
  std::printf("%s", table.render().c_str());

  // ISC front-end breakdown with the sparse solver at the largest size, at
  // the affinity count and again at 1 thread: the k-means pool must not
  // change a single crossbar or outlier.
  bool identical = true;
  {
    const std::size_t n = sizes.back();
    const auto net = block_network(n);
    clustering::IscOptions options;
    options.embedding_solver = clustering::EmbeddingSolver::kLanczos;
    util::Rng isc_rng(2015);
    const auto result =
        clustering::iterative_spectral_clustering(net, options, isc_rng);
    std::printf(
        "ISC breakdown at n=%zu (%zu threads): embedding %.1f ms, "
        "k-means %.1f ms, packing %.1f ms; %zu crossbars, outliers %.1f%%\n",
        n, result.threads_used, result.timings.embedding_ms,
        result.timings.kmeans_ms, result.timings.packing_ms,
        result.crossbars.size(), 100.0 * result.outlier_ratio());

    options.threads = 1;
    util::Rng serial_rng(2015);
    const auto serial =
        clustering::iterative_spectral_clustering(net, options, serial_rng);
    identical = serial.outliers == result.outliers &&
                serial.crossbars.size() == result.crossbars.size();
    for (std::size_t i = 0; identical && i < serial.crossbars.size(); ++i) {
      const auto& a = serial.crossbars[i];
      const auto& b = result.crossbars[i];
      identical = a.size == b.size && a.rows == b.rows && a.cols == b.cols &&
                  a.connections == b.connections &&
                  a.iteration == b.iteration;
    }
  }

  // Dense embedding per eigensolver ISA variant, best of three runs.
  std::vector<std::pair<std::string, double>> variant_metrics;
  bool variants_identical = true;
  {
    namespace isa = linalg::detail;
    std::vector<std::string> header = {"n"};
    for (isa::EigenIsa variant : isa::kEigenIsas)
      if (isa::eigen_isa_supported(variant))
        header.push_back(std::string(isa::eigen_isa_name(variant)) + " (ms)");
    util::ConsoleTable variants(header);
    for (std::size_t n : {300, 400, 500}) {
      const auto net = block_network(n);
      clustering::EmbeddingOptions options;
      options.solver = clustering::EmbeddingSolver::kDense;
      std::vector<std::string> row = {std::to_string(n)};
      linalg::EigenDecomposition baseline;
      {
        isa::ScopedEigenIsa scope(isa::EigenIsa::kBaseline);
        baseline = clustering::spectral_embedding(net, options);
      }
      for (isa::EigenIsa variant : isa::kEigenIsas) {
        if (!isa::eigen_isa_supported(variant)) continue;
        isa::ScopedEigenIsa scope(variant);
        double best_ms = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          util::WallTimer variant_timer;
          const auto embedding = clustering::spectral_embedding(net, options);
          const double ms = variant_timer.elapsed_ms();
          best_ms = rep == 0 ? ms : std::min(best_ms, ms);
          variants_identical =
              variants_identical &&
              embedding.values == baseline.values &&
              std::memcmp(embedding.vectors.data().data(),
                          baseline.vectors.data().data(),
                          baseline.vectors.data().size() * sizeof(double)) ==
                  0;
        }
        row.push_back(util::fmt_double(best_ms, 1));
        variant_metrics.emplace_back(std::string("dense_ms_") +
                                         isa::eigen_isa_name(variant) + "_n" +
                                         std::to_string(n),
                                     best_ms);
      }
      variants.add_row(row);
    }
    std::printf(
        "dense embedding per eigensolver variant (dispatched: %s):\n%s",
        isa::eigen_isa_name(isa::dispatched_eigen_isa()),
        variants.render().c_str());
    std::printf("every variant bit-identical to baseline: %s\n",
                variants_identical ? "yes" : "NO — variant differs");
  }

  std::printf("ISC bit-identical at 1 thread and at the affinity count: %s\n",
              identical ? "yes" : "NO — determinism violated");
  std::printf("largest-size embedding speedup (dense / lanczos): %.1fx\n",
              largest_speedup);
  std::printf("expected shape: speedup grows with n (dense is O(n^3), "
              "Lanczos O(k nnz + k^2 n)); identical embeddings per row.\n");
  std::vector<std::pair<std::string, double>> metrics = {
      {"largest_n", static_cast<double>(sizes.back())},
      {"dense_ms", largest_dense_ms},
      {"lanczos_ms", largest_lanczos_ms},
      {"embedding_speedup", largest_speedup},
      {"deterministic", identical ? 1.0 : 0.0},
      {"variants_identical", variants_identical ? 1.0 : 0.0}};
  metrics.insert(metrics.end(), variant_metrics.begin(),
                 variant_metrics.end());
  bench::write_bench_json("perf_clustering", metrics);
  return identical && variants_identical ? 0 : 1;
}

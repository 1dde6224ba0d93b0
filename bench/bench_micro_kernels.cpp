// Micro-benchmarks (google-benchmark) for the flow's computational
// kernels: spectral embedding, k-means, GCP, maze routing, and the WA /
// density evaluations that dominate placement. These quantify where the
// runtime goes (the paper's only runtime claim is GCP vs traversing, which
// bench_fig4 covers end to end).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "clustering/gcp.hpp"
#include "clustering/msc.hpp"
#include "linalg/eigen_dispatch.hpp"
#include "linalg/kmeans.hpp"
#include "nn/generators.hpp"
#include "place/density.hpp"
#include "place/wa_wirelength.hpp"
#include "route/maze_router.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace autoncs;

void BM_SpectralEmbedding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const auto net = nn::random_sparse(n, 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::spectral_embedding(net));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpectralEmbedding)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(300)
    ->Arg(500)
    ->Complexity();

// The dense embedding with each ISA variant of the eigensolver: arg 0 is
// n, arg 1 the variant's index in linalg::detail::kEigenIsas. Only the
// variants this host runs are registered.
void BM_SpectralEmbeddingIsa(benchmark::State& state) {
  namespace isa = linalg::detail;
  const auto n = static_cast<std::size_t>(state.range(0));
  const isa::EigenIsa variant =
      isa::kEigenIsas[static_cast<std::size_t>(state.range(1))];
  util::Rng rng(1);
  const auto net = nn::random_sparse(n, 0.1, rng);
  isa::ScopedEigenIsa scope(variant);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::spectral_embedding(net));
  }
  state.SetLabel(isa::eigen_isa_name(variant));
}
BENCHMARK(BM_SpectralEmbeddingIsa)
    ->Apply([](benchmark::internal::Benchmark* b) {
      namespace isa = linalg::detail;
      for (std::int64_t n : {300, 400, 500})
        for (std::size_t v = 0; v < std::size(isa::kEigenIsas); ++v)
          if (isa::eigen_isa_supported(isa::kEigenIsas[v]))
            b->Args({n, static_cast<std::int64_t>(v)});
    })
    ->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;
  util::Rng rng(2);
  linalg::Matrix points(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) points(i, j) = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    util::Rng seed_rng(3);
    benchmark::DoNotOptimize(linalg::kmeans(points, k, seed_rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(100)->Arg(400)->Arg(1000);

void BM_Gcp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  nn::BlockSparseOptions options;
  options.blocks = n / 25;
  const auto net = nn::block_sparse(n, options, rng);
  for (auto _ : state) {
    util::Rng seed_rng(5);
    benchmark::DoNotOptimize(
        clustering::greedy_cluster_size_prediction(net, 64, seed_rng));
  }
}
BENCHMARK(BM_Gcp)->Arg(100)->Arg(200);

void BM_MazeRoute(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  route::GridGraph grid(side, side, 1.0, 0.0, 0.0, 8.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        route::maze_route(grid, {0, 0}, {side - 1, side - 1}, {}));
  }
}
BENCHMARK(BM_MazeRoute)->Arg(32)->Arg(64)->Arg(128);

netlist::Netlist random_placed_netlist(std::size_t cells, std::size_t wires) {
  util::Rng rng(6);
  netlist::Netlist net;
  for (std::size_t c = 0; c < cells; ++c) {
    netlist::Cell cell;
    cell.width = rng.uniform(0.5, 5.0);
    cell.height = rng.uniform(0.5, 5.0);
    cell.x = rng.uniform(-50.0, 50.0);
    cell.y = rng.uniform(-50.0, 50.0);
    net.cells.push_back(cell);
  }
  for (std::size_t w = 0; w < wires; ++w) {
    const auto a = static_cast<std::size_t>(rng.next_below(cells));
    auto b = static_cast<std::size_t>(rng.next_below(cells));
    if (b == a) b = (b + 1) % cells;
    net.wires.push_back({{a, b}, 1.0 + rng.uniform(), 0.0});
  }
  return net;
}

// Value passes — one per Armijo line-search trial.
void BM_WaWirelengthValue(benchmark::State& state) {
  const auto net = random_placed_netlist(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const auto coords = place::pack_positions(net);
  util::ThreadPool pool(1);
  place::WaModel model(net, 2.0, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value(coords));
  }
}
BENCHMARK(BM_WaWirelengthValue)->Arg(200)->Arg(1000);

void BM_DensityValue(benchmark::State& state) {
  const auto net = random_placed_netlist(
      static_cast<std::size_t>(state.range(0)), 1);
  const auto coords = place::pack_positions(net);
  util::ThreadPool pool(1);
  place::DensityModel model(net, 1.2, 16.0, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value(coords));
  }
}
BENCHMARK(BM_DensityValue)->Arg(200)->Arg(1000);

// Gradient replays of one value pass — the extra work of each accepted
// step. Compare against the *Value twins above.
void BM_WaWirelengthReplay(benchmark::State& state) {
  const auto net = random_placed_netlist(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const auto coords = place::pack_positions(net);
  util::ThreadPool pool(1);
  place::WaModel model(net, 2.0, pool);
  model.value(coords);
  std::vector<double> gradient(coords.size());
  for (auto _ : state) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    model.add_gradient(coords, gradient);
    benchmark::DoNotOptimize(gradient.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WaWirelengthReplay)->Arg(200)->Arg(1000);

void BM_DensityReplay(benchmark::State& state) {
  const auto net = random_placed_netlist(
      static_cast<std::size_t>(state.range(0)), 1);
  const auto coords = place::pack_positions(net);
  util::ThreadPool pool(1);
  place::DensityModel model(net, 1.2, 16.0, pool);
  model.value(coords);
  std::vector<double> gradient(coords.size());
  for (auto _ : state) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    model.add_gradient(coords, gradient);
    benchmark::DoNotOptimize(gradient.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DensityReplay)->Arg(200)->Arg(1000);

// WA axis kernel in isolation (one wire, one axis, value pass with the
// stores the replay reads): range(0) pins. An exp-caching regression shows
// up here without running the placer.
void BM_WaAxisKernel(benchmark::State& state) {
  const auto pin_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::size_t> pins(pin_count);
  std::vector<double> coords(2 * pin_count);
  for (std::size_t k = 0; k < pin_count; ++k) {
    pins[k] = k;
    coords[2 * k] = rng.uniform(-20.0, 20.0);
    coords[2 * k + 1] = rng.uniform(-20.0, 20.0);
  }
  std::vector<double> exp_a(pin_count);
  std::vector<double> exp_b(pin_count);
  double fp[4];
  for (auto _ : state) {
    benchmark::DoNotOptimize(place::wa_axis_fill(
        pins, coords, 0, 2.0, exp_a.data(), exp_b.data(), fp));
  }
}
BENCHMARK(BM_WaAxisKernel)->Arg(2)->Arg(8)->Arg(64);

// Density pair kernel over a batch of synthetic pair geometries (about
// half inside the softplus tail), in the value pass's shape: the tail
// test keeps the penetration depths, then a tight softplus loop. range(0)
// selects the value terms alone vs those plus the replay's gradient terms.
void BM_DensityPairKernel(benchmark::State& state) {
  const bool with_gradient = state.range(0) != 0;
  constexpr std::size_t kPairs = 4096;
  constexpr double kBeta = 16.0;
  constexpr double kTail = 30.0 / kBeta;
  util::Rng rng(8);
  std::vector<double> dx(kPairs), dy(kPairs), tx(kPairs), ty(kPairs);
  for (std::size_t k = 0; k < kPairs; ++k) {
    dx[k] = rng.uniform(-6.0, 6.0);
    dy[k] = rng.uniform(-6.0, 6.0);
    tx[k] = rng.uniform(0.5, 4.0);
    ty[k] = rng.uniform(0.5, 4.0);
  }
  std::vector<std::size_t> kept;
  std::vector<double> ox, oy;
  for (auto _ : state) {
    kept.clear();
    ox.clear();
    oy.clear();
    for (std::size_t k = 0; k < kPairs; ++k) {
      const double zx = tx[k] - std::abs(dx[k]);
      const double zy = ty[k] - std::abs(dy[k]);
      if (zx < -kTail || zy < -kTail) continue;
      kept.push_back(k);
      ox.push_back(zx);
      oy.push_back(zy);
    }
    double acc = 0.0;
    for (std::size_t p = 0; p < kept.size(); ++p) {
      ox[p] = place::density_softplus(ox[p], kBeta);
      oy[p] = place::density_softplus(oy[p], kBeta);
      acc += ox[p] * oy[p];
    }
    if (with_gradient) {
      for (std::size_t p = 0; p < kept.size(); ++p) {
        const std::size_t k = kept[p];
        double sx = 0.0;
        double sy = 0.0;
        place::density_pair_gradient(dx[k], dy[k], tx[k], ty[k], ox[p], oy[p],
                                     kBeta, sx, sy);
        acc += sx + sy;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}
BENCHMARK(BM_DensityPairKernel)->Arg(0)->Arg(1);

// One density value pass (sweep, softplus kernel, fold) on a tb3-sized
// mixed netlist: 15 crossbar macros of 7.6-19.9 um among 497 neurons of
// 2.24 um and 404 synapses of 0.84 um, at about the cell density of a
// placement in CG. Two states alternate; range(0) is the thread count.
void BM_DensityValuePass(benchmark::State& state) {
  util::Rng rng(9);
  netlist::Netlist net;
  for (std::size_t c = 0; c < 916; ++c) {
    netlist::Cell cell;
    const bool macro = c % 61 == 0;
    cell.width = cell.height =
        macro ? rng.uniform(7.6, 19.9) : (c % 2 == 0 ? 2.24 : 0.84);
    cell.x = rng.uniform(-50.0, 50.0);
    cell.y = rng.uniform(-50.0, 50.0);
    net.cells.push_back(cell);
  }
  const auto first = place::pack_positions(net);
  auto second = first;
  second[0] += 0.25;
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  place::DensityModel model(net, 1.2, 16.0, pool);
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value(flip ? second : first));
    flip = !flip;
  }
  state.counters["pairs_kept_per_pass"] =
      static_cast<double>(model.pairs_kept()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DensityValuePass)->Arg(1)->Arg(4);

// Flat-grid rebuild alone (counting-sort binning into reused buffers) —
// the fixed cost every density value pass pays.
void BM_UniformGridBuild(benchmark::State& state) {
  const auto net = random_placed_netlist(
      static_cast<std::size_t>(state.range(0)), 1);
  const auto coords = place::pack_positions(net);
  place::UniformGrid grid;
  for (auto _ : state) {
    grid.build(net, coords, 8.0, 4.0);
    benchmark::DoNotOptimize(grid.builds());
  }
}
BENCHMARK(BM_UniformGridBuild)->Arg(200)->Arg(1000)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();

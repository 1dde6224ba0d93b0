#include "autoncs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autoncs/pipeline.hpp"
#include "linalg/eigen_dispatch.hpp"
#include "nn/generators.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace autoncs {
namespace {

FlowConfig fast_config() {
  FlowConfig config;
  config.isc.crossbar_sizes = {4, 8, 16};
  config.baseline_crossbar_size = 16;
  config.placer.cg.max_iterations = 60;
  config.placer.max_outer_iterations = 12;
  config.seed = 77;
  config.threads = 2;
  return config;
}

nn::ConnectionMatrix small_block_network(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  nn::BlockSparseOptions topology;
  topology.blocks = 4;
  topology.intra_density = 0.45;
  topology.inter_density = 0.01;
  return nn::block_sparse(48, topology, rng);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One line of the metrics JSONL, parsed back.
struct Sample {
  std::string type;
  std::string name;
  double index = 0.0;
  double value = 0.0;
};

std::vector<Sample> parse_samples(const std::string& jsonl) {
  std::vector<Sample> out;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    util::JsonValue doc;
    EXPECT_TRUE(util::json_parse(line, doc)) << line;
    const util::JsonValue* type = doc.find("type");
    const util::JsonValue* name = doc.find("name");
    const util::JsonValue* index = doc.find("index");
    const util::JsonValue* value = doc.find("value");
    if (type == nullptr || name == nullptr || index == nullptr ||
        value == nullptr) {
      ADD_FAILURE() << "incomplete sample line: " << line;
      continue;
    }
    out.push_back({type->string_value, name->string_value,
                   index->number_value, value->number_value});
  }
  return out;
}

/// The values of series `name`, in file order; also checks the indices
/// run first_index, first_index + 1, ...
std::vector<double> series_values(const std::vector<Sample>& samples,
                                   const std::string& name,
                                   double first_index = 1.0) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    EXPECT_EQ(s.index, first_index + static_cast<double>(values.size()))
        << name;
    values.push_back(s.value);
  }
  return values;
}

/// `field` of every row, as the doubles the metrics stream carries.
template <typename Rows, typename Field>
std::vector<double> column(const Rows& rows, Field field) {
  std::vector<double> out;
  for (const auto& row : rows) out.push_back(static_cast<double>(row.*field));
  return out;
}

/// A flow result with every series populated: a dense and a Lanczos ISC
/// iteration, two outer placer iterations, three routing waves and one
/// reroute pass.
FlowResult synthetic_result() {
  FlowResult result;
  clustering::IscIterationStats dense;
  dense.iteration = 1;
  dense.clusters_formed = 4;
  dense.crossbars_placed = 3;
  dense.connections_realized = 120;
  dense.average_utilization = 0.4;
  dense.average_preference = 1.0 / 3.0;
  dense.outlier_ratio = 0.25;
  clustering::IscIterationStats lanczos = dense;
  lanczos.iteration = 2;
  lanczos.embedding_basis_size = 24;
  lanczos.embedding_matvecs = 30;
  lanczos.embedding_residuals = {0.5, 1e-3, 1e-9};
  result.isc.emplace().iterations = {dense, lanczos};
  place::PlacerOuterStats outer;
  outer.lambda = 0.1;
  outer.objective = 2.0 / 3.0;
  outer.overlap_ratio = 0.05;
  outer.hpwl_um = 1234.5;
  outer.cg_iterations = 100;
  outer.cg_value_evals = 310;
  outer.cg_gradient_evals = 101;
  outer.density_grid_builds = 211;
  result.placement.outer = {outer, outer};
  result.placement.outer[1].lambda = 0.2;
  result.routing.wave_sizes = {7, 3, 1};
  result.routing.reroute_stats = {{2, 4.5}};
  return result;
}

TEST(Telemetry, FlowResultBitIdenticalWithAndWithoutTelemetry) {
  const auto network = small_block_network();
  FlowConfig plain = fast_config();
  const FlowResult a = run_autoncs(network, plain);

  FlowConfig traced = fast_config();
  traced.telemetry.trace_path = temp_path("identity_trace.json");
  traced.telemetry.metrics_path = temp_path("identity_metrics.jsonl");
  const FlowResult b = run_autoncs(network, traced);

  EXPECT_EQ(a.cost.total_wirelength_um, b.cost.total_wirelength_um);
  EXPECT_EQ(a.cost.area_um2, b.cost.area_um2);
  EXPECT_EQ(a.cost.average_delay_ns, b.cost.average_delay_ns);
  EXPECT_EQ(a.placement.hpwl_um, b.placement.hpwl_um);
  ASSERT_EQ(a.placement.outer.size(), b.placement.outer.size());
  for (std::size_t i = 0; i < a.placement.outer.size(); ++i) {
    EXPECT_EQ(a.placement.outer[i].lambda, b.placement.outer[i].lambda);
    EXPECT_EQ(a.placement.outer[i].hpwl_um, b.placement.outer[i].hpwl_um);
    EXPECT_EQ(a.placement.outer[i].cg_iterations,
              b.placement.outer[i].cg_iterations);
  }
  EXPECT_EQ(a.routing.wave_sizes, b.routing.wave_sizes);
  EXPECT_EQ(a.routing.segments_deferred, b.routing.segments_deferred);
  EXPECT_EQ(a.routing.maze_invocations, b.routing.maze_invocations);
}

TEST(Telemetry, WritesValidArtifacts) {
  const auto network = small_block_network();
  FlowConfig config = fast_config();
  config.telemetry.trace_path = temp_path("artifacts_trace.json");
  config.telemetry.metrics_path = temp_path("artifacts_metrics.jsonl");
  const FlowResult result = run_autoncs(network, config);
  EXPECT_GT(result.cost.total_wirelength_um, 0.0);

  const std::string trace = read_file(config.telemetry.trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(util::json_valid(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("flow/autoncs"), std::string::npos);
  EXPECT_NE(trace.find("isc/embedding"), std::string::npos);
  EXPECT_NE(trace.find("place/cg"), std::string::npos);
  EXPECT_NE(trace.find("route/wave"), std::string::npos);

  const std::string metrics = read_file(config.telemetry.metrics_path);
  ASSERT_FALSE(metrics.empty());
  std::istringstream lines(metrics);
  std::string line;
  while (std::getline(lines, line))
    EXPECT_TRUE(util::json_valid(line)) << line;
  EXPECT_NE(metrics.find("autoncs/isc/utilization"), std::string::npos);
  EXPECT_NE(metrics.find("autoncs/place/lambda"), std::string::npos);
  EXPECT_NE(metrics.find("autoncs/route/wave_size"), std::string::npos);

  // The manifest lands next to the trace (derived path).
  const std::string manifest =
      read_file(temp_path("artifacts_trace.manifest.json"));
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(util::json_valid(manifest));
  EXPECT_NE(manifest.find("\"schema\":\"autoncs-run-manifest/4\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"flow\":\"autoncs\""), std::string::npos);
  EXPECT_NE(manifest.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(manifest.find("\"timings_ms\""), std::string::npos);
  EXPECT_NE(manifest.find("\"cost\""), std::string::npos);
  EXPECT_NE(manifest.find("\"total_wirelength_um\""), std::string::npos);
  // Robustness fields (schema /2): a clean run reports ok / not degraded
  // / no error code / an empty recovery log.
  EXPECT_NE(manifest.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(manifest.find("\"error_code\":\"\""), std::string::npos);
  EXPECT_NE(manifest.find("\"recovery\":[]"), std::string::npos);
  // Observability sections (schema /3): scheduler telemetry per pool
  // label and the memory accounting block with stage samples and
  // instrumented structures.
  EXPECT_NE(manifest.find("\"pool\":["), std::string::npos);
  EXPECT_NE(manifest.find("\"label\":\"place\""), std::string::npos);
  EXPECT_NE(manifest.find("\"label\":\"route\""), std::string::npos);
  EXPECT_NE(manifest.find("\"busy_fraction\""), std::string::npos);
  EXPECT_NE(manifest.find("\"imbalance\""), std::string::npos);
  EXPECT_NE(manifest.find("\"memory\""), std::string::npos);
  EXPECT_NE(manifest.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(manifest.find("\"stage\":\"placement\""), std::string::npos);
  EXPECT_NE(manifest.find("\"stage\":\"routing\""), std::string::npos);
  EXPECT_NE(manifest.find("\"name\":\"route/grid\""), std::string::npos);
  // Placement work counters: useful work over attempts, per stage.
  EXPECT_NE(manifest.find("\"density_pair_candidates_total\":"),
            std::string::npos);
  EXPECT_NE(manifest.find("\"density_pairs_kept_total\":"),
            std::string::npos);
  EXPECT_NE(manifest.find("\"legalization_pairs_checked\":"),
            std::string::npos);
  EXPECT_NE(manifest.find("\"legalization_separations\":"),
            std::string::npos);
}

TEST(Telemetry, MetricsJsonlByteIdenticalAcrossThreadCounts) {
  const auto network = small_block_network();
  std::string reference;
  double reference_wirelength = 0.0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FlowConfig config = fast_config();
    config.threads = threads;
    config.telemetry.metrics_path =
        temp_path("threads" + std::to_string(threads) + "_metrics.jsonl");
    const FlowResult result = run_autoncs(network, config);
    const std::string jsonl = read_file(config.telemetry.metrics_path);
    ASSERT_FALSE(jsonl.empty());
    // Pool and memory statistics live in the manifest, next to the
    // metrics file.
    const std::string manifest = read_file(temp_path(
        "threads" + std::to_string(threads) + "_metrics.manifest.json"));
    EXPECT_NE(manifest.find("\"label\":\"place\""), std::string::npos);
    EXPECT_NE(manifest.find("\"label\":\"route\""), std::string::npos);
    EXPECT_NE(manifest.find("\"name\":\"route/grid\""), std::string::npos);
    if (reference.empty()) {
      reference = jsonl;
      reference_wirelength = result.cost.total_wirelength_um;
    } else {
      EXPECT_EQ(reference, jsonl) << "threads = " << threads;
      EXPECT_EQ(reference_wirelength, result.cost.total_wirelength_um);
    }
  }
}

TEST(Telemetry, MetricsSeriesMatchFlowResult) {
  // Every series of both flows, bit-equal to the results they came from.
  // Lanczos and reroute passes are forced on so no series stays empty.
  const auto network = small_block_network();
  FlowConfig config = fast_config();
  config.isc.embedding_solver = clustering::EmbeddingSolver::kLanczos;
  config.router.reroute_passes = 2;
  config.telemetry.metrics_path = temp_path("series_metrics.jsonl");
  FlowResult ours;
  FlowResult baseline;
  {
    telemetry::Session session(config.telemetry);
    ours = run_autoncs(network, config);
    baseline = run_fullcro(network, config);
  }
  const std::vector<Sample> samples =
      parse_samples(read_file(config.telemetry.metrics_path));
  std::size_t expected_lines = 0;
  const std::pair<std::string, const FlowResult*> flows[] = {
      {"autoncs", &ours}, {"fullcro", &baseline}};
  for (const auto& [flow, result] : flows) {
    SCOPED_TRACE(flow);
    const auto series = [&](const std::string& name,
                            const std::vector<double>& expected) {
      EXPECT_EQ(series_values(samples, flow + "/" + name), expected) << name;
      expected_lines += expected.size();
    };

    using place::PlacerOuterStats;
    const auto& outer = result->placement.outer;
    ASSERT_FALSE(outer.empty());
    series("place/lambda", column(outer, &PlacerOuterStats::lambda));
    series("place/objective", column(outer, &PlacerOuterStats::objective));
    series("place/overlap", column(outer, &PlacerOuterStats::overlap_ratio));
    series("place/hpwl", column(outer, &PlacerOuterStats::hpwl_um));
    series("place/cg_iterations",
           column(outer, &PlacerOuterStats::cg_iterations));
    series("place/cg_value_evals",
           column(outer, &PlacerOuterStats::cg_value_evals));
    series("place/cg_gradient_evals",
           column(outer, &PlacerOuterStats::cg_gradient_evals));
    series("place/density_grid_builds",
           column(outer, &PlacerOuterStats::density_grid_builds));

    const route::RoutingResult& routing = result->routing;
    ASSERT_FALSE(routing.wave_sizes.empty());
    series("route/wave_size",
           std::vector<double>(routing.wave_sizes.begin(),
                               routing.wave_sizes.end()));
    series("route/reroute/segments",
           column(routing.reroute_stats,
                  &route::ReroutePassStats::segments_rerouted));
    series("route/reroute/overflow",
           column(routing.reroute_stats,
                  &route::ReroutePassStats::overflow_after));

    if (!result->isc) continue;
    using clustering::IscIterationStats;
    const auto& isc = result->isc->iterations;
    ASSERT_FALSE(isc.empty());
    series("isc/clusters_formed",
           column(isc, &IscIterationStats::clusters_formed));
    series("isc/crossbars_placed",
           column(isc, &IscIterationStats::crossbars_placed));
    series("isc/connections_realized",
           column(isc, &IscIterationStats::connections_realized));
    series("isc/utilization",
           column(isc, &IscIterationStats::average_utilization));
    series("isc/preference",
           column(isc, &IscIterationStats::average_preference));
    series("isc/outlier_ratio", column(isc, &IscIterationStats::outlier_ratio));
    // Every iteration solved with Lanczos, so those series run 1, 2, ...
    series("isc/lanczos/basis",
           column(isc, &IscIterationStats::embedding_basis_size));
    series("isc/lanczos/matvecs",
           column(isc, &IscIterationStats::embedding_matvecs));
    std::vector<double> residuals;
    for (const IscIterationStats& s : isc)
      residuals.insert(residuals.end(), s.embedding_residuals.begin(),
                       s.embedding_residuals.end());
    ASSERT_FALSE(residuals.empty());
    EXPECT_EQ(series_values(samples, "autoncs/isc/lanczos/residual", 0.0),
              residuals);
    expected_lines += residuals.size();
  }
  EXPECT_FALSE(baseline.routing.reroute_stats.empty());
  EXPECT_EQ(samples.size(), expected_lines);
  for (const Sample& s : samples) EXPECT_EQ(s.type, "sample") << s.name;
}

TEST(Metrics, JsonlLinesAreIndependentlyValid) {
  const std::string jsonl =
      telemetry::metrics_jsonl(synthetic_result(), "autoncs");
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(util::json_valid(line)) << line;
    ++count;
  }
  // 6 ISC series x 2 iterations, Lanczos basis + matvecs + 3 residual
  // checks, 8 placer series x 2, 3 waves, 2 reroute series x 1 pass.
  EXPECT_EQ(count, 12u + 5u + 16u + 3u + 2u);
  EXPECT_EQ(parse_samples(jsonl).size(), count);
}

TEST(Metrics, LanczosSeriesSkipDenseIterations) {
  // Iteration 1 was embedded densely: basis and matvecs start at index 2,
  // and the residual checks are numbered from 0.
  const std::vector<Sample> samples =
      parse_samples(telemetry::metrics_jsonl(synthetic_result(), "autoncs"));
  EXPECT_EQ(series_values(samples, "autoncs/isc/lanczos/basis", 2.0),
            std::vector<double>{24.0});
  EXPECT_EQ(series_values(samples, "autoncs/isc/lanczos/matvecs", 2.0),
            std::vector<double>{30.0});
  EXPECT_EQ(series_values(samples, "autoncs/isc/lanczos/residual", 0.0),
            (std::vector<double>{0.5, 1e-3, 1e-9}));
}

TEST(Metrics, PrefixesScopeNames) {
  const FlowResult result = synthetic_result();
  const std::string ours = telemetry::metrics_jsonl(result, "autoncs");
  const std::string baseline = telemetry::metrics_jsonl(result, "fullcro");
  for (const Sample& s : parse_samples(ours))
    EXPECT_EQ(s.name.rfind("autoncs/", 0), 0u) << s.name;
  // The flow name is the only difference.
  std::string renamed = baseline;
  for (std::size_t at = renamed.find("fullcro/"); at != std::string::npos;
       at = renamed.find("fullcro/", at))
    renamed.replace(at, 7, "autoncs");
  EXPECT_EQ(renamed, ours);
}

TEST(Metrics, FirstTouchOrderIsDeterministic) {
  // Series come one after another, never interleaved, in a fixed order:
  // clustering, then placement, then routing.
  const std::string jsonl =
      telemetry::metrics_jsonl(synthetic_result(), "autoncs");
  std::vector<std::string> order;
  for (const Sample& s : parse_samples(jsonl)) {
    if (!order.empty() && order.back() == s.name) continue;
    order.push_back(s.name);
  }
  const std::vector<std::string> expected = {
      "autoncs/isc/clusters_formed",   "autoncs/isc/crossbars_placed",
      "autoncs/isc/connections_realized", "autoncs/isc/utilization",
      "autoncs/isc/preference",        "autoncs/isc/outlier_ratio",
      "autoncs/isc/lanczos/basis",     "autoncs/isc/lanczos/matvecs",
      "autoncs/isc/lanczos/residual",  "autoncs/place/lambda",
      "autoncs/place/objective",       "autoncs/place/overlap",
      "autoncs/place/hpwl",            "autoncs/place/cg_iterations",
      "autoncs/place/cg_value_evals",  "autoncs/place/cg_gradient_evals",
      "autoncs/place/density_grid_builds", "autoncs/route/wave_size",
      "autoncs/route/reroute/segments", "autoncs/route/reroute/overflow"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(telemetry::metrics_jsonl(synthetic_result(), "autoncs"), jsonl);
}

TEST(Metrics, DisabledRecordsNothing) {
  // A flow recorded while no session is active leaves nothing behind for
  // the next session.
  const FlowConfig config;
  telemetry::Session::record_manifest(config, synthetic_result(), "autoncs");
  TelemetryOptions options;
  options.metrics_path = temp_path("disabled_metrics.jsonl");
  std::remove(options.metrics_path.c_str());
  { telemetry::Session session(options); }
  EXPECT_TRUE(std::ifstream(options.metrics_path).good());
  EXPECT_TRUE(read_file(options.metrics_path).empty());
}

TEST(Telemetry, OuterSessionOwnsNestedFlows) {
  const auto network = small_block_network();
  FlowConfig config = fast_config();
  config.telemetry.trace_path = temp_path("outer_trace.json");
  config.telemetry.metrics_path = temp_path("outer_metrics.jsonl");
  // A previous run of this test may have left artifacts behind.
  std::remove(config.telemetry.trace_path.c_str());
  std::remove(config.telemetry.metrics_path.c_str());
  std::remove(temp_path("outer_trace.fullcro.manifest.json").c_str());
  {
    telemetry::Session outer(config.telemetry);
    EXPECT_TRUE(outer.owns());
    EXPECT_EQ(telemetry::Session::active(), &outer);
    // The pipeline's nested sessions must stay inert: no artifacts until
    // the OUTER session closes, and both flows land in one artifact set.
    const FlowResult ours = run_autoncs(network, config);
    const FlowResult baseline = run_fullcro(network, config);
    EXPECT_GT(ours.cost.total_wirelength_um, 0.0);
    EXPECT_GT(baseline.cost.total_wirelength_um, 0.0);
    EXPECT_EQ(telemetry::Session::active(), &outer);
    EXPECT_TRUE(read_file(config.telemetry.trace_path).empty());
  }
  EXPECT_EQ(telemetry::Session::active(), nullptr);
  const std::string trace = read_file(config.telemetry.trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(util::json_valid(trace));
  EXPECT_NE(trace.find("flow/autoncs"), std::string::npos);
  EXPECT_NE(trace.find("flow/fullcro"), std::string::npos);

  const std::string metrics = read_file(config.telemetry.metrics_path);
  EXPECT_NE(metrics.find("autoncs/place/lambda"), std::string::npos);
  EXPECT_NE(metrics.find("fullcro/place/lambda"), std::string::npos);

  // The first flow completed under the session keeps the manifest path;
  // the FullCro flow after it gets its own manifest, cost included.
  const std::string manifest = read_file(temp_path("outer_trace.manifest.json"));
  EXPECT_NE(manifest.find("\"flow\":\"autoncs\""), std::string::npos);
  const std::string fullcro =
      read_file(temp_path("outer_trace.fullcro.manifest.json"));
  util::JsonValue doc;
  ASSERT_TRUE(util::json_parse(fullcro, doc));
  const util::JsonValue* flow = doc.find("flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->string_value, "fullcro");
  const util::JsonValue* result = doc.find("result");
  const util::JsonValue* cost =
      result != nullptr ? result->find("cost") : nullptr;
  ASSERT_NE(cost, nullptr);
  double wirelength = 0.0;
  ASSERT_TRUE(util::json_read(cost->find("total_wirelength_um"), wirelength));
  EXPECT_GT(wirelength, 0.0);

  // Each manifest's pool and memory sections cover its own flow: FullCro
  // runs no clustering, so it has no isc pool row and no clustering stage.
  const auto pool_labels = [](const util::JsonValue& d) {
    std::vector<std::string> labels;
    if (const util::JsonValue* pool = d.find("pool"))
      for (const auto& row : pool->items)
        labels.push_back(row.find("label")->string_value);
    return labels;
  };
  const auto memory_stages = [](const util::JsonValue& d) {
    std::vector<std::string> stages;
    const util::JsonValue* memory = d.find("memory");
    if (const util::JsonValue* list = memory ? memory->find("stages") : nullptr)
      for (const auto& row : list->items)
        stages.push_back(row.find("stage")->string_value);
    return stages;
  };
  const std::vector<std::string> fullcro_pools = pool_labels(doc);
  EXPECT_EQ(std::count(fullcro_pools.begin(), fullcro_pools.end(), "isc"), 0);
  EXPECT_EQ(memory_stages(doc),
            (std::vector<std::string>{"netlist", "placement", "routing"}));
  util::JsonValue ours_doc;
  ASSERT_TRUE(util::json_parse(manifest, ours_doc));
  EXPECT_EQ(memory_stages(ours_doc),
            (std::vector<std::string>{"clustering", "netlist", "placement",
                                      "routing"}));
}

TEST(Telemetry, SessionWithoutSinksIsInert) {
  telemetry::Session session(TelemetryOptions{});
  EXPECT_FALSE(session.owns());
  EXPECT_EQ(telemetry::Session::active(), nullptr);
}

TEST(Telemetry, RecordedErrorWritesErrorManifestAndFlightArtifact) {
  TelemetryOptions options;
  options.metrics_path = temp_path("err_metrics.jsonl");
  options.flight_path = temp_path("err_ring.flight.json");
  const std::string manifest_path = temp_path("err_metrics.manifest.json");
  std::remove(options.flight_path.c_str());
  std::remove(manifest_path.c_str());
  {
    telemetry::Session session(options);
    ASSERT_TRUE(session.owns());
    // Context the post-mortem should surface: a log line and a span both
    // land in the flight ring while the session is armed.
    util::log_message(util::LogLevel::kError, "test", "pre-crash context");
    { AUTONCS_TRACE_SCOPE("test/pre-crash-span"); }
    telemetry::Session::record_error(util::ResourceError(
        "resource.bad_alloc", "flow", "synthetic allocation failure"));
  }
  const std::string manifest = read_file(manifest_path);
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(util::json_valid(manifest));
  EXPECT_NE(manifest.find("\"schema\":\"autoncs-run-manifest/4\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(manifest.find("\"error_code\":\"resource.bad_alloc\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"flight_path\""), std::string::npos);

  const std::string flight = read_file(options.flight_path);
  ASSERT_FALSE(flight.empty());
  EXPECT_TRUE(util::json_valid(flight));
  EXPECT_NE(flight.find("\"schema\":\"autoncs-flight/1\""), std::string::npos);
  EXPECT_NE(flight.find("pre-crash context"), std::string::npos);
  EXPECT_NE(flight.find("test/pre-crash-span"), std::string::npos);
}

TEST(Telemetry, CleanSessionWritesNoFlightArtifact) {
  const auto network = small_block_network();
  FlowConfig config = fast_config();
  config.telemetry.metrics_path = temp_path("clean_metrics.jsonl");
  config.telemetry.flight_path = temp_path("clean_ring.flight.json");
  std::remove(config.telemetry.flight_path.c_str());
  const FlowResult result = run_autoncs(network, config);
  EXPECT_GT(result.cost.total_wirelength_um, 0.0);
  EXPECT_TRUE(read_file(config.telemetry.flight_path).empty());
}

TEST(Telemetry, ManifestJsonIsValidStandalone) {
  const auto network = small_block_network();
  const FlowConfig config = fast_config();
  const FlowResult result = run_autoncs(network, config);
  const std::string manifest =
      telemetry::run_manifest_json(config, result, "autoncs");
  EXPECT_TRUE(util::json_valid(manifest));
  EXPECT_NE(manifest.find("\"config\""), std::string::npos);
  EXPECT_NE(manifest.find("\"placer\""), std::string::npos);
  EXPECT_NE(manifest.find("\"router\""), std::string::npos);
  EXPECT_NE(manifest.find("\"isc\""), std::string::npos);
  EXPECT_NE(manifest.find("\"build_type\""), std::string::npos);
  // The build section names the eigensolver variant this host dispatched.
  const std::string isa = linalg::detail::eigen_isa_name(
      linalg::detail::dispatched_eigen_isa());
  EXPECT_NE(manifest.find("\"eigen_isa\":\"" + isa + "\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"eigen_isas_supported\":[\""), std::string::npos);
}

}  // namespace
}  // namespace autoncs

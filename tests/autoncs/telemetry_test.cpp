#include "autoncs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "autoncs/pipeline.hpp"
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
  EXPECT_NE(metrics.find("autoncs/cost/wirelength_um"), std::string::npos);

  // The manifest lands next to the trace (derived path).
  const std::string manifest =
      read_file(temp_path("artifacts_trace.manifest.json"));
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(util::json_valid(manifest));
  EXPECT_NE(manifest.find("\"schema\":\"autoncs-run-manifest/3\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"flow\":\"autoncs\""), std::string::npos);
  EXPECT_NE(manifest.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(manifest.find("\"timings_ms\""), std::string::npos);
  EXPECT_NE(manifest.find("\"cost\""), std::string::npos);
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
  EXPECT_NE(manifest.find("\"density_pair_candidates\":"), std::string::npos);
  EXPECT_NE(manifest.find("\"density_pairs_kept\":"), std::string::npos);
  EXPECT_NE(manifest.find("\"legalization_pairs_checked\":"),
            std::string::npos);
  EXPECT_NE(manifest.find("\"legalization_separations\":"),
            std::string::npos);
}

TEST(Telemetry, MetricsJsonlByteIdenticalAcrossThreadCounts) {
  // The byte-identity contract covers EVERYTHING in the metrics stream —
  // including the pool.* scheduler namespace and the mem/* deterministic
  // footprint gauges introduced with manifest schema /3.
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
    if (reference.empty()) {
      reference = jsonl;
      reference_wirelength = result.cost.total_wirelength_um;
      // The scheduler namespace is restricted to invariant-by-construction
      // quantities (pool counts); wall-clock stats stay in the manifest.
      EXPECT_NE(jsonl.find("pool/place/pools"), std::string::npos);
      EXPECT_NE(jsonl.find("pool/route/pools"), std::string::npos);
      EXPECT_NE(jsonl.find("mem/route/grid_bytes"), std::string::npos);
    } else {
      EXPECT_EQ(reference, jsonl) << "threads = " << threads;
      EXPECT_EQ(reference_wirelength, result.cost.total_wirelength_um);
    }
  }
}

TEST(Telemetry, OuterSessionOwnsNestedFlows) {
  const auto network = small_block_network();
  FlowConfig config = fast_config();
  config.telemetry.trace_path = temp_path("outer_trace.json");
  config.telemetry.metrics_path = temp_path("outer_metrics.jsonl");
  // A previous run of this test may have left artifacts behind.
  std::remove(config.telemetry.trace_path.c_str());
  std::remove(config.telemetry.metrics_path.c_str());
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

  // The manifest records the FIRST flow completed under the session.
  const std::string manifest = read_file(temp_path("outer_trace.manifest.json"));
  EXPECT_NE(manifest.find("\"flow\":\"autoncs\""), std::string::npos);
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
  EXPECT_NE(manifest.find("\"schema\":\"autoncs-run-manifest/3\""),
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
}

}  // namespace
}  // namespace autoncs

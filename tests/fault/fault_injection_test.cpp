// Deterministic fault-injection suite (docs/robustness.md): every point in
// fault_point_catalog() is driven through the full flow, and each outcome
// must be one of
//
//   (a) recovered bit-identically (one-shot transient absorbed by a
//       same-parameters retry rung),
//   (b) completed with a typed degraded result, or
//   (c) a typed FlowError with the documented category —
//
// never a crash, a hang, or a silently wrong result. The suite is the
// fault-smoke CI job's payload and runs clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "autoncs/pipeline.hpp"
#include "autoncs/telemetry.hpp"
#include "nn/generators.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace autoncs {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { util::fault_disarm_all(); }
  void TearDown() override { util::fault_disarm_all(); }
};

/// Small config; the sparse (Lanczos) embedding path is forced so the
/// lanczos.no_converge point sits on the executed path.
FlowConfig fault_config() {
  FlowConfig config;
  config.isc.crossbar_sizes = {4, 8, 16};
  config.baseline_crossbar_size = 16;
  config.isc.embedding_solver = clustering::EmbeddingSolver::kLanczos;
  config.placer.cg.max_iterations = 60;
  config.placer.max_outer_iterations = 12;
  config.seed = 77;
  config.threads = 2;
  return config;
}

nn::ConnectionMatrix fault_network() {
  util::Rng rng(5);
  nn::BlockSparseOptions topology;
  topology.blocks = 4;
  topology.intra_density = 0.45;
  topology.inter_density = 0.01;
  return nn::block_sparse(48, topology, rng);
}

bool same_cost(const FlowResult& a, const FlowResult& b) {
  return a.cost.total_wirelength_um == b.cost.total_wirelength_um &&
         a.cost.area_um2 == b.cost.area_um2 &&
         a.cost.average_delay_ns == b.cost.average_delay_ns;
}

TEST_F(FaultInjectionTest, OneShotCgNanRecoversBitIdentically) {
  const auto network = fault_network();
  const auto clean = run_autoncs(network, fault_config());
  util::fault_arm("cg.nan");
  const auto faulted = run_autoncs(network, fault_config());
  EXPECT_GE(util::fault_fire_count("cg.nan"), 1u);
  EXPECT_TRUE(same_cost(clean, faulted));
  EXPECT_FALSE(faulted.degraded);
  ASSERT_FALSE(faulted.recovery.empty());
  EXPECT_EQ(faulted.recovery.events()[0].point, "cg.nan");
  EXPECT_EQ(faulted.recovery.events()[0].action, "retry");
  EXPECT_FALSE(faulted.recovery.events()[0].alters_result);
}

TEST_F(FaultInjectionTest, OneShotCgGradNanRecoversBitIdentically) {
  const auto network = fault_network();
  const auto clean = run_autoncs(network, fault_config());
  util::fault_arm("cg.grad_nan");
  const auto faulted = run_autoncs(network, fault_config());
  EXPECT_GE(util::fault_fire_count("cg.grad_nan"), 1u);
  EXPECT_TRUE(same_cost(clean, faulted));
  EXPECT_FALSE(faulted.degraded);
}

TEST_F(FaultInjectionTest, PersistentCgGradNanDegradesWithoutCrashing) {
  // The gradient stays poisoned on every evaluation: the transparent
  // retries fail, the damped restarts exhaust, and the placer must still
  // hand back a finite, legalized placement flagged degraded.
  util::fault_arm("cg.grad_nan@*");
  const auto faulted = run_autoncs(fault_network(), fault_config());
  EXPECT_TRUE(faulted.degraded);
  EXPECT_TRUE(faulted.placement.degraded);
  EXPECT_GT(faulted.cost.total_wirelength_um, 0.0);
  EXPECT_TRUE(std::isfinite(faulted.cost.total_wirelength_um));
  EXPECT_TRUE(std::isfinite(faulted.cost.area_um2));
}

TEST_F(FaultInjectionTest, OneShotLanczosCollapseRecoversBitIdentically) {
  const auto network = fault_network();
  const auto clean = run_autoncs(network, fault_config());
  util::fault_arm("lanczos.no_converge");
  const auto faulted = run_autoncs(network, fault_config());
  EXPECT_GE(util::fault_fire_count("lanczos.no_converge"), 1u);
  EXPECT_TRUE(same_cost(clean, faulted));
  EXPECT_FALSE(faulted.degraded);
  const auto& events = faulted.recovery.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].point, "lanczos.no_converge");
  EXPECT_EQ(events[0].action, "retry");
}

TEST_F(FaultInjectionTest, PersistentLanczosCollapseFallsBackToDense) {
  // Every restart collapses too, so the ladder must walk retry -> budget
  // escalation -> dense eigensolver and still produce a valid flow.
  util::fault_arm("lanczos.no_converge@*");
  const auto faulted = run_autoncs(fault_network(), fault_config());
  EXPECT_TRUE(faulted.degraded);
  bool saw_dense_fallback = false;
  for (const auto& event : faulted.recovery.events())
    if (event.action == "dense_fallback") saw_dense_fallback = true;
  EXPECT_TRUE(saw_dense_fallback);
  EXPECT_GT(faulted.cost.total_wirelength_um, 0.0);
  ASSERT_TRUE(faulted.isc.has_value());
  EXPECT_EQ(mapping::validate_mapping(faulted.mapping, fault_network()), "");
}

TEST_F(FaultInjectionTest, ForcedOverflowDegradesOnTheRelaxationLadder) {
  util::fault_arm("router.force_overflow");
  const auto faulted = run_autoncs(fault_network(), fault_config());
  EXPECT_GE(util::fault_fire_count("router.force_overflow"), 1u);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_TRUE(faulted.routing.degraded);
  // Default mode: the sabotaged segment still routes via the unconstrained
  // fallback — the wire list stays complete.
  EXPECT_EQ(faulted.routing.failed_wires.size(), 0u);
  EXPECT_EQ(faulted.routing.wires.size(), faulted.netlist.wires.size());
}

TEST_F(FaultInjectionTest, ForcedOverflowUnderStrictCapacityReportsPartialRouting) {
  util::fault_arm("router.force_overflow");
  FlowConfig config = fault_config();
  config.router.strict_capacity = true;
  const auto faulted = run_autoncs(fault_network(), config);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_GE(faulted.routing.segments_failed, 1u);
  ASSERT_FALSE(faulted.routing.failed_wires.empty());
  EXPECT_TRUE(std::is_sorted(faulted.routing.failed_wires.begin(),
                             faulted.routing.failed_wires.end()));
  bool saw_partial = false;
  for (const auto& event : faulted.recovery.events())
    if (event.action == "partial_routing") saw_partial = true;
  EXPECT_TRUE(saw_partial);
}

TEST_F(FaultInjectionTest, BadAllocSurfacesAsResourceError) {
  util::fault_arm("flow.bad_alloc");
  try {
    (void)run_autoncs(fault_network(), fault_config());
    FAIL() << "injected allocation failure did not throw";
  } catch (const util::ResourceError& e) {
    EXPECT_EQ(e.code(), "resource.bad_alloc");
    EXPECT_EQ(e.exit_code(), 4);
  }
}

TEST_F(FaultInjectionTest, CrashAfterPlacementLeavesAResumableCheckpoint) {
  const auto network = fault_network();
  FlowConfig config = fault_config();
  const auto dir = std::filesystem::temp_directory_path() /
                   "autoncs_fault_ckpt_test";
  std::filesystem::remove_all(dir);
  config.checkpoint.dir = dir.string();

  const auto clean = run_autoncs(network, fault_config());

  util::fault_arm("flow.crash_after_placement");
  try {
    (void)run_autoncs(network, config);
    FAIL() << "injected crash did not throw";
  } catch (const util::InternalError& e) {
    EXPECT_EQ(e.code(), "internal.injected_crash");
    EXPECT_EQ(e.exit_code(), 5);
  }
  util::fault_disarm_all();

  // The crash struck AFTER the placement checkpoint landed: resuming must
  // reproduce the clean run's cost bit-exactly without redoing
  // clustering or placement.
  ASSERT_TRUE(std::filesystem::exists(dir / "placement.ckpt.json"));
  config.checkpoint.resume = true;
  const auto resumed = run_autoncs(network, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(same_cost(clean, resumed));
  EXPECT_EQ(resumed.placement.hpwl_um, clean.placement.hpwl_um);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, EveryCatalogPointIsExercisedWithoutCrashing) {
  // The coverage walk: arm each catalog point one-shot, run the flow, and
  // require that the point actually fired and the outcome was either a
  // completed (possibly degraded) result or a typed FlowError.
  const auto network = fault_network();
  FlowConfig config = fault_config();
  std::set<std::string> fired;
  for (const std::string& point : util::fault_point_catalog()) {
    util::fault_disarm_all();
    util::fault_arm(point);
    try {
      const auto result = run_autoncs(network, config);
      EXPECT_TRUE(std::isfinite(result.cost.total_wirelength_um)) << point;
      EXPECT_TRUE(std::isfinite(result.cost.area_um2)) << point;
    } catch (const util::FlowError& e) {
      EXPECT_FALSE(e.code().empty()) << point;
    }
    if (util::fault_fire_count(point) > 0) fired.insert(point);
  }
  for (const std::string& point : util::fault_point_catalog())
    EXPECT_TRUE(fired.contains(point)) << point << " never fired";
}

TEST_F(FaultInjectionTest, InjectedCrashProducesAFlightRecorderArtifact) {
  // A run killed by an injected fault must leave a post-mortem behind:
  // the telemetry session dumps the flight ring next to the error
  // manifest (docs/observability.md, crash flight recorder).
  const auto dir = std::filesystem::temp_directory_path() /
                   "autoncs_fault_flight_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FlowConfig config = fault_config();
  config.telemetry.metrics_path = (dir / "run.jsonl").string();
  config.telemetry.flight_path = (dir / "run.flight.json").string();

  util::fault_arm("flow.crash_after_placement");
  try {
    telemetry::Session session(config.telemetry);
    try {
      (void)run_autoncs(fault_network(), config);
      FAIL() << "injected crash did not throw";
    } catch (const util::FlowError& e) {
      telemetry::Session::record_error(e);
      EXPECT_EQ(e.code(), "internal.injected_crash");
    }
  } catch (...) {
    FAIL() << "telemetry session must not throw";
  }

  // The error manifest names the flight artifact, and the artifact is a
  // parsable autoncs-flight/1 dump with pre-crash context in it.
  std::ifstream manifest_in(dir / "run.manifest.json");
  std::stringstream manifest;
  manifest << manifest_in.rdbuf();
  ASSERT_FALSE(manifest.str().empty());
  EXPECT_NE(manifest.str().find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(manifest.str().find("run.flight.json"), std::string::npos);

  std::ifstream flight_in(config.telemetry.flight_path);
  std::stringstream flight;
  flight << flight_in.rdbuf();
  ASSERT_FALSE(flight.str().empty());
  EXPECT_TRUE(util::json_valid(flight.str()));
  EXPECT_NE(flight.str().find("\"schema\":\"autoncs-flight/1\""),
            std::string::npos);
  EXPECT_NE(flight.str().find("flow/place"), std::string::npos);

  // Metrics come from completed flows only: the killed run adds no series.
  ASSERT_TRUE(std::filesystem::exists(config.telemetry.metrics_path));
  EXPECT_EQ(std::filesystem::file_size(config.telemetry.metrics_path), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, DisarmedRunsAreBitIdenticalAcrossRepeats) {
  // The injection machinery itself must be inert when disarmed.
  const auto network = fault_network();
  const auto a = run_autoncs(network, fault_config());
  const auto b = run_autoncs(network, fault_config());
  EXPECT_TRUE(same_cost(a, b));
  EXPECT_TRUE(a.recovery.empty());
  EXPECT_FALSE(a.degraded);
}

}  // namespace
}  // namespace autoncs

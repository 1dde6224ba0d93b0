// Checkpoint/resume: a resumed run must reproduce the original run's
// results bit-exactly, and anything wrong with a checkpoint — corruption,
// another seed, another config — must degrade to a clean full recompute,
// never a crash or a silently inconsistent resume.
#include "autoncs/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autoncs/pipeline.hpp"
#include "autoncs/telemetry.hpp"
#include "nn/generators.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace autoncs {
namespace {

FlowConfig fast_config() {
  FlowConfig config;
  config.isc.crossbar_sizes = {4, 8, 16};
  config.baseline_crossbar_size = 16;
  config.placer.cg.max_iterations = 60;
  config.placer.max_outer_iterations = 12;
  config.seed = 77;
  return config;
}

nn::ConnectionMatrix small_network() {
  util::Rng rng(5);
  nn::BlockSparseOptions topology;
  topology.blocks = 4;
  topology.intra_density = 0.45;
  topology.inter_density = 0.01;
  return nn::block_sparse(48, topology, rng);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("autoncs_ckpt_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

bool identical_results(const FlowResult& a, const FlowResult& b) {
  return a.cost.total_wirelength_um == b.cost.total_wirelength_um &&
         a.cost.area_um2 == b.cost.area_um2 &&
         a.cost.average_delay_ns == b.cost.average_delay_ns &&
         a.placement.hpwl_um == b.placement.hpwl_um &&
         a.placement.cg_value_evals_total == b.placement.cg_value_evals_total &&
         a.placement.density_pair_candidates_total ==
             b.placement.density_pair_candidates_total &&
         a.placement.density_pairs_kept_total ==
             b.placement.density_pairs_kept_total &&
         a.placement.legalization.pairs_checked ==
             b.placement.legalization.pairs_checked &&
         a.placement.legalization.separations ==
             b.placement.legalization.separations &&
         a.routing.total_wirelength_um == b.routing.total_wirelength_um &&
         a.routing.maze_invocations == b.routing.maze_invocations &&
         a.mapping.crossbars.size() == b.mapping.crossbars.size() &&
         a.mapping.discrete_synapses.size() ==
             b.mapping.discrete_synapses.size();
}

TEST_F(CheckpointTest, SaveWritesValidVersionedJson) {
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(small_network(), config);
  for (const std::string& path : {checkpoint::clustering_path(dir_),
                                 checkpoint::placement_path(dir_)}) {
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    util::JsonValue doc;
    ASSERT_TRUE(util::json_parse(text, doc)) << path;
    const util::JsonValue* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string_value, "autoncs-checkpoint/1");
    EXPECT_NE(doc.find("config_hash"), nullptr);
    EXPECT_NE(doc.find("seed"), nullptr);
  }
}

TEST_F(CheckpointTest, ResumeFromPlacementIsBitIdentical) {
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  const auto original = run_autoncs(network, config);
  EXPECT_FALSE(original.resumed);

  config.checkpoint.resume = true;
  const auto resumed = run_autoncs(network, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(identical_results(original, resumed));
  // Placement was skipped entirely, not recomputed.
  EXPECT_EQ(resumed.placement.outer_iterations,
            original.placement.outer_iterations);
  EXPECT_FALSE(resumed.isc.has_value());
}

TEST_F(CheckpointTest, ResumeFromClusteringIsBitIdentical) {
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  const auto original = run_autoncs(network, config);

  // Remove the later checkpoint so the clustering rung is the furthest.
  std::filesystem::remove(checkpoint::placement_path(dir_));
  config.checkpoint.resume = true;
  const auto resumed = run_autoncs(network, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(identical_results(original, resumed));
}

TEST_F(CheckpointTest, CorruptCheckpointFallsBackToFullRun) {
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  const auto original = run_autoncs(network, config);

  for (const std::string& path : {checkpoint::placement_path(dir_),
                                 checkpoint::clustering_path(dir_)}) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\":\"autoncs-checkpoint/1\",\"kind\"";  // truncated
  }
  config.checkpoint.resume = true;
  const auto recomputed = run_autoncs(network, config);
  EXPECT_FALSE(recomputed.resumed);
  EXPECT_TRUE(identical_results(original, recomputed));
}

TEST_F(CheckpointTest, SeedMismatchInvalidatesCheckpoints) {
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(network, config);

  config.seed = 1234;  // different stochastic stream
  config.checkpoint.resume = true;
  const auto rerun = run_autoncs(network, config);
  EXPECT_FALSE(rerun.resumed);
}

TEST_F(CheckpointTest, ConfigChangeInvalidatesCheckpoints) {
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(network, config);

  config.router.theta = 8.0;  // changes routing results
  config.checkpoint.resume = true;
  const auto rerun = run_autoncs(network, config);
  EXPECT_FALSE(rerun.resumed);
}

TEST_F(CheckpointTest, ConfigHashIsStableAndSensitive) {
  const FlowConfig a = fast_config();
  FlowConfig b = fast_config();
  EXPECT_EQ(checkpoint::config_hash(a), checkpoint::config_hash(b));
  b.placer.omega *= 2.0;
  EXPECT_NE(checkpoint::config_hash(a), checkpoint::config_hash(b));
  // Telemetry sinks are excluded from the stamp: turning tracing on must
  // not invalidate checkpoints.
  FlowConfig c = fast_config();
  c.telemetry.trace_path = "/tmp/trace.json";
  EXPECT_EQ(checkpoint::config_hash(a), checkpoint::config_hash(c));
}

TEST_F(CheckpointTest, ConfigHashCoversPlacerAndRouterKnobs) {
  // One edit per FlowConfig field that can change the flow's result: a
  // checkpoint saved under the old value must not resume as compatible.
  // (The seed is checked by the checkpoint header, see
  // SeedMismatchInvalidatesCheckpoints.)
  using Edit = void (*)(FlowConfig&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"isc.crossbar_sizes", [](FlowConfig& c) { c.isc.crossbar_sizes.push_back(32); }},
      {"isc.utilization_threshold",
       [](FlowConfig& c) { c.isc.utilization_threshold *= 2.0; }},
      {"isc.selection_fraction", [](FlowConfig& c) { c.isc.selection_fraction *= 2.0; }},
      {"isc.max_iterations", [](FlowConfig& c) { c.isc.max_iterations += 1; }},
      {"isc.preference",
       [](FlowConfig& c) { c.isc.preference = clustering::PreferenceKind::kUtilization; }},
      {"isc.pack_clusters", [](FlowConfig& c) { c.isc.pack_clusters = !c.isc.pack_clusters; }},
      {"isc.pack_limit", [](FlowConfig& c) { c.isc.pack_limit += 1; }},
      {"isc.size_by_demand", [](FlowConfig& c) { c.isc.size_by_demand = !c.isc.size_by_demand; }},
      {"isc.embedding_solver",
       [](FlowConfig& c) { c.isc.embedding_solver = clustering::EmbeddingSolver::kLanczos; }},
      {"isc.wall_budget_ms", [](FlowConfig& c) { c.isc.wall_budget_ms = 5.0; }},
      {"derive_threshold_from_baseline",
       [](FlowConfig& c) { c.derive_threshold_from_baseline = !c.derive_threshold_from_baseline; }},
      {"baseline_crossbar_size", [](FlowConfig& c) { c.baseline_crossbar_size += 4; }},
      {"placer.omega", [](FlowConfig& c) { c.placer.omega *= 2.0; }},
      {"placer.target_density", [](FlowConfig& c) { c.placer.target_density *= 0.5; }},
      {"placer.max_outer_iterations", [](FlowConfig& c) { c.placer.max_outer_iterations += 1; }},
      {"placer.wall_budget_ms", [](FlowConfig& c) { c.placer.wall_budget_ms = 5.0; }},
      {"cg.max_iterations", [](FlowConfig& c) { c.placer.cg.max_iterations += 1; }},
      {"cg.gradient_tolerance", [](FlowConfig& c) { c.placer.cg.gradient_tolerance *= 2.0; }},
      {"legalizer.margin", [](FlowConfig& c) { c.placer.legalizer.margin *= 2.0; }},
      {"legalizer.max_passes", [](FlowConfig& c) { c.placer.legalizer.max_passes += 1; }},
      {"legalizer.overlap_tolerance",
       [](FlowConfig& c) { c.placer.legalizer.overlap_tolerance *= 2.0; }},
      {"refine_placement", [](FlowConfig& c) { c.refine_placement = !c.refine_placement; }},
      {"router.theta", [](FlowConfig& c) { c.router.theta *= 2.0; }},
      {"router.capacity_per_um", [](FlowConfig& c) { c.router.capacity_per_um *= 2.0; }},
      {"router.max_relax_steps", [](FlowConfig& c) { c.router.max_relax_steps += 1; }},
      {"router.margin_bins", [](FlowConfig& c) { c.router.margin_bins += 1; }},
      {"router.strict_capacity",
       [](FlowConfig& c) { c.router.strict_capacity = !c.router.strict_capacity; }},
      {"router.reroute_passes", [](FlowConfig& c) { c.router.reroute_passes += 1; }},
      {"router.wall_budget_ms", [](FlowConfig& c) { c.router.wall_budget_ms = 5.0; }},
      {"tech.memristor_pitch_um", [](FlowConfig& c) { c.tech.memristor_pitch_um *= 2.0; }},
      {"tech.crossbar_periphery_um", [](FlowConfig& c) { c.tech.crossbar_periphery_um *= 2.0; }},
      {"tech.synapse_side_um", [](FlowConfig& c) { c.tech.synapse_side_um *= 2.0; }},
      {"tech.neuron_side_um", [](FlowConfig& c) { c.tech.neuron_side_um *= 2.0; }},
      {"tech.wire_resistance_ohm_per_um",
       [](FlowConfig& c) { c.tech.wire_resistance_ohm_per_um *= 2.0; }},
      {"tech.wire_capacitance_ff_per_um",
       [](FlowConfig& c) { c.tech.wire_capacitance_ff_per_um *= 2.0; }},
      {"tech.crossbar_delay_at_64_ns", [](FlowConfig& c) { c.tech.crossbar_delay_at_64_ns *= 2.0; }},
      {"tech.synapse_delay_ns", [](FlowConfig& c) { c.tech.synapse_delay_ns *= 2.0; }},
      {"cost_weights.alpha", [](FlowConfig& c) { c.cost_weights.alpha *= 2.0; }},
      {"cost_weights.beta", [](FlowConfig& c) { c.cost_weights.beta *= 2.0; }},
      {"cost_weights.delta", [](FlowConfig& c) { c.cost_weights.delta *= 2.0; }},
  };
  const FlowConfig base = fast_config();
  for (const auto& [name, edit] : edits) {
    FlowConfig changed = fast_config();
    edit(changed);
    EXPECT_NE(checkpoint::config_hash(base), checkpoint::config_hash(changed))
        << name;
  }
}

TEST_F(CheckpointTest, MissingDirectoryIsCreatedOnSave) {
  FlowConfig config = fast_config();
  config.checkpoint.dir =
      (std::filesystem::path(dir_) / "nested" / "deeper").string();
  (void)run_autoncs(small_network(), config);
  EXPECT_TRUE(std::filesystem::exists(
      checkpoint::placement_path(config.checkpoint.dir)));
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointsRunsCleanly) {
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  config.checkpoint.resume = true;  // nothing saved yet
  const auto result = run_autoncs(small_network(), config);
  EXPECT_FALSE(result.resumed);
  EXPECT_GT(result.cost.total_wirelength_um, 0.0);
}

TEST_F(CheckpointTest, MismatchRecordsStructuredRecoveryEvent) {
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(small_network(), config);

  // Direct probe: a present-but-incompatible checkpoint must both return
  // nothing AND leave a typed event behind (not just a log warning).
  FlowConfig other = fast_config();
  other.seed = config.seed + 1;
  util::RecoveryLog log;
  EXPECT_FALSE(checkpoint::load_placement(dir_, other, &log).has_value());
  EXPECT_FALSE(checkpoint::load_clustering(dir_, other, &log).has_value());
  ASSERT_GE(log.events().size(), 2u);
  for (const auto& event : log.events()) {
    EXPECT_EQ(event.point, "checkpoint.mismatch");
    EXPECT_EQ(event.action, "recompute");
    EXPECT_EQ(event.stage, "flow");
    EXPECT_TRUE(event.recovered);
    EXPECT_FALSE(event.alters_result);
  }
  // A missing checkpoint is the normal cold start — no event.
  util::RecoveryLog clean;
  const std::string empty_dir = dir_ + "_empty";
  EXPECT_FALSE(
      checkpoint::load_placement(empty_dir, config, &clean).has_value());
  EXPECT_TRUE(clean.empty());
}

TEST_F(CheckpointTest, MismatchEventIsVisibleInRunManifest) {
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(small_network(), config);

  FlowConfig other = fast_config();
  other.seed = config.seed + 1;
  other.checkpoint.dir = dir_;
  other.checkpoint.resume = true;
  const auto result = run_autoncs(small_network(), other);
  // The stale checkpoints were recomputed, and the run says so.
  EXPECT_FALSE(result.resumed);
  bool found = false;
  for (const auto& event : result.recovery.events())
    found = found || event.point == "checkpoint.mismatch";
  EXPECT_TRUE(found);
  const std::string manifest =
      telemetry::run_manifest_json(other, result, "autoncs");
  EXPECT_NE(manifest.find("checkpoint.mismatch"), std::string::npos);
  EXPECT_NE(manifest.find("recompute"), std::string::npos);
}

}  // namespace
}  // namespace autoncs

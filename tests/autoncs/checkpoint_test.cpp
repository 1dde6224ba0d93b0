// Checkpoint/resume: a resumed run must reproduce the original run's
// results bit-exactly, and anything wrong with a checkpoint — corruption,
// another seed, another config — must degrade to a clean full recompute,
// never a crash or a silently inconsistent resume.
#include "autoncs/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "autoncs/pipeline.hpp"
#include "autoncs/telemetry.hpp"
#include "nn/generators.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// Every visited field of a placement report, in visit order.
std::vector<std::pair<std::string, double>> report_fields(
    const place::PlacementReport& report) {
  std::vector<std::pair<std::string, double>> fields;
  visit_fields(report, [&](const char* name, const auto& value) {
    fields.emplace_back(name, static_cast<double>(value));
  });
  return fields;
}

bool identical_results(const FlowResult& a, const FlowResult& b) {
  return a.cost.total_wirelength_um == b.cost.total_wirelength_um &&
         a.cost.area_um2 == b.cost.area_um2 &&
         a.cost.average_delay_ns == b.cost.average_delay_ns &&
         report_fields(a.placement) == report_fields(b.placement) &&
         a.routing.total_wirelength_um == b.routing.total_wirelength_um &&
         a.routing.maze_invocations == b.routing.maze_invocations &&
         a.mapping.crossbars.size() == b.mapping.crossbars.size() &&
         a.mapping.discrete_synapses.size() ==
             b.mapping.discrete_synapses.size();
}

/// Calls leaf(path, field) for every field the config view visits,
/// descending into the nested stage records ("placer.omega").
template <class Record, class Leaf>
void for_each_leaf(Record& record, const std::string& prefix, Leaf&& leaf) {
  visit_fields(record, [&](const char* name, auto& field) {
    if constexpr (util::Visitable<std::remove_reference_t<decltype(field)>>)
      for_each_leaf(field, prefix + name + ".", leaf);
    else
      leaf(prefix + name, field);
  });
}

/// Moves one config field to another value of its type.
template <class T>
void perturb(T& value) {
  if constexpr (std::is_same_v<T, bool>)
    value = !value;
  else if constexpr (std::is_enum_v<T>)
    value = static_cast<T>(static_cast<int>(value) == 0 ? 1 : 0);
  else if constexpr (std::is_floating_point_v<T>)
    value = value == 0.0 ? 5.0 : 2.0 * value;  // 0 is a budget's "off"
  else if constexpr (std::is_integral_v<T>)
    value += 1;
  else
    value.push_back(value.back() + 4);  // the crossbar size library
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
    EXPECT_EQ(schema->string_value, "autoncs-checkpoint/2");
    EXPECT_NE(doc.find("config_hash"), nullptr);
    const util::JsonValue* seed = doc.find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_EQ(seed->string_value, "77");
  }
}

TEST_F(CheckpointTest, SeedsAboveTwoToThe53Resume) {
  // A JSON number holds only 53 bits: the seed is stamped as a decimal
  // string, so 2^53 + 1 must not read back as 2^53 and fail its own check.
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.seed = 9007199254740993ULL;
  config.checkpoint.dir = dir_;
  const auto original = run_autoncs(network, config);
  config.checkpoint.resume = true;
  const auto resumed = run_autoncs(network, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(resumed.recovery.empty());
  EXPECT_TRUE(identical_results(original, resumed));
  // The neighbouring seed, equal to it as a double, is still another seed.
  config.seed -= 1;
  EXPECT_FALSE(run_autoncs(network, config).resumed);
}

TEST_F(CheckpointTest, NonFiniteCoordinateIsRecomputed) {
  // A coordinate read back as NaN or infinity must not reach the netlist:
  // its finiteness check throws, where a bad checkpoint should recompute.
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  const auto original = run_autoncs(network, config);
  const std::string path = checkpoint::placement_path(dir_);
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const std::string saved = buffer.str();
  config.checkpoint.resume = true;
  for (const std::string axis : {"\"x\":[", "\"y\":["}) {
    for (const std::string value : {"null", "1e999", "-1e999"}) {
      std::string text = saved;
      const std::size_t first = text.find(axis) + axis.size();
      text.replace(first, text.find(',', first) - first, value);
      std::ofstream(path, std::ios::trunc) << text;
      // Without the clustering checkpoint, not resuming means a full run.
      std::filesystem::remove(checkpoint::clustering_path(dir_));
      const auto rerun = run_autoncs(network, config);
      EXPECT_FALSE(rerun.resumed) << axis << value;
      bool recomputed = false;
      for (const auto& event : rerun.recovery.events())
        recomputed = recomputed || (event.point == "checkpoint.mismatch" &&
                                    event.action == "recompute");
      EXPECT_TRUE(recomputed) << axis << value;
      EXPECT_TRUE(identical_results(original, rerun)) << axis << value;
    }
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
  std::stringstream buffer;
  buffer << std::ifstream(checkpoint::placement_path(dir_)).rdbuf();
  std::string previous_schema = buffer.str();
  const std::string schema = "\"autoncs-checkpoint/2\"";
  previous_schema.replace(previous_schema.find(schema), schema.size(),
                          "\"autoncs-checkpoint/1\"");

  const std::string truncated = "{\"schema\":\"autoncs-checkpoint/2\",\"kind\"";

  config.checkpoint.resume = true;
  for (const std::string& text : {truncated, previous_schema}) {
    for (const std::string& path : {checkpoint::placement_path(dir_),
                                   checkpoint::clustering_path(dir_)})
      std::ofstream(path, std::ios::trunc) << text;
    const auto recomputed = run_autoncs(network, config);
    EXPECT_FALSE(recomputed.resumed);
    ASSERT_EQ(recomputed.recovery.events().size(), 2u);
    for (const auto& event : recomputed.recovery.events())
      EXPECT_EQ(event.point, "checkpoint.mismatch");
    EXPECT_TRUE(identical_results(original, recomputed));
  }
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

TEST_F(CheckpointTest, ConfigHashCoversEveryVisitedField) {
  // A checkpoint saved under one value of any field the config view
  // visits must not resume under another. (The seed is checked by the
  // checkpoint header, see SeedMismatchInvalidatesCheckpoints.)
  const FlowConfig base = fast_config();
  std::vector<std::string> paths;
  for_each_leaf(base, "", [&](const std::string& path, const auto&) {
    paths.push_back(path);
  });
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    FlowConfig changed = fast_config();
    std::size_t leaf = 0;
    for_each_leaf(changed, "", [&](const std::string&, auto& field) {
      if (leaf++ == i) perturb(field);
    });
    EXPECT_NE(checkpoint::config_hash(base), checkpoint::config_hash(changed))
        << paths[i];
  }
}

TEST_F(CheckpointTest, DefaultConfigHashIsPinned) {
  // The config JSON's bytes are the checkpoint stamp: a visitor edit that
  // renames, reorders or reformats a field invalidates every checkpoint.
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    checkpoint::config_hash(FlowConfig{})));
  EXPECT_STREQ(hex, "b88cd4b47c48e86c");
}

TEST_F(CheckpointTest, PlacementReportKeysArePinned) {
  // Checkpoints and manifests are written from the records' visit_fields
  // lists: a field dropped from a visitor, renamed or reordered changes
  // these bytes. Empty lists hide their element records, which have
  // inputs of their own.
  const auto fnv_hex = [](const std::string& text) {
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(hex);
  };
  const auto json = [](const auto& record) {
    util::JsonWriter w;
    util::write_json(w, record);
    return w.str();
  };
  const std::pair<std::string, std::string> pinned[] = {
      {json(place::PlacementReport{}), "4e67aa8bb2c77ef2"},
      {json(nn::Connection{}), "7a0de6c033f079e2"},
      {json(clustering::CrossbarInstance{}), "4115496b2a88339a"},
      {json(mapping::HybridMapping{}), "b59a990c3ae1f45c"},
      {json(checkpoint::PlacementState{}), "c248f419e01cbb22"},
      {json(route::RoutingResult{}), "ccfb5d9ac634756b"},
      {json(route::ReroutePassStats{}), "da4d1181985541fb"},
      {json(StageTimings{}), "86a9eff398da0899"},
      {json(tech::PhysicalCost{}), "1fe517ae275392a1"},
      {json(util::RecoveryEvent{}), "a8fe6a020c97928f"},
      {json(util::PoolStats{}), "618175a5d3a909c6"},
      {json(util::MemSnapshot{}), "46a3c5a166a3e662"},
      {json(util::MemStageSample{}), "00c14786bd6efb19"},
      {json(util::MemStructure{}), "398cab4492033a99"},
  };
  for (const auto& [text, hex] : pinned) EXPECT_EQ(fnv_hex(text), hex) << text;
}

TEST_F(CheckpointTest, EveryReportFieldIsRequiredAndTypeChecked) {
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  (void)run_autoncs(small_network(), config);
  const std::string path = checkpoint::placement_path(dir_);
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const std::string saved = buffer.str();
  ASSERT_TRUE(
      checkpoint::load_placement(dir_, config, small_network()).has_value());
  // Each visited report field, once renamed away and once turned into a
  // string, must make the load fail and recompute.
  const place::PlacementReport report;
  visit_fields(report, [&](const char* name, const auto&) {
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t at = saved.find(key);
    ASSERT_NE(at, std::string::npos) << name;
    for (const std::string& edit :
         {"\"renamed_" + std::string(name) + "\":",
          key + "\"text\",\"old_" + name + "\":"}) {
      std::string text = saved;
      text.replace(at, key.size(), edit);
      std::ofstream(path, std::ios::trunc) << text;
      util::RecoveryLog log;
      EXPECT_FALSE(checkpoint::load_placement(dir_, config, small_network(),
                                              &log)
                       .has_value())
          << edit;
      EXPECT_FALSE(log.empty()) << edit;
    }
  });
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
  const auto network = small_network();
  EXPECT_FALSE(
      checkpoint::load_placement(dir_, other, network, &log).has_value());
  EXPECT_FALSE(
      checkpoint::load_clustering(dir_, other, network, &log).has_value());
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
  EXPECT_FALSE(checkpoint::load_placement(empty_dir, config, network, &clean)
                   .has_value());
  EXPECT_TRUE(clean.empty());
}

TEST_F(CheckpointTest, ResumedMappingIsValidatedAgainstTheNetwork) {
  // A checkpoint with a valid stamp whose mapping does not realize the
  // network (a connection naming neuron n, or a wrong neuron count) must
  // be recomputed like any other mismatch, never handed to the netlist
  // builder.
  const auto network = small_network();
  FlowConfig config = fast_config();
  config.checkpoint.dir = dir_;
  const auto clean = run_autoncs(network, config);
  ASSERT_FALSE(clean.mapping.crossbars.empty());

  mapping::HybridMapping out_of_range = clean.mapping;
  out_of_range.crossbars[0].connections[0].from = network.size();
  mapping::HybridMapping wrong_count = clean.mapping;
  wrong_count.neuron_count = network.size() - 1;
  config.checkpoint.resume = true;
  for (const mapping::HybridMapping* bad : {&out_of_range, &wrong_count}) {
    for (const bool placed : {false, true}) {
      std::filesystem::remove_all(dir_);
      if (placed)
        checkpoint::save_placement(dir_, config, *bad, clean.netlist,
                                   clean.placement);
      else
        checkpoint::save_clustering(dir_, config, *bad);
      const auto result = run_autoncs(network, config);
      EXPECT_FALSE(result.resumed) << placed;
      bool recomputed = false;
      for (const auto& event : result.recovery.events())
        recomputed = recomputed || (event.point == "checkpoint.mismatch" &&
                                    event.action == "recompute");
      EXPECT_TRUE(recomputed) << placed;
      EXPECT_TRUE(identical_results(result, clean)) << placed;
    }
  }
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

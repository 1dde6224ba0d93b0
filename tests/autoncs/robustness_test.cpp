// Natural (non-injected) recovery-ladder and budget behaviour: these tests
// reach the degraded paths through real configurations — under-capacitated
// grids, tiny wall budgets — not through fault injection, so they cover the
// ladder wiring end to end as a user would hit it. A truncated Lanczos
// budget is checked to stay off the ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autoncs/pipeline.hpp"
#include "clustering/embedding.hpp"
#include "linalg/lanczos.hpp"
#include "nn/generators.hpp"
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

TEST(EmbeddingLadder, LenientDefaultAcceptsTheTruncatedBudget) {
  // 300 neurons, 6 requested pairs: the default Krylov budget (64) runs
  // out before the trailing pairs meet the residual tolerance. Exhausting
  // the advisory budget is the documented healthy outcome, so the ladder
  // stays silent.
  util::Rng rng(5);
  nn::BlockSparseOptions topology;
  topology.blocks = 4;
  topology.intra_density = 0.1;
  topology.inter_density = 0.01;
  const auto network = nn::block_sparse(300, topology, rng);
  util::RecoveryLog log;
  linalg::LanczosStats stats;
  clustering::EmbeddingOptions options;
  options.solver = clustering::EmbeddingSolver::kLanczos;
  options.max_vectors = 6;
  options.lanczos_stats = &stats;
  options.recovery = &log;
  (void)clustering::spectral_embedding(network, options);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.basis_size, 64u);
  EXPECT_TRUE(log.empty());
}

TEST(RouterLadder, UnderCapacitatedStrictGridReportsPartialRouting) {
  // capacity = theta * capacity_per_um ~ 0 with relaxation disabled: no
  // inter-bin segment can route. Strict capacity must report the residue
  // per wire instead of throwing or forcing overflow.
  FlowConfig config = fast_config();
  config.router.strict_capacity = true;
  config.router.capacity_per_um = 0.01;
  config.router.max_relax_steps = 0;
  const auto result = run_autoncs(small_network(), config);

  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.routing.degraded);
  EXPECT_GE(result.routing.segments_failed, 1u);
  ASSERT_FALSE(result.routing.failed_wires.empty());
  EXPECT_TRUE(std::is_sorted(result.routing.failed_wires.begin(),
                             result.routing.failed_wires.end()));
  bool saw_partial = false;
  for (const auto& event : result.recovery.events())
    if (event.action == "partial_routing") saw_partial = true;
  EXPECT_TRUE(saw_partial);
  // Aggregates over the routed subset stay finite and reportable.
  EXPECT_TRUE(std::isfinite(result.routing.total_wirelength_um));
  EXPECT_TRUE(std::isfinite(result.cost.area_um2));
}

TEST(StageBudgets, ClusteringBudgetYieldsAllOutlierMappingFlaggedDegraded) {
  FlowConfig config = fast_config();
  config.isc.wall_budget_ms = 1e-6;  // exhausted before iteration 1
  const auto result = run_autoncs(small_network(), config);

  ASSERT_TRUE(result.isc.has_value());
  EXPECT_TRUE(result.isc->budget_exhausted);
  EXPECT_TRUE(result.degraded);
  // At most one iteration slipped in before the clock registered; the
  // rest of the network landed on discrete synapses — still a complete,
  // valid realization.
  EXPECT_LE(result.isc->iterations.size(), 1u);
  EXPECT_FALSE(result.mapping.discrete_synapses.empty());
  EXPECT_EQ(mapping::validate_mapping(result.mapping, small_network()), "");
  EXPECT_GT(result.cost.total_wirelength_um, 0.0);
  bool saw_budget = false;
  for (const auto& event : result.recovery.events())
    if (event.point == "isc.wall_budget" && event.action == "budget_exhausted")
      saw_budget = true;
  EXPECT_TRUE(saw_budget);
}

TEST(StageBudgets, PlacementBudgetStopsOuterLoopWithLegalizedResult) {
  FlowConfig config = fast_config();
  config.placer.wall_budget_ms = 1e-6;
  const auto result = run_autoncs(small_network(), config);

  EXPECT_TRUE(result.placement.budget_exhausted);
  EXPECT_TRUE(result.placement.degraded);
  EXPECT_TRUE(result.degraded);
  // Best-so-far was still legalized into a usable placement.
  EXPECT_GE(result.placement.outer_iterations, 1u);
  EXPECT_TRUE(std::isfinite(result.placement.hpwl_um));
  EXPECT_GT(result.placement.hpwl_um, 0.0);
  EXPECT_GT(result.cost.total_wirelength_um, 0.0);
}

TEST(StageBudgets, RoutingBudgetCutsOnlyTheReroutePasses) {
  FlowConfig config = fast_config();
  config.router.reroute_passes = 2;
  config.router.wall_budget_ms = 1e-6;
  const auto result = run_autoncs(small_network(), config);

  EXPECT_TRUE(result.routing.budget_exhausted);
  EXPECT_TRUE(result.degraded);
  // The initial routing always completes: every wire has a route.
  EXPECT_EQ(result.routing.wires.size(), result.netlist.wires.size());
  EXPECT_TRUE(result.routing.failed_wires.empty());
  EXPECT_GT(result.routing.total_wirelength_um, 0.0);
}

TEST(StageBudgets, UnlimitedBudgetsLeaveTheFlowClean) {
  const auto result = run_autoncs(small_network(), fast_config());
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.recovery.empty());
  ASSERT_TRUE(result.isc.has_value());
  EXPECT_FALSE(result.isc->budget_exhausted);
  EXPECT_FALSE(result.placement.budget_exhausted);
  EXPECT_FALSE(result.routing.budget_exhausted);
}

}  // namespace
}  // namespace autoncs

// Golden placement digests: the paper testbenches tb1-3 (built at seed
// 2015) pushed through the AutoNCS and FullCro flows, with the placement
// hashed bit for bit. Any change to a floating-point operation, or to the
// order in which the density model, the legalizer or the overlap oracle
// folds its pair terms, moves these digests.
//
// The expected values live in tests/data/placement_digests.txt, one
// `<flow> <testbench> <16 hex digits>` line each.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "autoncs/pipeline.hpp"
#include "nn/testbench.hpp"
#include "support/golden.hpp"

namespace autoncs {
namespace {

/// FNV-1a over the placed x/y of every cell, then hpwl_um, area_um2,
/// legalization.{passes, final_overlap_ratio} and cg_value_evals_total.
std::uint64_t placement_digest(const FlowResult& result) {
  testing::Fnv1a h;
  for (const auto& cell : result.netlist.cells) {
    h.add(cell.x);
    h.add(cell.y);
  }
  const place::PlacementReport& p = result.placement;
  h.add(p.hpwl_um);
  h.add(p.area_um2);
  h.add(static_cast<std::uint64_t>(p.legalization.passes));
  h.add(p.legalization.final_overlap_ratio);
  h.add(static_cast<std::uint64_t>(p.cg_value_evals_total));
  return h.value();
}

void expect_golden(const std::string& flow, int testbench) {
  const nn::ConnectionMatrix network =
      nn::build_testbench(testbench, 2015).topology;
  FlowConfig config;
  config.threads = 1;
  const FlowResult result = flow == "autoncs" ? run_autoncs(network, config)
                                              : run_fullcro(network, config);
  const std::string key = flow + " tb" + std::to_string(testbench);
  const auto expected = testing::read_table("placement_digests.txt", 2);
  const auto it = expected.find(key);
  EXPECT_EQ(it == expected.end() || it->second.empty() ? "(missing)"
                                                       : it->second[0],
            testing::hex(placement_digest(result)))
      << key;
}

TEST(PlacementGolden, AutoncsTb1) { expect_golden("autoncs", 1); }
TEST(PlacementGolden, AutoncsTb2) { expect_golden("autoncs", 2); }
TEST(PlacementGolden, AutoncsTb3) { expect_golden("autoncs", 3); }
TEST(PlacementGolden, FullcroTb1) { expect_golden("fullcro", 1); }
TEST(PlacementGolden, FullcroTb2) { expect_golden("fullcro", 2); }
TEST(PlacementGolden, FullcroTb3) { expect_golden("fullcro", 3); }

}  // namespace
}  // namespace autoncs

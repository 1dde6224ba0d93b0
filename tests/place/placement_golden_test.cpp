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
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "autoncs/pipeline.hpp"
#include "nn/testbench.hpp"

#ifndef AUTONCS_TEST_DATA_DIR
#error "AUTONCS_TEST_DATA_DIR must point at tests/data"
#endif

namespace autoncs {
namespace {

class Fnv1a {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// FNV-1a over the placed x/y of every cell, then hpwl_um, area_um2,
/// legalization.{passes, final_overlap_ratio} and cg_value_evals_total.
std::uint64_t placement_digest(const FlowResult& result) {
  Fnv1a h;
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

std::map<std::string, std::string> expected_digests() {
  std::ifstream in(std::string(AUTONCS_TEST_DATA_DIR) +
                   "/placement_digests.txt");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string flow, bench, digest;
    fields >> flow >> bench >> digest;
    out[flow + " " + bench] = digest;
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const std::string& flow, int testbench) {
  const nn::ConnectionMatrix network =
      nn::build_testbench(testbench, 2015).topology;
  FlowConfig config;
  config.threads = 1;
  const FlowResult result = flow == "autoncs" ? run_autoncs(network, config)
                                              : run_fullcro(network, config);
  const std::string key = flow + " tb" + std::to_string(testbench);
  const auto expected = expected_digests();
  const auto it = expected.find(key);
  EXPECT_EQ(it == expected.end() ? "(missing)" : it->second,
            hex(placement_digest(result)))
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

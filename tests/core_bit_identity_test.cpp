// Bit-identity regression guard for the catalog refactor: with the
// default Table III catalog, every planner number must equal the
// pre-refactor implementation BIT FOR BIT — not approximately. The golden
// values below are hexfloat captures from the seed build (galaxy app,
// CloudProvider seed 2017, full measurement, n=65536, a=8000, T'=24 h,
// C'=$350). If any of these change, the refactor altered arithmetic, not
// just structure.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"

namespace {

using namespace celia::core;

const Celia& golden_celia() {
  static const Celia instance = [] {
    celia::cloud::CloudProvider provider(2017);
    return Celia::build(*celia::apps::make_galaxy(), provider);
  }();
  return instance;
}

constexpr celia::apps::AppParams kParams{65536, 8000};

TEST(BitIdentity, DemandAndCharacterizedRates) {
  const Celia& celia = golden_celia();
  EXPECT_EQ(celia.predict_demand(kParams), 0x1.fbce5e08p+52);
  constexpr double kRates[] = {
      0x1.469d1f70dd2d7p+30, 0x1.56a29e5834e41p+30, 0x1.47c732a0e6e61p+30,
      0x1.4dabeb608e04ep+30, 0x1.4423e3a7964a4p+30, 0x1.463cd35b3b476p+30,
      0x1.17c19569ba397p+30, 0x1.fe845ee283f68p+29, 0x1.d5f8c7d120f24p+29,
  };
  ASSERT_EQ(celia.capacity().num_types(), std::size(kRates));
  for (std::size_t i = 0; i < std::size(kRates); ++i)
    EXPECT_EQ(celia.capacity().per_vcpu_rate(i), kRates[i]) << i;
}

TEST(BitIdentity, FullSweepSelection) {
  const SweepResult result = golden_celia().select(kParams, 24.0, 350.0);
  EXPECT_EQ(result.total, 10'077'695u);
  EXPECT_EQ(result.feasible, 8'046'568u);
  ASSERT_EQ(result.pareto.size(), 68u);

  EXPECT_EQ(result.min_cost.config_index, 862u);
  EXPECT_EQ(result.min_cost.seconds, 0x1.49bc6553dd56ap+16);
  EXPECT_EQ(result.min_cost.cost, 0x1.7d2b3a98b4c9cp+6);
  EXPECT_EQ(result.min_time.config_index, 10'077'694u);
  EXPECT_EQ(result.min_time.seconds, 0x1.0673d55b12338p+15);
  EXPECT_EQ(result.min_time.cost, 0x1.07ce3959f29e9p+7);

  // Frontier endpoints plus its middle entry pin the whole curve's
  // arithmetic (ascending cost order).
  EXPECT_EQ(result.pareto.front().config_index,
            result.min_cost.config_index);
  EXPECT_EQ(result.pareto.front().cost, result.min_cost.cost);
  EXPECT_EQ(result.pareto[34].config_index, 139'966u);
  EXPECT_EQ(result.pareto[34].seconds, 0x1.606747f747f8cp+15);
  EXPECT_EQ(result.pareto[34].cost, 0x1.b1a2813dd3403p+6);
  EXPECT_EQ(result.pareto.back().config_index,
            result.min_time.config_index);
  EXPECT_EQ(result.pareto.back().seconds, result.min_time.seconds);
}

TEST(BitIdentity, FrontierIndexAgreesWithTheSeed) {
  const Celia& celia = golden_celia();
  const FrontierIndex index =
      FrontierIndex::build(celia.space(), celia.capacity(), celia.catalog());
  EXPECT_EQ(index.frontier().size(), 101u);

  Constraints constraints;
  constraints.deadline_seconds = 24.0 * 3600.0;
  constraints.budget_dollars = 350.0;
  const SweepResult result =
      index.query(Query::make(celia.predict_demand(kParams), constraints));
  EXPECT_EQ(result.feasible, 8'046'568u);
  EXPECT_EQ(result.min_cost.config_index, 862u);
  EXPECT_EQ(result.min_cost.seconds, 0x1.49bc6553dd56ap+16);
  EXPECT_EQ(result.min_cost.cost, 0x1.7d2b3a98b4c9cp+6);
}

}  // namespace

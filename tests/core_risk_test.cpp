// Tests for pattern-aware probabilistic selection (core/risk.hpp).

#include <gtest/gtest.h>

#include <cmath>

#include "core/enumerate.hpp"
#include "core/query.hpp"
#include "core/risk.hpp"
#include "core/time_cost.hpp"
#include "util/stats.hpp"

namespace {

using namespace celia::core;

const celia::cloud::Catalog& table3() {
  return celia::cloud::Catalog::ec2_table3();
}

ResourceCapacity flat_capacity() {
  return ResourceCapacity(std::vector<double>(9, 1e9), table3());
}

TEST(NormalMath, CdfKnownValues) {
  EXPECT_NEAR(celia::util::normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(celia::util::normal_cdf(1.645), 0.95, 1e-3);
  EXPECT_NEAR(celia::util::normal_cdf(-1.645), 0.05, 1e-3);
}

TEST(NormalMath, QuantileInvertsCdf) {
  for (const double p : {0.01, 0.05, 0.25, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(celia::util::normal_cdf(celia::util::normal_quantile(p)), p,
                1e-8)
        << p;
  }
}

TEST(NormalMath, QuantileDomainChecked) {
  EXPECT_THROW(celia::util::normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(celia::util::normal_quantile(1.0), std::domain_error);
}

TEST(RobustMinCost, NoneModelMatchesDeterministicSweep) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  RiskSpec spec;
  spec.model = RiskModel::kNone;
  const auto robust =
      robust_min_cost(space, capacity, table3(), 9e15, 24 * 3600.0, spec);
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  SweepOptions options;
  options.collect_pareto = false;
  const auto classic = sweep(space, capacity, table3(),
                             Query::make(9e15, constraints, options));
  ASSERT_TRUE(robust.has_value());
  ASSERT_TRUE(classic.any_feasible);
  EXPECT_EQ(robust->config_index, classic.min_cost.config_index);
  EXPECT_DOUBLE_EQ(robust->cost, classic.min_cost.cost);
}

TEST(RobustMinCost, PricesComeFromTheCatalog) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = flat_capacity();
  RiskSpec spec;
  spec.model = RiskModel::kNone;
  const double demand = 1e14;
  const double deadline = 3600.0;
  const auto at_table3 =
      robust_min_cost(space, capacity, table3(), demand, deadline, spec);
  ASSERT_TRUE(at_table3.has_value());

  // Doubling every price doubles every cost exactly: same pick, twice the
  // bill.
  const auto doubled_catalog =
      table3().with_price_multiplier("doubled", "test", 2.0);
  const auto doubled =
      robust_min_cost(space, capacity, doubled_catalog, demand, deadline, spec);
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled->config_index, at_table3->config_index);
  EXPECT_EQ(doubled->seconds, at_table3->seconds);
  EXPECT_DOUBLE_EQ(doubled->cost, 2.0 * at_table3->cost);

  // A skewed repricing moves the pick, exactly as the sweep over the same
  // catalog moves it.
  std::vector<double> skewed(table3().hourly_costs().begin(),
                             table3().hourly_costs().end());
  for (std::size_t i = 0; i < skewed.size(); i += 2) skewed[i] *= 3.0;
  const auto skewed_catalog = table3().repriced("skewed", "test", skewed);
  const auto robust =
      robust_min_cost(space, capacity, skewed_catalog, demand, deadline, spec);
  Constraints constraints;
  constraints.deadline_seconds = deadline;
  const SweepResult swept = sweep(space, capacity, skewed_catalog,
                                  Query::make(demand, constraints));
  ASSERT_TRUE(robust.has_value());
  ASSERT_TRUE(swept.any_feasible);
  EXPECT_EQ(robust->config_index, swept.min_cost.config_index);
  EXPECT_DOUBLE_EQ(robust->cost, swept.min_cost.cost);
  EXPECT_NE(robust->config_index, at_table3->config_index);
}

TEST(RobustMinCost, BottleneckStricterThanSumCapacity) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  RiskSpec sum_spec{RiskModel::kSumCapacity, 0.95, 0.08, 1.0};
  RiskSpec min_spec{RiskModel::kBottleneck, 0.95, 0.08, 1.0};
  const double demand = 9e15;
  const auto sum_plan =
      robust_min_cost(space, capacity, table3(), demand, 24 * 3600.0, sum_spec);
  const auto min_plan =
      robust_min_cost(space, capacity, table3(), demand, 24 * 3600.0, min_spec);
  ASSERT_TRUE(sum_plan && min_plan);
  EXPECT_GE(min_plan->cost, sum_plan->cost - 1e-9);
}

TEST(RobustMinCost, ConfidenceMonotone) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  double previous = 0.0;
  for (const double confidence : {0.5, 0.9, 0.99}) {
    RiskSpec spec{RiskModel::kBottleneck, confidence, 0.06, 1.0};
    const auto plan =
        robust_min_cost(space, capacity, table3(), 9e15, 24 * 3600.0, spec);
    ASSERT_TRUE(plan.has_value()) << confidence;
    EXPECT_GE(plan->cost, previous - 1e-9) << confidence;
    previous = plan->cost;
  }
}

TEST(RobustMinCost, MedianFactorRelaxesSelection) {
  // A higher median factor (turbo) makes the same confidence cheaper.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  RiskSpec slow{RiskModel::kBottleneck, 0.95, 0.06, 0.97};
  RiskSpec fast{RiskModel::kBottleneck, 0.95, 0.06, 1.10};
  const auto plan_slow =
      robust_min_cost(space, capacity, table3(), 9e15, 24 * 3600.0, slow);
  const auto plan_fast =
      robust_min_cost(space, capacity, table3(), 9e15, 24 * 3600.0, fast);
  ASSERT_TRUE(plan_slow && plan_fast);
  EXPECT_LE(plan_fast->cost, plan_slow->cost + 1e-9);
}

TEST(RobustMinCost, BottleneckFeasibilityMatchesHandFormula) {
  // One-configuration space: [5,0,...] => m = 5, U = 1e10. Feasible at
  // confidence g iff 5 * ln(1 - Phi((ln x)/sigma)) >= ln g with
  // x = D / (U T').
  const ConfigurationSpace tiny(std::vector<int>{5, 0, 0, 0, 0, 0, 0, 0, 0});
  const auto capacity = flat_capacity();
  const double u = 1e10, deadline = 3600.0, sigma = 0.06;
  const double confidence = 0.95;

  auto feasible_by_hand = [&](double demand) {
    const double x = demand / (u * deadline);
    const double tail =
        1.0 - celia::util::normal_cdf(std::log(x) / sigma);
    return tail > 0 && 5.0 * std::log(tail) >= std::log(confidence);
  };

  RiskSpec spec{RiskModel::kBottleneck, confidence, sigma, 1.0};
  // Pick demands straddling the hand-computed threshold.
  for (const double demand : {0.80 * u * deadline, 0.90 * u * deadline,
                              0.97 * u * deadline, 1.05 * u * deadline}) {
    // The tiny space contains subsets [1..5,0...]; only full [5] has
    // capacity u, so min over space exists iff some m in 1..5 qualifies.
    const auto plan =
        robust_min_cost(tiny, capacity, table3(), demand, deadline, spec);
    bool any = false;
    for (int count = 1; count <= 5; ++count) {
      const double cap = count * 2e9;
      const double x = demand / (cap * deadline);
      const double tail =
          1.0 - celia::util::normal_cdf(std::log(x) / sigma);
      if (tail > 0 && count * std::log(tail) >= std::log(confidence))
        any = true;
    }
    EXPECT_EQ(plan.has_value(), any) << demand / (u * deadline);
    (void)feasible_by_hand;
  }
}

TEST(RobustMinCost, BadSpecThrows) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  RiskSpec spec{RiskModel::kBottleneck, 1.5, 0.06, 1.0};
  EXPECT_THROW(robust_min_cost(space, capacity, table3(), 1e15, 3600.0, spec),
               std::invalid_argument);
  RiskSpec no_sigma{RiskModel::kSumCapacity, 0.95, 0.0, 1.0};
  EXPECT_THROW(
      robust_min_cost(space, capacity, table3(), 1e15, 3600.0, no_sigma),
      std::invalid_argument);
  EXPECT_THROW(
      robust_min_cost(space, capacity, table3(), 0.0, 3600.0, RiskSpec{}),
      std::invalid_argument);
}

TEST(RobustMinCost, ImpossibleDeadlineReturnsNullopt) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  EXPECT_FALSE(
      robust_min_cost(space, capacity, table3(), 1e18, 1.0, RiskSpec{})
          .has_value());
}

}  // namespace

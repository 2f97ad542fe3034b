// Tests for the parallel exhaustive sweep (core/enumerate.hpp) — checked
// against a brute-force evaluation on reduced spaces and for determinism
// on the full 10 M space.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "core/enumerate.hpp"
#include "core/query.hpp"
#include "core/time_cost.hpp"

namespace {

using namespace celia::core;

const celia::cloud::Catalog& table3() {
  return celia::cloud::Catalog::ec2_table3();
}

ResourceCapacity test_capacity() {
  // Distinct, realistic per-vCPU rates so ties are rare.
  std::vector<double> per_vcpu = {1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9,
                                  1.3e9, 1.1e9, 1.1e9, 1.1e9};
  return ResourceCapacity(per_vcpu, table3());
}

TEST(Sweep, VisitsEveryConfigurationOnce) {
  const ConfigurationSpace space(std::vector<int>(9, 1));  // 511 configs
  const auto capacity = test_capacity();
  std::atomic<std::uint64_t> visits{0};
  for_each_configuration(space, capacity, table3(),
                         [&](std::uint64_t, double, double) { ++visits; });
  EXPECT_EQ(visits.load(), space.size());
}

TEST(Sweep, StreamedCapacityAndCostMatchDirectComputation) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  std::atomic<int> failures{0};
  for_each_configuration(
      space, capacity, table3(), [&](std::uint64_t index, double u, double cu) {
        const Configuration config = space.decode(index);
        const double expected_u = configuration_capacity(config, capacity);
        const double expected_cu = configuration_hourly_cost(config);
        if (std::abs(u - expected_u) > 1e-3 ||
            std::abs(cu - expected_cu) > 1e-9)
          ++failures;
      });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Sweep, FeasibleCountMatchesBruteForce) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  const double demand = 1e15;
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 12.0;

  std::uint64_t expected = 0;
  CostTimePoint best_cost{0, 0, 1e18};
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration config = space.decode(i);
    const Prediction p = predict(demand, config, capacity);
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars) {
      ++expected;
      if (p.cost < best_cost.cost) best_cost = {i, p.seconds, p.cost};
    }
  }

  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(demand, constraints));
  EXPECT_EQ(result.feasible, expected);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(result.min_cost.config_index, best_cost.config_index);
  EXPECT_NEAR(result.min_cost.cost, best_cost.cost, 1e-12);
}

TEST(Sweep, ParetoMatchesBruteForceOnReducedSpace) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  const double demand = 5e14;
  Constraints constraints;
  constraints.deadline_seconds = 12 * 3600.0;
  constraints.budget_dollars = 3.0;

  std::vector<CostTimePoint> feasible;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Prediction p = predict(demand, space.decode(i), capacity);
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars)
      feasible.push_back({i, p.seconds, p.cost});
  }
  const auto expected = pareto_filter(feasible);

  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(demand, constraints));
  ASSERT_EQ(result.pareto.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.pareto[i].config_index, expected[i].config_index);
  }
}

TEST(Sweep, UnconstrainedFindsEverythingFeasible) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(1e12, Constraints{}));
  EXPECT_EQ(result.feasible, space.size());
  EXPECT_TRUE(result.any_feasible);
}

TEST(Sweep, ImpossibleDeadlineFindsNothing) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 1e-6;
  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(1e18, constraints));
  EXPECT_EQ(result.feasible, 0u);
  EXPECT_FALSE(result.any_feasible);
  EXPECT_TRUE(result.pareto.empty());
}

TEST(Sweep, MinTimePointIsFullFleet) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(1e15, Constraints{}));
  // The fastest configuration is everything maxed out.
  const Configuration fastest = space.decode(result.min_time.config_index);
  for (const int count : fastest) EXPECT_EQ(count, 2);
}

TEST(Sweep, SampledScatterRespectsStride) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  SweepOptions options;
  options.sample_stride = 100;
  options.collect_pareto = false;
  const SweepResult result =
      sweep(space, capacity, table3(),
            Query::make(1e12, Constraints{}, options));
  EXPECT_NEAR(static_cast<double>(result.feasible_points.size()),
              static_cast<double>(result.feasible) / 100.0,
              static_cast<double>(result.feasible) / 100.0 * 0.2 + 20);
}

TEST(Sweep, DeterministicAcrossRuns) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  const double demand = 9e15;
  const SweepResult a =
      sweep(space, capacity, table3(), Query::make(demand, constraints));
  const SweepResult b =
      sweep(space, capacity, table3(), Query::make(demand, constraints));
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.min_cost.config_index, b.min_cost.config_index);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    EXPECT_EQ(a.pareto[i].config_index, b.pareto[i].config_index);
}

TEST(Sweep, ParetoPointsAreFeasibleAndMutuallyNondominated) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  const SweepResult result =
      sweep(space, capacity, table3(), Query::make(9e15, constraints));
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_LT(p.seconds, constraints.deadline_seconds);
    EXPECT_LT(p.cost, constraints.budget_dollars);
  }
  for (std::size_t i = 0; i < result.pareto.size(); ++i)
    for (std::size_t j = 0; j < result.pareto.size(); ++j)
      if (i != j) {
        EXPECT_FALSE(dominates(result.pareto[i], result.pareto[j]));
      }
}

TEST(Sweep, InvalidInputsThrow) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  EXPECT_THROW(
      sweep(space, capacity, table3(), Query::make(0.0, Constraints{})),
      std::invalid_argument);
  // The capacity was characterized against Table III's limits; a catalog
  // with other limits is a different structure and prices nothing.
  const celia::cloud::Catalog other_limits = table3().with_limits(
      "limit-1", "test", std::vector<int>(table3().size(), 1));
  EXPECT_THROW(
      sweep(space, capacity, other_limits, Query::make(1e12, Constraints{})),
      std::invalid_argument);
  EXPECT_THROW(for_each_configuration(space, capacity, other_limits,
                                      [](std::uint64_t, double, double) {}),
               std::invalid_argument);
}

TEST(Sweep, ExplicitPoolIsUsed) {
  celia::parallel::ThreadPool pool(2);
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  SweepOptions options;
  options.pool = &pool;
  const SweepResult result =
      sweep(space, capacity, table3(),
            Query::make(1e12, Constraints{}, options));
  EXPECT_EQ(result.feasible, space.size());
}

}  // namespace

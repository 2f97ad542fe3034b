// Tests for risk-aware selection (Constraints::confidence_z) and the
// rate-spread estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "cloud/vm.hpp"
#include "core/capacity.hpp"
#include "core/celia.hpp"
#include "core/query.hpp"

namespace {

using namespace celia::core;
using celia::cloud::CloudProvider;

const celia::cloud::Catalog& table3() {
  return celia::cloud::Catalog::ec2_table3();
}

ResourceCapacity flat_capacity() {
  return ResourceCapacity(std::vector<double>(9, 1e9), table3());
}

TEST(RobustSweep, ZeroZMatchesDeterministic) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  Constraints det;
  det.deadline_seconds = 24 * 3600.0;
  Constraints zeroed = det;
  zeroed.confidence_z = 0.0;
  zeroed.rate_sigma = 0.06;  // sigma without z must be ignored
  SweepOptions options;
  options.collect_pareto = false;
  const auto a =
      sweep(space, capacity, table3(), Query::make(9e15, det, options));
  const auto b =
      sweep(space, capacity, table3(), Query::make(9e15, zeroed, options));
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.min_cost.config_index, b.min_cost.config_index);
}

TEST(RobustSweep, HigherConfidenceNeverCheaper) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  SweepOptions options;
  options.collect_pareto = false;
  double previous_cost = 0.0;
  for (const double z : {0.0, 1.0, 1.645, 2.326}) {
    Constraints constraints;
    constraints.deadline_seconds = 24 * 3600.0;
    constraints.confidence_z = z;
    constraints.rate_sigma = 0.06;
    const auto result =
        sweep(space, capacity, table3(),
              Query::make(9e15, constraints, options));
    ASSERT_TRUE(result.any_feasible) << "z=" << z;
    EXPECT_GE(result.min_cost.cost, previous_cost - 1e-9) << "z=" << z;
    previous_cost = result.min_cost.cost;
  }
}

TEST(RobustSweep, FeasibleSetShrinksWithConfidence) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  SweepOptions options;
  options.collect_pareto = false;
  Constraints det;
  det.deadline_seconds = 24 * 3600.0;
  const auto loose =
      sweep(space, capacity, table3(), Query::make(9e15, det, options));
  Constraints strict = det;
  strict.confidence_z = 2.0;
  strict.rate_sigma = 0.10;
  const auto tight =
      sweep(space, capacity, table3(), Query::make(9e15, strict, options));
  EXPECT_LT(tight.feasible, loose.feasible);
}

TEST(RobustSweep, PessimisticTimeMatchesHandComputation) {
  // Single-type configurations have V = m (W sigma)^2, so the pessimistic
  // capacity is m W - z sqrt(m) W sigma.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  Constraints constraints;
  constraints.confidence_z = 1.645;
  constraints.rate_sigma = 0.06;
  SweepOptions options;
  options.collect_pareto = false;
  const double demand = 1e15;
  const auto result =
      sweep(space, capacity, table3(),
            Query::make(demand, constraints, options));
  ASSERT_TRUE(result.any_feasible);

  // Check the reported seconds of a known configuration: [5,0,...,0]
  // (5 x c4.large = 10 vCPUs at 1e9): U = 1e10, sigma_U = sqrt(5) * 2e9
  // * 0.06.
  Configuration probe(9, 0);
  probe[0] = 5;
  const std::uint64_t index = space.encode(probe);
  // Recover via a fresh sweep storing all feasible points is overkill;
  // recompute directly instead.
  const double u = 5 * 2e9;
  const double sigma_u = std::sqrt(5.0) * 2e9 * 0.06;
  const double expected_seconds = demand / (u - 1.645 * sigma_u);
  // The sweep's min_time point is the full fleet, not our probe, so just
  // verify the formula via a 1-configuration space.
  (void)index;
  ConfigurationSpace tiny(std::vector<int>{5, 0, 0, 0, 0, 0, 0, 0, 0});
  const auto tiny_result =
      sweep(tiny, capacity, table3(),
            Query::make(demand, constraints, options));
  ASSERT_TRUE(tiny_result.any_feasible);
  // The last configuration in the tiny space is [5,0,...]; min_time picks
  // the largest capacity = 5 nodes.
  EXPECT_NEAR(tiny_result.min_time.seconds, expected_seconds,
              expected_seconds * 1e-12);
}

TEST(RobustSweep, ImpossibleConfidenceFindsNothing) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = flat_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.confidence_z = 50.0;  // pessimistic capacity goes negative
  constraints.rate_sigma = 0.5;
  SweepOptions options;
  options.collect_pareto = false;
  const auto result =
      sweep(space, capacity, table3(), Query::make(9e15, constraints, options));
  EXPECT_EQ(result.feasible, 0u);
}

TEST(EstimateRateSigma, RecoversTheNoiseModel) {
  CloudProvider provider(123);
  const auto app = celia::apps::make_galaxy();
  const double sigma = estimate_rate_sigma(*app, provider, 0, 40);
  EXPECT_NEAR(sigma, celia::cloud::kSpeedSigma, 0.03);
}

TEST(EstimateRateSigma, ValidatesSampleCount) {
  CloudProvider provider(1);
  const auto app = celia::apps::make_galaxy();
  EXPECT_THROW(estimate_rate_sigma(*app, provider, 0, 1),
               std::invalid_argument);
}

}  // namespace

// Property-style parameterized sweeps over CELIA's core machinery:
// configuration-space roundtrips across space shapes, Pareto-filter
// invariants across random seeds, and sweep-vs-brute-force equivalence
// across constraint settings.

#include <gtest/gtest.h>

#include <vector>

#include "cloud/pricing.hpp"
#include "core/enumerate.hpp"
#include "core/pareto.hpp"
#include "core/query.hpp"
#include "core/time_cost.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;

// ---------------------------------------------------------------------------
// Encode/decode roundtrip over differently-shaped spaces.
// ---------------------------------------------------------------------------

class SpaceRoundTrip
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SpaceRoundTrip, EveryIndexRoundTrips) {
  const ConfigurationSpace space(GetParam());
  ASSERT_LE(space.size(), 100000u) << "keep property spaces small";
  for (std::uint64_t index = 0; index < space.size(); ++index) {
    EXPECT_EQ(space.encode(space.decode(index)), index);
  }
}

TEST_P(SpaceRoundTrip, SizeMatchesClosedForm) {
  const ConfigurationSpace space(GetParam());
  std::uint64_t expected = 1;
  for (const int max : GetParam()) expected *= max + 1;
  EXPECT_EQ(space.size(), expected - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpaceRoundTrip,
    ::testing::Values(std::vector<int>{5}, std::vector<int>{1, 1, 1, 1},
                      std::vector<int>{3, 0, 2},  // a type with zero allowed
                      std::vector<int>{9, 9, 9},
                      std::vector<int>{2, 3, 4, 5},
                      std::vector<int>{1, 2, 1, 2, 1, 2, 1, 2, 1}));

// ---------------------------------------------------------------------------
// Pareto-filter invariants over random point clouds.
// ---------------------------------------------------------------------------

class ParetoProperties : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<CostTimePoint> cloud_points(std::uint64_t seed, std::size_t n) {
  celia::util::Xoshiro256 rng(seed);
  std::vector<CostTimePoint> points;
  for (std::uint64_t i = 0; i < n; ++i)
    points.push_back({i, rng.uniform(1, 100), rng.uniform(1, 100)});
  return points;
}

TEST_P(ParetoProperties, FrontierPointsAreMutuallyNondominated) {
  const auto frontier = pareto_filter(cloud_points(GetParam(), 500));
  for (const auto& a : frontier)
    for (const auto& b : frontier)
      if (a.config_index != b.config_index) {
        EXPECT_FALSE(dominates(a, b));
      }
}

TEST_P(ParetoProperties, EveryInputPointIsDominatedByOrOnFrontier) {
  const auto points = cloud_points(GetParam(), 500);
  const auto frontier = pareto_filter(points);
  for (const auto& p : points) {
    bool covered = false;
    for (const auto& f : frontier) {
      if (f.config_index == p.config_index || dominates(f, p) ||
          (f.seconds == p.seconds && f.cost == p.cost)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST_P(ParetoProperties, EpsilonFrontierIsNoLargerThanExact) {
  const auto points = cloud_points(GetParam(), 500);
  const auto exact = pareto_filter(points);
  const auto eps = epsilon_nondominated(points, 10.0, 10.0);
  EXPECT_LE(eps.size(), exact.size());
}

TEST_P(ParetoProperties, FilterIsPermutationInvariant) {
  auto points = cloud_points(GetParam(), 300);
  const auto frontier1 = pareto_filter(points);
  celia::util::Xoshiro256 rng(GetParam() + 1);
  for (std::size_t i = points.size(); i > 1; --i)
    std::swap(points[i - 1], points[rng.bounded(i)]);
  const auto frontier2 = pareto_filter(points);
  ASSERT_EQ(frontier1.size(), frontier2.size());
  for (std::size_t i = 0; i < frontier1.size(); ++i)
    EXPECT_EQ(frontier1[i].config_index, frontier2[i].config_index);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

// ---------------------------------------------------------------------------
// Sweep equals brute force across constraint settings.
// ---------------------------------------------------------------------------

struct ConstraintCase {
  double demand;
  double deadline_hours;
  double budget;
};

class SweepEquivalence : public ::testing::TestWithParam<ConstraintCase> {};

TEST_P(SweepEquivalence, FeasibleSetMatchesBruteForce) {
  const ConstraintCase param = GetParam();
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const ResourceCapacity capacity(
      std::vector<double>(
          {1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9, 1.3e9, 1.1e9, 1.1e9, 1.1e9}),
      celia::cloud::Catalog::ec2_table3());
  Constraints constraints;
  constraints.deadline_seconds = param.deadline_hours * 3600.0;
  constraints.budget_dollars = param.budget;

  std::uint64_t expected_feasible = 0;
  std::vector<CostTimePoint> feasible;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Prediction p = predict(param.demand, space.decode(i), capacity);
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars) {
      ++expected_feasible;
      feasible.push_back({i, p.seconds, p.cost});
    }
  }
  const auto expected_pareto = pareto_filter(feasible);

  const SweepResult result =
      sweep(space, capacity, celia::cloud::Catalog::ec2_table3(),
            Query::make(param.demand, constraints));
  EXPECT_EQ(result.feasible, expected_feasible);
  ASSERT_EQ(result.pareto.size(), expected_pareto.size());
  for (std::size_t i = 0; i < expected_pareto.size(); ++i)
    EXPECT_EQ(result.pareto[i].config_index,
              expected_pareto[i].config_index);
}

INSTANTIATE_TEST_SUITE_P(
    Constraintses, SweepEquivalence,
    ::testing::Values(ConstraintCase{1e15, 24, 1e9},   // only deadline
                      ConstraintCase{1e15, 1e9, 15},   // only budget
                      ConstraintCase{1e15, 12, 14},    // both bind
                      ConstraintCase{1e12, 1e9, 1e9},  // nothing binds
                      ConstraintCase{1e18, 24, 350},   // nothing feasible
                      ConstraintCase{5e14, 4, 20}));

// ---------------------------------------------------------------------------
// Billing-policy ordering across durations (continuous <= s <= h).
// ---------------------------------------------------------------------------

class BillingOrdering : public ::testing::TestWithParam<double> {};

TEST_P(BillingOrdering, PoliciesNeverInvert) {
  const std::vector<int> counts = {1, 0, 2, 0, 1, 0, 0, 0, 1};
  const double seconds = GetParam();
  const double continuous = celia::cloud::configuration_cost(
      counts, seconds, celia::cloud::BillingPolicy::kContinuous);
  const double per_second = celia::cloud::configuration_cost(
      counts, seconds, celia::cloud::BillingPolicy::kPerSecond);
  const double per_hour = celia::cloud::configuration_cost(
      counts, seconds, celia::cloud::BillingPolicy::kPerHour);
  EXPECT_LE(continuous, per_second + 1e-12);
  EXPECT_LE(per_second, per_hour + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Durations, BillingOrdering,
                         ::testing::Values(0.5, 59.0, 61.0, 3599.0, 3600.0,
                                           3601.0, 7200.5, 86400.0,
                                           90000.25));

}  // namespace

// Tests for the failure-aware planner (core/reliability.hpp): the renewal
// approximation of the expected makespan, the k-node-loss survivability
// filter, and the full-sweep reliable_min_cost route.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cloud/instance_type.hpp"
#include "core/query.hpp"
#include "core/reliability.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace celia::core;

constexpr double kInf = std::numeric_limits<double>::infinity();

const celia::cloud::Catalog& table3() {
  return celia::cloud::Catalog::ec2_table3();
}

ResourceCapacity test_capacity() {
  std::vector<double> per_vcpu = {1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9,
                                  1.3e9, 1.1e9, 1.1e9, 1.1e9};
  return ResourceCapacity(per_vcpu, table3());
}

TEST(ExpectedMakespan, FailNeverReducesToBase) {
  ReliabilitySpec spec;  // mtbf 0
  EXPECT_DOUBLE_EQ(expected_makespan(1000.0, 8, spec), 1000.0);
}

TEST(ExpectedMakespan, MatchesRenewalFormula) {
  ReliabilitySpec spec;
  spec.mtbf_seconds = 100000.0;
  spec.recovery_seconds = 300.0;
  spec.checkpoint_interval_seconds = 1800.0;
  spec.checkpoint_write_seconds = 30.0;
  const double t0 = 36000.0;
  const int nodes = 4;
  const double t_ck = t0 * (1.0 + 30.0 / 1800.0);
  const double lambda = nodes / spec.mtbf_seconds;
  const double expected = t_ck / (1.0 - lambda * (1800.0 / 2 + 300.0));
  EXPECT_DOUBLE_EQ(expected_makespan(t0, nodes, spec), expected);
  EXPECT_GT(expected, t0);
}

TEST(ExpectedMakespan, NoCheckpointsLoseHalfTheRun) {
  ReliabilitySpec spec;
  spec.mtbf_seconds = 1e6;
  spec.recovery_seconds = 0.0;
  spec.checkpoint_interval_seconds = 0.0;  // disabled
  spec.checkpoint_write_seconds = 30.0;    // irrelevant without writes
  const double t0 = 10000.0;
  const double lambda = 2 / spec.mtbf_seconds;
  EXPECT_DOUBLE_EQ(expected_makespan(t0, 2, spec),
                   t0 / (1.0 - lambda * (t0 / 2)));
}

TEST(ExpectedMakespan, IntervalLongerThanRunChargesNoWriteOverhead) {
  // tau > T0: no checkpoint ever fires, so no write overhead and a failure
  // loses half the run, as if checkpointing were off.
  ReliabilitySpec with_long_tau;
  with_long_tau.mtbf_seconds = 1e6;
  with_long_tau.recovery_seconds = 100.0;
  with_long_tau.checkpoint_interval_seconds = 1e9;
  ReliabilitySpec without;
  without.mtbf_seconds = 1e6;
  without.recovery_seconds = 100.0;
  without.checkpoint_interval_seconds = 0.0;
  EXPECT_DOUBLE_EQ(expected_makespan(5000.0, 3, with_long_tau),
                   expected_makespan(5000.0, 3, without));
}

TEST(ExpectedMakespan, InfeasibleWhenFleetCannotOutrunFailures) {
  ReliabilitySpec spec;
  spec.mtbf_seconds = 600.0;      // one failure per 10 min per node
  spec.recovery_seconds = 300.0;
  spec.checkpoint_interval_seconds = 1800.0;
  // lambda * (tau/2 + R) = (8/600) * 1200 = 16 >= 1: divergent.
  EXPECT_EQ(expected_makespan(36000.0, 8, spec), kInf);
}

TEST(ExpectedMakespan, MonotoneInFailureRate) {
  ReliabilitySpec spec;
  spec.checkpoint_interval_seconds = 1800.0;
  spec.checkpoint_write_seconds = 30.0;
  spec.recovery_seconds = 300.0;
  double previous = 36000.0;  // the fail-never base
  for (const double mtbf : {1e7, 1e6, 3e5}) {
    spec.mtbf_seconds = mtbf;
    const double e = expected_makespan(36000.0, 4, spec);
    EXPECT_GT(e, previous);
    previous = e;
  }
}

TEST(Reliability, ValidateRejectsNegativeFields) {
  ReliabilitySpec spec;
  spec.mtbf_seconds = -1.0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec = {};
  spec.recovery_seconds = -1.0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec = {};
  spec.survive_losses = -1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  EXPECT_NO_THROW(validate(ReliabilitySpec{}));
}

TEST(Reliability, RejectsMalformedQueriesLikeSweep) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  const ReliabilitySpec spec;
  EXPECT_THROW(reliable_min_cost(space, capacity, table3(), -1.0, 3600.0, spec),
               std::invalid_argument);
  EXPECT_THROW(reliable_min_cost(
                   space, capacity, table3(), 1e12,
                   std::numeric_limits<double>::quiet_NaN(), spec),
               std::invalid_argument);
  EXPECT_THROW(reliable_min_cost(space, capacity, table3(), 1e12, -1.0, spec),
               std::invalid_argument);
  // The capacity was characterized against Table III's limits; a catalog
  // of other limits is a different structure.
  const celia::cloud::Catalog other_limits = table3().with_limits(
      "limit-1", "test", std::vector<int>(table3().size(), 1));
  EXPECT_THROW(
      reliable_min_cost(space, capacity, other_limits, 1e12, 3600.0, spec),
      std::invalid_argument);
}

TEST(Reliability, FailNeverSpecMatchesPlainSweep) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const double demand = 5e13;
  const double deadline = 3600.0;

  Constraints constraints;
  constraints.deadline_seconds = deadline;
  const SweepResult swept =
      sweep(space, capacity, table3(), Query::make(demand, constraints));
  const auto reliable = reliable_min_cost(space, capacity, table3(), demand,
                                          deadline, ReliabilitySpec{});
  ASSERT_TRUE(swept.any_feasible);
  ASSERT_TRUE(reliable.has_value());
  EXPECT_EQ(reliable->config_index, swept.min_cost.config_index);
  EXPECT_DOUBLE_EQ(reliable->base_cost, swept.min_cost.cost);
  EXPECT_DOUBLE_EQ(reliable->expected_cost, reliable->base_cost);
  EXPECT_DOUBLE_EQ(reliable->expected_seconds, reliable->base_seconds);
  EXPECT_DOUBLE_EQ(reliable->expected_failures, 0.0);
}

TEST(Reliability, PricesComeFromTheCatalog) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const double demand = 1e14;
  const double deadline = 3600.0;
  ReliabilitySpec spec;
  spec.mtbf_seconds = 20 * 3600.0;
  const auto at_table3 =
      reliable_min_cost(space, capacity, table3(), demand, deadline, spec);
  ASSERT_TRUE(at_table3.has_value());

  // Doubling every price doubles every quote exactly: same pick, same
  // times, twice the bill.
  const celia::cloud::Catalog doubled_catalog =
      table3().with_price_multiplier("doubled", "test", 2.0);
  const auto doubled = reliable_min_cost(space, capacity, doubled_catalog,
                                         demand, deadline, spec);
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled->config_index, at_table3->config_index);
  EXPECT_EQ(doubled->expected_seconds, at_table3->expected_seconds);
  EXPECT_DOUBLE_EQ(doubled->base_cost, 2.0 * at_table3->base_cost);
  EXPECT_DOUBLE_EQ(doubled->expected_cost, 2.0 * at_table3->expected_cost);

  // A skewed repricing moves the fail-never pick exactly as the sweep over
  // the same catalog moves it.
  std::vector<double> skewed(table3().hourly_costs().begin(),
                             table3().hourly_costs().end());
  for (std::size_t i = 0; i < skewed.size(); i += 2) skewed[i] *= 3.0;
  const celia::cloud::Catalog skewed_catalog =
      table3().repriced("skewed", "test", skewed);
  const auto reliable = reliable_min_cost(space, capacity, skewed_catalog,
                                          demand, deadline, ReliabilitySpec{});
  Constraints constraints;
  constraints.deadline_seconds = deadline;
  const SweepResult swept = sweep(space, capacity, skewed_catalog,
                                  Query::make(demand, constraints));
  ASSERT_TRUE(reliable.has_value());
  ASSERT_TRUE(swept.any_feasible);
  EXPECT_EQ(reliable->config_index, swept.min_cost.config_index);
  EXPECT_DOUBLE_EQ(reliable->base_cost, swept.min_cost.cost);
  const auto fail_never_table3 = reliable_min_cost(
      space, capacity, table3(), demand, deadline, ReliabilitySpec{});
  ASSERT_TRUE(fail_never_table3.has_value());
  EXPECT_NE(reliable->config_index, fail_never_table3->config_index);
}

TEST(Reliability, FailureAwarePickIsMoreConservativeAndCostsMore) {
  const ConfigurationSpace space(std::vector<int>(9, 3));
  const auto capacity = test_capacity();
  const double demand = 2e14;
  // Deadline snug around the fail-never optimum so that pricing failures
  // in forces a faster (more expensive) configuration.
  const auto fail_never =
      reliable_min_cost(space, capacity, table3(), demand, 7200.0,
                        ReliabilitySpec{});
  ASSERT_TRUE(fail_never.has_value());

  ReliabilitySpec spec;
  spec.mtbf_seconds = 200000.0;
  spec.recovery_seconds = 600.0;
  spec.checkpoint_interval_seconds = 900.0;
  spec.checkpoint_write_seconds = 30.0;
  const auto aware =
      reliable_min_cost(space, capacity, table3(), demand, 7200.0, spec);
  ASSERT_TRUE(aware.has_value());
  // The aware pick meets the deadline in expectation, with its base
  // strictly inside it (E[T] >= T0 always).
  EXPECT_LT(aware->base_seconds, 7200.0);
  EXPECT_LT(aware->expected_seconds, 7200.0);
  // The fail-never optimum sits at the deadline edge: under the spec its
  // expected makespan must overshoot (that is the point of the planner).
  EXPECT_GE(aware->base_cost, fail_never->base_cost);
  EXPECT_GT(aware->expected_failures, 0.0);
}

TEST(Reliability, SurvivabilityRequiresStrictlyMoreThanKNodes) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const double demand = 1e13;

  ReliabilitySpec spec;
  spec.survive_losses = 1;
  const auto point =
      reliable_min_cost(space, capacity, table3(), demand, kInf, spec);
  ASSERT_TRUE(point.has_value());
  const Configuration config = space.decode(point->config_index);
  int instances = 0;
  for (const int c : config) instances += c;
  EXPECT_GT(instances, 1);

  // With an unbounded deadline and k = 1, the cheapest qualifying config
  // is simply the cheapest multi-node one; compare against a tiny brute
  // force over the space.
  double best_cost = kInf;
  const auto hourly = table3().hourly_costs();
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration c = space.decode(i);
    int n = 0;
    double u = 0.0, cu = 0.0;
    for (std::size_t t = 0; t < c.size(); ++t) {
      n += c[t];
      u += c[t] * capacity.rate(t);
      cu += c[t] * hourly[t];
    }
    if (n <= 1) continue;
    const double cost = demand / u / 3600.0 * cu;
    best_cost = std::min(best_cost, cost);
  }
  // Summation order differs from the sweep's walk, so compare with a
  // relative tolerance rather than bitwise.
  EXPECT_NEAR(point->expected_cost, best_cost, 1e-9 * best_cost);
}

TEST(Reliability, SurvivabilityFiltersDeadlineEdgeConfigs) {
  // Single-type spaces: demand/deadline sized so that j nodes of type 0
  // meet the deadline only for j >= 3, hence surviving k losses needs
  // j >= 3 + k. Within one type every feasible count costs the same
  // (perfect elasticity), so the pick itself cannot discriminate — the
  // node cap turns the survivability requirement into a feasibility cliff.
  const auto capacity = test_capacity();
  const double rate = capacity.rate(0);
  const double deadline = 3600.0;
  const double demand = 2.5 * rate * deadline;  // needs capacity > 2.5 nodes

  const ConfigurationSpace three{{3, 0, 0, 0, 0, 0, 0, 0, 0}};
  ReliabilitySpec none;
  const auto loose =
      reliable_min_cost(three, capacity, table3(), demand, deadline, none);
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(three.decode(loose->config_index)[0], 3);

  // One loss pushes the requirement to 4 nodes: beyond the 3-node cap.
  ReliabilitySpec k1;
  k1.survive_losses = 1;
  EXPECT_FALSE(
      reliable_min_cost(three, capacity, table3(), demand, deadline, k1)
          .has_value());

  // A 4-node cap admits it again — and exactly at 4 nodes.
  const ConfigurationSpace four{{4, 0, 0, 0, 0, 0, 0, 0, 0}};
  const auto tight =
      reliable_min_cost(four, capacity, table3(), demand, deadline, k1);
  ASSERT_TRUE(tight.has_value());
  EXPECT_EQ(four.decode(tight->config_index)[0], 4);

  // Two losses need 5 nodes: infeasible under the 4-node cap.
  ReliabilitySpec k2;
  k2.survive_losses = 2;
  EXPECT_FALSE(
      reliable_min_cost(four, capacity, table3(), demand, deadline, k2)
          .has_value());
}

TEST(Reliability, ExactTiesPickTheLowestConfigIndexOnAnyThreadCount) {
  // test_capacity() gives the three sizes of a family one per-vCPU rate
  // and m4 prices are linear in size, so e.g. 2x m4.xlarge and 1x
  // m4.2xlarge tie exactly in (cost, seconds). At these deadlines the
  // min-cost pick belongs to a tie class of 3-4 configurations. On the
  // limit-3 space they all fall in one 4-thread block; on its c4+m4 slice
  // the 4-thread split puts them in different blocks.
  const auto capacity = test_capacity();
  celia::parallel::ThreadPool one(1), four(4);
  const double demand = 1e14;
  for (const ConfigurationSpace& space :
       {ConfigurationSpace(std::vector<int>(9, 3)),
        ConfigurationSpace({3, 3, 3, 3, 3, 3, 0, 0, 0})}) {
    for (const double deadline : {1000.0, 1200.0, 1400.0}) {
      SCOPED_TRACE(std::to_string(space.size()) + " configurations, T' " +
                   std::to_string(deadline));
      const auto serial =
          reliable_min_cost(space, capacity, table3(), demand, deadline,
                            ReliabilitySpec{}, &one);
      const auto parallel =
          reliable_min_cost(space, capacity, table3(), demand, deadline,
                            ReliabilitySpec{}, &four);
      ASSERT_TRUE(serial.has_value());
      ASSERT_TRUE(parallel.has_value());
      EXPECT_EQ(serial->config_index, parallel->config_index);

      // Fail-never quotes are the sweep kernel's doubles, so the sampled
      // sweep lists every member of the pick's tie class.
      Constraints constraints;
      constraints.deadline_seconds = deadline;
      SweepOptions options;
      options.sample_stride = 1;
      options.collect_pareto = false;
      const SweepResult all = sweep(space, capacity, table3(),
                                    Query::make(demand, constraints, options));
      std::uint64_t lowest = space.size();
      int tie_class = 0;
      for (const CostTimePoint& point : all.feasible_points) {
        if (point.cost == serial->expected_cost &&
            point.seconds == serial->expected_seconds) {
          lowest = std::min(lowest, point.config_index);
          ++tie_class;
        }
      }
      EXPECT_GT(tie_class, 1);
      EXPECT_EQ(serial->config_index, lowest);
    }
  }
}

}  // namespace

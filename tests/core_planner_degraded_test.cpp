// Tests for the PlannerEngine degradation ladder (PlanBudget): cached
// index → build → fresh sweep (kDegradedSweep) → truncated sweep
// (kTruncatedSweep), with the route always observable in
// SweepResult::route and the engine counters exact.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/planner_engine.hpp"
#include "obs/metrics.hpp"
#include "util/resilience.hpp"

namespace {

using namespace celia::core;
using celia::cloud::Catalog;
using celia::util::DeadlineBudget;
namespace obs = celia::obs;

/// 6 Table III types with uniform limit 3 — 4^6 - 1 = 4095 configurations
/// (the same small fixture as the PlannerEngine tests).
std::shared_ptr<const Catalog> alpha() {
  static const auto catalog = [] {
    const auto& table3 = Catalog::ec2_table3();
    return std::make_shared<const Catalog>(
        "alpha", "test-1",
        std::vector<celia::cloud::InstanceType>{table3.types().begin(),
                                                table3.types().begin() + 6},
        std::vector<int>{3, 3, 3, 3, 3, 3});
  }();
  return catalog;
}

const ResourceCapacity& small_capacity() {
  static const ResourceCapacity capacity = [] {
    std::vector<double> per_vcpu(alpha()->size());
    for (std::size_t i = 0; i < per_vcpu.size(); ++i)
      per_vcpu[i] = 1.1e9 + 3.7e7 * static_cast<double>(i);
    return ResourceCapacity(std::move(per_vcpu), *alpha());
  }();
  return capacity;
}

Query small_query(double deadline_hours) {
  Constraints constraints;
  constraints.deadline_seconds = deadline_hours * 3600.0;
  SweepOptions options;
  options.collect_pareto = false;
  return Query::make(1e13, constraints, options);
}

/// Budget with `remaining` seconds left, costed so that an index build
/// takes 10 s and a full sweep 2 s.
PlanBudget budget_with(double remaining) {
  PlanBudget budget;
  budget.deadline = DeadlineBudget::until(remaining);
  budget.index_build_cost_seconds = 10.0;
  budget.sweep_cost_seconds = 2.0;
  return budget;
}

TEST(PlannerDegraded, DefaultBudgetTakesTheLegacyRoute) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  const SweepResult result =
      engine.plan("alpha", small_capacity(), small_query(1.0));
  EXPECT_EQ(result.route, QueryRoute::kIndex);
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
  EXPECT_GT(engine.cached_index_bytes(), 0u);
}

TEST(PlannerDegraded, TightBudgetFallsBackToAFreshSweepWithEqualAnswers) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  obs::Counter& degraded =
      obs::counter("celia_planner_engine_degraded_total");
  const auto d0 = degraded.value();

  // 5 s left: not enough to build (10 s), enough to sweep (2 s).
  const Query query = small_query(1.0);
  const SweepResult slow =
      engine.plan("alpha", small_capacity(), query, budget_with(5.0));
  EXPECT_EQ(slow.route, QueryRoute::kDegradedSweep);
  EXPECT_EQ(degraded.value() - d0, 1u);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);  // nothing was cached

  // The degraded answer is EXACTLY the unconstrained answer.
  const SweepResult full = engine.plan("alpha", small_capacity(), query);
  ASSERT_TRUE(full.any_feasible);
  EXPECT_EQ(slow.any_feasible, full.any_feasible);
  EXPECT_EQ(slow.min_cost.config_index, full.min_cost.config_index);
  EXPECT_EQ(slow.min_cost.cost, full.min_cost.cost);
  EXPECT_EQ(slow.min_time.config_index, full.min_time.config_index);
  EXPECT_EQ(slow.feasible, full.feasible);
}

TEST(PlannerDegraded, CachedIndexServesEvenTheTightestBudget) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  (void)engine.plan("alpha", small_capacity(), small_query(1.0));  // build
  obs::Counter& hits = obs::counter("celia_planner_engine_index_hits_total");
  obs::Counter& degraded =
      obs::counter("celia_planner_engine_degraded_total");
  const auto h0 = hits.value(), d0 = degraded.value();

  // An already-expired budget: the cache lookup is free, so the engine
  // still answers from the index rather than degrading.
  const SweepResult result = engine.plan("alpha", small_capacity(),
                                         small_query(0.5), budget_with(0.0));
  EXPECT_EQ(result.route, QueryRoute::kIndex);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(degraded.value() - d0, 0u);
}

TEST(PlannerDegraded, ExhaustedBudgetTruncatesTheSpace) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  obs::Counter& degraded =
      obs::counter("celia_planner_engine_degraded_total");
  obs::Counter& truncated =
      obs::counter("celia_planner_engine_truncated_sweeps_total");
  const auto d0 = degraded.value(), t0 = truncated.value();

  // 1 s left: even a full sweep (2 s) no longer fits. Cap the truncated
  // space well below 4095 configurations.
  PlanBudget budget = budget_with(1.0);
  budget.truncated_sweep_configs = 500;
  const Query query = small_query(1.0);
  const SweepResult result =
      engine.plan("alpha", small_capacity(), query, budget);
  EXPECT_EQ(result.route, QueryRoute::kTruncatedSweep);
  EXPECT_EQ(degraded.value() - d0, 1u);
  EXPECT_EQ(truncated.value() - t0, 1u);
  EXPECT_LE(result.total, 500u);

  // The best-effort answer decodes against the FULL space and is a real
  // feasible point there: re-evaluating the remapped configuration via a
  // fresh index-eligible query must agree on cost.
  ASSERT_TRUE(result.any_feasible);
  const ConfigurationSpace space = ConfigurationSpace::for_catalog(*alpha());
  const Configuration counts = space.decode(result.min_cost.config_index);
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_LE(counts[i], alpha()->limit(i));

  const SweepResult full = engine.plan("alpha", small_capacity(), query);
  ASSERT_TRUE(full.any_feasible);
  // A truncated sweep is best-effort: never better than the full answer.
  EXPECT_GE(result.min_cost.cost, full.min_cost.cost);
  EXPECT_GE(result.min_time.seconds, full.min_time.seconds);
}

TEST(PlannerDegraded, RoomyTruncationCapReproducesTheFullAnswer) {
  // When the cap already covers the whole space, the truncated route must
  // return the exact full-space answer (the remap is the identity).
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  PlanBudget budget = budget_with(0.0);
  budget.truncated_sweep_configs = 1u << 20;
  const Query query = small_query(1.0);
  const SweepResult result =
      engine.plan("alpha", small_capacity(), query, budget);
  EXPECT_EQ(result.route, QueryRoute::kTruncatedSweep);

  const SweepResult full = engine.plan("alpha", small_capacity(), query);
  EXPECT_EQ(result.min_cost.config_index, full.min_cost.config_index);
  EXPECT_EQ(result.min_cost.cost, full.min_cost.cost);
  EXPECT_EQ(result.min_time.config_index, full.min_time.config_index);
  EXPECT_EQ(result.feasible, full.feasible);
  EXPECT_EQ(result.total, full.total);
}

TEST(PlannerDegraded, IneligibleQueriesDegradeToTruncatedSweepsToo) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  obs::Counter& sweeps = obs::counter("celia_planner_engine_sweeps_total");
  obs::Counter& degraded =
      obs::counter("celia_planner_engine_degraded_total");
  const auto s0 = sweeps.value(), d0 = degraded.value();

  Constraints risky;
  risky.deadline_seconds = 3600.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.1;
  const Query query = Query::make(1e13, risky, {});

  // Sweep affordable: the normal ineligible route.
  const SweepResult swept =
      engine.plan("alpha", small_capacity(), query, budget_with(5.0));
  EXPECT_NE(swept.route, QueryRoute::kIndex);
  EXPECT_NE(swept.route, QueryRoute::kTruncatedSweep);
  EXPECT_EQ(sweeps.value() - s0, 1u);
  EXPECT_EQ(degraded.value() - d0, 0u);

  // Sweep unaffordable: the truncated route, even for risk-aware queries.
  const SweepResult rushed =
      engine.plan("alpha", small_capacity(), query, budget_with(1.0));
  EXPECT_EQ(rushed.route, QueryRoute::kTruncatedSweep);
  EXPECT_EQ(degraded.value() - d0, 1u);
}

TEST(PlannerDegraded, CountersStayExactAcrossTheLadder) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  obs::Counter& queries = obs::counter("celia_planner_engine_queries_total");
  obs::Counter& hits = obs::counter("celia_planner_engine_index_hits_total");
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& sweeps = obs::counter("celia_planner_engine_sweeps_total");
  obs::Counter& degraded =
      obs::counter("celia_planner_engine_degraded_total");
  const auto q0 = queries.value(), h0 = hits.value(), b0 = builds.value(),
             s0 = sweeps.value(), d0 = degraded.value();

  (void)engine.plan("alpha", small_capacity(), small_query(1.0),
                    budget_with(5.0));  // degraded sweep
  (void)engine.plan("alpha", small_capacity(), small_query(1.0),
                    budget_with(1.0));  // truncated sweep
  (void)engine.plan("alpha", small_capacity(), small_query(1.0));  // build
  (void)engine.plan("alpha", small_capacity(), small_query(1.0),
                    budget_with(0.0));  // cache hit beats any budget

  EXPECT_EQ(queries.value() - q0, 4u);
  EXPECT_EQ(degraded.value() - d0, 2u);
  EXPECT_EQ(builds.value() - b0, 1u);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(sweeps.value() - s0, 0u);
  // The extended invariant: every query takes exactly one route.
  EXPECT_EQ((hits.value() - h0) + (builds.value() - b0) +
                (sweeps.value() - s0) + (degraded.value() - d0),
            queries.value() - q0);
}

TEST(PlannerDegraded, NearZeroBudgetIsDeterministicAndNeverBuilds) {
  // The serving layer hands plan() whatever deadline remains when a
  // request finally dispatches — possibly (near) zero. The engine must
  // answer with a typed, bounded route every time: never an unbounded
  // index build, never an untyped timeout, and bit-identical answers
  // across repeats.
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& truncated =
      obs::counter("celia_planner_engine_truncated_sweeps_total");
  const Query query = small_query(1.0);

  for (const double remaining : {0.0, 1e-12, 1e-9, 1e-3}) {
    PlannerEngine engine;
    engine.add_catalog("alpha", alpha());
    PlanBudget budget = budget_with(remaining);
    budget.truncated_sweep_configs = 256;

    const auto b0 = builds.value(), t0 = truncated.value();
    const SweepResult first =
        engine.plan("alpha", small_capacity(), query, budget);
    EXPECT_EQ(first.route, QueryRoute::kTruncatedSweep) << remaining;
    EXPECT_LE(first.total, 256u);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const SweepResult again =
          engine.plan("alpha", small_capacity(), query, budget);
      EXPECT_EQ(again.route, QueryRoute::kTruncatedSweep);
      EXPECT_EQ(again.min_cost.config_index, first.min_cost.config_index);
      EXPECT_EQ(again.min_cost.cost, first.min_cost.cost);
      EXPECT_EQ(again.min_time.config_index, first.min_time.config_index);
      EXPECT_EQ(again.feasible, first.feasible);
    }
    // The ladder never attempted a build, and every call was typed.
    EXPECT_EQ(builds.value() - b0, 0u);
    EXPECT_EQ(truncated.value() - t0, 4u);
  }
}

}  // namespace

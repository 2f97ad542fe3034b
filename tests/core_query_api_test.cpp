// Tests for the unified Query API: Query::make validates once and
// Query::with_options re-options a query without changing its answer;
// Query::index_eligible is the one index-eligibility rule; every entry
// point gives a risk-aware query the same answer; SweepResult::route
// reports the path taken; the celia_planner_route_* counters account for
// every query exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cloud/instance_type.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/planner_engine.hpp"
#include "core/query.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;
using celia::cloud::Catalog;
namespace obs = celia::obs;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RandomModel {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  Catalog catalog;
};

RandomModel random_model(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  bool any = false;
  for (auto& count : max_counts) {
    count = static_cast<int>(rng.bounded(4));
    any = any || count > 0;
  }
  if (!any) max_counts[rng.bounded(max_counts.size())] = 2;

  std::vector<double> per_vcpu(celia::cloud::catalog_size());
  for (auto& rate : per_vcpu) rate = rng.uniform(1e8, 2e9);

  std::vector<double> hourly(celia::cloud::catalog_size());
  for (auto& price : hourly) price = rng.uniform(0.05, 1.0);

  const Catalog& table3 = Catalog::ec2_table3();
  return {ConfigurationSpace(max_counts), ResourceCapacity(per_vcpu, table3),
          table3.repriced("random", "test", std::move(hourly))};
}

SweepResult sweep_model(const RandomModel& model, double demand,
                        const Constraints& constraints,
                        SweepOptions options = {}) {
  return sweep(model.space, model.capacity, model.catalog,
               Query::make(demand, constraints, options));
}

void expect_same_result(const SweepResult& expected, const SweepResult& got,
                        const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(expected.total, got.total);
  EXPECT_EQ(expected.feasible, got.feasible);
  EXPECT_EQ(expected.any_feasible, got.any_feasible);
  if (expected.any_feasible && got.any_feasible) {
    EXPECT_EQ(expected.min_cost.config_index, got.min_cost.config_index);
    EXPECT_EQ(expected.min_cost.seconds, got.min_cost.seconds);
    EXPECT_EQ(expected.min_cost.cost, got.min_cost.cost);
    EXPECT_EQ(expected.min_time.config_index, got.min_time.config_index);
    EXPECT_EQ(expected.min_time.seconds, got.min_time.seconds);
    EXPECT_EQ(expected.min_time.cost, got.min_time.cost);
  }
  EXPECT_EQ(expected.pareto, got.pareto);
  // Sampled points are merged in block-completion order, which the thread
  // scheduler perturbs — compare them as multisets.
  auto sorted = [](std::vector<CostTimePoint> points) {
    std::sort(points.begin(), points.end(),
              [](const CostTimePoint& a, const CostTimePoint& b) {
                return a.config_index < b.config_index;
              });
    return points;
  };
  EXPECT_EQ(sorted(expected.feasible_points), sorted(got.feasible_points));
}

TEST(QueryApi, MakeValidatesOnceAndStoresFields) {
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 10.0;
  SweepOptions options;
  options.sample_stride = 3;
  const Query query = Query::make(1e12, constraints, options);
  EXPECT_EQ(query.demand(), 1e12);
  EXPECT_EQ(query.constraints().deadline_seconds, 3600.0);
  EXPECT_EQ(query.constraints().budget_dollars, 10.0);
  EXPECT_EQ(query.options().sample_stride, 3u);

  SweepOptions other;
  other.collect_pareto = false;
  const Query changed = query.with_options(other);
  EXPECT_FALSE(changed.options().collect_pareto);
  EXPECT_EQ(changed.demand(), 1e12);  // demand/constraints carry over
  EXPECT_EQ(changed.constraints().budget_dollars, 10.0);
}

TEST(QueryApi, MakeRejectsMalformedQueries) {
  EXPECT_THROW(Query::make(0.0, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(-1.0, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(kInf, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(std::nan(""), Constraints{}),
               std::invalid_argument);
  Constraints bad;
  bad.deadline_seconds = -1.0;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.budget_dollars = std::nan("");
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.confidence_z = -0.5;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.rate_sigma = kInf;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
}

TEST(QueryApi, WithOptionsAnswersLikeMakeAndKeepsEveryDimension) {
  // Re-optioning keeps the whole validated demand vector, not just the
  // scalar view of dimension 0.
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 20.0;
  celia::apps::DemandVector vector_demand;
  vector_demand.values = {1e13, 4e6, 0.0};
  SweepOptions sampled;
  sampled.sample_stride = 7;
  sampled.collect_pareto = false;
  const Query reoptioned =
      Query::make(vector_demand, constraints).with_options(sampled);
  EXPECT_EQ(reoptioned.demand_vector(), vector_demand);
  EXPECT_EQ(reoptioned.num_dimensions(), 3u);
  EXPECT_EQ(reoptioned.constraints().deadline_seconds, 3600.0);
  EXPECT_EQ(reoptioned.constraints().budget_dollars, 20.0);
  EXPECT_EQ(reoptioned.options().sample_stride, 7u);
  EXPECT_FALSE(reoptioned.options().collect_pareto);

  // And a re-optioned query is answered exactly like one made with those
  // options in the first place.
  celia::util::Xoshiro256 rng(20260805);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = random_model(rng);
    const double demand = std::pow(10.0, rng.uniform(10.0, 15.0));
    Constraints random_constraints;
    random_constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
    random_constraints.budget_dollars = rng.uniform(0.01, 50.0);
    SweepOptions options;
    options.sample_stride = trial % 3 == 0 ? 2 : 0;
    options.collect_pareto = trial % 2 == 0;
    const SweepResult made =
        sweep_model(model, demand, random_constraints, options);
    const SweepResult via_with_options = sweep(
        model.space, model.capacity, model.catalog,
        Query::make(demand, random_constraints).with_options(options));
    expect_same_result(made, via_with_options, "with_options");
    EXPECT_EQ(via_with_options.route, QueryRoute::kSweep);
  }
}

TEST(QueryApi, IndexEligibilityIsOneRule) {
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  EXPECT_TRUE(Query::make(1e12, constraints).index_eligible());

  // A spread without a confidence level (or vice versa) is deterministic.
  Constraints spread_only = constraints;
  spread_only.rate_sigma = 0.05;
  EXPECT_TRUE(Query::make(1e12, spread_only).index_eligible());
  Constraints confidence_only = constraints;
  confidence_only.confidence_z = 1.645;
  EXPECT_TRUE(Query::make(1e12, confidence_only).index_eligible());
  Constraints risky = spread_only;
  risky.confidence_z = 1.645;
  EXPECT_FALSE(Query::make(1e12, risky).index_eligible());

  SweepOptions sampled;
  sampled.sample_stride = 10;
  EXPECT_FALSE(Query::make(1e12, constraints, sampled).index_eligible());

  celia::apps::DemandVector vector_demand;
  vector_demand.values = {1e12, 5e6};
  EXPECT_FALSE(Query::make(vector_demand, constraints).index_eligible());
  EXPECT_TRUE(Query::make(celia::apps::DemandVector::scalar(1e12), constraints)
                  .index_eligible());
}

TEST(QueryApi, RiskAwareQueriesAgreeThroughQueryRoute) {
  // A risk-aware query has one answer whichever entry point takes it: the
  // plain sweep, a sweep() that must decline the index it is offered, and
  // PlannerEngine, which routes by the same eligibility rule.
  Constraints risky;
  risky.deadline_seconds = 7200.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  const Query query = Query::make(1e13, risky);
  celia::util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = random_model(rng);
    // The engine plans over its catalog's whole space, so the catalog
    // carries the model's per-type limits.
    const auto catalog = std::make_shared<const Catalog>(
        model.catalog.with_limits("random", "test", model.space.max_counts()));
    const ConfigurationSpace space = ConfigurationSpace::for_catalog(*catalog);
    const ResourceCapacity capacity = model.capacity.rebound(*catalog);

    const SweepResult direct = sweep(space, capacity, *catalog, query);
    EXPECT_EQ(direct.route, QueryRoute::kSweep);
    EXPECT_TRUE(direct.any_feasible);

    const FrontierIndex index = FrontierIndex::build(space, capacity, *catalog);
    SweepOptions prefer;
    prefer.index_policy = IndexPolicy::Prefer(&index);
    const SweepResult declined =
        sweep(space, capacity, *catalog, query.with_options(prefer));
    EXPECT_EQ(declined.route, QueryRoute::kSweepFallback);
    expect_same_result(direct, declined, "sweep declining the index");

    PlannerEngine engine;
    engine.add_catalog("random", catalog);
    const SweepResult planned = engine.plan("random", capacity, query);
    EXPECT_EQ(planned.route, QueryRoute::kSweep);
    expect_same_result(direct, planned, "PlannerEngine");
    EXPECT_EQ(engine.num_cached_indexes(), 0u);
  }
}

TEST(QueryApi, RouteReportsThePathTaken) {
  celia::util::Xoshiro256 rng(37);
  const RandomModel model = random_model(rng);
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;

  const SweepResult plain = sweep_model(model, 1e12, constraints);
  EXPECT_EQ(plain.route, QueryRoute::kSweep);

  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult via_index = sweep_model(model, 1e12, constraints, options);
  EXPECT_EQ(via_index.route, QueryRoute::kIndex);

  Constraints risky = constraints;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  const SweepResult fell_back = sweep_model(model, 1e12, risky, options);
  EXPECT_EQ(fell_back.route, QueryRoute::kSweepFallback);

  EXPECT_EQ(query_route_name(QueryRoute::kSweep), "sweep");
  EXPECT_EQ(query_route_name(QueryRoute::kIndex), "index");
  EXPECT_EQ(query_route_name(QueryRoute::kSweepFallback), "sweep_fallback");
}

TEST(QueryApi, PreferWithNullIndexThrows) {
  celia::util::Xoshiro256 rng(41);
  const RandomModel model = random_model(rng);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(nullptr);
  EXPECT_THROW(sweep_model(model, 1e12, Constraints{}, options),
               std::invalid_argument);
}

TEST(QueryApi, RouteCountersAccountForEveryQuery) {
  celia::util::Xoshiro256 rng(43);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  // Counters are process-wide, so assert on before/after deltas.
  obs::Counter& sweep_route = obs::counter("celia_planner_route_sweep_total");
  obs::Counter& index_route = obs::counter("celia_planner_route_index_total");
  obs::Counter& fallback_route =
      obs::counter("celia_planner_route_fallback_total");
  const std::uint64_t sweeps_before = sweep_route.value();
  const std::uint64_t index_before = index_route.value();
  const std::uint64_t fallback_before = fallback_route.value();

  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  Constraints risky = constraints;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  SweepOptions prefer;
  prefer.index_policy = IndexPolicy::Prefer(&index);
  for (int i = 0; i < 3; ++i) {
    sweep_model(model, 1e12, constraints);
    sweep_model(model, 1e12, constraints, prefer);
  }
  sweep_model(model, 1e12, risky, prefer);

  EXPECT_EQ(sweep_route.value() - sweeps_before, 3u);
  EXPECT_EQ(index_route.value() - index_before, 3u);
  EXPECT_EQ(fallback_route.value() - fallback_before, 1u);
}

}  // namespace

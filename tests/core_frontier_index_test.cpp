// Property tests for the demand-invariant FrontierIndex
// (core/frontier_index.hpp): every deterministic query must reproduce
// sweep()'s answer exactly — same feasible count, same min-cost/min-time
// configurations with bit-identical doubles, same Pareto frontier.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cloud/instance_type.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;
using celia::cloud::Catalog;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RandomModel {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  Catalog catalog;
};

/// A random small model: 9-wide space (ResourceCapacity is always
/// catalog-wide), random per-vcpu rates and hourly prices.
RandomModel random_model(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  bool any = false;
  for (auto& count : max_counts) {
    count = static_cast<int>(rng.bounded(4));  // 0..3 => space size <= 4^9
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

/// The tie-heavy model: one per-vCPU rate per family on a limit-3 space.
/// Table III prices are linear in size for m4, so e.g. 2x m4.large and
/// 1x m4.xlarge have bit-identical U and Cu and many queries have several
/// exactly tied optima — the lowest config_index must win on every route.
RandomModel tie_heavy_model() {
  const Catalog& table3 = Catalog::ec2_table3();
  return {ConfigurationSpace(std::vector<int>(table3.size(), 3)),
          ResourceCapacity({1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9, 1.3e9, 1.1e9,
                            1.1e9, 1.1e9},
                           table3),
          table3};
}

SweepResult sweep_model(const RandomModel& model, double demand,
                        const Constraints& constraints,
                        SweepOptions options = {}) {
  return sweep(model.space, model.capacity, model.catalog,
               Query::make(demand, constraints, options));
}

/// A random deterministic query shape: both constraints finite (often
/// tight), deadline only, budget only, or unconstrained.
Constraints random_constraints(celia::util::Xoshiro256& rng, double demand) {
  Constraints constraints;
  switch (rng.bounded(4)) {
    case 0:
      constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
      constraints.budget_dollars = rng.uniform(0.01, 50.0);
      break;
    case 1:
      constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
      break;
    case 2:
      constraints.budget_dollars = rng.uniform(0.01, 50.0);
      break;
    case 3:
      break;
  }
  return constraints;
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
  // CostTimePoint's operator== compares all three fields exactly.
  EXPECT_EQ(expected.pareto, got.pareto);
}

/// Answer `queries` random queries against `model` by the sweep at 1 and
/// at 4 threads, by FrontierIndex::query and by sweep() with
/// IndexPolicy::Prefer; every route must agree bit for bit, config_index
/// included.
void expect_routes_agree(const RandomModel& model, int queries,
                         celia::util::Xoshiro256& rng) {
  celia::parallel::ThreadPool one(1);
  celia::parallel::ThreadPool four(4);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  EXPECT_EQ(index.total_configurations(), model.space.size());

  for (int q = 0; q < queries; ++q) {
    SCOPED_TRACE(q);
    const double demand = std::pow(10.0, rng.uniform(10.0, 16.0));
    const Constraints constraints = random_constraints(rng, demand);

    SweepOptions options;
    options.pool = &one;
    const SweepResult expected = sweep_model(model, demand, constraints,
                                             options);
    options.pool = &four;
    expect_same_result(expected,
                       sweep_model(model, demand, constraints, options),
                       "sweep on 4 threads");
    expect_same_result(expected,
                       index.query(Query::make(demand, constraints)),
                       "query");

    options.index_policy = IndexPolicy::Prefer(&index);
    const SweepResult via_sweep =
        sweep_model(model, demand, constraints, options);
    EXPECT_EQ(via_sweep.route, QueryRoute::kIndex);
    expect_same_result(expected, via_sweep, "sweep with IndexPolicy::Prefer");
  }
}

TEST(FrontierIndex, MatchesSweepOnRandomModelsAndQueries) {
  celia::util::Xoshiro256 rng(20170805);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    expect_routes_agree(random_model(rng), 10, rng);
  }
  SCOPED_TRACE("tie-heavy model");
  expect_routes_agree(tie_heavy_model(), 40, rng);
}

TEST(FrontierIndex, EmptyFeasibleSet) {
  celia::util::Xoshiro256 rng(42);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  Constraints constraints;
  constraints.deadline_seconds = 1e-9;  // nothing is this fast
  const SweepResult got = index.query(Query::make(1e15, constraints));
  EXPECT_FALSE(got.any_feasible);
  EXPECT_EQ(got.feasible, 0u);
  EXPECT_TRUE(got.pareto.empty());

  constraints = {};
  constraints.budget_dollars = 0.0;  // strict bound: nothing is free
  const SweepResult broke = index.query(Query::make(1e15, constraints));
  EXPECT_FALSE(broke.any_feasible);
  EXPECT_EQ(broke.feasible, 0u);
}

TEST(FrontierIndex, InfiniteConstraintsCountEveryAttainableConfig) {
  celia::util::Xoshiro256 rng(7);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  const SweepResult expected = sweep_model(model, 1e14, Constraints{});
  const SweepResult got = index.query(Query::make(1e14, Constraints{}));
  expect_same_result(expected, got, "unconstrained");
  // Rates are strictly positive, so every configuration is attainable.
  EXPECT_EQ(got.feasible, model.space.size());
  EXPECT_EQ(index.attainable_configurations(), model.space.size());
}

TEST(FrontierIndex, SingleTypeSpace) {
  std::vector<int> max_counts(celia::cloud::catalog_size(), 0);
  max_counts[0] = 5;
  const ConfigurationSpace space(max_counts);
  const Catalog& catalog = Catalog::ec2_table3();
  const ResourceCapacity capacity(
      std::vector<double>(celia::cloud::catalog_size(), 1e9), catalog);
  const FrontierIndex index = FrontierIndex::build(space, capacity, catalog);
  EXPECT_EQ(index.total_configurations(), 5u);

  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 100.0;
  for (const double demand : {1e9, 1e12, 1e13, 1e14}) {
    const Query query = Query::make(demand, constraints);
    expect_same_result(sweep(space, capacity, catalog, query),
                       index.query(query), "1-type");
  }
}

TEST(FrontierIndex, BuildIsDeterministic) {
  // The build splits the space into one block per pool thread, and each
  // block rejects staircase candidates online against its own partial
  // staircase; the merged staircase must not depend on the split.
  celia::util::Xoshiro256 rng(99);
  const RandomModel random = random_model(rng);
  const RandomModel ties = tie_heavy_model();
  for (const RandomModel* model : {&random, &ties}) {
    SCOPED_TRACE(model == &ties ? "tie-heavy model" : "random model");
    celia::parallel::ThreadPool one(1);
    FrontierIndex::BuildOptions options;
    options.pool = &one;
    const FrontierIndex a = FrontierIndex::build(
        model->space, model->capacity, model->catalog, options);
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      celia::parallel::ThreadPool pool(threads);
      options.pool = &pool;
      const FrontierIndex b = FrontierIndex::build(
          model->space, model->capacity, model->catalog, options);
      EXPECT_EQ(a.content_fingerprint(), b.content_fingerprint());
      ASSERT_EQ(a.frontier().size(), b.frontier().size());
      for (std::size_t i = 0; i < a.frontier().size(); ++i) {
        EXPECT_EQ(a.frontier()[i].u, b.frontier()[i].u);
        EXPECT_EQ(a.frontier()[i].cu, b.frontier()[i].cu);
        EXPECT_EQ(a.frontier()[i].config_index, b.frontier()[i].config_index);
      }
    }
  }
}

TEST(FrontierIndex, StaircaseIsSortedAndAttainable) {
  celia::util::Xoshiro256 rng(5);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  const auto frontier = index.frontier();
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].u, 0.0);
    EXPECT_LT(frontier[i].config_index, model.space.size());
    if (i > 0) {
      EXPECT_LE(frontier[i - 1].u, frontier[i].u);
      // Slopes ascend modulo the dominance margin (near-ties are kept).
      EXPECT_LE(frontier[i - 1].cu / frontier[i - 1].u,
                (frontier[i].cu / frontier[i].u) * (1.0 + 1e-13));
    }
  }
  EXPECT_GT(index.memory_bytes(), 0u);
  EXPECT_GE(index.grid_resolution(), 8u);
}

TEST(FrontierIndex, QueryValidation) {
  celia::util::Xoshiro256 rng(3);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  // Malformed demand never reaches the index: Query::make rejects it.
  EXPECT_THROW(index.query(Query::make(0.0, Constraints{})),
               std::invalid_argument);
  EXPECT_THROW(index.query(Query::make(-1.0, Constraints{})),
               std::invalid_argument);
  Constraints risky;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  EXPECT_THROW(index.query(Query::make(1e12, risky)), std::invalid_argument);
}

TEST(FrontierIndex, SweepRejectsMismatchedIndex) {
  celia::util::Xoshiro256 rng(11);
  const RandomModel a = random_model(rng);
  const RandomModel b = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(a.space, a.capacity, a.catalog);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  EXPECT_THROW(sweep_model(b, 1e12, Constraints{}, options),
               std::invalid_argument);
  // Same model and prices under another catalog identity: the index is
  // pinned to the catalog it was built for, so it is refused too.
  const RandomModel twin{
      a.space, a.capacity,
      a.catalog.repriced("twin", "test",
                         std::vector<double>(a.catalog.hourly_costs().begin(),
                                             a.catalog.hourly_costs().end()))};
  EXPECT_THROW(sweep_model(twin, 1e12, Constraints{}, options),
               std::invalid_argument);
}

TEST(FrontierIndex, MatchesOnlyTheModelAndCatalogItWasBuiltFor) {
  celia::util::Xoshiro256 rng(17);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  // Every index is pinned to a catalog: there is no unpinned state.
  EXPECT_EQ(index.catalog_fingerprint(), model.catalog.fingerprint());
  EXPECT_NE(index.catalog_fingerprint(), 0u);
  EXPECT_TRUE(index.matches(model.space, model.capacity, model.catalog));

  // Another space, other measured rates, other prices or just another
  // catalog identity at the same prices: each is a different model.
  std::vector<int> other_counts = model.space.max_counts();
  other_counts[0] = other_counts[0] == 3 ? 2 : other_counts[0] + 1;
  EXPECT_FALSE(index.matches(ConfigurationSpace(other_counts),
                             model.capacity, model.catalog));
  std::vector<double> other_rates(celia::cloud::catalog_size());
  for (std::size_t i = 0; i < other_rates.size(); ++i)
    other_rates[i] = model.capacity.per_vcpu_rate(i) * 1.5;
  EXPECT_FALSE(index.matches(model.space,
                             ResourceCapacity(other_rates, Catalog::ec2_table3()),
                             model.catalog));
  EXPECT_FALSE(
      index.matches(model.space, model.capacity, Catalog::ec2_table3()));
  const std::vector<double> same_prices(model.catalog.hourly_costs().begin(),
                                        model.catalog.hourly_costs().end());
  EXPECT_FALSE(index.matches(
      model.space, model.capacity,
      model.catalog.repriced("twin", "test", same_prices)));
}

TEST(FrontierIndex, RiskAwareConstraintsFallBackToSweep) {
  celia::util::Xoshiro256 rng(13);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.catalog);
  Constraints risky;
  risky.deadline_seconds = 3600.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  const SweepResult expected = sweep_model(model, 1e13, risky);
  SweepOptions options;
  // Must be ignored: risk-aware needs the sweep — and the fallback is
  // visible in the result's route.
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult got = sweep_model(model, 1e13, risky, options);
  EXPECT_EQ(got.route, QueryRoute::kSweepFallback);
  expect_same_result(expected, got, "risk-aware fallback");
}

TEST(FrontierIndex, ExplicitGridResolutionStillExact) {
  celia::util::Xoshiro256 rng(23);
  const RandomModel model = random_model(rng);
  for (const std::size_t grid : {1u, 2u, 7u, 64u}) {
    FrontierIndex::BuildOptions options;
    options.grid = grid;
    const FrontierIndex index = FrontierIndex::build(
        model.space, model.capacity, model.catalog, options);
    EXPECT_EQ(index.grid_resolution(), grid);
    Constraints constraints;
    constraints.deadline_seconds = 1800.0;
    constraints.budget_dollars = 10.0;
    expect_same_result(sweep_model(model, 3e12, constraints),
                       index.query(Query::make(3e12, constraints)), "grid");
  }
}

TEST(FrontierIndex, BuildValidatesWidths) {
  celia::util::Xoshiro256 rng(29);
  const RandomModel model = random_model(rng);
  // A short price vector can no longer reach an index: the catalog that
  // would carry it refuses to exist.
  std::vector<double> short_hourly(model.space.num_types() - 1, 0.1);
  EXPECT_THROW(
      model.catalog.repriced("short", "test", std::move(short_hourly)),
      std::invalid_argument);
  // A space of the wrong width is still the index's to reject.
  const ConfigurationSpace narrow(
      std::vector<int>(model.space.num_types() - 1, 2));
  EXPECT_THROW(FrontierIndex::build(narrow, model.capacity, model.catalog),
               std::invalid_argument);
}

}  // namespace

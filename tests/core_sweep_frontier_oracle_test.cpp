// Frontier oracle for the sweep (core/enumerate.cpp). Each sweep block
// keeps its Pareto frontier online and takes its min-cost and min-time
// points from the frontier's two ends. The oracle recomputes all of that
// from the full list of feasible points: sweep(..., sample_stride = 1,
// collect_pareto = false) lists every feasible point with the kernels' own
// doubles, before any dominance test. pareto_filter over that list, and
// the cheaper()/faster() minima, must equal the sweep's answer bit for
// bit, config_index included: on tie-heavy and random models, for
// deterministic, risk-aware and 4-D queries, at 1, 2 and 4 threads, and at
// every SIMD level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "apps/demand.hpp"
#include "cloud/catalog.hpp"
#include "cloud/instance_type.hpp"
#include "core/enumerate.hpp"
#include "core/pareto.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;
using celia::apps::DemandDimensions;
using celia::apps::DemandVector;
using celia::cloud::Catalog;
namespace simd = celia::core::simd;

struct Model {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  Catalog catalog;
};

/// One per-vCPU rate per family on a limit-3 Table III space. Prices are
/// linear in size within a family, so e.g. 2x m4.large and 1x m4.xlarge
/// have bit-identical U and Cu: exact ties everywhere.
Model tie_heavy_model() {
  const Catalog& table3 = Catalog::ec2_table3();
  return {ConfigurationSpace(std::vector<int>(table3.size(), 3)),
          ResourceCapacity({1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9, 1.3e9, 1.1e9,
                            1.1e9, 1.1e9},
                           table3),
          table3};
}

/// Random limits (0..3) on a 9-wide space, random rates and prices.
Model random_model(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  bool any = false;
  for (auto& count : max_counts) {
    count = static_cast<int>(rng.bounded(4));
    any = any || count > 0;
  }
  if (!any) max_counts[rng.bounded(max_counts.size())] = 3;
  std::vector<double> per_vcpu(max_counts.size());
  for (auto& rate : per_vcpu) rate = rng.uniform(1e8, 2e9);
  std::vector<double> hourly(max_counts.size());
  for (auto& price : hourly) price = rng.uniform(0.05, 1.0);
  const Catalog& table3 = Catalog::ec2_table3();
  return {ConfigurationSpace(max_counts), ResourceCapacity(per_vcpu, table3),
          table3.repriced("random", "test", std::move(hourly))};
}

/// A 4-D (OLTP schema) model on the limit-2 Table III catalog. With
/// `per_family` every dimension gives the three sizes of a family one
/// per-vCPU rate, so exact ties occur as on the tie-heavy 1-D model.
Model four_dim_model(celia::util::Xoshiro256& rng, bool per_family) {
  const Catalog catalog = Catalog::ec2_table3().with_limits(
      "limit-2", "test", std::vector<int>(celia::cloud::catalog_size(), 2));
  const DemandDimensions& schema = DemandDimensions::oltp();
  std::vector<std::vector<double>> rows(schema.size(),
                                        std::vector<double>(catalog.size()));
  for (auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i)
      row[i] = per_family && i % 3 != 0 ? row[i - 1] : rng.uniform(1e8, 2e9);
  }
  return {ConfigurationSpace::for_catalog(catalog),
          ResourceCapacity(schema, std::move(rows), catalog), catalog};
}

/// Both constraints finite (often tight), deadline only, budget only, or
/// none.
Constraints random_constraints(celia::util::Xoshiro256& rng, double demand) {
  Constraints constraints;
  const std::uint64_t shape = rng.bounded(4);
  if (shape == 0 || shape == 1)
    constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
  if (shape == 0 || shape == 2)
    constraints.budget_dollars = rng.uniform(0.01, 50.0);
  return constraints;
}

Query random_scalar_query(celia::util::Xoshiro256& rng, bool risk_aware) {
  const double demand = std::pow(10.0, rng.uniform(10.0, 16.0));
  Constraints constraints = random_constraints(rng, demand);
  if (risk_aware) {
    constraints.confidence_z = rng.uniform(0.5, 2.5);
    constraints.rate_sigma = rng.uniform(0.02, 0.2);
  }
  return Query::make(demand, constraints);
}

/// Instructions always positive; each other dimension is zero a quarter
/// of the time, so the set of binding dimensions varies.
Query random_four_dim_query(celia::util::Xoshiro256& rng) {
  std::vector<double> demand(DemandDimensions::oltp().size());
  for (std::size_t d = 0; d < demand.size(); ++d)
    demand[d] = d > 0 && rng.bounded(4) == 0
                    ? 0.0
                    : std::pow(10.0, rng.uniform(10.0, 15.0));
  const Constraints constraints = random_constraints(rng, demand[0]);
  return Query::make(DemandVector{demand}, DemandDimensions::oltp(),
                     constraints);
}

/// The oracle's answer: every feasible point from the sampled sweep, then
/// pareto_filter and the total-order minima over that list.
struct Reference {
  std::uint64_t feasible = 0;
  std::vector<CostTimePoint> pareto;
  CostTimePoint min_cost;
  CostTimePoint min_time;
};

Reference reference_answer(const Model& model, const Query& query,
                           celia::parallel::ThreadPool& pool) {
  SweepOptions options;
  options.pool = &pool;
  options.sample_stride = 1;
  options.collect_pareto = false;
  const SweepResult all = sweep(model.space, model.capacity, model.catalog,
                                query.with_options(options));
  Reference reference;
  reference.feasible = all.feasible_points.size();
  EXPECT_EQ(all.feasible, reference.feasible);
  if (all.feasible_points.empty()) return reference;
  reference.min_cost = *std::min_element(all.feasible_points.begin(),
                                         all.feasible_points.end(), cheaper);
  reference.min_time = *std::min_element(all.feasible_points.begin(),
                                         all.feasible_points.end(), faster);
  reference.pareto = pareto_filter(all.feasible_points);
  return reference;
}

void expect_matches(const Reference& expected, const SweepResult& got,
                    bool with_pareto) {
  EXPECT_EQ(got.feasible, expected.feasible);
  EXPECT_EQ(got.any_feasible, expected.feasible > 0);
  if (expected.feasible > 0 && got.any_feasible) {
    // CostTimePoint's operator== compares config_index and both doubles
    // exactly.
    EXPECT_EQ(got.min_cost, expected.min_cost);
    EXPECT_EQ(got.min_time, expected.min_time);
  }
  if (with_pareto) {
    EXPECT_EQ(got.pareto, expected.pareto);
  } else {
    EXPECT_TRUE(got.pareto.empty());
  }
}

/// Answer `query` at 1, 2 and 4 threads and at every SIMD level, with and
/// without Pareto collection; each answer must match the oracle. Returns
/// the oracle frontier's length, so callers can check that their queries
/// exercise more than empty or one-point frontiers.
std::size_t expect_oracle_holds(const Model& model, const Query& query) {
  celia::parallel::ThreadPool one(1), two(2), four(4);
  const simd::Level before = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  const Reference expected = reference_answer(model, query, one);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    simd::set_level(level);
    for (celia::parallel::ThreadPool* pool : {&one, &two, &four}) {
      SCOPED_TRACE(std::string(simd::level_name(simd::active_level())) +
                   ", " + std::to_string(pool->num_threads()) + " threads");
      for (const bool with_pareto : {true, false}) {
        SweepOptions options;
        options.pool = pool;
        options.collect_pareto = with_pareto;
        expect_matches(expected,
                       sweep(model.space, model.capacity, model.catalog,
                             query.with_options(options)),
                       with_pareto);
      }
    }
  }
  simd::set_level(before);
  return expected.pareto.size();
}

TEST(SweepFrontierOracle, TieHeavyDeterministicQueries) {
  celia::util::Xoshiro256 rng(20170819);
  const Model model = tie_heavy_model();
  int long_frontiers = 0;
  for (int q = 0; q < 12; ++q) {
    SCOPED_TRACE(q);
    if (expect_oracle_holds(model, random_scalar_query(rng, false)) > 1)
      ++long_frontiers;
  }
  EXPECT_GT(long_frontiers, 0);
}

TEST(SweepFrontierOracle, TieHeavyRiskAwareQueries) {
  celia::util::Xoshiro256 rng(20170820);
  const Model model = tie_heavy_model();
  int long_frontiers = 0;
  for (int q = 0; q < 12; ++q) {
    SCOPED_TRACE(q);
    if (expect_oracle_holds(model, random_scalar_query(rng, true)) > 1)
      ++long_frontiers;
  }
  EXPECT_GT(long_frontiers, 0);
}

TEST(SweepFrontierOracle, RandomModelsDeterministicAndRiskAware) {
  celia::util::Xoshiro256 rng(20170821);
  int long_frontiers = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE(trial);
    const Model model = random_model(rng);
    for (int q = 0; q < 3; ++q) {
      SCOPED_TRACE(q);
      if (expect_oracle_holds(model, random_scalar_query(rng, q == 2)) > 1)
        ++long_frontiers;
    }
  }
  EXPECT_GT(long_frontiers, 0);
}

TEST(SweepFrontierOracle, FourDimensionalQueries) {
  celia::util::Xoshiro256 rng(20170822);
  for (const bool per_family : {true, false}) {
    SCOPED_TRACE(per_family ? "per-family rates" : "random rates");
    const Model model = four_dim_model(rng, per_family);
    int long_frontiers = 0;
    for (int q = 0; q < 12; ++q) {
      SCOPED_TRACE(q);
      if (expect_oracle_holds(model, random_four_dim_query(rng)) > 1)
        ++long_frontiers;
    }
    EXPECT_GT(long_frontiers, 0);
  }
}

}  // namespace

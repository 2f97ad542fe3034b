// Tests for core::PlannerEngine (core/planner_engine.hpp): named catalog
// snapshots, per-(catalog, model) FrontierIndex caching with exact
// observability counters, and correctness of interleaved concurrent
// queries across multiple catalogs (run under TSan in CI).
//
// Most tests run on a SMALL synthetic pair of catalogs (6 types, limit 3,
// ~4k configurations) — the engine's routing, caching and locking are
// space-size independent, and this keeps the suite fast under TSan/ASan.
// One test (LoadedModelPlansAgainstItsOwnCatalogOnly) exercises the full
// Table III pipeline end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "cloud/catalog.hpp"
#include "cloud/provider.hpp"
#include "core/planner_engine.hpp"
#include "core/serialize.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace celia::core;
using celia::cloud::Catalog;
using celia::cloud::CloudProvider;
namespace obs = celia::obs;

/// 6 Table III types with uniform limit 3 — 4^6 - 1 = 4095 configurations.
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

/// Same structure as alpha(), every price 1.4x — a distinct fingerprint,
/// so a query answered from the wrong catalog's index changes cost.
std::shared_ptr<const Catalog> beta() {
  static const auto catalog = std::make_shared<const Catalog>(
      alpha()->with_price_multiplier("beta", "test-2", 1.4));
  return catalog;
}

/// A capacity "characterized" against the alpha/beta structure.
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

TEST(PlannerEngine, RegistrationAndLookup) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  engine.add_catalog("beta", beta());
  EXPECT_EQ(engine.num_catalogs(), 2u);
  EXPECT_EQ(engine.catalog_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(engine.catalog("beta")->fingerprint(), beta()->fingerprint());
  EXPECT_THROW(engine.catalog("gamma"), std::out_of_range);
  EXPECT_THROW(engine.add_catalog("alpha", alpha()), std::invalid_argument);
  EXPECT_THROW(engine.add_catalog("", alpha()), std::invalid_argument);
  EXPECT_THROW(engine.add_catalog("x", nullptr), std::invalid_argument);
}

TEST(PlannerEngine, ReplaceRepricesTheCachedIndexInPlace) {
  // beta() -> alpha() is a price-only edit (uniform 1/1.4 rescale), so the
  // replace is absorbed as a reprice delta: the cached index is re-derived
  // for the new snapshot without a rebuild, not dropped.
  PlannerEngine engine;
  engine.add_catalog("live", beta());
  (void)engine.plan("live", small_capacity(), small_query(1.0));
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
  engine.add_catalog("live", alpha(), /*replace=*/true);
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
  EXPECT_EQ(engine.catalog("live")->fingerprint(), alpha()->fingerprint());
  // A structural replace (different type count) has no delta path; the
  // stale cache is dropped and the next query rebuilds from scratch.
  engine.add_catalog("live", Catalog::ec2_table3_ptr(), /*replace=*/true);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);
}

TEST(PlannerEngine, ReplaceKeepsTheIndexWhileAnotherNameReferencesIt) {
  PlannerEngine engine;
  engine.add_catalog("live", beta());
  engine.add_catalog("alias", beta());
  (void)engine.plan("live", small_capacity(), small_query(1.0));
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
  engine.add_catalog("live", alpha(), /*replace=*/true);
  // "alias" still serves the old snapshot, so its index survives; the
  // replace also delta-derives alpha's index from it, so both are cached.
  EXPECT_EQ(engine.num_cached_indexes(), 2u);
}

TEST(PlannerEngine, MismatchedCapacityThrowsDescriptively) {
  PlannerEngine engine;
  engine.add_catalog("table3", Catalog::ec2_table3_ptr());
  // small_capacity() was characterized against the 6-type structure, not
  // Table III's 9 types.
  try {
    (void)engine.plan("table3", small_capacity(), small_query(1.0));
    FAIL() << "planning a 6-type capacity against Table III succeeded";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("structurally different"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("table3"), std::string::npos)
        << error.what();
  }
}

TEST(PlannerEngine, LoadedModelPlansAgainstItsOwnCatalogOnly) {
  // Full-pipeline representative: a model restored by load_model carries
  // its catalog; the engine serves it against a matching snapshot and
  // refuses a structurally different one.
  CloudProvider provider(2017);
  const Celia built = Celia::build(*celia::apps::make_galaxy(), provider);
  const Celia loaded = model_from_string(model_to_string(built));
  Query query = [&] {
    Constraints constraints;
    constraints.deadline_seconds = 24 * 3600.0;
    SweepOptions options;
    options.collect_pareto = false;
    return Query::make(loaded.predict_demand({65536, 8000}), constraints,
                       options);
  }();

  PlannerEngine engine;
  engine.add_catalog("oregon", loaded.catalog_ptr());
  const SweepResult served = engine.plan("oregon", loaded, query);
  EXPECT_TRUE(served.any_feasible);
  EXPECT_EQ(served.route, QueryRoute::kIndex);

  engine.add_catalog("small", alpha());
  EXPECT_THROW((void)engine.plan("small", loaded, query),
               std::invalid_argument);
}

TEST(PlannerEngine, ResultsMatchDirectSweepsPerCatalog) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  engine.add_catalog("beta", beta());
  const ConfigurationSpace space = ConfigurationSpace::for_catalog(*alpha());
  for (const double hours : {0.5, 1.0, 2.0, 4.0}) {
    const Query query = small_query(hours);
    for (const auto& name : {"alpha", "beta"}) {
      const SweepResult expected =
          sweep(space, small_capacity(), *engine.catalog(name), query);
      const SweepResult got = engine.plan(name, small_capacity(), query);
      ASSERT_EQ(got.any_feasible, expected.any_feasible) << name;
      EXPECT_EQ(got.feasible, expected.feasible) << name;
      EXPECT_EQ(got.min_cost.config_index, expected.min_cost.config_index);
      EXPECT_EQ(got.min_cost.cost, expected.min_cost.cost) << name;
      EXPECT_EQ(got.min_cost.seconds, expected.min_cost.seconds) << name;
      EXPECT_EQ(got.min_time.config_index, expected.min_time.config_index);
      EXPECT_EQ(got.route, QueryRoute::kIndex) << name;
    }
  }
  // Same structure, different prices and identity: the two catalogs never
  // share a cached index.
  EXPECT_EQ(engine.num_cached_indexes(), 2u);
  // And beta really is 1.4x alpha at the same optimum, so an answer from
  // the wrong cache would be visibly mispriced.
  const SweepResult a = engine.plan("alpha", small_capacity(),
                                    small_query(1.0));
  const SweepResult b = engine.plan("beta", small_capacity(),
                                    small_query(1.0));
  EXPECT_NEAR(b.min_cost.cost, 1.4 * a.min_cost.cost,
              1e-12 * b.min_cost.cost);
}

TEST(PlannerEngineCounters, EligibilityRoutesAndCountsExactly) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  obs::Counter& queries = obs::counter("celia_planner_engine_queries_total");
  obs::Counter& hits = obs::counter("celia_planner_engine_index_hits_total");
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& sweeps = obs::counter("celia_planner_engine_sweeps_total");
  const auto q0 = queries.value(), h0 = hits.value(), b0 = builds.value(),
             s0 = sweeps.value();

  (void)engine.plan("alpha", small_capacity(), small_query(1.0));  // build
  (void)engine.plan("alpha", small_capacity(), small_query(0.5));  // hit
  (void)engine.plan("alpha", small_capacity(), small_query(2.0));  // hit

  // A risk-aware query is index-ineligible: full sweep, cache untouched.
  Constraints risky;
  risky.deadline_seconds = 3600.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.1;
  const SweepResult risk_result =
      engine.plan("alpha", small_capacity(), Query::make(1e13, risky, {}));
  EXPECT_NE(risk_result.route, QueryRoute::kIndex);

  EXPECT_EQ(queries.value() - q0, 4u);
  EXPECT_EQ(builds.value() - b0, 1u);
  EXPECT_EQ(hits.value() - h0, 2u);
  EXPECT_EQ(sweeps.value() - s0, 1u);
  // The accounting invariant: every query is exactly one of the three.
  EXPECT_EQ((hits.value() - h0) + (builds.value() - b0) +
                (sweeps.value() - s0),
            queries.value() - q0);
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
}

TEST(PlannerEngineConcurrent, InterleavedQueriesAcrossTwoCatalogsAreExact) {
  // The acceptance scenario: one engine, two catalogs, many threads
  // interleaving queries against both. Each answer must come from the
  // catalog it was addressed to (the prices differ, so cross-catalog
  // cache contamination changes costs), and after a serial warm-up the
  // counters must show EXACTLY one cached-index hit per concurrent query.
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  engine.add_catalog("beta", beta());

  const std::vector<double> ladder = {0.3, 0.5, 0.8, 1.0, 2.0, 4.0};
  const char* names[] = {"alpha", "beta"};
  // Expected answers, computed from indexes built OUTSIDE the engine (the
  // index-vs-sweep exactness is proven in ResultsMatchDirectSweepsPerCatalog;
  // this test is about the engine's routing under contention).
  const ConfigurationSpace space = ConfigurationSpace::for_catalog(*alpha());
  SweepResult expected[2][6];
  for (int c = 0; c < 2; ++c) {
    const FrontierIndex index = FrontierIndex::build(
        space, small_capacity(), *engine.catalog(names[c]), {});
    for (std::size_t d = 0; d < ladder.size(); ++d)
      expected[c][d] = index.query(small_query(ladder[d]));
  }

  obs::Counter& queries = obs::counter("celia_planner_engine_queries_total");
  obs::Counter& hits = obs::counter("celia_planner_engine_index_hits_total");
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& sweeps = obs::counter("celia_planner_engine_sweeps_total");

  // Serial warm-up: exactly one build per catalog.
  const auto b0 = builds.value();
  (void)engine.plan("alpha", small_capacity(), small_query(1.0));
  (void)engine.plan("beta", small_capacity(), small_query(1.0));
  ASSERT_EQ(builds.value() - b0, 2u);
  ASSERT_EQ(engine.num_cached_indexes(), 2u);

  const auto q0 = queries.value(), h0 = hits.value(), b1 = builds.value(),
             s0 = sweeps.value();
  constexpr int kThreads = 8;
  constexpr int kRounds = 32;
  std::atomic<int> wrong_answers{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t d = 0; d < ladder.size(); ++d) {
          // Threads start on different catalogs so both are always in
          // flight at once.
          const int c = (t + round + static_cast<int>(d)) % 2;
          const SweepResult got = engine.plan(names[c], small_capacity(),
                                              small_query(ladder[d]));
          const SweepResult& want = expected[c][d];
          if (got.min_cost.config_index != want.min_cost.config_index ||
              got.min_cost.cost != want.min_cost.cost ||
              got.min_time.config_index != want.min_time.config_index ||
              got.feasible != want.feasible)
            wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_answers.load(), 0);
  const auto total =
      static_cast<std::uint64_t>(kThreads) * kRounds * ladder.size();
  EXPECT_EQ(queries.value() - q0, total);
  // Every concurrent query hit the already-built index for its catalog:
  // no spurious rebuilds, no sweep fallbacks, hits account for all of it.
  EXPECT_EQ(hits.value() - h0, total);
  EXPECT_EQ(builds.value() - b1, 0u);
  EXPECT_EQ(sweeps.value() - s0, 0u);
  EXPECT_EQ(engine.num_cached_indexes(), 2u);
}

TEST(PlannerEngineConcurrent, RacingFirstQueriesBuildEachIndexOnce) {
  // No warm-up: many threads race the FIRST query against both catalogs.
  // Each catalog is built exactly once; the racers that lose wait for
  // that build and count as hits, so hits + builds == queries exactly.
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  engine.add_catalog("beta", beta());

  obs::Counter& queries = obs::counter("celia_planner_engine_queries_total");
  obs::Counter& hits = obs::counter("celia_planner_engine_index_hits_total");
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& sweeps = obs::counter("celia_planner_engine_sweeps_total");
  const auto q0 = queries.value(), h0 = hits.value(), b0 = builds.value(),
             s0 = sweeps.value();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      (void)engine.plan(t % 2 ? "beta" : "alpha", small_capacity(),
                        small_query(1.0));
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(queries.value() - q0, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(sweeps.value() - s0, 0u);
  EXPECT_EQ((hits.value() - h0) + (builds.value() - b0),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(builds.value() - b0, 2u);  // one build per catalog
  EXPECT_EQ(engine.num_cached_indexes(), 2u);
}

TEST(PlannerEngineConcurrent, ReadsDoNotWaitForAReprice) {
  // A price-only replace parks inside its reprice (the fault-injection
  // hook blocks there). A read on the same name must not wait for it: it
  // answers at once, at the pre-replace snapshot.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  PlannerEngineOptions options;
  options.delta_fault_injection = [&parked, released](std::size_t) {
    parked.set_value();
    released.wait();
  };
  PlannerEngine engine(options);
  engine.add_catalog("live", beta());
  const SweepResult before =
      engine.plan("live", small_capacity(), small_query(1.0));
  ASSERT_EQ(engine.num_cached_indexes(), 1u);

  std::thread replace(
      [&] { engine.add_catalog("live", alpha(), /*replace=*/true); });
  parked.get_future().wait();
  std::future<SweepResult> read = std::async(std::launch::async, [&] {
    return engine.plan("live", small_capacity(), small_query(1.0));
  });
  const bool answered = read.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.set_value();
  replace.join();

  EXPECT_TRUE(answered) << "plan() waited for a reprice";
  const SweepResult during = read.get();
  EXPECT_EQ(during.feasible, before.feasible);
  EXPECT_EQ(during.min_cost.config_index, before.min_cost.config_index);
  EXPECT_EQ(during.min_cost.cost, before.min_cost.cost);
  // The replace then committed its repriced index.
  EXPECT_EQ(engine.catalog("live")->fingerprint(), alpha()->fingerprint());
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
}

TEST(PlannerEngineConcurrent, BuildForARetiredCatalogIsNotCached) {
  // The first query's build is in flight when a replace retires its
  // catalog. The build still answers that query, but no name serves its
  // catalog any more, so nothing could reach the index: it is not cached.
  celia::parallel::ThreadPool pool(1);
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> worker = pool.submit([&parked, released] {
    parked.set_value();
    released.wait();
  });
  parked.get_future().wait();

  obs::Counter& frontier_builds = obs::counter("celia_frontier_builds_total");
  const auto f0 = frontier_builds.value();
  PlannerEngine engine;
  engine.add_catalog("live", beta());
  std::future<SweepResult> read = std::async(std::launch::async, [&] {
    Constraints constraints;
    constraints.deadline_seconds = 3600.0;
    SweepOptions options;
    options.collect_pareto = false;
    options.pool = &pool;
    return engine.plan("live", small_capacity(),
                       Query::make(1e13, constraints, options));
  });
  // The build counts itself before its passes reach the parked worker.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  while (frontier_builds.value() == f0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_NE(frontier_builds.value(), f0) << "the build never started";

  engine.add_catalog("live", alpha(), /*replace=*/true);
  release.set_value();
  worker.get();
  const SweepResult answered = read.get();
  EXPECT_EQ(answered.route, QueryRoute::kIndex);
  EXPECT_TRUE(answered.any_feasible);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);
}

}  // namespace

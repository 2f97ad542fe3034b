// Deterministic chaos harness: a seed-derived fault schedule (throttling,
// transient errors, capacity windows, a brownout) drives resilient
// provisioning while several threads hammer a shared PlannerEngine with
// budget-pressured queries. The whole scenario is executed twice per seed
// and the collected trails must be BIT-IDENTICAL — any divergence means a
// stochastic draw leaked out of the (seed, id, channel) contract or a
// data race corrupted an answer. CI runs this suite repeatedly with
// rotating seeds via CELIA_CHAOS_SEED, and under TSan.
//
// Thread-interleaving-dependent observables (cache routes, global engine
// counters) are deliberately NOT part of the trail; the trail holds only
// what the determinism contract actually promises: provisioning outcomes
// and planner ANSWERS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/api_faults.hpp"
#include "cloud/catalog.hpp"
#include "cloud/provider.hpp"
#include "core/capacity.hpp"
#include "core/planner_engine.hpp"
#include "util/resilience.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::cloud;
using namespace celia::core;
using celia::util::CircuitBreaker;
using celia::util::DeadlineBudget;
using celia::util::SplitMix64;
using celia::util::TokenBucket;

std::shared_ptr<const Catalog> alpha() {
  static const auto catalog = [] {
    const auto& table3 = Catalog::ec2_table3();
    return std::make_shared<const Catalog>(
        "alpha", "test-1",
        std::vector<InstanceType>{table3.types().begin(),
                                  table3.types().begin() + 6},
        std::vector<int>{3, 3, 3, 3, 3, 3});
  }();
  return catalog;
}

std::shared_ptr<const Catalog> beta() {
  static const auto catalog = std::make_shared<const Catalog>(
      alpha()->with_price_multiplier("beta", "test-2", 1.4));
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

/// A fraction in [0, 1) from one SplitMix64 draw.
double unit(SplitMix64& mix) {
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

/// Everything the determinism contract promises about one scenario run.
struct ChaosTrail {
  // Provisioning side (single-threaded, fully seeded).
  bool complete = false;
  bool deadline_exhausted = false;
  std::vector<int> acquired;
  std::vector<int> shortfall;
  std::vector<int> error_kinds;
  std::vector<double> error_times;
  std::vector<double> ready_seconds;
  std::vector<double> retry_delays;
  std::uint64_t api_calls = 0, throttled = 0, transient = 0, capacity = 0,
                brownout = 0, breaker_vetoes = 0;
  double rate_limited_seconds = 0, backoff_seconds = 0, finished_at = 0;
  std::uint64_t breaker_opened = 0, breaker_closed = 0;
  // Planner side: one answer slot per (thread, query ordinal).
  std::vector<std::uint64_t> plan_indices;
  std::vector<double> plan_costs;
  std::vector<std::uint64_t> plan_feasible;
};

bool operator==(const ChaosTrail& a, const ChaosTrail& b) {
  return a.complete == b.complete &&
         a.deadline_exhausted == b.deadline_exhausted &&
         a.acquired == b.acquired && a.shortfall == b.shortfall &&
         a.error_kinds == b.error_kinds && a.error_times == b.error_times &&
         a.ready_seconds == b.ready_seconds &&
         a.retry_delays == b.retry_delays && a.api_calls == b.api_calls &&
         a.throttled == b.throttled && a.transient == b.transient &&
         a.capacity == b.capacity && a.brownout == b.brownout &&
         a.breaker_vetoes == b.breaker_vetoes &&
         a.rate_limited_seconds == b.rate_limited_seconds &&
         a.backoff_seconds == b.backoff_seconds &&
         a.finished_at == b.finished_at &&
         a.breaker_opened == b.breaker_opened &&
         a.breaker_closed == b.breaker_closed &&
         a.plan_indices == b.plan_indices && a.plan_costs == b.plan_costs &&
         a.plan_feasible == b.plan_feasible;
}

constexpr int kThreads = 4;
constexpr int kQueriesPerThread = 10;

/// Derive the whole chaos schedule from `seed` and run it once.
ChaosTrail run_scenario(std::uint64_t seed) {
  SplitMix64 mix(seed);

  // --- seed-derived fault schedule -------------------------------------
  ResilientProvisionOptions options;
  options.api_faults.seed = mix.next();
  options.api_faults.throttle_probability = 0.15 + 0.35 * unit(mix);
  options.api_faults.transient_error_probability = 0.05 + 0.20 * unit(mix);
  const auto windowed_type = static_cast<std::size_t>(mix.next() % 6);
  options.api_faults.capacity_windows.push_back(
      {windowed_type, 0.0, 40.0 + 80.0 * unit(mix),
       1 + static_cast<int>(mix.next() % 2)});
  const double brownout_start = 5.0 + 10.0 * unit(mix);
  options.api_faults.brownouts.push_back(
      {brownout_start, brownout_start + 1.0 + 3.0 * unit(mix)});
  options.deadline = DeadlineBudget::until(600.0);

  CircuitBreaker::Policy breaker_policy;
  breaker_policy.failure_threshold = 3;
  breaker_policy.open_seconds = 4.0;
  breaker_policy.cooldown_jitter_fraction = 0.25;
  breaker_policy.seed = mix.next();
  CircuitBreaker breaker(breaker_policy);
  options.breaker = &breaker;
  TokenBucket limiter(2.0, 0.5 + unit(mix));
  options.rate_limiter = &limiter;

  std::vector<int> counts(alpha()->size(), 0);
  for (int picks = 0; picks < 3; ++picks)
    counts[mix.next() % counts.size()] = 1 + static_cast<int>(mix.next() % 3);

  const std::uint64_t provider_seed = mix.next();

  // --- shared engine under budget pressure -----------------------------
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  engine.add_catalog("beta", beta());

  ChaosTrail trail;
  trail.plan_indices.assign(kThreads * kQueriesPerThread, 0);
  trail.plan_costs.assign(kThreads * kQueriesPerThread, 0.0);
  trail.plan_feasible.assign(kThreads * kQueriesPerThread, 0);

  // Per-thread query schedules, drawn BEFORE the threads start so the
  // schedule never depends on interleaving.
  struct PlannedQuery {
    const char* catalog;
    double hours;
    double remaining;  // budget pressure knob
  };
  std::vector<PlannedQuery> schedule(kThreads * kQueriesPerThread);
  for (auto& planned : schedule) {
    planned.catalog = mix.next() % 2 ? "beta" : "alpha";
    planned.hours = 0.25 + 4.0 * unit(mix);
    // Three pressure regimes: roomy (index), sweep-only, truncated.
    switch (mix.next() % 3) {
      case 0: planned.remaining = 1e6; break;
      case 1: planned.remaining = 5.0; break;
      default: planned.remaining = 1.0; break;
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kQueriesPerThread; ++k) {
        const int slot = t * kQueriesPerThread + k;
        const PlannedQuery& planned = schedule[slot];
        PlanBudget budget;
        budget.deadline = DeadlineBudget::until(planned.remaining);
        budget.index_build_cost_seconds = 10.0;
        budget.sweep_cost_seconds = 2.0;
        const SweepResult result =
            engine.plan(planned.catalog, small_capacity(),
                        small_query(planned.hours), budget);
        if (result.any_feasible) {
          trail.plan_indices[slot] = result.min_cost.config_index;
          trail.plan_costs[slot] = result.min_cost.cost;
        }
        trail.plan_feasible[slot] = result.feasible;
      }
    });
  }

  // --- resilient provisioning, concurrent with the queries -------------
  CloudProvider provider(provider_seed, alpha());
  const ProvisionOutcome outcome = provider.provision_resilient(counts, options);
  for (auto& thread : threads) thread.join();

  trail.complete = outcome.complete;
  trail.deadline_exhausted = outcome.deadline_exhausted;
  trail.acquired = outcome.acquired;
  trail.shortfall = outcome.shortfall;
  for (const ApiError& error : outcome.errors) {
    trail.error_kinds.push_back(static_cast<int>(error.kind));
    trail.error_times.push_back(error.at_seconds);
  }
  trail.ready_seconds = outcome.ready_seconds;
  trail.retry_delays = outcome.report.retry_delays;
  trail.api_calls = outcome.api.calls;
  trail.throttled = outcome.api.throttled;
  trail.transient = outcome.api.transient_errors;
  trail.capacity = outcome.api.capacity_rejections;
  trail.brownout = outcome.api.brownout_rejections;
  trail.breaker_vetoes = outcome.api.breaker_rejections;
  trail.rate_limited_seconds = outcome.api.rate_limited_seconds;
  trail.backoff_seconds = outcome.api.backoff_seconds;
  trail.finished_at = outcome.finished_at;
  trail.breaker_opened = breaker.stats().opened;
  trail.breaker_closed = breaker.stats().closed;
  return trail;
}

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("CELIA_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 20260805;
}

TEST(ChaosSchedule, ReplaysBitIdenticallyUnderConcurrency) {
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("CELIA_CHAOS_SEED=" + std::to_string(seed));
  const ChaosTrail first = run_scenario(seed);
  const ChaosTrail second = run_scenario(seed);

  // Field-by-field for a readable diff before the blanket equality.
  EXPECT_EQ(first.acquired, second.acquired);
  EXPECT_EQ(first.error_kinds, second.error_kinds);
  EXPECT_EQ(first.error_times, second.error_times);
  EXPECT_EQ(first.ready_seconds, second.ready_seconds);
  EXPECT_EQ(first.retry_delays, second.retry_delays);
  EXPECT_EQ(first.api_calls, second.api_calls);
  EXPECT_EQ(first.backoff_seconds, second.backoff_seconds);
  EXPECT_EQ(first.finished_at, second.finished_at);
  EXPECT_EQ(first.plan_indices, second.plan_indices);
  EXPECT_EQ(first.plan_costs, second.plan_costs);
  EXPECT_TRUE(first == second);

  // The schedule genuinely exercised the control plane: at least one API
  // call and one fault-driven event.
  EXPECT_GT(first.api_calls, 0u);
  EXPECT_GT(first.throttled + first.transient + first.capacity +
                first.brownout,
            0u);
}

TEST(ChaosSchedule, DistinctSeedsProduceDistinctSchedules) {
  // Not a strict requirement of the contract, but a canary against the
  // schedule accidentally ignoring its seed: two far-apart seeds must
  // disagree somewhere in the trail.
  const ChaosTrail a = run_scenario(101);
  const ChaosTrail b = run_scenario(9001);
  EXPECT_FALSE(a == b);
}

}  // namespace

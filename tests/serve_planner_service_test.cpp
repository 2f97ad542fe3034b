// Tests for serve::PlannerService — admission control, coalescing,
// per-tenant fairness, deadline propagation, and the terminal-bucket
// counter invariant (admitted + shed + rejected_quota == submitted).
//
// The deterministic tests run the service in caller-driven mode
// (num_workers == 0, simulated clock): submit() decides admission,
// drain_one() dispatches on this thread, and nothing else moves. The
// PlannerServiceConcurrent suite runs the real worker pool under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/planner_engine.hpp"
#include "obs/metrics.hpp"
#include "serve/planner_service.hpp"
#include "util/resilience.hpp"

namespace {

using namespace celia::core;
using namespace celia::serve;
using celia::cloud::Catalog;
using celia::util::DeadlineBudget;
namespace obs = celia::obs;

/// The small PlannerEngine fixture: 6 Table III types, uniform limit 3.
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

Query small_query(double demand = 1e13) {
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  SweepOptions options;
  options.collect_pareto = false;
  return Query::make(demand, constraints, options);
}

/// A simulated clock the test advances by hand. Atomic: a service worker
/// may read it while the test advances it.
struct SimClock {
  std::shared_ptr<std::atomic<double>> time =
      std::make_shared<std::atomic<double>>(0.0);
  std::function<double()> fn() const {
    auto t = time;
    return [t] { return t->load(); };
  }
  void advance(double seconds) { *time += seconds; }
};

PlanRequest request_for(const std::string& tenant, double demand = 1e13,
                        DeadlineBudget deadline = {}) {
  return PlanRequest{tenant, "alpha", small_capacity(), small_query(demand),
                     deadline};
}

/// Caller-driven service over a fresh engine.
struct Harness {
  explicit Harness(ServiceOptions options = caller_driven()) {
    engine.add_catalog("alpha", alpha());
    options.clock = clock.fn();
    service = std::make_unique<PlannerService>(engine, std::move(options));
  }

  static ServiceOptions caller_driven() {
    ServiceOptions options;
    options.num_workers = 0;
    return options;
  }

  PlannerEngine engine;
  SimClock clock;
  std::unique_ptr<PlannerService> service;
};

void expect_invariant(const ServeStats& stats) {
  EXPECT_EQ(stats.admitted + stats.shed + stats.rejected_quota +
                stats.quarantined,
            stats.submitted);
  EXPECT_EQ(stats.shed_queue_full + stats.shed_slo + stats.shed_deadline +
                stats.shed_shutdown + stats.shed_stale,
            stats.shed);
  EXPECT_LE(stats.failed + stats.worker_lost, stats.admitted);
}

TEST(PlannerService, PlansMatchTheEngineAndResolveOnDispatch) {
  Harness h;
  std::future<ServeOutcome> future = h.service->submit(request_for("t"));
  // Caller-driven: nothing resolves until drain_one.
  EXPECT_NE(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(h.service->queue_depth(), 1u);
  EXPECT_TRUE(h.service->drain_one());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServeOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, ServeStatus::kPlanned);
  EXPECT_EQ(outcome.shed_reason, ShedReason::kNone);
  EXPECT_FALSE(outcome.coalesced);

  PlannerEngine reference;
  reference.add_catalog("alpha", alpha());
  const SweepResult expected =
      reference.plan("alpha", small_capacity(), small_query());
  EXPECT_EQ(outcome.result.route, expected.route);
  EXPECT_EQ(outcome.result.min_cost.config_index,
            expected.min_cost.config_index);
  EXPECT_EQ(outcome.result.min_cost.cost, expected.min_cost.cost);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  expect_invariant(stats);
}

TEST(PlannerService, CoalescingAnswersNIdenticalRequestsWithOneBuild) {
  Harness h;
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  obs::Counter& coalesced_total = obs::counter("celia_serve_coalesced_total");
  const auto b0 = builds.value(), c0 = coalesced_total.value();

  constexpr int kN = 5;
  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < kN; ++i)
    futures.push_back(h.service->submit(request_for("t")));
  // One leader in the queue, kN - 1 attached waiters.
  EXPECT_EQ(h.service->queue_depth(), 1u);
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_FALSE(h.service->drain_one());

  for (int i = 0; i < kN; ++i) {
    const ServeOutcome outcome = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.coalesced, i != 0) << "request " << i;
  }
  // Counter-exact: one index build total, kN - 1 coalesced joins.
  EXPECT_EQ(builds.value() - b0, 1u);
  EXPECT_EQ(coalesced_total.value() - c0,
            static_cast<std::uint64_t>(kN - 1));
  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kN - 1));
  expect_invariant(stats);
}

TEST(PlannerService, DifferentQueriesDoNotCoalesce) {
  Harness h;
  auto f1 = h.service->submit(request_for("t", 1e13));
  auto f2 = h.service->submit(request_for("t", 2e13));  // different demand
  EXPECT_EQ(h.service->queue_depth(), 2u);
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_FALSE(f1.get().coalesced);
  EXPECT_FALSE(f2.get().coalesced);
  EXPECT_EQ(h.service->stats().coalesced, 0u);
}

TEST(PlannerService, CoalesceOffServesEveryRequestAlone) {
  ServiceOptions options = Harness::caller_driven();
  options.coalesce = false;
  Harness h(options);
  (void)h.service->submit(request_for("t"));
  (void)h.service->submit(request_for("t"));
  EXPECT_EQ(h.service->queue_depth(), 2u);
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_EQ(h.service->stats().coalesced, 0u);
}

TEST(PlannerService, WatermarkShedsFastWithATypedOutcome) {
  ServiceOptions options = Harness::caller_driven();
  options.queue_capacity = 4;
  options.shed_watermark = 2;
  options.coalesce = false;  // every request occupies its own slot
  Harness h(options);

  auto f1 = h.service->submit(request_for("t"));
  auto f2 = h.service->submit(request_for("t"));
  auto f3 = h.service->submit(request_for("t"));  // depth 2 == watermark
  // The shed future resolved before submit returned.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServeOutcome shed = f3.get();
  EXPECT_EQ(shed.status, ServeStatus::kOverloaded);
  EXPECT_EQ(shed.shed_reason, ShedReason::kQueueFull);

  while (h.service->drain_one()) {
  }
  EXPECT_EQ(f1.get().status, ServeStatus::kPlanned);
  EXPECT_EQ(f2.get().status, ServeStatus::kPlanned);
  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  expect_invariant(stats);
}

TEST(PlannerService, SloBreachShedsUntilAFastWindowRecovers) {
  ServiceOptions options = Harness::caller_driven();
  options.latency_slo_seconds = 0.1;
  options.slo_probe_stride = 2;
  Harness h(options);

  // Two slow completions (the clock jumps 1 s while queued) seal a
  // breached window.
  auto f1 = h.service->submit(request_for("t", 1e13));
  auto f2 = h.service->submit(request_for("t", 2e13));
  h.clock.advance(1.0);
  while (h.service->drain_one()) {
  }
  EXPECT_EQ(f1.get().status, ServeStatus::kPlanned);
  EXPECT_EQ(f2.get().status, ServeStatus::kPlanned);
  EXPECT_GT(h.service->latency_window().p99, 0.1);

  // The next `stride` submissions are shed on the latched verdict.
  for (int i = 0; i < 2; ++i) {
    auto shed_future = h.service->submit(
        request_for("t", 3e13 + static_cast<double>(i)));
    const ServeOutcome shed = shed_future.get();
    EXPECT_EQ(shed.status, ServeStatus::kOverloaded);
    EXPECT_EQ(shed.shed_reason, ShedReason::kLatencySlo);
  }

  // The shed allowance is spent: probation re-admits, and two fast
  // completions (no clock movement) seal a healthy window.
  auto f4 = h.service->submit(request_for("t", 4e13));
  auto f5 = h.service->submit(request_for("t", 5e13));
  while (h.service->drain_one()) {
  }
  EXPECT_EQ(f4.get().status, ServeStatus::kPlanned);
  EXPECT_EQ(f5.get().status, ServeStatus::kPlanned);
  auto f6 = h.service->submit(request_for("t", 6e13));
  while (h.service->drain_one()) {
  }
  EXPECT_EQ(f6.get().status, ServeStatus::kPlanned);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.shed_slo, 2u);
  expect_invariant(stats);
}

TEST(PlannerService, QueuedDeadlineExpiryIsShedNotSilent) {
  Harness h;
  obs::Counter& queries = obs::counter("celia_planner_engine_queries_total");
  const auto q0 = queries.value();

  auto future = h.service->submit(
      request_for("t", 1e13, DeadlineBudget::until(0.5)));
  h.clock.advance(1.0);  // the deadline passes while queued
  EXPECT_TRUE(h.service->drain_one());
  const ServeOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, ServeStatus::kOverloaded);
  EXPECT_EQ(outcome.shed_reason, ShedReason::kDeadlineExpired);
  EXPECT_DOUBLE_EQ(outcome.queue_seconds, 1.0);
  // Doomed work was skipped entirely: the engine never saw a query.
  EXPECT_EQ(queries.value() - q0, 0u);

  // A deadline already expired AT submission is shed before queueing.
  auto immediate = h.service->submit(
      request_for("t", 1e13, DeadlineBudget::until(0.5)));
  EXPECT_EQ(immediate.get().shed_reason, ShedReason::kDeadlineExpired);
  EXPECT_EQ(h.service->queue_depth(), 0u);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.shed_deadline, 2u);
  expect_invariant(stats);
}

TEST(PlannerService, DeadlinePropagatesIntoTheDegradationLadder) {
  ServiceOptions options = Harness::caller_driven();
  options.index_build_cost_seconds = 10.0;
  options.sweep_cost_seconds = 2.0;
  Harness h(options);
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  const auto b0 = builds.value();

  // 5 s of budget: the build (10 s) does not fit, the sweep (2 s) does.
  auto degraded = h.service->submit(
      request_for("t", 1e13, DeadlineBudget::until(5.0)));
  EXPECT_TRUE(h.service->drain_one());
  {
    const ServeOutcome outcome = degraded.get();
    ASSERT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.result.route, QueryRoute::kDegradedSweep);
  }

  // 1 s of budget: even the sweep does not fit — truncated, on time,
  // never an unbounded build.
  auto truncated = h.service->submit(
      request_for("t", 2e13, DeadlineBudget::until(1.0)));
  EXPECT_TRUE(h.service->drain_one());
  {
    const ServeOutcome outcome = truncated.get();
    ASSERT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.result.route, QueryRoute::kTruncatedSweep);
  }
  EXPECT_EQ(builds.value() - b0, 0u);
}

TEST(PlannerService, CoalescedBatchPlansUnderTheTightestDeadline) {
  ServiceOptions options = Harness::caller_driven();
  options.index_build_cost_seconds = 10.0;
  options.sweep_cost_seconds = 2.0;
  Harness h(options);

  // Identical queries, different deadlines: 5 s would afford a sweep,
  // but the 1 s waiter drags the whole batch to the truncated route —
  // everyone is answered on time.
  auto roomy = h.service->submit(
      request_for("t", 1e13, DeadlineBudget::until(5.0)));
  auto tight = h.service->submit(
      request_for("t", 1e13, DeadlineBudget::until(1.0)));
  EXPECT_EQ(h.service->queue_depth(), 1u);  // coalesced
  EXPECT_TRUE(h.service->drain_one());
  const ServeOutcome a = roomy.get();
  const ServeOutcome b = tight.get();
  ASSERT_EQ(a.status, ServeStatus::kPlanned);
  ASSERT_EQ(b.status, ServeStatus::kPlanned);
  EXPECT_EQ(a.result.route, QueryRoute::kTruncatedSweep);
  EXPECT_EQ(b.result.route, QueryRoute::kTruncatedSweep);
  EXPECT_TRUE(b.coalesced);
}

TEST(PlannerService, TokenBucketQuotaRejectsAndRefills) {
  Harness h;
  TenantQuota quota;
  quota.burst = 1.0;
  quota.requests_per_second = 1.0;
  h.service->set_tenant_quota("metered", quota);

  auto ok = h.service->submit(request_for("metered"));
  auto rejected = h.service->submit(request_for("metered"));
  const ServeOutcome rejection = rejected.get();
  EXPECT_EQ(rejection.status, ServeStatus::kRejectedQuota);
  // Another tenant is unaffected — quotas are per tenant.
  auto other = h.service->submit(request_for("neighbor"));

  h.clock.advance(1.0);  // one token refills
  auto refilled = h.service->submit(request_for("metered"));
  while (h.service->drain_one()) {
  }
  EXPECT_EQ(ok.get().status, ServeStatus::kPlanned);
  EXPECT_EQ(other.get().status, ServeStatus::kPlanned);
  EXPECT_EQ(refilled.get().status, ServeStatus::kPlanned);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.rejected_quota, 1u);
  expect_invariant(stats);
}

TEST(PlannerService, WeightedTenantsDispatchInDrrOrder) {
  ServiceOptions options = Harness::caller_driven();
  options.coalesce = false;
  Harness h(options);
  TenantQuota heavy;
  heavy.weight = 2.0;
  h.service->set_tenant_quota("a", TenantQuota{});
  h.service->set_tenant_quota("b", heavy);

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(h.service->submit(request_for("a", 1e13 + i)));
  for (int i = 0; i < 4; ++i)
    futures.push_back(h.service->submit(request_for("b", 2e13 + i)));

  // Futures resolve one per drain_one; the resolution order is the DRR
  // service order: a0 b0 b1 a1 b2 b3 a2 a3 (b holds weight 2).
  const std::vector<std::size_t> expected = {0, 4, 5, 1, 6, 7, 2, 3};
  for (const std::size_t expect_index : expected) {
    ASSERT_TRUE(h.service->drain_one());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      if (!futures[i].valid()) continue;
      if (futures[i].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        EXPECT_EQ(i, expect_index);
        (void)futures[i].get();  // invalidate so later rounds skip it
        break;
      }
    }
  }
}

TEST(PlannerService, UnknownCatalogIsATypedFailureNotAnException) {
  Harness h;
  PlanRequest request = request_for("t");
  request.catalog = "no-such-catalog";
  auto future = h.service->submit(std::move(request));
  const ServeOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, ServeStatus::kFailed);
  EXPECT_FALSE(outcome.error.empty());
  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.admitted, 1u);  // answered on the merits
  expect_invariant(stats);
}

TEST(PlannerService, StopDrainAnswersEverythingThenShedsNewWork) {
  ServiceOptions options = Harness::caller_driven();
  options.coalesce = false;
  Harness h(options);
  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(h.service->submit(request_for("t", 1e13 + i)));
  h.service->stop(PlannerService::StopMode::kDrain);
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, ServeStatus::kPlanned);

  auto late = h.service->submit(request_for("t"));
  const ServeOutcome outcome = late.get();
  EXPECT_EQ(outcome.status, ServeStatus::kOverloaded);
  EXPECT_EQ(outcome.shed_reason, ShedReason::kShutdown);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed_shutdown, 1u);
  expect_invariant(stats);
  h.service->stop();  // idempotent
}

TEST(PlannerService, StopAbortShedsTheBacklogTyped) {
  ServiceOptions options = Harness::caller_driven();
  options.coalesce = false;
  Harness h(options);
  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(h.service->submit(request_for("t", 1e13 + i)));
  h.service->stop(PlannerService::StopMode::kAbort);
  for (auto& future : futures) {
    const ServeOutcome outcome = future.get();
    EXPECT_EQ(outcome.status, ServeStatus::kOverloaded);
    EXPECT_EQ(outcome.shed_reason, ShedReason::kShutdown);
  }
  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.shed_shutdown, 3u);
  EXPECT_EQ(stats.admitted, 0u);
  expect_invariant(stats);
}

TEST(PlannerService, RejectsInconsistentOptions) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  ServiceOptions watermark_too_high;
  watermark_too_high.queue_capacity = 8;
  watermark_too_high.shed_watermark = 9;
  EXPECT_THROW(PlannerService(engine, watermark_too_high),
               std::invalid_argument);
  ServiceOptions zero_capacity;
  zero_capacity.queue_capacity = 0;
  EXPECT_THROW(PlannerService(engine, zero_capacity), std::invalid_argument);
  Harness h;
  TenantQuota bad_quota;
  bad_quota.weight = 0.0;
  EXPECT_THROW(h.service->set_tenant_quota("t", bad_quota),
               std::invalid_argument);
}

TEST(PlannerService, WatchdogStampsStalenessAndShedsPastHardCap) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  SimClock clock;
  WatchdogOptions watchdog_options;
  watchdog_options.staleness_budget_seconds = 10.0;
  watchdog_options.max_staleness_seconds = 100.0;
  CatalogWatchdog watchdog(engine, watchdog_options);
  watchdog.track("alpha", 0.0);
  ServiceOptions options = Harness::caller_driven();
  options.clock = clock.fn();
  options.watchdog = &watchdog;
  PlannerService service(engine, options);

  // Inside the soft budget: healthy, but the age is still stamped.
  auto fresh = service.submit(request_for("t", 1e13));
  clock.advance(5.0);
  EXPECT_TRUE(service.drain_one());
  {
    const ServeOutcome outcome = fresh.get();
    EXPECT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.degrade_reason, DegradeReason::kNone);
    EXPECT_EQ(outcome.staleness_us, 5000000u);
  }

  // Past the soft budget: DEGRADED but still answered, reason stamped.
  clock.advance(20.0);  // staleness 25 s
  auto degraded = service.submit(request_for("t", 2e13));
  EXPECT_TRUE(service.drain_one());
  {
    const ServeOutcome outcome = degraded.get();
    EXPECT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.degrade_reason, DegradeReason::kStaleFeed);
    EXPECT_EQ(outcome.staleness_us, 25000000u);
  }

  // Past the HARD cap: typed shed, never a silently ancient answer.
  clock.advance(100.0);  // staleness 125 s
  auto stale = service.submit(request_for("t", 3e13));
  EXPECT_TRUE(service.drain_one());
  {
    const ServeOutcome outcome = stale.get();
    EXPECT_EQ(outcome.status, ServeStatus::kOverloaded);
    EXPECT_EQ(outcome.shed_reason, ShedReason::kStaleCatalog);
    EXPECT_EQ(outcome.staleness_us, 125000000u);
  }

  // Feed recovery re-admits serving with zero staleness.
  ASSERT_TRUE(watchdog.apply_update("alpha", alpha(), 125.0));
  auto recovered = service.submit(request_for("t", 4e13));
  EXPECT_TRUE(service.drain_one());
  {
    const ServeOutcome outcome = recovered.get();
    EXPECT_EQ(outcome.status, ServeStatus::kPlanned);
    EXPECT_EQ(outcome.degrade_reason, DegradeReason::kNone);
    EXPECT_EQ(outcome.staleness_us, 0u);
  }

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.shed_stale, 1u);
  EXPECT_EQ(stats.admitted, 3u);
  expect_invariant(stats);
}

TEST(PlannerService, PoisonQueryQuarantinesProbesAndRecovers) {
  ServiceOptions options = Harness::caller_driven();
  options.quarantine.strike_threshold = 2;
  options.quarantine.base_seconds = 4.0;
  options.quarantine.multiplier = 2.0;
  options.quarantine.max_seconds = 64.0;
  options.quarantine.jitter_fraction = 0.0;  // exact expiries for the test
  bool poisoned = true;
  constexpr double kPoison = 9e13;
  options.before_plan_hook = [&poisoned](const PlanRequest& request) {
    if (poisoned &&
        request.query.demand_vector().values.front() == kPoison)
      throw std::runtime_error("chaos: poison");
  };
  Harness h(options);

  const auto dispatch_poison = [&h] {
    auto future = h.service->submit(request_for("t", kPoison));
    EXPECT_TRUE(h.service->drain_one());
    return future.get();
  };

  // Two strikes quarantine the identity.
  EXPECT_EQ(dispatch_poison().status, ServeStatus::kFailed);
  EXPECT_EQ(dispatch_poison().status, ServeStatus::kFailed);

  // Fast-fail without queueing or planning: typed kQuarantined.
  auto rejected = h.service->submit(request_for("t", kPoison));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  {
    const ServeOutcome outcome = rejected.get();
    EXPECT_EQ(outcome.status, ServeStatus::kQuarantined);
    EXPECT_FALSE(outcome.error.empty());
  }
  EXPECT_EQ(h.service->queue_depth(), 0u);
  // A DIFFERENT identity from the same tenant is unaffected.
  auto innocent = h.service->submit(request_for("t", 1e13));
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_EQ(innocent.get().status, ServeStatus::kPlanned);

  // Expiry admits a probe; a failing probe re-quarantines with a longer
  // backoff (episode 2: 8 s instead of 4 s).
  h.clock.advance(4.0);
  EXPECT_EQ(dispatch_poison().status, ServeStatus::kFailed);
  EXPECT_EQ(h.service->submit(request_for("t", kPoison)).get().status,
            ServeStatus::kQuarantined);
  h.clock.advance(4.0);  // 4 of 8 s: still quarantined
  EXPECT_EQ(h.service->submit(request_for("t", kPoison)).get().status,
            ServeStatus::kQuarantined);

  // The query heals: the next probe clears the entry for good.
  h.clock.advance(4.0);
  poisoned = false;
  EXPECT_EQ(dispatch_poison().status, ServeStatus::kPlanned);
  EXPECT_EQ(dispatch_poison().status, ServeStatus::kPlanned);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.quarantine_entries, 2u);
  EXPECT_EQ(stats.quarantine_recoveries, 1u);
  EXPECT_EQ(stats.quarantined, 3u);
  EXPECT_EQ(stats.failed, 3u);
  expect_invariant(stats);
}

TEST(PlannerService, HardWallClockOverrunIsAStrikeEvenOnSuccess) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  SimClock clock;
  ServiceOptions options = Harness::caller_driven();
  options.clock = clock.fn();
  options.quarantine.strike_threshold = 1;
  options.quarantine.hard_wall_clock_seconds = 0.5;
  options.quarantine.jitter_fraction = 0.0;
  // The plan "takes" one simulated second — over the 0.5 s bound.
  auto time = clock.time;
  options.before_plan_hook = [time](const PlanRequest&) { *time += 1.0; };
  PlannerService service(engine, options);

  auto slow = service.submit(request_for("t", 1e13));
  EXPECT_TRUE(service.drain_one());
  EXPECT_EQ(slow.get().status, ServeStatus::kPlanned);  // answered...
  // ...but struck: the identity is quarantined.
  auto rejected = service.submit(request_for("t", 1e13));
  EXPECT_EQ(rejected.get().status, ServeStatus::kQuarantined);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.quarantine_entries, 1u);
  expect_invariant(stats);
}

TEST(PlannerService, RetryBudgetBoundsPlanRetries) {
  ServiceOptions options = Harness::caller_driven();
  options.plan_retries = 1;
  options.retry_budget.ratio = 0.5;  // one retry token per two dispatches
  options.retry_budget.window_seconds = 10.0;
  int attempts = 0;
  options.before_plan_hook = [&attempts](const PlanRequest&) {
    ++attempts;
    throw std::runtime_error("chaos: engine down");
  };
  Harness h(options);

  // Dispatch 1 deposits 0.5: its retry is VETOED (balance < 1).
  auto first = h.service->submit(request_for("t", 1e13));
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_EQ(first.get().status, ServeStatus::kFailed);
  EXPECT_EQ(attempts, 1);

  // Dispatch 2 tops the balance to 1.0: one budget-granted retry.
  auto second = h.service->submit(request_for("t", 2e13));
  EXPECT_TRUE(h.service->drain_one());
  EXPECT_EQ(second.get().status, ServeStatus::kFailed);
  EXPECT_EQ(attempts, 3);

  const ServeStats stats = h.service->stats();
  EXPECT_EQ(stats.plan_retries, 1u);
  EXPECT_EQ(stats.retry_vetoes, 1u);
  EXPECT_EQ(stats.failed, 2u);
  expect_invariant(stats);
}

TEST(PlannerServiceConcurrent, StalledWorkerIsDetachedAndReplaced) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  SimClock clock;
  ServiceOptions options;
  options.num_workers = 1;
  options.worker_stall_seconds = 5.0;
  options.clock = clock.fn();
  std::promise<void> gate;
  std::shared_future<void> wedge_until = gate.get_future().share();
  options.before_plan_hook = [wedge_until](const PlanRequest& request) {
    if (request.tenant == "wedge") wedge_until.wait();
  };
  PlannerService service(engine, options);

  auto wedged = service.submit(request_for("wedge", 9e13));
  while (service.busy_workers() == 0) std::this_thread::yield();
  // Not stalled yet: the bound is 5 s and no simulated time has passed.
  EXPECT_EQ(service.check_workers(), 0u);
  EXPECT_NE(wedged.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  // Past the bound: the supervisor detaches the worker, fails the stuck
  // request typed, and respawns a replacement.
  clock.advance(10.0);
  EXPECT_EQ(service.check_workers(), 1u);
  {
    const ServeOutcome outcome = wedged.get();
    EXPECT_EQ(outcome.status, ServeStatus::kWorkerLost);
    EXPECT_FALSE(outcome.error.empty());
  }
  // Capacity recovered: the replacement worker serves new requests while
  // the detached thread is still wedged.
  auto answered = service.submit(request_for("t", 1e13));
  EXPECT_EQ(answered.get().status, ServeStatus::kPlanned);

  gate.set_value();  // unwedge so stop() can join the detached thread
  service.stop(PlannerService::StopMode::kDrain);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.worker_lost, 1u);
  expect_invariant(stats);
}

TEST(PlannerServiceConcurrent, DestructorDrainsInFlightRequestsTyped) {
  // The TSan destructor-race pin for the end-to-end shutdown contract:
  // destroying the service (stop(kDrain)) concurrently with mid-flight
  // worker dispatches must answer every admitted future and join every
  // thread — no leaks, no races, no hangs.
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  std::vector<std::future<ServeOutcome>> futures;
  {
    ServiceOptions options;
    options.num_workers = 2;
    PlannerService service(engine, options);
    for (int i = 0; i < 16; ++i)
      futures.push_back(service.submit(
          request_for("t", 1e13 + static_cast<double>(i))));
  }  // ~PlannerService runs while workers are mid-dispatch
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get().status, ServeStatus::kPlanned);
  }
}

TEST(PlannerServiceConcurrent, WorkerPoolServesRacingTenantsExactlyOnce) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 512;
  options.shed_watermark = 512;
  PlannerService service(engine, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::future<ServeOutcome>> futures[kThreads];
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&service, &futures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two distinct queries across all threads: heavy coalescing.
        futures[t].push_back(service.submit(
            request_for("tenant-" + std::to_string(t % 2),
                        1e13 + static_cast<double>(i % 2))));
      }
    });
  for (std::thread& thread : submitters) thread.join();
  service.stop(PlannerService::StopMode::kDrain);

  // Every future resolves with a typed outcome; nothing hangs, nothing
  // is dropped.
  std::uint64_t planned = 0;
  for (auto& lane : futures)
    for (auto& future : lane) {
      const ServeOutcome outcome = future.get();
      EXPECT_TRUE(outcome.status == ServeStatus::kPlanned ||
                  outcome.status == ServeStatus::kOverloaded ||
                  outcome.status == ServeStatus::kRejectedQuota)
          << static_cast<int>(outcome.status);
      planned += outcome.status == ServeStatus::kPlanned;
    }
  EXPECT_GT(planned, 0u);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  expect_invariant(stats);
}

TEST(PlannerServiceConcurrent, AbortDuringRacingSubmitsLeavesNoOrphans) {
  PlannerEngine engine;
  engine.add_catalog("alpha", alpha());
  ServiceOptions options;
  options.num_workers = 2;
  PlannerService service(engine, options);

  std::vector<std::future<ServeOutcome>> futures;
  std::mutex futures_mutex;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t)
    submitters.emplace_back([&service, &futures, &futures_mutex, t] {
      for (int i = 0; i < 20; ++i) {
        auto future = service.submit(
            request_for("t", 1e13 + static_cast<double>(t * 20 + i)));
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(future));
      }
    });
  service.stop(PlannerService::StopMode::kAbort);
  for (std::thread& thread : submitters) thread.join();

  for (auto& future : futures) {
    // get() must never hang: every admitted-or-rejected request holds a
    // typed terminal outcome.
    const ServeOutcome outcome = future.get();
    if (outcome.status == ServeStatus::kOverloaded)
      EXPECT_NE(outcome.shed_reason, ShedReason::kNone);
  }
  expect_invariant(service.stats());
}

}  // namespace

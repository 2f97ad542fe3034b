#include "serve/soak.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cloud/api_faults.hpp"
#include "cloud/catalog.hpp"
#include "core/planner_engine.hpp"

namespace celia::serve {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a fold of one 64-bit word into the running digest.
void fold(std::uint64_t& digest, std::uint64_t value) {
  digest ^= value;
  digest *= 1099511628211ULL;
}

void fold_stats(std::uint64_t& digest, const ServeStats& s) {
  fold(digest, s.submitted);
  fold(digest, s.admitted);
  fold(digest, s.shed);
  fold(digest, s.shed_queue_full);
  fold(digest, s.shed_slo);
  fold(digest, s.shed_deadline);
  fold(digest, s.shed_shutdown);
  fold(digest, s.shed_stale);
  fold(digest, s.rejected_quota);
  fold(digest, s.coalesced);
  fold(digest, s.failed);
  fold(digest, s.quarantined);
  fold(digest, s.quarantine_entries);
  fold(digest, s.quarantine_recoveries);
  fold(digest, s.worker_lost);
  fold(digest, s.worker_restarts);
  fold(digest, s.plan_retries);
  fold(digest, s.retry_vetoes);
}

void fold_stats(std::uint64_t& digest, const WatchdogStats& s) {
  fold(digest, s.updates_attempted);
  fold(digest, s.updates_applied);
  fold(digest, s.update_failures);
  fold(digest, s.replaces_quarantined);
  fold(digest, s.degraded_entries);
  fold(digest, s.recoveries);
  fold(digest, s.stale_breaches);
}

/// The soak fixture catalog: six Table III types, uniform limit 3 — big
/// enough for real frontier work, small enough for thousands of plans.
std::shared_ptr<const cloud::Catalog> base_catalog() {
  const auto& table3 = cloud::Catalog::ec2_table3();
  return std::make_shared<const cloud::Catalog>(
      "alpha", "chaos-1",
      std::vector<cloud::InstanceType>{table3.types().begin(),
                                       table3.types().begin() + 6},
      std::vector<int>{3, 3, 3, 3, 3, 3});
}

core::ResourceCapacity soak_capacity(const cloud::Catalog& catalog) {
  std::vector<double> per_vcpu(catalog.size());
  for (std::size_t i = 0; i < per_vcpu.size(); ++i)
    per_vcpu[i] = 1.1e9 + 3.7e7 * static_cast<double>(i);
  return core::ResourceCapacity(std::move(per_vcpu), catalog);
}

core::Query soak_query(double demand) {
  core::Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  core::SweepOptions sweep;
  sweep.collect_pareto = false;
  return core::Query::make(demand, constraints, sweep);
}

struct PendingFuture {
  std::future<ServeOutcome> future;
  bool poison = false;
};

struct OutcomeTally {
  ChaosSoakReport& report;
  double heal_time = 0.0;
  std::function<double()> clock;
  std::uint64_t poison_planned_after_heal = 0;

  /// Consume every already-resolved future; keep the rest pending.
  void poll(std::vector<PendingFuture>& pending) {
    std::size_t kept = 0;
    for (PendingFuture& entry : pending) {
      if (entry.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        pending[kept++] = std::move(entry);
        continue;
      }
      record(entry.future.get(), entry.poison);
    }
    pending.resize(kept);
  }

  void record(const ServeOutcome& outcome, bool poison) {
    switch (outcome.status) {
      case ServeStatus::kPlanned:
        ++report.outcomes_planned;
        report.max_served_staleness_us =
            std::max(report.max_served_staleness_us, outcome.staleness_us);
        if (outcome.degrade_reason != DegradeReason::kNone)
          ++report.degraded_answers;
        if (poison && clock() >= heal_time) ++poison_planned_after_heal;
        break;
      case ServeStatus::kFailed:
        ++report.outcomes_failed;
        break;
      case ServeStatus::kOverloaded:
        ++report.outcomes_shed;
        break;
      case ServeStatus::kRejectedQuota:
        ++report.outcomes_quota;
        break;
      case ServeStatus::kQuarantined:
        ++report.outcomes_quarantined;
        break;
      case ServeStatus::kWorkerLost:
        ++report.outcomes_worker_lost;
        break;
    }
  }
};

/// The threaded mini-phase: wedge a worker via the plan hook, let the
/// supervisor detach + respawn it, and prove the replacement serves.
void run_stall_phase(const ChaosSoakOptions& options,
                     ChaosSoakReport& report) {
  auto base = base_catalog();
  core::PlannerEngine engine;
  engine.add_catalog("alpha", base);

  // Atomic: the wedged worker reads the clock while this thread advances
  // it.
  auto sim_time = std::make_shared<std::atomic<double>>(0.0);
  std::promise<void> gate;
  std::shared_future<void> wedge_until = gate.get_future().share();

  ServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 16;
  service_options.shed_watermark = 16;
  service_options.worker_stall_seconds = 5.0;
  service_options.clock = [sim_time] { return sim_time->load(); };
  service_options.before_plan_hook = [wedge_until](const PlanRequest& r) {
    if (r.tenant == "wedge") wedge_until.wait();
  };

  bool stall_ok = true;
  {
    PlannerService service(engine, service_options);
    PlanRequest wedge{"wedge", "alpha", soak_capacity(*base),
                      soak_query(3.3e14), {}};
    std::future<ServeOutcome> wedged = service.submit(std::move(wedge));

    // Wait (real time, bounded) until the worker is provably inside the
    // wedged dispatch, then advance simulated time past the stall bound.
    const auto spin_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.busy_workers() == 0 &&
           std::chrono::steady_clock::now() < spin_deadline)
      std::this_thread::yield();
    stall_ok = service.busy_workers() == 1;

    *sim_time += 10.0;
    report.stall_restarts = service.check_workers();
    if (report.stall_restarts == 1) {
      const ServeOutcome lost = wedged.get();
      stall_ok = stall_ok && lost.status == ServeStatus::kWorkerLost;
      fold(report.digest, static_cast<std::uint64_t>(lost.status));
    } else {
      stall_ok = false;
    }

    // Capacity recovered: the respawned worker answers a normal request.
    PlanRequest normal{"t", "alpha", soak_capacity(*base),
                       soak_query(1.5e13), {}};
    const ServeOutcome answered = service.submit(std::move(normal)).get();
    stall_ok = stall_ok && answered.status == ServeStatus::kPlanned;
    fold(report.digest, static_cast<std::uint64_t>(answered.status));

    // Unwedge the detached thread so stop() can join it.
    gate.set_value();
    service.stop(PlannerService::StopMode::kDrain);
    const ServeStats stats = service.stats();
    report.stall_recovered = stall_ok && stats.worker_restarts == 1 &&
                             stats.worker_lost == 1;
    fold(report.digest, stats.worker_restarts);
    fold(report.digest, stats.worker_lost);
  }
  (void)options;
}

}  // namespace

ChaosSoakReport run_chaos_soak(const ChaosSoakOptions& options) {
  if (options.ticks == 0 || options.feed_period_ticks == 0 ||
      options.drains_per_tick == 0)
    throw std::invalid_argument("run_chaos_soak: degenerate options");

  ChaosSoakReport report;
  report.digest = 14695981039346656037ULL;  // FNV-1a offset basis
  fold(report.digest, options.seed);

  auto base = base_catalog();
  core::PlannerEngine engine;
  engine.add_catalog("alpha", base);

  const double total_seconds = static_cast<double>(options.ticks);
  const double heal_time = options.poison_heal_fraction * total_seconds;
  // Feed deliveries pause around the heal so the poison identity (which
  // embeds the catalog fingerprint) stays stable long enough to be
  // quarantined before the heal and probed after it — the convergence
  // the soak asserts. Staleness keeps growing meanwhile, exercising
  // soft-degraded (stamped, still served) answers.
  const double quiet_start = heal_time - 50.0;
  const double quiet_end = heal_time + 100.0;

  cloud::ApiFaultModel feed_faults;
  feed_faults.seed = options.seed;
  feed_faults.transient_error_probability = options.feed_fault_probability;
  feed_faults.brownouts.push_back(
      {options.brownout_start_fraction * total_seconds,
       options.brownout_end_fraction * total_seconds});
  cloud::validate(feed_faults);

  WatchdogOptions watchdog_options;
  watchdog_options.staleness_budget_seconds =
      options.staleness_budget_seconds;
  watchdog_options.max_staleness_seconds = options.max_staleness_seconds;
  watchdog_options.feed_failure_threshold = 3;
  watchdog_options.breaker.failure_threshold = 3;
  watchdog_options.breaker.open_seconds = 30.0;
  watchdog_options.breaker.cooldown_jitter_fraction = 0.25;
  watchdog_options.breaker.seed = options.seed ^ 0xfeedULL;
  watchdog_options.breaker.state_gauge = "celia_resilience_breaker_state";
  CatalogWatchdog watchdog(engine, watchdog_options);
  watchdog.track("alpha", 0.0);

  auto sim_time = std::make_shared<double>(0.0);
  constexpr double kPoisonDemand = 5.5e14;

  ServiceOptions service_options;
  service_options.num_workers = 0;  // caller-driven: fully deterministic
  service_options.queue_capacity = 64;
  service_options.shed_watermark = 48;
  service_options.coalesce = true;
  service_options.clock = [sim_time] { return *sim_time; };
  service_options.watchdog = &watchdog;
  service_options.quarantine.strike_threshold =
      options.poison_strike_threshold;
  service_options.quarantine.base_seconds = 1.0;
  service_options.quarantine.multiplier = 2.0;
  service_options.quarantine.max_seconds = 60.0;
  service_options.quarantine.jitter_fraction = 0.25;
  service_options.quarantine.seed = options.seed ^ 0x9019ULL;
  service_options.plan_retries = 1;
  service_options.retry_budget.ratio = 0.1;
  service_options.retry_budget.window_seconds = 10.0;
  service_options.before_plan_hook = [sim_time,
                                      heal_time](const PlanRequest& r) {
    if (r.tenant == "poison" && *sim_time < heal_time)
      throw std::runtime_error("chaos: poison query");
  };

  PlannerService service(engine, service_options);
  TenantQuota poison_quota;
  poison_quota.weight = 4.0;  // poison dispatches often: strikes accumulate
  service.set_tenant_quota("poison", poison_quota);
  TenantQuota metered;
  metered.burst = 2.0;
  metered.requests_per_second = 0.2;
  service.set_tenant_quota("metered", metered);

  const core::ResourceCapacity capacity = soak_capacity(*base);
  std::vector<PendingFuture> pending;
  OutcomeTally tally{report, heal_time, service_options.clock, 0};
  std::uint64_t feed_ordinal = 0;

  for (std::size_t tick = 0; tick < options.ticks; ++tick) {
    *sim_time += 1.0;
    const double now = *sim_time;

    // Catalog feed: one delivery per period; the fault model (transient
    // draws + the brownout window) decides whether it lands.
    if (tick > 0 && tick % options.feed_period_ticks == 0 &&
        !(now >= quiet_start && now < quiet_end)) {
      ++report.feed_deliveries;
      ++feed_ordinal;
      if (cloud::in_brownout(feed_faults, now) ||
          cloud::api_transient_error(feed_faults, feed_ordinal)) {
        ++report.feed_faults;
        watchdog.record_feed_failure("alpha", now);
      } else {
        const std::uint64_t draw =
            splitmix64(options.seed ^ (0xC47A106ULL + tick));
        const double multiplier =
            0.85 + 0.3 * static_cast<double>(draw % 1000) / 1000.0;
        watchdog.apply_update(
            "alpha",
            std::make_shared<const cloud::Catalog>(
                base->with_price_multiplier("alpha", "chaos-1", multiplier)),
            now);
      }
    }

    // Offered load: 2x the drain rate, distinct demands in rotation, a
    // poison identity every tick, periodic deadline-carrying and
    // quota-metered submissions.
    for (std::size_t slot = 0; slot < options.submits_per_tick; ++slot) {
      const std::uint64_t draw =
          splitmix64(options.seed ^ (tick * 1315423911ULL + slot));
      if (slot == 0) {
        pending.push_back({service.submit(PlanRequest{
                               "poison", "alpha", capacity,
                               soak_query(kPoisonDemand), {}}),
                           true});
        continue;
      }
      util::DeadlineBudget deadline;
      if (slot % 4 == 3) deadline = util::DeadlineBudget::until(now + 2.0);
      pending.push_back(
          {service.submit(PlanRequest{
               "t" + std::to_string(draw % 3), "alpha", capacity,
               soak_query(1e13 +
                          1e11 * static_cast<double>(
                                     draw % options.demand_values)),
               deadline}),
           false});
    }
    if (tick % 3 == 0)
      pending.push_back({service.submit(PlanRequest{"metered", "alpha",
                                                    capacity,
                                                    soak_query(2.5e13),
                                                    {}}),
                         false});

    for (std::size_t d = 0; d < options.drains_per_tick; ++d)
      if (!service.drain_one()) break;

    tally.poll(pending);
    fold(report.digest, tick);
    fold(report.digest, service.queue_depth());
    fold_stats(report.digest, service.stats());
    fold_stats(report.digest, watchdog.stats());
  }

  service.stop(PlannerService::StopMode::kDrain);
  tally.poll(pending);
  report.unresolved = pending.size();
  report.serve = service.stats();
  report.watchdog = watchdog.stats();
  fold_stats(report.digest, report.serve);
  fold_stats(report.digest, report.watchdog);
  fold(report.digest, report.unresolved);
  fold(report.digest, report.max_served_staleness_us);
  fold(report.digest, tally.poison_planned_after_heal);

  if (options.stall_phase) run_stall_phase(options, report);

  // ---- Soak assertions -------------------------------------------------
  const auto violate = [&report](std::string what) {
    report.violations.push_back(std::move(what));
  };
  if (report.unresolved != 0)
    violate("liveness: " + std::to_string(report.unresolved) +
            " futures never resolved");
  const auto staleness_cap_us = static_cast<std::uint64_t>(
      std::llround(options.max_staleness_seconds * 1e6));
  if (report.max_served_staleness_us > staleness_cap_us)
    violate("bounded staleness: served an answer " +
            std::to_string(report.max_served_staleness_us) +
            "us stale (cap " + std::to_string(staleness_cap_us) + "us)");
  const ServeStats& s = report.serve;
  if (s.admitted + s.shed + s.rejected_quota + s.quarantined != s.submitted)
    violate("serve invariant: terminal buckets do not sum to submitted");
  if (s.shed_queue_full + s.shed_slo + s.shed_deadline + s.shed_shutdown +
          s.shed_stale !=
      s.shed)
    violate("serve invariant: typed shed reasons do not sum to shed");
  if (s.failed + s.worker_lost > s.admitted)
    violate("serve invariant: failed + worker_lost exceed admitted");
  const WatchdogStats& w = report.watchdog;
  if (w.updates_applied + w.update_failures + w.replaces_quarantined !=
      w.updates_attempted)
    violate("watchdog invariant: update outcomes do not sum to attempts");
  if (s.shed_stale == 0)
    violate("brownout never pushed staleness past the hard cap");
  if (s.quarantine_entries == 0)
    violate("poison query was never quarantined");
  if (s.quarantine_recoveries == 0)
    violate("quarantine never converged: no entry recovered");
  if (tally.poison_planned_after_heal == 0)
    violate("healed poison query was never answered");
  if (s.shed_queue_full == 0)
    violate("overload never tripped the watermark");
  if (report.outcomes_planned == 0) violate("nothing was ever planned");
  if (options.stall_phase && !report.stall_recovered)
    violate("worker-stall phase did not detach + recover as expected");

  return report;
}

}  // namespace celia::serve

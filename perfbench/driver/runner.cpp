#include "runner.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <utility>

#include "core/query.hpp"
#include "core/simd.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = celia::core;
namespace parallel = celia::parallel;
namespace serve = celia::serve;

namespace {

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

std::chrono::steady_clock::time_point to_steady(double t) {
  return epoch() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(t));
}

/// Sleep until shortly before `t`, then yield-spin: the open loop must not
/// fall behind by more than a small part of its inter-arrival time.
void wait_until(double t) {
  for (;;) {
    const double remaining = t - bench_now();
    if (remaining <= 0) return;
    if (remaining > 300e-6)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(remaining - 200e-6));
    else
      std::this_thread::yield();
  }
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr std::uint64_t kTickRequestBase = 1ULL << 62;
/// The traced run keeps spans for this many workload requests; the rest
/// are still timed, just not traced.
constexpr std::uint64_t kTracedRequests = 20000;

}  // namespace

double bench_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch())
      .count();
}

ThreadBudget thread_budget(const WorkloadSpec& spec) {
  ThreadBudget threads;
  threads.nproc = online_cpus();
  threads.workers = spec.workers;
  threads.pool = spec.pool_threads;
  threads.setup_pool = threads.nproc;
  return threads;
}

core::Query make_query(const RequestSpec& request,
                       parallel::ThreadPool* pool) {
  core::SweepOptions options;
  options.collect_pareto = true;
  options.pool = pool;
  return core::Query::make(request.demand, request.constraints, options);
}

std::unique_ptr<serve::PlannerService> make_service(
    const WorkloadSpec& spec, core::PlannerEngine& engine) {
  serve::ServiceOptions options;
  options.num_workers = spec.workers;
  // No shedding and no quota: every request is answered, so a failure is
  // a real error, never an admission artifact.
  options.queue_capacity = std::size_t{1} << 20;
  options.shed_watermark = options.queue_capacity;
  options.default_quota.burst = 1e12;
  options.default_quota.requests_per_second = 1e12;
  options.clock = [] { return bench_now(); };
  return std::make_unique<serve::PlannerService>(engine, std::move(options));
}

std::unique_ptr<Stack> set_up(const WorkloadSpec& spec,
                              const ThreadBudget& threads) {
  const double start = bench_now();
  auto stack = std::make_unique<Stack>();
  stack->world = make_world(spec);
  stack->engine = std::make_unique<core::PlannerEngine>();
  stack->engine->add_catalog("live", stack->world.catalog);
  {
    // Set-up runs alone, so its pool may use every CPU.
    parallel::ThreadPool setup_pool(threads.setup_pool);
    for (std::size_t m = 0; m < stack->world.models.size(); ++m)
      (void)stack->engine->plan(
          "live", stack->world.models[m].capacity,
          make_query(canary_request(spec, stack->world, m), &setup_pool));
  }
  stack->pool = std::make_unique<parallel::ThreadPool>(threads.pool);
  stack->service = make_service(spec, *stack->engine);
  stack->seconds = bench_now() - start;
  return stack;
}

Session::Session(const WorkloadSpec& spec, const RunOptions& options,
                 Stack& stack, SpanRecorder& spans)
    : spec_(spec),
      options_(options),
      stack_(stack),
      spans_(spans),
      generator_(spec, stack.world, options.seed) {
  versions_.push_back({stack.world.catalog, 0.0});
  space_size_ = core::ConfigurationSpace::for_catalog(*stack.world.catalog).size();
  free_at_ = bench_now();
}

Session::Prepared Session::prepare(const RequestSpec& request) const {
  return {request,
          serve::PlanRequest{"bench", "live",
                             stack_.world.models[request.model].capacity,
                             make_query(request, stack_.pool.get()),
                             celia::util::DeadlineBudget{}}};
}

Sent& Session::send(Prepared prepared, Phase phase, double due) {
  Sent& sent = sent_.emplace_back();
  sent.id = sent_.size() - 1;
  sent.request = prepared.request;
  sent.phase = phase;
  sent.due = due;
  // Results are retained for a seeded subset, from which the oracle
  // samples; the rest are checked structurally and dropped.
  const std::uint64_t keep_every =
      spec_.kind == WorkloadKind::kSweepPareto ? 1 : 16;
  sent.keep = mix64(options_.seed ^ (sent.id * 0x9e37ULL)) % keep_every == 0;
  sent.call = bench_now();
  sent.future = stack_.service->submit(std::move(prepared.plan));
  sent.ret = bench_now();
  free_at_ = sent.ret;
  return sent;
}

void Session::collect(Sent& sent) {
  serve::ServeOutcome outcome = sent.future.get();
  sent.collected = true;
  sent.queue_seconds = outcome.queue_seconds;
  sent.total_seconds = outcome.total_seconds;
  sent.resolved = sent.call + outcome.total_seconds;
  sent.coalesced = outcome.coalesced;
  if (outcome.status != serve::ServeStatus::kPlanned) {
    sent.defect = std::string(serve::serve_status_name(outcome.status));
    if (!outcome.error.empty()) sent.defect += ": " + outcome.error;
  } else {
    sent.defect = answer_defect(outcome.result, space_size_, true);
  }
  sent.ok = sent.defect.empty();
  if (sent.keep && sent.ok) sent.result = std::move(outcome.result);
  if (spans_.enabled() && sent.id < kTracedRequests) {
    const double dispatched = sent.call + sent.queue_seconds;
    const std::int64_t root = spans_.add(
        {"serve.request", "serve", sent.call, sent.resolved, -1, sent.id});
    spans_.add({"serve.submit", "serve", sent.call, sent.ret, root, sent.id});
    spans_.add(
        {"serve.queue_wait", "serve", sent.call, dispatched, root, sent.id});
    spans_.add(
        {"serve.dispatch", "serve", dispatched, sent.resolved, root, sent.id});
  }
}

void Session::collect_ready(double until) {
  // Collecting an answer takes about a microsecond; leave a margin so the
  // next request still goes out on time.
  while (first_uncollected_ < sent_.size() &&
         bench_now() + 20e-6 < until) {
    Sent& sent = sent_[first_uncollected_];
    if (!sent.collected) {
      if (sent.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
        return;
      collect(sent);
    }
    ++first_uncollected_;
  }
}

void Session::run_tick(double due, const FeedTick& tick) {
  wait_until(due);
  TickRecord record;
  record.tick = tick;
  record.due = due;

  const auto catalog = std::make_shared<const celia::cloud::Catalog>(
      apply_tick(*versions_.front().catalog, tick, versions_.size()));
  record.start = bench_now();
  stack_.engine->add_catalog("live", catalog, /*replace=*/true);
  record.end = bench_now();
  versions_.push_back({catalog, record.start});
  spans_.add({"engine.add_catalog", "engine", record.start, record.end, -1,
              kTickRequestBase + ticks_.size()});

  // The freshness read: a canary request, the first one planned against
  // the new snapshot.
  const std::size_t model = ticks_.size() % stack_.world.models.size();
  Sent& fresh = send(prepare(canary_request(spec_, stack_.world, model)),
                     Phase::kFresh, record.end);
  record.fresh = fresh.id;
  ticks_.push_back(std::move(record));
}

void Session::closed_phase(double duration) {
  const double start = bench_now();
  const double end = start + duration;
  std::deque<std::size_t> window;
  std::uint64_t k = 0;
  while (bench_now() < end) {
    if (window.size() < spec_.window) {
      Sent& sent = send(prepare(generator_.at(Stream::kClosed, k++)),
                        Phase::kClosed, bench_now());
      sent.due = sent.call;
      window.push_back(sent.id);
      continue;
    }
    Sent& oldest = sent_[window.front()];
    if (oldest.future.wait_until(to_steady(end)) ==
        std::future_status::ready) {
      collect(oldest);
      window.pop_front();
    }
  }
  for (const std::size_t id : window) collect(sent_[id]);
  closed_seconds_ = duration;
  closed_end_ = end;
}

void Session::open_phase(double duration) {
  const double start = bench_now();
  const double interval = 1.0 / spec_.open_rate;
  const auto count = static_cast<std::uint64_t>(duration * spec_.open_rate);
  double previous_due = start;
  for (std::uint64_t k = 0; k < count; ++k) {
    const RequestSpec request = generator_.at(Stream::kOpen, k);
    // A repeat arrives right behind the request it copies, while that one
    // is still in flight, so the service can coalesce the two.
    const double due = request.repeat
                           ? previous_due + std::min(1e-3, interval / 4)
                           : start + static_cast<double>(k) * interval;
    previous_due = due;
    Prepared prepared = prepare(request);
    collect_ready(due);
    wait_until(due);
    const double free_at = free_at_;
    const Sent& sent = send(std::move(prepared), Phase::kOpen, due);
    // How late the generator issued this request after it was both due
    // and back from its previous call; time blocked inside the service's
    // own calls is charged to request latency, not counted here.
    lags_.push_back(sent.call - std::max(due, free_at));
  }
  wait_until(start + duration);
}

void Session::update_probe(double duration) {
  // Evenly spaced price ticks, each followed by its canary read and no
  // other load.
  const double start = bench_now();
  const double spacing = duration / spec_.probe_ticks;
  for (int j = 0; j < spec_.probe_ticks; ++j)
    run_tick(start + (j + 0.5) * spacing,
             price_tick(options_.seed, static_cast<std::uint64_t>(j),
                        stack_.world.catalog->size()));
  wait_until(start + duration);
}

void Session::finish() {
  for (Sent& sent : sent_)
    if (!sent.collected) collect(sent);
  stack_.service->stop();
}

std::size_t Session::version_at(double t) const {
  std::size_t version = 0;
  for (std::size_t v = 1; v < versions_.size(); ++v)
    if (versions_[v].live_from <= t) version = v;
  return version;
}

OracleSummary Session::oracle_check(parallel::ThreadPool& pool) {
  // Seeded, stratified sample of the retained answers: an equal share from
  // each phase that has any, topped up in seeded order.
  std::vector<std::size_t> candidates;
  for (const Sent& sent : sent_)
    if (sent.keep && sent.ok) candidates.push_back(sent.id);
  const std::uint64_t salt = mix64(options_.seed ^ 0x0aac1eULL);
  std::sort(candidates.begin(), candidates.end(),
            [salt](std::size_t a, std::size_t b) {
              return mix64(salt ^ a) < mix64(salt ^ b);
            });
  std::size_t phases = 0;
  for (const Phase phase : {Phase::kClosed, Phase::kOpen, Phase::kFresh})
    phases += std::any_of(candidates.begin(), candidates.end(),
                          [&](std::size_t id) { return sent_[id].phase == phase; });
  const std::size_t quota =
      phases == 0 ? 0 : (spec_.oracle_samples + phases - 1) / phases;
  std::vector<std::size_t> sample;
  std::size_t per_phase[3] = {0, 0, 0};
  for (const std::size_t id : candidates) {
    auto& taken = per_phase[static_cast<int>(sent_[id].phase)];
    if (sample.size() < spec_.oracle_samples && taken < quota) {
      sample.push_back(id);
      ++taken;
    }
  }
  for (const std::size_t id : candidates) {
    if (sample.size() >= spec_.oracle_samples) break;
    if (std::find(sample.begin(), sample.end(), id) == sample.end())
      sample.push_back(id);
  }

  OracleSummary summary;
  for (const std::size_t id : sample) {
    const Sent& sent = sent_[id];
    // The snapshot a request was planned against is the one live when it
    // was dispatched; a dispatch within microseconds of a replace may have
    // seen either neighbour.
    const std::size_t at = version_at(sent.call + sent.queue_seconds);
    OracleCheck first;
    OracleCheck best;
    best.verdict = Verdict::kMismatch;
    for (const std::size_t v : {at, at - 1, at + 1}) {
      if (v >= versions_.size()) continue;
      const auto answer_at = [&](const core::Constraints& constraints,
                                 bool collect_pareto) {
        return oracle_answer(*versions_[v].catalog,
                             stack_.world.models[sent.request.model].capacity,
                             sent.request.demand, constraints, collect_pareto,
                             pool);
      };
      const OracleCheck check = compare_answers(
          sent.result, answer_at(sent.request.constraints, true),
          sent.request.constraints,
          [&](const core::Constraints& constraints) {
            return answer_at(constraints, false).feasible;
          });
      if (v == at) first = check;
      if (check.verdict != Verdict::kMismatch) {
        best = check;
        break;
      }
    }
    ++summary.checked;
    switch (best.verdict) {
      case Verdict::kMatch: ++summary.matched; break;
      case Verdict::kBoundary:
        ++summary.boundary;
        summary.details.push_back("request " + std::to_string(id) +
                                  " boundary: " + best.detail);
        break;
      case Verdict::kMismatch:
        ++summary.mismatched;
        summary.details.push_back("request " + std::to_string(id) +
                                  " mismatch: " + first.detail);
        break;
    }
  }
  return summary;
}

void print_descriptor(
    const RunOptions& options, const WorkloadSpec& spec,
    const ThreadBudget& threads, const World& world,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  const bool oversubscribed = threads.serving() > threads.nproc ||
                              threads.setup_pool > threads.nproc;
  if (oversubscribed)
    std::cerr << "perfbench: declared threads exceed nproc ("
              << threads.serving() << " > " << threads.nproc << ")\n";
  std::cout << "{\"descriptor\":{\"workload\":\"" << workload_name(spec.kind)
            << "\",\"seed\":" << options.seed
            << ",\"seconds\":" << number(options.seconds)
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"nproc\":" << threads.nproc << ",\"simd\":\""
            << core::simd::level_name(core::simd::active_level())
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"threads\":{\"generator\":" << threads.generator
            << ",\"workers\":" << threads.workers
            << ",\"pool\":" << threads.pool
            << ",\"serving_total\":" << threads.serving()
            << ",\"setup_pool\":" << threads.setup_pool
            << "},\"threads_exceed_nproc\":"
            << (oversubscribed ? "true" : "false")
            << ",\"catalog\":\"" << world.catalog->name()
            << "\",\"configurations\":"
            << core::ConfigurationSpace::for_catalog(*world.catalog).size()
            << ",\"open_rate_per_s\":" << number(spec.open_rate)
            << ",\"window\":" << spec.window;
  for (const auto& [key, value] : extra)
    std::cout << ",\"" << key << "\":" << value;
  std::cout << "}}\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i == 0 ? "" : ",") << "\"" << metrics[i].name
              << "\":{\"value\":" << number(metrics[i].value)
              << ",\"unit\":\"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench

// The traced run: per-layer metrics from the benchmark's own calls into
// each layer's public functions.
//
//   1. A serial replay of the workload's requests through the service,
//      untraced and then traced, while the engine's indexes are pristine:
//      the traced replay's self-time table and trace.overhead_ratio come
//      from these two.
//   2. The workload itself (same phases as the untraced run) with one span
//      per request (submit, queue wait, dispatch) and per catalog replace,
//      plus counter deltas of the serve and engine layers.
//   3. The same requests directly against PlannerEngine::plan, then the
//      layer below: FrontierIndex::query on a direct build for index-route
//      requests, core::sweep with IndexPolicy::Never() for sweep-route ones.
//   4. FrontierIndex::repriced / with_limit on the workload's feed, and the
//      sweep on the workload's requests with and without Pareto collection.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>

#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "runner.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = celia::core;
namespace obs = celia::obs;
namespace parallel = celia::parallel;
namespace serve = celia::serve;

namespace {

constexpr std::uint64_t kReplayRequestBase = 1ULL << 61;

struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;
  std::vector<std::uint64_t> block_buckets;

  static CounterSnapshot take() {
    static const char* const kNames[] = {
        "celia_serve_submitted_total",
        "celia_serve_coalesced_total",
        "celia_serve_shed_total",
        "celia_planner_engine_index_hits_total",
        "celia_planner_engine_index_builds_total",
        "celia_planner_engine_sweeps_total",
        "celia_planner_engine_degraded_total",
        "celia_planner_engine_delta_rescale_total",
        "celia_planner_engine_delta_rebuild_total",
        "celia_sweep_configurations_total",
    };
    CounterSnapshot snapshot;
    for (const char* name : kNames)
      snapshot.values[name] = obs::counter(name).value();
    snapshot.block_buckets =
        obs::histogram("celia_sweep_block_seconds").bucket_counts();
    return snapshot;
  }

  double delta(const CounterSnapshot& before, const std::string& name) const {
    return static_cast<double>(values.at(name) - before.values.at(name));
  }
};

double block_quantile(const CounterSnapshot& before,
                      const CounterSnapshot& after, double q) {
  const obs::Histogram& histogram = obs::histogram("celia_sweep_block_seconds");
  std::vector<std::uint64_t> window(after.block_buckets.size());
  for (std::size_t i = 0; i < window.size(); ++i)
    window[i] = after.block_buckets[i] - before.block_buckets[i];
  return obs::quantile_from_buckets(histogram.bounds(), window, q);
}

double seconds_since(double start) { return bench_now() - start; }

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double tail(const std::vector<double>& values) {
  return percentile(values, tail_for_count(values.size()).q);
}

}  // namespace

int run_traced(const RunOptions& options) {
  const WorkloadSpec& spec = workload_spec(options.kind);
  const ThreadBudget threads = thread_budget(spec);
  SpanRecorder spans(true);
  std::unique_ptr<Stack> stack = set_up(spec, threads);
  const World& world = stack->world;
  const auto base = world.catalog;
  const std::uint64_t space_size =
      core::ConfigurationSpace::for_catalog(*base).size();

  // ---- 1. Serial replay through the service, then the engine ------------
  // First, while the engine's indexes are still the pristine ones the
  // direct builds below reproduce.
  std::uint64_t errors = 0;
  const RequestGenerator generator(spec, world, options.seed);
  std::vector<RequestSpec> replay;
  for (std::size_t i = 0; i < spec.replay_requests; ++i)
    replay.push_back(generator.at(Stream::kOpen, i));
  const auto plan_request = [&](const RequestSpec& request) {
    return serve::PlanRequest{"bench", "live",
                              world.models[request.model].capacity,
                              make_query(request, stack->pool.get()),
                              celia::util::DeadlineBudget{}};
  };

  // One untimed pass warms the path; then each request is replayed once
  // untraced and once traced, which one first alternating, so neither side
  // always finds the caches warmed by the other.
  for (const RequestSpec& request : replay)
    errors += stack->service->submit(plan_request(request)).get().status !=
              serve::ServeStatus::kPlanned;
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  std::vector<std::int64_t> dispatch_span(replay.size());
  const auto untraced = [&](std::size_t i) {
    const double start = bench_now();
    errors += stack->service->submit(plan_request(replay[i])).get().status !=
              serve::ServeStatus::kPlanned;
    untraced_seconds += seconds_since(start);
  };
  const auto traced = [&](std::size_t i) {
    const std::uint64_t id = kReplayRequestBase + i;
    serve::PlanRequest request = plan_request(replay[i]);
    const double call = bench_now();
    std::future<serve::ServeOutcome> future =
        stack->service->submit(std::move(request));
    const double ret = bench_now();
    const serve::ServeOutcome outcome = future.get();
    const double woke = bench_now();
    traced_seconds += woke - call;
    errors += outcome.status != serve::ServeStatus::kPlanned;
    const double dispatched = call + outcome.queue_seconds;
    const std::int64_t root =
        spans.add({"serve.request", "serve", call, woke, -1, id});
    spans.add({"serve.submit", "serve", call, ret, root, id});
    spans.add({"serve.queue_wait", "serve", call, dispatched, root, id});
    dispatch_span[i] = spans.add({"serve.dispatch", "serve", dispatched,
                                  call + outcome.total_seconds, root, id});
  };
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (i % 2 == 0) {
      untraced(i);
      traced(i);
    } else {
      traced(i);
      untraced(i);
    }
  }

  std::vector<double> plan_ms;
  std::vector<std::int64_t> plan_span(replay.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const RequestSpec& request = replay[i];
    const double start = bench_now();
    (void)stack->engine->plan("live", world.models[request.model].capacity,
                              make_query(request, stack->pool.get()));
    const double end = bench_now();
    plan_ms.push_back((end - start) * 1e3);
    plan_span[i] = spans.add({"engine.plan", "engine", start, end,
                              dispatch_span[i], kReplayRequestBase + i});
  }

  // ---- 2. The workload, traced ------------------------------------------
  const CounterSnapshot run_before = CounterSnapshot::take();
  Session session(spec, options, *stack, spans);
  session.closed_phase(options.seconds * spec.closed_share);
  session.open_phase(options.seconds * spec.open_share);
  session.update_probe(options.seconds * spec.probe_share);
  session.finish();
  const CounterSnapshot run_after = CounterSnapshot::take();
  OracleSummary oracle;
  {
    parallel::ThreadPool pool(threads.nproc);
    oracle = session.oracle_check(pool);
  }
  errors += oracle.mismatched;

  std::vector<double> submit_us, queue_ms, dispatch_ms;
  for (const Sent& sent : session.sent()) {
    submit_us.push_back((sent.ret - sent.call) * 1e6);
    if (!sent.ok) {
      ++errors;
      continue;
    }
    queue_ms.push_back(sent.queue_seconds * 1e3);
    dispatch_ms.push_back((sent.total_seconds - sent.queue_seconds) * 1e3);
  }
  std::vector<double> replace_ms;
  for (const TickRecord& tick : session.ticks())
    replace_ms.push_back((tick.end - tick.start) * 1e3);
  const double cache_bytes =
      static_cast<double>(stack->engine->cached_index_bytes());
  const double submitted =
      run_after.delta(run_before, "celia_serve_submitted_total");

  // ---- 3. The layer below the engine, on the replayed requests ----------
  // The engine's cached indexes are no longer needed; free them before the
  // direct builds.
  stack->service.reset();
  stack->engine.reset();

  std::vector<double> build_s, query_us, sweep_ms, sweep_nopareto_ms;
  std::vector<double> frontier_lengths;
  double index_bytes = 0.0;
  double index_frontier = 0.0;
  double feasible = 0.0, walked = 0.0;
  std::optional<core::FrontierIndex> anchor;  // model 0, for the deltas
  parallel::ThreadPool build_pool(threads.setup_pool);
  const core::ConfigurationSpace space = core::ConfigurationSpace::for_catalog(*base);
  for (std::size_t m = 0; m < world.models.size(); ++m) {
    core::FrontierIndex::BuildOptions build_options;
    build_options.pool = &build_pool;
    double start = bench_now();
    core::FrontierIndex index = core::FrontierIndex::build(
        space, world.models[m].capacity, *base, build_options);
    const double end = bench_now();
    build_s.push_back(end - start);
    spans.add({"index.build", "index", start, end, -1, kReplayRequestBase - 1 - m});
    if (m == 0) {
      index_bytes = static_cast<double>(index.memory_bytes());
      index_frontier = static_cast<double>(index.frontier().size());
    }
    // Sweep-route requests are answered by the index in their deterministic
    // form, for the index layer's own numbers. A first untimed pass warms
    // the freshly built index, as the engine's cached one was warm.
    for (const bool timed : {false, true}) {
      for (std::size_t i = 0; i < replay.size(); ++i) {
        if (replay[i].model != m) continue;
        RequestSpec deterministic = replay[i];
        deterministic.constraints.confidence_z = 0.0;
        deterministic.constraints.rate_sigma = 0.0;
        const core::Query query = make_query(deterministic, nullptr);
        start = bench_now();
        const core::SweepResult result = index.query(query);
        const double done = bench_now();
        if (!timed) continue;
        query_us.push_back((done - start) * 1e6);
        if (!spec.risk_aware)
          spans.add({"index.query", "index", start, done, plan_span[i],
                     kReplayRequestBase + i});
        errors += !answer_defect(result, space_size, true).empty();
      }
    }
    if (m == 0) anchor.emplace(std::move(index));
  }

  // Sweep layer: every sweep-route request of the replay, or a few of the
  // index-route ones, with and without Pareto collection.
  const std::size_t sweep_calls =
      spec.risk_aware ? replay.size() : std::min<std::size_t>(3, replay.size());
  const CounterSnapshot sweep_before = CounterSnapshot::take();
  for (std::size_t i = 0; i < sweep_calls; ++i) {
    const RequestSpec& request = replay[i];
    const double start = bench_now();
    const core::SweepResult result = oracle_answer(
        *base, world.models[request.model].capacity, request.demand,
        request.constraints, true, *stack->pool);
    const double end = bench_now();
    sweep_ms.push_back((end - start) * 1e3);
    frontier_lengths.push_back(static_cast<double>(result.pareto.size()));
    feasible += static_cast<double>(result.feasible);
    walked += static_cast<double>(result.total);
    if (spec.risk_aware)
      spans.add({"sweep", "sweep", start, end, plan_span[i],
                 kReplayRequestBase + i});
  }
  const CounterSnapshot sweep_after = CounterSnapshot::take();
  for (std::size_t i = 0; i < sweep_calls; ++i) {
    const RequestSpec& request = replay[i];
    const double start = bench_now();
    (void)oracle_answer(*base, world.models[request.model].capacity,
                        request.demand, request.constraints, false,
                        *stack->pool);
    sweep_nopareto_ms.push_back(seconds_since(start) * 1e3);
  }
  double sweep_total = 0.0, sweep_nopareto_total = 0.0;
  for (const double t : sweep_ms) sweep_total += t;
  for (const double t : sweep_nopareto_ms) sweep_nopareto_total += t;

  // ---- 4. Index deltas on the workload's feed ---------------------------
  // Price ticks chain like the engine's cache does; the limit decrease
  // applies to the pristine anchor (deltas refuse a repriced one).
  std::vector<double> repriced_ms, with_limit_ms;
  std::size_t delta_attempts = 0, delta_refusals = 0;
  {
    const std::size_t types = base->size();
    std::vector<FeedTick> price_ticks;
    for (const TickRecord& tick : session.ticks())
      if (price_ticks.size() < 8) price_ticks.push_back(tick.tick);
    const core::FrontierIndex* current = &*anchor;
    std::optional<core::FrontierIndex> chained;
    for (std::size_t k = 0; k < price_ticks.size(); ++k) {
      const celia::cloud::Catalog next =
          apply_tick(*base, price_ticks[k], k + 1);
      const double start = bench_now();
      std::optional<core::FrontierIndex> derived = current->repriced(next);
      const double end = bench_now();
      repriced_ms.push_back((end - start) * 1e3);
      spans.add({"index.repriced", "index", start, end, -1,
                 kReplayRequestBase - 100 - k});
      ++delta_attempts;
      if (!derived) {
        ++delta_refusals;
        continue;
      }
      chained = std::move(derived);
      current = &*chained;
    }
    chained.reset();
    const FeedTick limit = limit_tick(options.seed, types);
    const celia::cloud::Catalog shrunk = apply_tick(*base, limit, 99);
    const double start = bench_now();
    const std::optional<core::FrontierIndex> narrowed = anchor->with_limit(
        limit.type, shrunk.limit(limit.type), shrunk);
    const double end = bench_now();
    with_limit_ms.push_back((end - start) * 1e3);
    spans.add({"index.with_limit", "index", start, end, -1,
               kReplayRequestBase - 200});
    ++delta_attempts;
    delta_refusals += !narrowed.has_value();
  }

  // ---- Self-time table ---------------------------------------------------
  const std::map<std::string, double> self = layer_self_seconds(
      spans.spans(), kReplayRequestBase, kReplayRequestBase + replay.size() - 1);
  double layer_sum = 0.0;
  for (const auto& [layer, seconds] : self) layer_sum += seconds;
  const double requests = static_cast<double>(replay.size());
  const double overhead_ratio = ratio(traced_seconds, untraced_seconds) - 1.0;
  const double layer_sum_ratio = ratio(layer_sum, untraced_seconds);
  std::cout << "# traced serial replay of " << replay.size()
            << " requests; self time per request along the blocking path:\n";
  for (const auto& [layer, seconds] : self)
    std::cout << "#   " << layer << "  " << number(seconds / requests * 1e3)
              << " ms  (" << number(100.0 * ratio(seconds, layer_sum))
              << "%)\n";
  std::cout << "#   sum " << number(layer_sum / requests * 1e3)
            << " ms vs untraced end-to-end "
            << number(untraced_seconds / requests * 1e3) << " ms: ratio "
            << number(layer_sum_ratio)
            << (std::abs(layer_sum_ratio - 1.0) <= 0.05 ? " (within 5%)"
                                                         : " (OFF by > 5%)")
            << "; trace.overhead_ratio " << number(overhead_ratio) << "\n";

  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
    const std::filesystem::path path =
        std::filesystem::path(options.trace_dir) /
        (std::string(workload_name(spec.kind)) + "-seed" +
         std::to_string(options.seed) + ".trace.json");
    std::ofstream out(path);
    spans.write_chrome_trace(out, 200000);
    std::cout << "# chrome trace: " << path.string() << " ("
              << spans.spans().size() << " spans)\n";
  }

  const std::vector<Metric> metrics = {
      {"serve.submit_p50_us", "us", percentile(submit_us, 0.5)},
      {"serve.queue_wait_p50_ms", "ms", percentile(queue_ms, 0.5)},
      {"serve.queue_wait_tail_ms", "ms", tail(queue_ms)},
      {"serve.dispatch_p50_ms", "ms", percentile(dispatch_ms, 0.5)},
      {"serve.coalesced_ratio", "ratio",
       ratio(run_after.delta(run_before, "celia_serve_coalesced_total"),
             submitted)},
      {"serve.shed_ratio", "ratio",
       ratio(run_after.delta(run_before, "celia_serve_shed_total"), submitted)},
      {"engine.plan_p50_ms", "ms", percentile(plan_ms, 0.5)},
      {"engine.plan_tail_ms", "ms", tail(plan_ms)},
      {"engine.index_hits", "count",
       run_after.delta(run_before, "celia_planner_engine_index_hits_total")},
      {"engine.index_builds", "count",
       run_after.delta(run_before, "celia_planner_engine_index_builds_total")},
      {"engine.sweeps", "count",
       run_after.delta(run_before, "celia_planner_engine_sweeps_total")},
      {"engine.degraded", "count",
       run_after.delta(run_before, "celia_planner_engine_degraded_total")},
      {"engine.replace_p50_ms", "ms", percentile(replace_ms, 0.5)},
      {"engine.replace_tail_ms", "ms", tail(replace_ms)},
      {"engine.delta_rescale", "count",
       run_after.delta(run_before, "celia_planner_engine_delta_rescale_total")},
      {"engine.delta_rebuild", "count",
       run_after.delta(run_before, "celia_planner_engine_delta_rebuild_total")},
      {"engine.cache_bytes", "bytes", cache_bytes},
      {"sweep.call_p50_ms", "ms", percentile(sweep_ms, 0.5)},
      {"sweep.call_tail_ms", "ms", tail(sweep_ms)},
      {"sweep.pareto_share", "ratio",
       1.0 - ratio(sweep_nopareto_total, sweep_total)},
      {"sweep.configs_per_s", "1/s",
       ratio(sweep_after.delta(sweep_before,
                               "celia_sweep_configurations_total"),
             sweep_total / 1e3)},
      {"sweep.feasible_ratio", "ratio", ratio(feasible, walked)},
      {"sweep.frontier_len_p50", "count", percentile(frontier_lengths, 0.5)},
      {"sweep.block_p50_ms", "ms",
       block_quantile(sweep_before, sweep_after, 0.5) * 1e3},
      {"sweep.block_tail_ms", "ms",
       block_quantile(sweep_before, sweep_after, 0.99) * 1e3},
      {"index.build_s", "s", percentile(build_s, 0.5)},
      {"index.bytes", "bytes", index_bytes},
      {"index.frontier_len", "count", index_frontier},
      {"index.query_p50_us", "us", percentile(query_us, 0.5)},
      {"index.query_tail_us", "us", tail(query_us)},
      {"index.repriced_p50_ms", "ms", percentile(repriced_ms, 0.5)},
      {"index.with_limit_p50_ms", "ms", percentile(with_limit_ms, 0.5)},
      {"index.delta_refusal_ratio", "ratio",
       ratio(static_cast<double>(delta_refusals),
             static_cast<double>(delta_attempts))},
      {"loadgen.lag_tail_ms", "ms", percentile(session.lags(), 0.99) * 1e3},
      {"trace.overhead_ratio", "ratio", overhead_ratio},
      {"trace.layer_sum_ratio", "ratio", layer_sum_ratio},
  };
  const std::uint64_t attempted =
      session.sent().size() + 2 * replay.size();
  print_descriptor(options, spec, threads, world,
                   {{"replay_requests", std::to_string(replay.size())},
                    {"spans", std::to_string(spans.spans().size())},
                    {"oracle_checked", std::to_string(oracle.checked)},
                    {"oracle_boundary", std::to_string(oracle.boundary)}});
  print_result(errors == 0, attempted, errors, metrics);
  return 0;
}

}  // namespace perfbench

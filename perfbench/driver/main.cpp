// perfbench: end-to-end benchmark of the CELIA planner stack.
//
//   perfbench --workload <index_reads|sweep_pareto>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "runner.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// A failed or refused request misses every latency limit.
constexpr double kFailedLatencyMs = 1e9;
/// The open loop is valid while its generator issued p99 of requests no
/// later than this share of the inter-arrival time after they were due.
constexpr double kLagLimitShare = 0.5;
/// The tail percentile of latency_tail_ms and update_tail_ms on every
/// workload. sweep_pareto's open loop (about 440 requests) supports no
/// higher one; on index_reads p99 swings several-fold between runs on a
/// shared 4-core box, because a single scheduling stall moves it.
constexpr double kTail = 0.90;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <index_reads|sweep_pareto> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int run_untraced(const RunOptions& options) {
  const WorkloadSpec& spec = workload_spec(options.kind);
  const ThreadBudget threads = thread_budget(spec);

  // Set up several times and keep the last: setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    stack.reset();
    stack = set_up(spec, threads);
    setups.push_back(stack->seconds);
  }

  SpanRecorder spans(false);
  Session session(spec, options, *stack, spans);
  session.closed_phase(options.seconds * spec.closed_share);
  session.open_phase(options.seconds * spec.open_share);
  session.update_probe(options.seconds * spec.probe_share);
  session.finish();
  OracleSummary oracle;
  {
    celia::parallel::ThreadPool pool(threads.nproc);
    oracle = session.oracle_check(pool);
  }

  std::uint64_t errors = oracle.mismatched;
  std::uint64_t answered = 0;
  std::uint64_t coalesced = 0;
  std::vector<double> latencies_ms;
  for (const Sent& sent : session.sent()) {
    if (!sent.ok && errors++ < 5)
      std::cerr << "perfbench: request " << sent.id << ": " << sent.defect
                << "\n";
    coalesced += sent.coalesced;
    if (sent.phase == Phase::kClosed && sent.ok &&
        sent.resolved <= session.closed_end())
      ++answered;
    if (sent.phase == Phase::kOpen)
      latencies_ms.push_back(sent.ok ? (sent.resolved - sent.due) * 1e3
                                     : kFailedLatencyMs);
  }
  for (const std::string& detail : oracle.details)
    std::cerr << "perfbench: oracle " << detail << "\n";
  std::vector<double> updates_ms;
  for (const TickRecord& tick : session.ticks()) {
    const Sent& fresh = session.sent()[tick.fresh];
    updates_ms.push_back(fresh.ok ? (fresh.resolved - tick.due) * 1e3
                                  : kFailedLatencyMs);
  }

  const double lag_tail_ms = percentile(session.lags(), 0.99) * 1e3;
  const double interarrival_ms = 1e3 / spec.open_rate;
  const bool valid = lag_tail_ms <= kLagLimitShare * interarrival_ms;
  if (!valid)
    std::cerr << "perfbench: INVALID run: open-loop generator p99 lag "
              << lag_tail_ms << " ms exceeds " << kLagLimitShare
              << " of the " << interarrival_ms << " ms inter-arrival time\n";
  const std::uint64_t attempted = session.sent().size();

  const std::vector<Metric> metrics = {
      {"setup_s", "s", percentile(setups, 0.5)},
      {"answers_per_s", "1/s",
       static_cast<double>(answered) / session.closed_seconds()},
      {"latency_p50_ms", "ms", percentile(latencies_ms, 0.5)},
      {"latency_tail_ms", "ms", percentile(latencies_ms, kTail)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"update_p50_ms", "ms", percentile(updates_ms, 0.5)},
      {"update_tail_ms", "ms", percentile(updates_ms, kTail)},
  };

  std::cout << "# " << workload_name(spec.kind) << " seed " << options.seed
            << ": " << setups.size() << " set-ups, median "
            << number(metrics[0].value) << " s\n"
            << "# closed loop (window " << spec.window << ", "
            << number(session.closed_seconds()) << " s): " << answered
            << " verified answers\n"
            << "# open loop (" << number(spec.open_rate) << "/s): "
            << latencies_ms.size() << " requests, latency p50 "
            << number(metrics[2].value) << " ms, p90 "
            << number(metrics[3].value) << " ms; generator lag p99 "
            << number(lag_tail_ms) << " ms (" << (valid ? "valid" : "INVALID")
            << ")\n"
            << "# catalog ticks: " << updates_ms.size() << ", update p50 "
            << number(metrics[5].value) << " ms, p90 "
            << number(metrics[6].value) << " ms\n"
            << "# oracle: " << oracle.checked << " checked, " << oracle.matched
            << " exact, " << oracle.boundary << " boundary, "
            << oracle.mismatched << " mismatched\n"
            << "# errors " << errors << " of " << attempted
            << " submitted (error_ratio "
            << number(static_cast<double>(errors) /
                      static_cast<double>(attempted))
            << "), coalesced " << coalesced << "\n";
  print_descriptor(
      options, spec, threads, stack->world,
      {{"tail_percentile", "\"p90\""},
       {"latency_samples", std::to_string(latencies_ms.size())},
       {"update_samples", std::to_string(updates_ms.size())},
       {"lag_p99_ms", number(lag_tail_ms)},
       {"valid", valid ? "true" : "false"},
       {"error_ratio", number(static_cast<double>(errors) /
                              static_cast<double>(attempted))},
       {"oracle_checked", std::to_string(oracle.checked)},
       {"oracle_boundary", std::to_string(oracle.boundary)},
       {"request_digest", std::to_string(request_digest(
                              options.kind, options.seed, 64))}});
  print_result(errors == 0, attempted, errors, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto kind = parse_workload(value);
      if (!kind) return usage("unknown workload");
      options.kind = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  try {
    return options.trace ? run_traced(options) : run_untraced(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}

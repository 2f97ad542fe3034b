#pragma once
// The benchmark's load generation over the public planner stack:
// serve::PlannerService -> core::PlannerEngine -> core::sweep /
// core::FrontierIndex. One Session drives one set-up through the
// workload's phases from a single generator thread:
//
//   closed loop   a fixed window of requests in flight; gives answers_per_s;
//   open loop     arrivals at the workload's fixed rate, each timed from when
//                 it was due; gives latency_p50_ms / latency_tail_ms;
//   update probe  catalog price ticks through add_catalog(replace), each
//                 followed by one canary read; gives update_*.

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/planner_engine.hpp"
#include "oracle.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/planner_service.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Seconds on the benchmark clock (steady, process-relative). The service
/// is given this clock, so its queue and total times line up with ours.
double bench_now();

struct RunOptions {
  WorkloadKind kind = WorkloadKind::kIndexReads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its chrome trace
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Threads the run declares: one generator, the service's workers and the
/// sweep/build pool while serving. Set-up runs alone on `setup_pool`.
struct ThreadBudget {
  std::size_t nproc = 1;
  std::size_t generator = 1;
  std::size_t workers = 1;
  std::size_t pool = 1;
  std::size_t setup_pool = 1;
  std::size_t serving() const { return generator + workers + pool; }
};

ThreadBudget thread_budget(const WorkloadSpec& spec);

/// One set-up: what a run serves with.
struct Stack {
  World world;
  std::unique_ptr<celia::core::PlannerEngine> engine;
  std::unique_ptr<celia::parallel::ThreadPool> pool;
  std::unique_ptr<celia::serve::PlannerService> service;
  double seconds = 0.0;  // set-up wall time
};

/// Characterize the models, register the catalog, warm the engine (index
/// builds for index-eligible workloads, one sweep per model otherwise) and
/// start the service. Timed as a whole.
std::unique_ptr<Stack> set_up(const WorkloadSpec& spec,
                              const ThreadBudget& threads);

std::unique_ptr<celia::serve::PlannerService> make_service(
    const WorkloadSpec& spec, celia::core::PlannerEngine& engine);

/// The planner query of a generated request, run on `pool`.
celia::core::Query make_query(const RequestSpec& request,
                              celia::parallel::ThreadPool* pool);

/// One catalog snapshot the feed published. Price ticks keep the catalog's
/// structure, so the models' capacities stay valid for every snapshot.
struct Version {
  std::shared_ptr<const celia::cloud::Catalog> catalog;
  double live_from = 0.0;  // when its add_catalog started
};

enum class Phase { kClosed = 0, kOpen = 1, kFresh = 2 };

/// One submitted request and what became of it.
struct Sent {
  std::uint64_t id = 0;
  RequestSpec request;
  Phase phase = Phase::kClosed;
  double due = 0.0;   // when it was due (closed loop: when it was sent)
  double call = 0.0;  // submit() entered
  double ret = 0.0;   // submit() returned
  std::future<celia::serve::ServeOutcome> future;
  bool collected = false;
  bool ok = false;            // kPlanned and structurally sound
  std::string defect;         // why not ok
  double resolved = 0.0;      // call + the service's total time
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  bool coalesced = false;
  bool keep = false;          // result retained for the oracle
  celia::core::SweepResult result;
};

struct TickRecord {
  FeedTick tick;
  double due = 0.0;
  double start = 0.0;  // add_catalog entered
  double end = 0.0;    // add_catalog returned
  std::size_t fresh = 0;  // index in Session::sent() of the freshness read
};

struct OracleSummary {
  std::size_t checked = 0;
  std::size_t matched = 0;
  std::size_t boundary = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> details;
};

class Session {
 public:
  Session(const WorkloadSpec& spec, const RunOptions& options, Stack& stack,
          SpanRecorder& spans);

  /// Closed loop for `duration` seconds.
  void closed_phase(double duration);
  /// Open loop at spec.open_rate for `duration` seconds.
  void open_phase(double duration);
  /// spec.probe_ticks price ticks spread over `duration` seconds.
  void update_probe(double duration);

  /// Wait for every request and stop the service.
  void finish();

  /// Re-answer a seeded sample of answers with the sweep on the snapshot
  /// each was planned against. Call after finish().
  OracleSummary oracle_check(celia::parallel::ThreadPool& pool);

  const std::deque<Sent>& sent() const { return sent_; }
  const std::vector<TickRecord>& ticks() const { return ticks_; }
  const std::vector<double>& lags() const { return lags_; }
  double closed_seconds() const { return closed_seconds_; }
  double closed_end() const { return closed_end_; }

 private:
  /// A request ready to send.
  struct Prepared {
    RequestSpec request;
    celia::serve::PlanRequest plan;
  };

  Prepared prepare(const RequestSpec& request) const;
  Sent& send(Prepared prepared, Phase phase, double due);
  void collect(Sent& sent);
  void collect_ready(double until);
  void run_tick(double due, const FeedTick& tick);
  std::size_t version_at(double t) const;

  const WorkloadSpec& spec_;
  RunOptions options_;
  Stack& stack_;
  SpanRecorder& spans_;
  RequestGenerator generator_;
  std::vector<Version> versions_;
  std::uint64_t space_size_ = 0;
  std::deque<Sent> sent_;
  std::size_t first_uncollected_ = 0;
  std::vector<TickRecord> ticks_;
  std::vector<double> lags_;
  double free_at_ = 0.0;  // when the generator last came back from a call
  double closed_seconds_ = 0.0;
  double closed_end_ = 0.0;
};

/// The untraced run: end-to-end metrics.
int run_untraced(const RunOptions& options);
/// The traced run: per-layer metrics (driver/layers.cpp).
int run_traced(const RunOptions& options);

/// Shared output: the descriptor line and the final result line.
void print_descriptor(const RunOptions& options, const WorkloadSpec& spec,
                      const ThreadBudget& threads, const World& world,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra);
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench

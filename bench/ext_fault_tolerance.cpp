// Extension E5: fault-injection stress test of the fail-never optimum.
//
// Algorithm 1's min-cost pick sits at the deadline edge by construction:
// the cheapest feasible configuration is the slowest one that still fits.
// Under a nonzero per-node MTBF that edge is exactly where one crash —
// rollback to the last checkpoint plus a replacement boot — pushes the run
// over. This bench sweeps fault rates x provider seeds: for each rate it
// plans twice (fail-never sweep vs the failure-aware reliable_min_cost),
// replays BOTH picks through the fault-injected executor, and reports the
// deadline-miss rate and the realized-cost regret of having planned as if
// nodes never die. Every number is a pure function of the printed seeds.

#include <iostream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "cloud/cluster_exec.hpp"
#include "cloud/provider.hpp"
#include "core/reliability.hpp"
#include "hw/ipc_model.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace celia;

constexpr hw::WorkloadClass kWc = hw::WorkloadClass::kNBody;
constexpr double kDeadline = 7200.0;  // 2 h
/// Both plans target 93% of the deadline: the same engineering margin for
/// what neither planner prices — a BSP step paces at the SLOWEST
/// instance's lognormal speed draw, plus checkpoint writes, sync rounds
/// and boot delay. The shared residual shows up in the MTBF=never row,
/// identically for both plans; the deltas above it are crash-driven.
constexpr double kPlanDeadline = 0.93 * kDeadline;
constexpr std::uint64_t kSteps = 100;
constexpr std::uint64_t kSeedBase = 1000;
constexpr int kSeeds = 40;

apps::Workload make_workload(double demand) {
  apps::Workload workload;
  workload.app_name = "ext_fault_tolerance";
  workload.workload_class = kWc;
  workload.pattern = apps::ParallelPattern::kBulkSynchronous;
  workload.steps = kSteps;
  workload.instructions_per_step = demand / kSteps;
  workload.sync_bytes_per_step = 1e6;
  workload.total_instructions = demand;
  return workload;
}

core::ResourceCapacity nominal_capacity() {
  std::vector<double> per_vcpu;
  per_vcpu.reserve(cloud::catalog_size());
  for (const auto& type : cloud::ec2_catalog())
    per_vcpu.push_back(hw::vcpu_rate(type.microarch, kWc));
  return core::ResourceCapacity(std::move(per_vcpu),
                               cloud::Catalog::ec2_table3());
}

struct SimOutcome {
  int misses = 0;
  double mean_seconds = 0.0;
  double mean_cost = 0.0;
  std::uint64_t failures = 0;
};

SimOutcome simulate(const core::ConfigurationSpace& space,
                    std::uint64_t config_index, const apps::Workload& workload,
                    const cloud::FaultModel& model,
                    const cloud::FaultExecutionOptions& options) {
  const core::Configuration config = space.decode(config_index);
  const cloud::ClusterExecutor executor;
  SimOutcome outcome;
  for (int s = 0; s < kSeeds; ++s) {
    cloud::CloudProvider provider(kSeedBase + s);
    const auto fleet = provider.provision_with_faults(config, model);
    const auto report =
        executor.execute_with_faults(workload, provider, fleet, config,
                                     options);
    if (!report.completed || report.seconds > kDeadline) ++outcome.misses;
    outcome.mean_seconds += report.seconds / kSeeds;
    outcome.mean_cost += report.cost / kSeeds;
    outcome.failures += report.faults.node_failures;
  }
  return outcome;
}

}  // namespace

int main() {
  const double demand = 2e14;
  const auto capacity = nominal_capacity();
  const core::ConfigurationSpace space(std::vector<int>(9, 3));
  const apps::Workload workload = make_workload(demand);

  std::cout << "=== Extension E5: failure-aware planning vs the fail-never "
               "optimum ===\n"
            << "bulk-synchronous run, demand "
            << util::format_instructions(demand) << ", deadline "
            << util::format_duration(kDeadline) << ", space "
            << space.size() << " configurations\n"
            << "fault channel: exponential crashes + 15 s mean boot delay; "
            << kSeeds << " seeds from " << kSeedBase << " per rate\n\n";

  static benchio::CsvSink sink("ext_fault_tolerance");
  sink.header({"mtbf_hours", "plan", "config", "planned_cost",
               "planned_hours", "miss_rate", "mean_cost", "mean_hours",
               "node_failures"});

  util::TablePrinter table({"MTBF", "plan", "config", "planned $",
                            "planned T", "miss rate", "realized $",
                            "realized T", "crashes"});
  for (std::size_t c : {3u, 4u, 5u, 6u, 7u, 8u}) table.set_right_aligned(c);

  bool aware_always_safer = true;
  std::string regret_lines;
  for (const double mtbf : {0.0, 4e5, 2e5, 1e5}) {
    core::ReliabilitySpec spec;
    spec.mtbf_seconds = mtbf;
    spec.recovery_seconds = 60.0;
    spec.checkpoint_interval_seconds = 600.0;
    spec.checkpoint_write_seconds = 10.0;

    const cloud::Catalog& catalog = cloud::Catalog::ec2_table3();
    const auto fail_never =
        core::reliable_min_cost(space, capacity, catalog, demand,
                                kPlanDeadline, core::ReliabilitySpec{});
    const auto aware = core::reliable_min_cost(space, capacity, catalog,
                                               demand, kPlanDeadline, spec);
    if (!fail_never || !aware) {
      std::cout << "MTBF " << mtbf << ": no feasible configuration\n";
      continue;
    }

    cloud::FaultModel model;
    model.mtbf_seconds = mtbf;
    model.boot_delay_seconds = 15.0;
    cloud::FaultExecutionOptions options;
    options.faults = model;
    options.checkpoint.interval_seconds = spec.checkpoint_interval_seconds;
    options.checkpoint.write_cost_seconds = spec.checkpoint_write_seconds;

    const std::string mtbf_label =
        mtbf == 0.0 ? "never" : util::format_duration(mtbf);
    const auto report_plan = [&](const char* name,
                                 const core::ReliablePoint& pick) {
      const auto outcome =
          simulate(space, pick.config_index, workload, model, options);
      const double miss_rate = static_cast<double>(outcome.misses) / kSeeds;
      table.add_row({mtbf_label, name,
                     core::to_string(space.decode(pick.config_index)),
                     util::format_money(pick.base_cost),
                     util::format_duration(pick.expected_seconds),
                     util::format_percent(miss_rate),
                     util::format_money(outcome.mean_cost),
                     util::format_duration(outcome.mean_seconds),
                     std::to_string(outcome.failures)});
      sink.row({util::format_fixed(mtbf / 3600.0, 2), name,
                core::to_string(space.decode(pick.config_index)),
                util::format_fixed(pick.base_cost, 4),
                util::format_fixed(pick.expected_seconds / 3600.0, 4),
                util::format_fixed(miss_rate, 4),
                util::format_fixed(outcome.mean_cost, 4),
                util::format_fixed(outcome.mean_seconds / 3600.0, 4),
                std::to_string(outcome.failures)});
      return outcome;
    };
    const auto never_run = report_plan("fail-never", *fail_never);
    const auto aware_run = report_plan("failure-aware", *aware);
    if (mtbf > 0.0) {
      if (aware_run.misses >= never_run.misses) aware_always_safer = false;
      regret_lines +=
          "  MTBF " + mtbf_label + ": miss rate " +
          util::format_percent(static_cast<double>(never_run.misses) /
                               kSeeds) +
          " -> " +
          util::format_percent(static_cast<double>(aware_run.misses) /
                               kSeeds) +
          ", fail-never realized-cost regret " +
          util::format_money(never_run.mean_cost - aware_run.mean_cost) +
          " (" +
          util::format_percent(never_run.mean_cost / aware_run.mean_cost -
                               1.0) +
          ")\n";
    }
  }

  table.print(std::cout);
  std::cout << "\nThe fail-never optimum prices zero crashes, so its pick "
               "hugs the deadline;\nthe failure-aware planner pays for "
               "slack up front and converts deadline\nmisses into a bounded "
               "cost premium. Regret of planning fail-never:\n"
            << regret_lines << "\n"
            << "failure-aware missed strictly less often at every nonzero "
               "rate: "
            << (aware_always_safer ? "yes" : "NO") << "\n";
  if (sink.enabled()) std::cout << "csv: " << sink.path() << "\n";
  return aware_always_safer ? 0 : 1;
}

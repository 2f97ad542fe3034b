// Extension E3: risk-aware configuration selection.
//
// The paper's Eq. 2 is deterministic, but its own validation (Table IV)
// shows delivered performance varies 5-17 % — a plan whose predicted time
// sits just under the deadline misses it on bad instance draws. This
// extension (i) estimates the per-instance rate spread by repeating the
// scale-down benchmark on fresh instances, (ii) selects min-cost
// configurations under three risk models, and (iii) validates every plan
// against 200 independent simulated campaigns.
//
// The headline finding: the risk model must match the parallel pattern.
// For bulk-synchronous galaxy, capacity-averaging (sum-capacity z-scores)
// barely helps, because every step waits for the SLOWEST instance; the
// bottleneck (min-statistics) model prices that in and actually protects
// the deadline.

#include <iostream>

#include "apps/registry.hpp"
#include "cloud/cluster_exec.hpp"
#include "cloud/provider.hpp"
#include "cloud/vm.hpp"
#include "core/celia.hpp"
#include "core/risk.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace celia;

struct PlanOutcome {
  int violations = 0;
  double worst_hours = 0.0;
};

PlanOutcome stress_test(const core::Celia& celia,
                        const apps::ElasticApp& app,
                        const apps::AppParams& params,
                        const core::Configuration& config,
                        double deadline_hours, int trials) {
  PlanOutcome outcome;
  const apps::Workload workload = app.make_workload(params);
  const cloud::ClusterExecutor executor;
  for (int trial = 0; trial < trials; ++trial) {
    cloud::CloudProvider provider(90000 + static_cast<std::uint64_t>(trial));
    const auto instances = provider.provision(config);
    const auto report = executor.execute(workload, instances, config);
    const double hours = report.seconds / 3600.0;
    outcome.worst_hours = std::max(outcome.worst_hours, hours);
    if (hours > deadline_hours) ++outcome.violations;
  }
  (void)celia;
  return outcome;
}

}  // namespace

int main() {
  constexpr int kTrials = 200;
  constexpr double kDeadline = 24.0;

  cloud::CloudProvider provider(2017);
  const auto app = apps::make_galaxy();
  const core::Celia celia = core::Celia::build(*app, provider);
  const apps::AppParams params{65536, 8000};
  const double demand = celia.predict_demand(params);

  // User-side noise estimation: repeat the scale-down benchmark on 10
  // fresh instances. The estimate includes the turbo headroom as a median
  // shift, which we fold into the spec.
  const double sigma = core::estimate_rate_sigma(*app, provider, 0, 10);
  std::cout << "=== Extension E3: Risk-aware Selection ===\n"
            << "workload: galaxy(65536, 8000) — BULK-SYNCHRONOUS — deadline "
            << kDeadline << " h\n"
            << "estimated per-instance rate spread: "
            << util::format_percent(sigma) << " (true model: "
            << util::format_percent(cloud::kSpeedSigma) << " lognormal, "
            << "median " << cloud::kTurboHeadroom << ")\n\n";

  struct Case {
    const char* name;
    core::RiskSpec spec;
  };
  const double median = cloud::kTurboHeadroom;
  const Case cases[] = {
      {"deterministic (paper Eq. 2)", {core::RiskModel::kNone, 0.95, sigma,
                                       median}},
      {"sum-capacity, 95% (wrong model for BSP)",
       {core::RiskModel::kSumCapacity, 0.95, sigma, median}},
      {"bottleneck, 95% (matches BSP)",
       {core::RiskModel::kBottleneck, 0.95, sigma, median}},
      {"bottleneck, 99%",
       {core::RiskModel::kBottleneck, 0.99, sigma, median}},
  };

  util::TablePrinter table({"plan", "configuration", "T pred (h)",
                            "C pred ($)", "violations", "worst run (h)"});
  for (std::size_t c = 2; c < 6; ++c) table.set_right_aligned(c);

  double base_cost = 0.0;
  for (const Case& c : cases) {
    const auto plan =
        core::robust_min_cost(celia.space(), celia.capacity(), celia.catalog(),
                              demand, kDeadline * 3600.0, c.spec);
    if (!plan) {
      table.add_row({c.name, "infeasible", "-", "-", "-", "-"});
      continue;
    }
    const core::Configuration config =
        celia.space().decode(plan->config_index);
    const PlanOutcome outcome =
        stress_test(celia, *app, params, config, kDeadline, kTrials);
    if (c.spec.model == core::RiskModel::kNone) base_cost = plan->cost;
    table.add_row(
        {c.name, core::to_string(config),
         util::format_fixed(plan->seconds / 3600.0, 1),
         util::format_fixed(plan->cost, 2) +
             (base_cost > 0 && plan->cost > base_cost
                  ? " (+" +
                        util::format_percent(plan->cost / base_cost - 1.0) +
                        ")"
                  : ""),
         std::to_string(outcome.violations) + "/" + std::to_string(kTrials),
         util::format_fixed(outcome.worst_hours, 1)});
  }
  table.print(std::cout);
  std::cout
      << "\nreading: for a bulk-synchronous application every step waits "
         "for the\nslowest instance, so averaging-based headroom "
         "(sum-capacity z-scores)\nleaves the deadline exposed; the "
         "bottleneck model prices the min-statistic\nand eliminates "
         "violations for a modest cost premium. Risk-aware selection\n"
         "must match the application's parallel pattern.\n";
  return 0;
}

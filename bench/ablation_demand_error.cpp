// Ablation A6: how does demand-model error propagate to the selection?
//
// CELIA's predictions have two inputs: measured capacities (A1) and the
// fitted demand model. This ablation perturbs the demand estimate by
// +/- delta and reports (i) how the chosen min-cost configuration changes
// and (ii) the REGRET: what the configuration chosen under the wrong
// demand actually costs/takes at the true demand, versus the oracle
// choice. Underestimating demand is the dangerous direction — the chosen
// plan silently misses the deadline.

#include <iostream>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/query.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace celia;

  cloud::CloudProvider provider(2017);
  const auto app = apps::make_galaxy();
  const core::Celia celia = core::Celia::build(*app, provider);
  const apps::AppParams params{65536, 8000};
  const double true_demand = celia.predict_demand(params);
  constexpr double kDeadlineHours = 24.0;
  const double deadline_seconds = kDeadlineHours * 3600.0;

  std::cout << "=== Ablation A6: Demand-model Error Propagation ===\n"
            << "workload: galaxy(65536, 8000), 24 h deadline; fitted demand "
            << util::format_instructions(true_demand) << "\n\n";

  core::SweepOptions options;
  options.collect_pareto = false;
  core::Constraints constraints;
  constraints.deadline_seconds = deadline_seconds;

  const auto oracle = core::sweep(
      celia.space(), celia.capacity(), celia.catalog(),
      core::Query::make(true_demand, constraints, options));

  util::TablePrinter table({"demand error", "chosen config",
                            "believed cost", "true time (h)", "true cost",
                            "regret", "misses deadline"});
  for (std::size_t c = 2; c < 6; ++c) table.set_right_aligned(c);

  for (const double delta : {-0.20, -0.10, -0.05, 0.0, 0.05, 0.10, 0.20}) {
    const double believed = true_demand * (1.0 + delta);
    const auto result = core::sweep(
        celia.space(), celia.capacity(), celia.catalog(),
        core::Query::make(believed, constraints, options));
    if (!result.any_feasible) {
      table.add_row({util::format_percent(delta), "infeasible", "-", "-",
                     "-", "-", "-"});
      continue;
    }
    const core::Configuration config =
        celia.space().decode(result.min_cost.config_index);
    // Evaluate the chosen configuration at the TRUE demand.
    const core::Prediction truth =
        core::predict(true_demand, config, celia.capacity());
    const double regret =
        oracle.any_feasible ? truth.cost / oracle.min_cost.cost - 1.0 : 0.0;
    table.add_row(
        {(delta >= 0 ? "+" : "") + util::format_percent(delta),
         core::to_string(config),
         util::format_money(result.min_cost.cost),
         util::format_fixed(truth.seconds / 3600.0, 1),
         util::format_money(truth.cost),
         (regret >= 0 ? "+" : "") + util::format_percent(regret),
         truth.seconds >= deadline_seconds ? "YES" : "no"});
  }
  table.print(std::cout);
  std::cout
      << "\nreading: overestimating demand only wastes a few percent "
         "(bigger fleet,\nsame instr/$ mix); UNDERESTIMATING makes the "
         "chosen configuration miss\nthe real deadline outright. CELIA's "
         "conservative direction is to round\ndemand estimates up — or use "
         "the E3 risk models, which absorb demand\nerror and rate noise "
         "together.\n";
  return 0;
}

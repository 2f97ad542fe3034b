// Ablation A5: sensitivity to the per-type instance limit m_i,max.
//
// The paper fixes m_i,max = 5 ("maximum of five instances per resource
// type are allowed"), giving S = 6^9 - 1 configurations (Eq. 1). This
// ablation varies the limit and asks: how does the space size grow, how
// long does the exhaustive sweep take, and does a larger allowance
// actually lower the achievable minimum cost?

#include <iostream>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/query.hpp"
#include "util/format.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace celia;

  cloud::CloudProvider provider(2017);
  const auto app = apps::make_galaxy();
  const core::Celia base = core::Celia::build(*app, provider);
  const apps::AppParams params{131072, 2000};
  const double demand = base.predict_demand(params);

  std::cout << "=== Ablation A5: Per-type Instance Limit (paper: "
               "m_i,max = 5) ===\nworkload: galaxy(131072, 2000), 24 h "
               "deadline, unbounded budget\n\n";

  util::TablePrinter table({"m_max", "space size (Eq. 1)", "sweep (ms)",
                            "min cost", "min time", "min-cost config"});
  for (std::size_t c = 1; c < 5; ++c) table.set_right_aligned(c);

  for (const int limit : {1, 2, 3, 5, 7, 8}) {
    const core::ConfigurationSpace space(std::vector<int>(9, limit));
    core::Constraints constraints;
    constraints.deadline_seconds = 24 * 3600.0;
    core::SweepOptions options;
    options.collect_pareto = false;
    util::Stopwatch watch;
    const core::SweepResult result =
        core::sweep(space, base.capacity(), base.catalog(),
                    core::Query::make(demand, constraints, options));
    const double ms = watch.elapsed_ms();
    table.add_row(
        {std::to_string(limit), util::format_with_commas(result.total),
         util::format_fixed(ms, 0),
         result.any_feasible ? util::format_money(result.min_cost.cost)
                             : "infeasible",
         result.any_feasible
             ? util::format_duration(result.min_time.seconds)
             : "-",
         result.any_feasible
             ? core::to_string(space.decode(result.min_cost.config_index))
             : "-"});
  }
  table.print(std::cout);
  std::cout
      << "\nreading: the space grows as (m+1)^9 — the paper's limit of 5 "
         "(10.1 M\nconfigurations) already contains the min-cost optimum "
         "once one category's\nallowance covers the deadline; raising the "
         "limit mainly buys faster\nmin-TIME configurations, at "
         "super-linear sweep cost. Tight limits can\nmake the deadline "
         "infeasible outright.\n";
  return 0;
}

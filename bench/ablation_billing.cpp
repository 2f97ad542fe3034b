// Ablation A4: billing granularity and the cost model.
//
// The paper's Eq. 5 charges cost continuously (C = T x hourly rate), but
// EC2 billed whole instance-hours in 2017 and whole seconds today. This
// ablation re-runs the min-cost selection under each billing policy using
// the streaming sweep API and reports (i) how much the billed cost differs
// and (ii) whether the OPTIMAL CONFIGURATION itself changes — per-hour
// rounding favors configurations whose runtime lands just under an hour
// boundary.

#include <cmath>
#include <iostream>
#include <mutex>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace celia;

struct Best {
  bool found = false;
  std::uint64_t index = 0;
  double seconds = 0.0;
  double cost = 0.0;
};

/// Min-cost feasible configuration under a billing transformation of the
/// continuous cost. Demonstrates for_each_configuration as a custom
/// reduction.
Best min_cost_under(const core::Celia& celia, double demand,
                    double deadline_seconds,
                    double (*billed)(double seconds, double hourly)) {
  std::mutex mutex;
  Best best;
  core::for_each_configuration(
      celia.space(), celia.capacity(), celia.catalog(),
      [&](std::uint64_t index, double u, double hourly) {
        if (u <= 0) return;
        const double seconds = demand / u;
        if (seconds >= deadline_seconds) return;
        const double cost = billed(seconds, hourly);
        std::lock_guard<std::mutex> lock(mutex);
        if (!best.found || cost < best.cost ||
            (cost == best.cost && seconds < best.seconds)) {
          best = {true, index, seconds, cost};
        }
      });
  return best;
}

double continuous(double seconds, double hourly) {
  return seconds / 3600.0 * hourly;
}
double per_second(double seconds, double hourly) {
  return std::ceil(seconds) / 3600.0 * hourly;
}
double per_hour(double seconds, double hourly) {
  return std::ceil(seconds / 3600.0) * hourly;
}

}  // namespace

int main() {
  cloud::CloudProvider provider(2017);
  const auto app = apps::make_galaxy();
  const core::Celia celia = core::Celia::build(*app, provider);

  std::cout << "=== Ablation A4: Billing Granularity vs the Eq. 5 Cost "
               "Model ===\nworkload: galaxy(65536, s), 24 h deadline, "
               "min-cost configuration per billing policy\n\n";

  util::TablePrinter table({"s", "policy", "config", "time", "billed cost",
                            "vs continuous"});
  table.set_right_aligned(4);
  table.set_right_aligned(5);

  for (const double s : {2000.0, 4000.0, 8000.0}) {
    const double demand = celia.predict_demand({65536, s});
    const Best cont =
        min_cost_under(celia, demand, 24 * 3600.0, continuous);
    const Best sec =
        min_cost_under(celia, demand, 24 * 3600.0, per_second);
    const Best hour = min_cost_under(celia, demand, 24 * 3600.0, per_hour);
    const struct {
      const char* name;
      const Best* best;
    } rows[] = {{"continuous", &cont}, {"per-second", &sec},
                {"per-hour", &hour}};
    for (const auto& row : rows) {
      if (!row.best->found) continue;
      table.add_row(
          {util::format_si(s, 0), row.name,
           core::to_string(celia.space().decode(row.best->index)),
           util::format_duration(row.best->seconds),
           util::format_money(row.best->cost),
           "+" + util::format_percent(row.best->cost / cont.cost - 1.0)});
    }
  }
  table.print(std::cout);
  std::cout << "\nreading: per-second billing matches the paper's "
               "continuous model to within\nrounding noise; per-hour "
               "billing inflates cost and can shift the optimum\ntoward "
               "configurations that finish just under an hour boundary — "
               "the Eq. 5\nsimplification was already accurate for "
               "modern clouds.\n";
  return 0;
}

#include "core/baselines.hpp"

#include <algorithm>

#include "core/query.hpp"
#include "core/time_cost.hpp"
#include "util/rng.hpp"

namespace celia::core {

namespace {

bool better(const CostTimePoint& a, const CostTimePoint& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.seconds < b.seconds;
}

}  // namespace

std::optional<CostTimePoint> evaluate_configuration(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    double demand, const Constraints& constraints,
    const Configuration& config) {
  double u = 0.0;
  for (std::size_t i = 0; i < config.size(); ++i)
    u += config[i] * capacity.rate(i);
  if (u <= 0) return std::nullopt;
  const double seconds = demand / u;
  if (seconds >= constraints.deadline_seconds) return std::nullopt;
  const double cost =
      seconds / 3600.0 * configuration_hourly_cost(config);
  if (cost >= constraints.budget_dollars) return std::nullopt;
  return CostTimePoint{space.encode(config), seconds, cost};
}

SearchOutcome exhaustive_search(const ConfigurationSpace& space,
                                const ResourceCapacity& capacity,
                                double demand,
                                const Constraints& constraints) {
  SweepOptions options;
  options.collect_pareto = false;
  const SweepResult result =
      sweep(space, capacity, cloud::Catalog::ec2_table3(),
            Query::make(demand, constraints, options));
  SearchOutcome outcome;
  outcome.evaluations = result.total;
  outcome.found = result.any_feasible;
  if (result.any_feasible) outcome.best = result.min_cost;
  return outcome;
}

SearchOutcome random_search(const ConfigurationSpace& space,
                            const ResourceCapacity& capacity, double demand,
                            const Constraints& constraints,
                            std::uint64_t budget_evaluations,
                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  SearchOutcome outcome;
  for (std::uint64_t k = 0; k < budget_evaluations; ++k) {
    const std::uint64_t index = rng.bounded(space.size());
    ++outcome.evaluations;
    const Configuration config = space.decode(index);
    const auto point =
        evaluate_configuration(space, capacity, demand, constraints, config);
    if (point && (!outcome.found || better(*point, outcome.best))) {
      outcome.best = *point;
      outcome.found = true;
    }
  }
  return outcome;
}

SearchOutcome greedy_cost_search(const ConfigurationSpace& space,
                                 const ResourceCapacity& capacity,
                                 double demand,
                                 const Constraints& constraints) {
  // Types ordered by descending capacity-per-dollar.
  std::vector<std::size_t> order(space.num_types());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return capacity.normalized_performance(a) >
           capacity.normalized_performance(b);
  });

  SearchOutcome outcome;
  Configuration config(space.num_types(), 0);
  const std::uint64_t max_nodes = [&] {
    std::uint64_t total = 0;
    for (const int m : space.max_counts()) total += m;
    return total;
  }();
  for (std::uint64_t added = 0; added < max_nodes; ++added) {
    // Add one node of the most cost-efficient type with headroom.
    bool placed = false;
    for (const std::size_t type : order) {
      if (config[type] < space.max_counts()[type]) {
        ++config[type];
        placed = true;
        break;
      }
    }
    if (!placed) break;
    ++outcome.evaluations;
    const auto point =
        evaluate_configuration(space, capacity, demand, constraints, config);
    if (point) {
      outcome.best = *point;
      outcome.found = true;
      break;  // first feasible configuration along the greedy path
    }
  }
  return outcome;
}

SearchOutcome hill_climb_search(const ConfigurationSpace& space,
                                const ResourceCapacity& capacity,
                                double demand, const Constraints& constraints,
                                int restarts, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  SearchOutcome outcome;

  for (int restart = 0; restart < restarts; ++restart) {
    // Start: the greedy solution on the first restart, random otherwise.
    Configuration current(space.num_types(), 0);
    if (restart == 0) {
      SearchOutcome greedy =
          greedy_cost_search(space, capacity, demand, constraints);
      outcome.evaluations += greedy.evaluations;
      if (!greedy.found) continue;
      current = space.decode(greedy.best.config_index);
    } else {
      for (std::size_t i = 0; i < current.size(); ++i)
        current[i] = static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(space.max_counts()[i]) + 1));
    }

    auto current_point =
        evaluate_configuration(space, capacity, demand, constraints, current);
    ++outcome.evaluations;
    if (!current_point) continue;

    // Steepest descent over single-node add/remove moves.
    for (;;) {
      std::optional<CostTimePoint> best_neighbor;
      Configuration best_config;
      for (std::size_t type = 0; type < current.size(); ++type) {
        for (const int delta : {-1, +1}) {
          const int count = current[type] + delta;
          if (count < 0 || count > space.max_counts()[type]) continue;
          Configuration neighbor = current;
          neighbor[type] = count;
          ++outcome.evaluations;
          const auto point = evaluate_configuration(space, capacity, demand,
                                                    constraints, neighbor);
          if (point && better(*point, best_neighbor.value_or(*current_point)) &&
              (!best_neighbor || better(*point, *best_neighbor))) {
            best_neighbor = point;
            best_config = neighbor;
          }
        }
      }
      if (!best_neighbor) break;
      current = best_config;
      current_point = best_neighbor;
    }

    if (current_point &&
        (!outcome.found || better(*current_point, outcome.best))) {
      outcome.best = *current_point;
      outcome.found = true;
    }
  }
  return outcome;
}

}  // namespace celia::core

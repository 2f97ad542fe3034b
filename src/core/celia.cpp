#include "core/celia.hpp"

#include <stdexcept>
#include <utility>

#include "core/query.hpp"

namespace celia::core {

Celia Celia::build(const apps::ElasticApp& app, cloud::CloudProvider& provider,
                   CharacterizationMode mode) {
  // Demand model: profile-grid runs on the local server, instruction counts
  // read from its performance counters (exact in our substrate).
  std::vector<fit::ProfilePoint> profile;
  for (const apps::AppParams& params : app.profile_grid()) {
    profile.push_back({params.n, params.a, app.exact_demand(params)});
  }
  fit::SeparableDemandModel demand = fit::SeparableDemandModel::fit(profile);

  // Capacity: timed scale-down runs on cloud instances, against the
  // provider's own catalog snapshot.
  ResourceCapacity capacity = characterize_capacity(app, provider, mode);

  return Celia(std::string(app.name()), app.workload_class(),
               std::move(demand), std::move(capacity),
               ConfigurationSpace::for_catalog(provider.catalog()),
               provider.catalog_ptr());
}

Celia::Celia(std::string app_name, hw::WorkloadClass workload,
             fit::SeparableDemandModel demand, ResourceCapacity capacity,
             ConfigurationSpace space)
    : Celia(std::move(app_name), workload, std::move(demand),
            std::move(capacity), std::move(space),
            cloud::Catalog::ec2_table3_ptr()) {}

Celia::Celia(std::string app_name, hw::WorkloadClass workload,
             fit::SeparableDemandModel demand, ResourceCapacity capacity,
             ConfigurationSpace space,
             std::shared_ptr<const cloud::Catalog> catalog)
    : app_name_(std::move(app_name)),
      workload_(workload),
      demand_(std::move(demand)),
      capacity_(std::move(capacity)),
      space_(std::move(space)),
      catalog_(std::move(catalog)) {
  if (!catalog_) throw std::invalid_argument("Celia: null catalog");
  if (space_.num_types() != catalog_->size())
    throw std::invalid_argument(
        "Celia: configuration space width disagrees with catalog '" +
        catalog_->name() + "'");
  if (!capacity_.compatible_with(*catalog_))
    throw std::invalid_argument(
        "Celia: capacity was characterized against a structurally different "
        "catalog than '" + catalog_->name() + "'");
}

Prediction Celia::predict(const apps::AppParams& params,
                          const Configuration& config) const {
  return core::predict(predict_demand(params), config, capacity_, *catalog_);
}

SweepResult Celia::select(const apps::AppParams& params, double deadline_hours,
                          double budget_dollars, SweepOptions options) const {
  Constraints constraints;
  constraints.deadline_seconds = deadline_hours * 3600.0;
  constraints.budget_dollars = budget_dollars;
  return sweep(space_, capacity_, *catalog_,
               Query::make(predict_demand(params), constraints, options));
}

std::optional<CostTimePoint> Celia::min_cost_configuration(
    const apps::AppParams& params, double deadline_hours,
    SweepOptions options) const {
  options.collect_pareto = false;
  Constraints constraints;
  constraints.deadline_seconds = deadline_hours * 3600.0;
  const SweepResult result =
      sweep(space_, capacity_, *catalog_,
            Query::make(predict_demand(params), constraints, options));
  if (!result.any_feasible) return std::nullopt;
  return result.min_cost;
}

}  // namespace celia::core

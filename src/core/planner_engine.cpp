#include "core/planner_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace celia::core {

namespace {

struct EngineCounters {
  obs::Counter& queries =
      obs::counter("celia_planner_engine_queries_total",
                   "Queries routed through a PlannerEngine");
  obs::Counter& index_hits = obs::counter(
      "celia_planner_engine_index_hits_total",
      "PlannerEngine queries answered from an already-cached FrontierIndex");
  obs::Counter& index_builds = obs::counter(
      "celia_planner_engine_index_builds_total",
      "PlannerEngine cache misses that built a FrontierIndex");
  obs::Counter& sweeps = obs::counter(
      "celia_planner_engine_sweeps_total",
      "PlannerEngine queries (risk-aware or sampled) that ran a full sweep");
  obs::Counter& degraded = obs::counter(
      "celia_planner_engine_degraded_total",
      "PlannerEngine queries pushed down the degradation ladder by a "
      "PlanBudget (fresh-sweep or truncated-sweep instead of the index)");
  obs::Counter& truncated = obs::counter(
      "celia_planner_engine_truncated_sweeps_total",
      "PlannerEngine queries answered by a best-effort truncated sweep");
  obs::Counter& replaces = obs::counter(
      "celia_planner_engine_catalog_replaces_total",
      "Catalog snapshots replaced under an existing PlannerEngine name");
  obs::Counter& delta_rescale = obs::counter(
      "celia_planner_engine_delta_rescale_total",
      "Catalog replaces classified as price-only: cached staircases "
      "rescaled without a walk (FrontierIndex::repriced)");
  obs::Counter& delta_rebuild = obs::counter(
      "celia_planner_engine_delta_rebuild_total",
      "Catalog replaces that changed types or limits: cached indexes "
      "dropped, the next query rebuilds from scratch");
};

EngineCounters& engine_counters() {
  static EngineCounters counters;
  return counters;
}

/// Largest sub-space of `space` with at most `max_configs` configurations,
/// shrunk by repeatedly halving the currently largest per-type limit —
/// the best-effort search space of the kTruncatedSweep route. Low counts
/// survive longest, which preserves the cheap corner of the space where
/// min-cost answers live.
ConfigurationSpace truncate_space(const ConfigurationSpace& space,
                                  std::uint64_t max_configs) {
  std::vector<int> max_counts = space.max_counts();
  const auto size_of = [](const std::vector<int>& counts) {
    std::uint64_t total = 1;
    for (const int max : counts) total *= static_cast<std::uint64_t>(max) + 1;
    return total - 1;
  };
  while (size_of(max_counts) > std::max<std::uint64_t>(max_configs, 1)) {
    const auto largest =
        std::max_element(max_counts.begin(), max_counts.end());
    if (*largest <= 1) break;  // cannot shrink any further
    *largest /= 2;
  }
  return ConfigurationSpace(std::move(max_counts));
}

/// Re-encode a truncated-space result into full-space config indices so
/// callers can decode every point against the catalog's real space.
void remap_result(SweepResult& result, const ConfigurationSpace& truncated,
                  const ConfigurationSpace& full) {
  std::vector<int> digits(truncated.num_types());
  const auto remap = [&](CostTimePoint& point) {
    truncated.decode_into(point.config_index, digits);
    point.config_index = full.encode(digits);
  };
  if (result.any_feasible) {
    remap(result.min_cost);
    remap(result.min_time);
  }
  for (CostTimePoint& point : result.pareto) remap(point);
  for (CostTimePoint& point : result.feasible_points) remap(point);
}

}  // namespace

void PlannerEngine::add_catalog(std::string name,
                                std::shared_ptr<const cloud::Catalog> catalog,
                                bool replace) {
  if (name.empty())
    throw std::invalid_argument("PlannerEngine: empty catalog name");
  if (!catalog)
    throw std::invalid_argument("PlannerEngine: null catalog for '" + name +
                                "'");
  const auto named = [&](const auto& entry) { return entry.first == name; };
  std::lock_guard<std::mutex> replacing(replace_mutex_);
  std::shared_ptr<const cloud::Catalog> old_snapshot;
  std::vector<std::shared_ptr<const FrontierIndex>> old_indexes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find_if(catalogs_.begin(), catalogs_.end(), named);
    if (it == catalogs_.end()) {
      catalogs_.emplace_back(std::move(name), std::move(catalog));
      return;
    }
    if (!replace)
      throw std::invalid_argument("PlannerEngine: catalog '" + name +
                                  "' is already registered");
    old_snapshot = it->second;
    for (const auto& index : indexes_)
      if (index->catalog_fingerprint() == old_snapshot->fingerprint())
        old_indexes.push_back(index);
  }

  // ---- Prepare phase (may throw; engine state untouched) ----------------
  //
  // The reprices run into locals without the engine lock, so plan() keeps
  // answering at the old snapshot meanwhile; replace_mutex_ keeps every
  // other replace out. A throw anywhere in here — including the test-only
  // fault-injection hook — leaves the engine exactly as it was (strong
  // exception safety, pinned by the FrontierDelta failure-injection test).
  const std::uint64_t old_fingerprint = old_snapshot->fingerprint();
  const bool price_only = old_snapshot->structure_fingerprint() ==
                          catalog->structure_fingerprint();
  // An index whose reprice refuses (nullopt) is not carried over; it is
  // evicted below and the next query rebuilds.
  std::vector<std::shared_ptr<const FrontierIndex>> repriced;
  if (price_only && catalog->fingerprint() != old_fingerprint) {
    for (const auto& index : old_indexes) {
      std::optional<FrontierIndex> next = index->repriced(*catalog);
      if (options_.delta_fault_injection)
        options_.delta_fault_injection(repriced.size());
      if (next)
        repriced.push_back(
            std::make_shared<const FrontierIndex>(std::move(*next)));
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // The commit below must not throw, so take the one allocation that
  // could (push_back growth) first.
  indexes_.reserve(indexes_.size() + repriced.size());

  // ---- Commit phase (no-throw) ------------------------------------------
  EngineCounters& counters = engine_counters();
  counters.replaces.add(1);
  (price_only ? counters.delta_rescale : counters.delta_rebuild).add(1);
  std::find_if(catalogs_.begin(), catalogs_.end(), named)->second =
      std::move(catalog);
  for (auto& index : repriced) indexes_.push_back(std::move(index));

  // Drop the replaced snapshot's cached indexes, unless another name still
  // serves the same catalog (same full fingerprint = same prices + identity).
  if (!served_locked(old_fingerprint))
    std::erase_if(indexes_, [&](const auto& index) {
      return index->catalog_fingerprint() == old_fingerprint;
    });
}

bool PlannerEngine::served_locked(std::uint64_t catalog_fingerprint) const {
  return std::any_of(catalogs_.begin(), catalogs_.end(),
                     [&](const auto& entry) {
                       return entry.second->fingerprint() ==
                              catalog_fingerprint;
                     });
}

std::shared_ptr<const cloud::Catalog> PlannerEngine::catalog_locked(
    std::string_view name) const {
  for (const auto& [key, snapshot] : catalogs_)
    if (key == name) return snapshot;
  throw std::out_of_range("PlannerEngine: unknown catalog '" +
                          std::string(name) + "'");
}

std::shared_ptr<const cloud::Catalog> PlannerEngine::catalog(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return catalog_locked(name);
}

std::vector<std::string> PlannerEngine::catalog_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(catalogs_.size());
  for (const auto& [key, snapshot] : catalogs_) names.push_back(key);
  return names;
}

std::size_t PlannerEngine::num_catalogs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return catalogs_.size();
}

std::size_t PlannerEngine::num_cached_indexes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return indexes_.size();
}

std::size_t PlannerEngine::cached_index_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& index : indexes_) bytes += index->memory_bytes();
  return bytes;
}

SweepResult PlannerEngine::plan(std::string_view catalog_name,
                                const ResourceCapacity& capacity,
                                const Query& query, const PlanBudget& budget) {
  std::shared_ptr<const cloud::Catalog> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = catalog_locked(catalog_name);
  }
  const ConfigurationSpace space = ConfigurationSpace::for_catalog(*snapshot);
  return plan_impl(*snapshot, space, capacity, query, budget);
}

SweepResult PlannerEngine::plan(std::string_view catalog_name,
                                const Celia& model, const Query& query,
                                const PlanBudget& budget) {
  std::shared_ptr<const cloud::Catalog> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = catalog_locked(catalog_name);
  }
  return plan_impl(*snapshot, model.space(), model.capacity(), query, budget);
}

SweepResult PlannerEngine::plan_impl(const cloud::Catalog& catalog,
                                     const ConfigurationSpace& space,
                                     const ResourceCapacity& capacity,
                                     const Query& query,
                                     const PlanBudget& budget) {
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "PlannerEngine: model capacity was characterized against a "
        "structurally different catalog than '" + catalog.name() +
        "' (types or per-type limits differ)");
  EngineCounters& counters = engine_counters();
  counters.queries.add(1);

  const double remaining = budget.deadline.remaining(budget.now_seconds);

  // Sweeps always run with the stand-alone index machinery disabled: the
  // engine IS the cache here.
  SweepOptions sweep_options = query.options();
  sweep_options.index_policy = IndexPolicy::Never();
  const Query sweep_query = query.with_options(sweep_options);

  // Last-resort route: a best-effort sweep over a truncated space, then
  // re-encoded into full-space config indices. Never throws on a tight
  // budget — a degraded answer always comes back.
  const auto truncated_sweep = [&]() {
    counters.degraded.add(1);
    counters.truncated.add(1);
    const ConfigurationSpace truncated =
        truncate_space(space, budget.truncated_sweep_configs);
    SweepResult result = sweep(truncated, capacity, catalog, sweep_query);
    remap_result(result, truncated, space);
    result.route = QueryRoute::kTruncatedSweep;
    return result;
  };

  const bool sweep_fits = remaining >= budget.sweep_cost_seconds;

  if (!query.index_eligible()) {
    // Risk-aware / sampled / multi-dimensional queries need the sweep;
    // run it at the catalog's prices with the index explicitly disabled.
    if (!sweep_fits) return truncated_sweep();
    counters.sweeps.add(1);
    return sweep(space, capacity, catalog, sweep_query);
  }

  // One lookup decides this query's part: answer from the cache, wait for
  // a build another query has in flight, or register and run the build
  // itself. Only a query whose budget affords a build waits or builds.
  const bool build_fits = remaining >= budget.index_build_cost_seconds;
  std::shared_ptr<const FrontierIndex> index;
  std::shared_future<std::shared_ptr<const FrontierIndex>> in_flight;
  std::optional<std::promise<std::shared_ptr<const FrontierIndex>>> promise;
  std::list<PendingBuild>::iterator mine;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& cached : indexes_) {
      if (cached->matches(space, capacity, catalog)) {
        index = cached;
        break;
      }
    }
    if (!index && build_fits) {
      std::vector<double> rates(capacity.num_types());
      for (std::size_t i = 0; i < rates.size(); ++i)
        rates[i] = capacity.rate(i);
      const auto same = std::find_if(
          pending_.begin(), pending_.end(), [&](const PendingBuild& build) {
            return build.catalog_fingerprint == catalog.fingerprint() &&
                   build.max_counts == space.max_counts() &&
                   build.rates == rates;
          });
      if (same != pending_.end()) {
        in_flight = same->index;
      } else {
        promise.emplace();
        mine = pending_.insert(
            pending_.end(),
            {catalog.fingerprint(), space.max_counts(), std::move(rates),
             promise->get_future().share()});
      }
    }
  }
  if (index || in_flight.valid()) {
    counters.index_hits.add(1);
    // A failed build rethrows its exception here, in every waiter.
    if (!index) index = in_flight.get();
    return index->query(query);
  }

  if (!promise) {
    // No cached index and no budget to build one: a fresh sweep, or a
    // truncated one when even that no longer fits.
    if (!sweep_fits) return truncated_sweep();
    counters.degraded.add(1);
    SweepResult result = sweep(space, capacity, catalog, sweep_query);
    result.route = QueryRoute::kDegradedSweep;
    return result;
  }

  counters.index_builds.add(1);
  try {
    FrontierIndex::BuildOptions build_options;
    build_options.pool = query.options().pool;
    index = std::make_shared<const FrontierIndex>(
        FrontierIndex::build(space, capacity, catalog, build_options));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.erase(mine);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.erase(mine);
    // Cache the index only while a registered name serves its catalog: a
    // replace that landed mid-build retired it, and nothing could reach
    // or free the entry.
    if (served_locked(catalog.fingerprint())) indexes_.push_back(index);
  }
  promise->set_value(index);
  return index->query(query);
}

}  // namespace celia::core

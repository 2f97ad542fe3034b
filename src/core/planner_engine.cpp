#include "core/planner_engine.hpp"

#include <algorithm>
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
  obs::Counter& evictions = obs::counter(
      "celia_planner_engine_index_evictions_total",
      "Cached FrontierIndexes evicted by the LRU memory bound");
  obs::Counter& replaces = obs::counter(
      "celia_planner_engine_catalog_replaces_total",
      "Catalog snapshots replaced under an existing PlannerEngine name");
  obs::Counter& delta_rescale = obs::counter(
      "celia_planner_engine_delta_rescale_total",
      "Catalog replaces classified as price-only: cached staircases "
      "rescaled without a walk (FrontierIndex::repriced)");
  obs::Counter& delta_axis = obs::counter(
      "celia_planner_engine_delta_axis_total",
      "Catalog replaces classified as a single-type limit decrease: cached "
      "indexes filtered along the one affected axis "
      "(FrontierIndex::with_limit)");
  obs::Counter& delta_rebuild = obs::counter(
      "celia_planner_engine_delta_rebuild_total",
      "Catalog replaces classified as structural: cached indexes dropped, "
      "the next query rebuilds from scratch");
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

/// Classification of one catalog replace (see add_catalog's doc comment).
struct ReplaceEdit {
  enum class Kind { kRescale, kAxis, kRebuild } kind = Kind::kRebuild;
  std::size_t axis_type = 0;  // kAxis only
  int axis_max = 0;           // kAxis only
};

ReplaceEdit classify_replace(const cloud::Catalog& from,
                             const cloud::Catalog& to) {
  ReplaceEdit edit;
  // Price-only: the price-free identity (types + limits) is unchanged.
  // Covers the trivial replace-with-identical-catalog case too.
  if (from.structure_fingerprint() == to.structure_fingerprint()) {
    edit.kind = ReplaceEdit::Kind::kRescale;
    return edit;
  }
  if (from.size() != to.size()) return edit;
  const std::span<const double> from_prices = from.hourly_costs();
  const std::span<const double> to_prices = to.hourly_costs();
  for (std::size_t i = 0; i < from.size(); ++i)
    if (from_prices[i] != to_prices[i]) return edit;
  // Exactly one limit changed, and it decreased.
  std::size_t changed = from.size();
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from.limit(i) == to.limit(i)) continue;
    if (changed != from.size()) return edit;  // second differing limit
    changed = i;
  }
  if (changed == from.size() || to.limit(changed) >= from.limit(changed))
    return edit;
  // Same TYPES: re-deriving `from`'s structure at `to`'s limits must land
  // on `to`'s structure fingerprint (the hash covers types + limits).
  if (from.with_limits(to.name(), to.region(), to.limits())
          .structure_fingerprint() != to.structure_fingerprint())
    return edit;
  edit.kind = ReplaceEdit::Kind::kAxis;
  edit.axis_type = changed;
  edit.axis_max = to.limit(changed);
  return edit;
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
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      catalogs_.begin(), catalogs_.end(),
      [&](const auto& entry) { return entry.first == name; });
  if (it == catalogs_.end()) {
    catalogs_.emplace_back(std::move(name), std::move(catalog));
    return;
  }
  if (!replace)
    throw std::invalid_argument("PlannerEngine: catalog '" + name +
                                "' is already registered");

  // ---- Prepare phase (may throw; engine state untouched) ----------------
  //
  // Classification and delta derivation run into locals BEFORE any counter
  // bumps or cache edits, so a throw anywhere in here — including the
  // test-only fault-injection hook — leaves the engine exactly as it was
  // (strong exception safety, pinned by the FrontierDelta failure-
  // injection test).
  const std::shared_ptr<const cloud::Catalog> old_snapshot = it->second;
  const std::uint64_t old_fingerprint = old_snapshot->fingerprint();
  const std::uint64_t new_fingerprint = catalog->fingerprint();

  const ReplaceEdit edit = classify_replace(*old_snapshot, *catalog);

  // Delta-derive indexes for the new snapshot from the old snapshot's
  // cached ones — no configuration walk. An entry whose delta refuses
  // (nullopt) is simply not derived; it gets evicted below and the next
  // query rebuilds.
  std::vector<CachedIndex> derived;
  if (new_fingerprint != old_fingerprint &&
      edit.kind != ReplaceEdit::Kind::kRebuild) {
    for (const CachedIndex& cached : indexes_) {
      if (cached.index->catalog_fingerprint() != old_fingerprint) continue;
      std::optional<FrontierIndex> next =
          edit.kind == ReplaceEdit::Kind::kRescale
              ? cached.index->repriced(*catalog)
              : cached.index->with_limit(edit.axis_type, edit.axis_max,
                                         *catalog);
      if (options_.delta_fault_injection)
        options_.delta_fault_injection(derived.size());
      if (!next) continue;
      auto built = std::make_shared<const FrontierIndex>(std::move(*next));
      const std::size_t bytes = built->memory_bytes();
      derived.push_back({std::move(built), bytes, 0});
    }
  }
  // The commit below must not throw, so take the one allocation that
  // could (push_back growth) here.
  indexes_.reserve(indexes_.size() + derived.size());

  // ---- Commit phase (no-throw) ------------------------------------------
  EngineCounters& counters = engine_counters();
  counters.replaces.add(1);
  switch (edit.kind) {
    case ReplaceEdit::Kind::kRescale:
      counters.delta_rescale.add(1);
      break;
    case ReplaceEdit::Kind::kAxis:
      counters.delta_axis.add(1);
      break;
    case ReplaceEdit::Kind::kRebuild:
      counters.delta_rebuild.add(1);
      break;
  }
  it->second = catalog;
  for (CachedIndex& entry : derived) {
    entry.last_used = ++use_tick_;
    cache_bytes_ += entry.bytes;
    indexes_.push_back(std::move(entry));
  }

  // Drop the replaced snapshot's cached indexes, unless another name still
  // serves the same catalog (same full fingerprint = same prices + identity).
  const bool still_referenced = std::any_of(
      catalogs_.begin(), catalogs_.end(), [&](const auto& entry) {
        return entry.second->fingerprint() == old_fingerprint;
      });
  if (!still_referenced) {
    std::erase_if(indexes_, [&](const CachedIndex& cached) {
      if (cached.index->catalog_fingerprint() != old_fingerprint)
        return false;
      cache_bytes_ -= cached.bytes;
      return true;
    });
  }
  evict_lru_locked();
}

void PlannerEngine::evict_lru_locked() {
  while (options_.max_index_cache_bytes > 0 &&
         cache_bytes_ > options_.max_index_cache_bytes &&
         indexes_.size() > 1) {
    const auto victim = std::min_element(
        indexes_.begin(), indexes_.end(),
        [](const CachedIndex& a, const CachedIndex& b) {
          return a.last_used < b.last_used;
        });
    cache_bytes_ -= victim->bytes;
    indexes_.erase(victim);
    engine_counters().evictions.add(1);
  }
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
  return cache_bytes_;
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

  std::shared_ptr<const FrontierIndex> index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (CachedIndex& cached : indexes_) {
      if (cached.index->matches(space, capacity, catalog)) {
        cached.last_used = ++use_tick_;
        index = cached.index;
        break;
      }
    }
  }
  if (index) {
    counters.index_hits.add(1);
  } else {
    // No cached index: walk the degradation ladder. Building is the best
    // long-term answer but also the most expensive step — under a tight
    // budget fall back to a fresh sweep, then to a truncated one.
    if (remaining < budget.index_build_cost_seconds) {
      if (!sweep_fits) return truncated_sweep();
      counters.degraded.add(1);
      SweepResult result = sweep(space, capacity, catalog, sweep_query);
      result.route = QueryRoute::kDegradedSweep;
      return result;
    }
    // Build outside the lock; concurrent builders of the same (catalog,
    // model) pair may race, in which case the first insertion wins — but
    // every build is counted (hits + builds + sweeps + degraded ==
    // queries).
    counters.index_builds.add(1);
    FrontierIndex::BuildOptions build_options;
    build_options.pool = query.options().pool;
    auto built = std::make_shared<const FrontierIndex>(
        FrontierIndex::build(space, capacity, catalog, build_options));
    std::lock_guard<std::mutex> lock(mutex_);
    for (CachedIndex& cached : indexes_) {
      if (cached.index->matches(space, capacity, catalog)) {
        cached.last_used = ++use_tick_;
        index = cached.index;
        break;
      }
    }
    if (!index) {
      const std::size_t bytes = built->memory_bytes();
      indexes_.push_back({built, bytes, ++use_tick_});
      cache_bytes_ += bytes;
      index = std::move(built);
      // LRU eviction keeps the cache under the byte bound. The entry just
      // inserted is the most recently used, so it survives even when it
      // alone exceeds the bound (an engine must always be able to serve
      // its newest catalog).
      evict_lru_locked();
    }
  }

  return index->query(query);
}

}  // namespace celia::core

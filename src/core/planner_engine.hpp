#pragma once
// core::PlannerEngine — a concurrency-safe owner of named catalog
// snapshots that routes planner Querys to a per-(catalog, model) cache of
// FrontierIndex instances.
//
// The sweep/FrontierIndex machinery treats the catalog as a call
// argument; a long-lived planning SERVICE instead holds many catalogs at
// once (several regions' price lists, yesterday's snapshot next to
// today's) and answers interleaved queries against all of them. The
// engine provides that layer:
//
//   * Catalog snapshots are registered under a name and immutable from
//     then on (swapping a name to a new snapshot is an explicit replace).
//   * Index-eligible queries (Query::index_eligible(), the one rule
//     sweep()'s IndexPolicy also routes by) are answered from a cached
//     FrontierIndex keyed by (catalog fingerprint, capacity) — the
//     library's only index cache. The first query against a (catalog,
//     model) pair builds the index once — outside the lock, first
//     insertion wins — and every later query hits the cache, whatever
//     other catalogs were queried in between.
//   * Ineligible queries (risk-aware, sampled or multi-dimensional) run
//     the full sweep at the catalog's prices.
//
// DEGRADED OPERATION (control-plane resilience): a PlanBudget bounds how
// much simulated work one query may spend. The engine walks a fixed
// degradation ladder instead of throwing: cached index (free) → build the
// index if the budget affords it → fresh full sweep (route
// kDegradedSweep) → best-effort sweep of a TRUNCATED configuration space
// (route kTruncatedSweep) when even a sweep no longer fits. The route is
// always visible in SweepResult::route and
// celia_planner_engine_degraded_total. The index cache can additionally
// be capped (PlannerEngineOptions::max_index_cache_bytes) with LRU
// eviction, so a long-lived engine serving many catalogs degrades to
// rebuild-churn instead of growing without bound.
//
// Observability: celia_planner_engine_queries_total counts every plan()
// call, _index_hits_total the ones answered from an already-cached index,
// _index_builds_total the cache misses that built one, _sweeps_total the
// ineligible queries that swept, and _degraded_total the queries pushed
// down the ladder by a budget (also counted per route in _sweeps_total's
// siblings). hits + builds + sweeps + degraded == queries.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/capacity.hpp"
#include "core/celia.hpp"
#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "util/resilience.hpp"

namespace celia::core {

/// Engine-wide resource policy. The defaults reproduce the legacy engine
/// exactly (unbounded cache, nothing evicted).
struct PlannerEngineOptions {
  /// Cap on the summed FrontierIndex::memory_bytes() of cached indexes;
  /// exceeding it evicts least-recently-used entries (the newest index is
  /// never evicted by its own insertion). 0 = unlimited (legacy).
  std::size_t max_index_cache_bytes = 0;
  /// TEST-ONLY failure injection: invoked inside add_catalog(replace)
  /// after each cached index has been delta-derived, with the number
  /// derived so far. A throw here (or from the delta itself) must leave
  /// the engine observably unchanged — catalog map, index cache, bytes
  /// and counters — which the FrontierDelta failure-injection test pins
  /// by fingerprint. Production callers leave this empty.
  std::function<void(std::size_t)> delta_fault_injection;
};

/// Per-query budget in the caller's (simulated or wall) clock. The engine
/// compares the budget's remaining time against the caller-supplied cost
/// estimates to pick the cheapest route that still fits — with the
/// defaults (unlimited deadline) every query takes the legacy route.
struct PlanBudget {
  double now_seconds = 0.0;
  util::DeadlineBudget deadline;  // default: unlimited
  /// Estimated cost of building a FrontierIndex for this catalog.
  double index_build_cost_seconds = 0.0;
  /// Estimated cost of one full sweep of this catalog's space.
  double sweep_cost_seconds = 0.0;
  /// Size ceiling of the truncated space used by the last-resort route.
  std::uint64_t truncated_sweep_configs = 65536;
};

class PlannerEngine {
 public:
  PlannerEngine() = default;
  explicit PlannerEngine(PlannerEngineOptions options) : options_(options) {}

  // Not copyable or movable: the engine is a service object whose caches
  // are referenced concurrently.
  PlannerEngine(const PlannerEngine&) = delete;
  PlannerEngine& operator=(const PlannerEngine&) = delete;

  /// Register a catalog snapshot under `name`. Throws std::invalid_argument
  /// on a null catalog or empty name, and on a duplicate name unless
  /// `replace` is true.
  ///
  /// A replace classifies the old -> new catalog edit and maintains the
  /// index cache INCREMENTALLY instead of always evicting and rebuilding:
  ///
  ///   * price-only (equal structure fingerprints): every cached index of
  ///     the old snapshot is rescaled in place via FrontierIndex::repriced
  ///     — no configuration walk (celia_planner_engine_delta_rescale_total);
  ///   * one type's limit DECREASED, same types and prices: cached indexes
  ///     are filtered along that single axis via FrontierIndex::with_limit
  ///     (celia_planner_engine_delta_axis_total);
  ///   * anything else is structural: cached indexes are dropped and the
  ///     next query rebuilds (celia_planner_engine_delta_rebuild_total).
  ///
  /// Exactly one of the three counters increments per replace, so
  /// rescale + axis + rebuild == celia_planner_engine_catalog_replaces_total
  /// always holds. A delta that refuses (FrontierIndex returns nullopt —
  /// e.g. price ratios outside the provable band, or with_limit on an
  /// already-repriced index) silently falls back to eviction for that
  /// entry; the classification counter records the EDIT, not the per-entry
  /// outcome. The old snapshot's cached indexes are only dropped when no
  /// other name still points at the same catalog.
  ///
  /// STRONG EXCEPTION SAFETY: a replace classifies and delta-derives into
  /// locals before touching any engine state; the commit (counters,
  /// snapshot swap, cache edits) is a no-throw tail. If classification or
  /// a delta derivation throws, the engine — catalogs, cached indexes,
  /// cache bytes and every counter — is exactly as it was before the call.
  void add_catalog(std::string name,
                   std::shared_ptr<const cloud::Catalog> catalog,
                   bool replace = false);

  /// The snapshot registered under `name`; throws std::out_of_range for an
  /// unknown name.
  std::shared_ptr<const cloud::Catalog> catalog(std::string_view name) const;

  /// Registered snapshot names, in registration order.
  std::vector<std::string> catalog_names() const;

  std::size_t num_catalogs() const;

  /// Number of FrontierIndex instances currently cached across all
  /// (catalog, model) pairs.
  std::size_t num_cached_indexes() const;

  /// Current summed memory_bytes() of the cached indexes.
  std::size_t cached_index_bytes() const;

  /// Route `query` for `capacity` against the named catalog, over the
  /// catalog's own configuration space (per-type limits). Throws
  /// std::out_of_range for an unknown name and std::invalid_argument when
  /// `capacity` was characterized against a structurally different
  /// catalog. `budget` selects the degraded route when the deadline is too
  /// tight (see the header comment); the default budget is unlimited and
  /// takes the legacy route.
  SweepResult plan(std::string_view catalog_name,
                   const ResourceCapacity& capacity, const Query& query,
                   const PlanBudget& budget = {});

  /// Route `query` for a full model (e.g. one restored by load_model)
  /// against the named catalog. The model's space is used as-is; its
  /// capacity must be structurally compatible with the catalog — a model
  /// loaded for one catalog cannot silently plan against another.
  SweepResult plan(std::string_view catalog_name, const Celia& model,
                   const Query& query, const PlanBudget& budget = {});

 private:
  struct CachedIndex {
    std::shared_ptr<const FrontierIndex> index;  // pinned to its catalog
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;  // LRU tick of the latest hit/insert
  };

  std::shared_ptr<const cloud::Catalog> catalog_locked(
      std::string_view name) const;

  /// Evict least-recently-used cached indexes until the cache fits
  /// options_.max_index_cache_bytes (mutex_ must be held).
  void evict_lru_locked();

  SweepResult plan_impl(const cloud::Catalog& catalog,
                        const ConfigurationSpace& space,
                        const ResourceCapacity& capacity, const Query& query,
                        const PlanBudget& budget);

  PlannerEngineOptions options_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::shared_ptr<const cloud::Catalog>>>
      catalogs_;
  std::vector<CachedIndex> indexes_;
  std::uint64_t use_tick_ = 0;
  std::size_t cache_bytes_ = 0;
};

}  // namespace celia::core

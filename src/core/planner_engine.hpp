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
//     model) pair builds the index, outside the lock and at most once:
//     racing first queries wait for that one build. Every later query
//     hits the cache, whatever other catalogs were queried in between.
//   * Ineligible queries (risk-aware, sampled or multi-dimensional) run
//     the full sweep at the catalog's prices.
//
// ONE CACHE LIFECYCLE: an index is cached while a registered name serves
// its catalog. Replacing a name's snapshot reprices the old snapshot's
// cached indexes when only prices moved and evicts them otherwise (the
// next query rebuilds); the old entries go once no other name serves the
// old snapshot. A reprice runs outside the lock, so plan() never waits
// for one.
//
// DEGRADED OPERATION (control-plane resilience): a PlanBudget bounds how
// much simulated work one query may spend. The engine walks a fixed
// degradation ladder instead of throwing: cached index (free) → build the
// index if the budget affords it → fresh full sweep (route
// kDegradedSweep) → best-effort sweep of a TRUNCATED configuration space
// (route kTruncatedSweep) when even a sweep no longer fits. The route is
// always visible in SweepResult::route and
// celia_planner_engine_degraded_total.
//
// Observability: celia_planner_engine_queries_total counts every plan()
// call, _index_hits_total the ones answered from an already-cached index
// or from a build another query had in flight, _index_builds_total the
// cache misses that built one, _sweeps_total the ineligible queries that
// swept, and _degraded_total the queries pushed down the ladder by a
// budget (also counted per route in _sweeps_total's siblings).
// hits + builds + sweeps + degraded == queries.

#include <cstdint>
#include <functional>
#include <future>
#include <list>
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

/// Engine-wide options. The defaults are what production callers use.
struct PlannerEngineOptions {
  /// TEST-ONLY failure injection: invoked inside add_catalog(replace)
  /// after each cached index has been repriced, with the number repriced
  /// so far. A throw here (or from the reprice itself) must leave the
  /// engine observably unchanged — catalog map, index cache, bytes and
  /// counters — which the FrontierDelta failure-injection test pins by
  /// fingerprint. The hook runs outside the engine's lock, so a hook that
  /// blocks parks the replace without blocking plan(). Production callers
  /// leave this empty.
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
  /// A replace keeps the index cache in step with the new snapshot:
  ///
  ///   * price-only (equal structure fingerprints): every cached index of
  ///     the old snapshot is repriced via FrontierIndex::repriced — no
  ///     configuration walk (celia_planner_engine_delta_rescale_total);
  ///   * anything else: the old snapshot's cached indexes are evicted and
  ///     the next query rebuilds (celia_planner_engine_delta_rebuild_total).
  ///
  /// Exactly one of the two counters increments per replace, so
  /// rescale + rebuild == celia_planner_engine_catalog_replaces_total
  /// always holds. An index whose reprice refuses (FrontierIndex returns
  /// nullopt — e.g. price ratios outside the provable band) is evicted
  /// instead; the counter records the EDIT, not the per-entry outcome. The
  /// old snapshot's cached indexes are only dropped when no other name
  /// still points at the same catalog.
  ///
  /// Replaces run one at a time. A replace holds the engine's lock only to
  /// copy the old snapshot's cached indexes and to commit; it reprices
  /// between the two, so plan() calls meanwhile answer at the old snapshot
  /// without waiting.
  ///
  /// STRONG EXCEPTION SAFETY: a replace reprices into locals before
  /// touching any engine state; the commit (counters, snapshot swap, cache
  /// edits) is a no-throw tail. If a reprice throws, the engine —
  /// catalogs, cached indexes and every counter — is exactly as it was
  /// before the call.
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

  /// Summed FrontierIndex::memory_bytes() of the cached indexes. A point
  /// store shared by two cached indexes (an index and its reprice, while
  /// another name still serves the old snapshot) counts once per index.
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
  /// A build in flight for one (catalog, model) key; queries that would
  /// start the same build wait on `index` instead.
  struct PendingBuild {
    std::uint64_t catalog_fingerprint = 0;
    std::vector<int> max_counts;
    std::vector<double> rates;
    std::shared_future<std::shared_ptr<const FrontierIndex>> index;
  };

  std::shared_ptr<const cloud::Catalog> catalog_locked(
      std::string_view name) const;

  /// True while a registered name serves the catalog with this full
  /// fingerprint (mutex_ must be held).
  bool served_locked(std::uint64_t catalog_fingerprint) const;

  SweepResult plan_impl(const cloud::Catalog& catalog,
                        const ConfigurationSpace& space,
                        const ResourceCapacity& capacity, const Query& query,
                        const PlanBudget& budget);

  PlannerEngineOptions options_;
  std::mutex replace_mutex_;  // serializes add_catalog
  mutable std::mutex mutex_;  // guards everything below
  std::vector<std::pair<std::string, std::shared_ptr<const cloud::Catalog>>>
      catalogs_;
  std::vector<std::shared_ptr<const FrontierIndex>> indexes_;
  std::list<PendingBuild> pending_;
};

}  // namespace celia::core

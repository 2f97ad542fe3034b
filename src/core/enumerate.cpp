#include "core/enumerate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>

#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"
#include "core/sweep_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace celia::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One block's reduction. Points reach a block in ascending config_index,
/// so an earlier point q with q.cost <= p.cost and q.seconds <= p.seconds
/// also comes first in cheaper() order, and pareto_filter would drop p.
/// `frontier` is therefore kept equal to pareto_filter of the points seen
/// so far, online: ascending cost, strictly descending seconds. Its front
/// is the block's cheaper() minimum and its back the faster() minimum.
struct PartialResult {
  std::uint64_t feasible = 0;
  std::vector<CostTimePoint> frontier;
  /// The last frontier entry that rejected a point: any earlier point of
  /// the block, even one since evicted, still proves dominance. Starts at
  /// +inf, which no feasible (finite) point can be dominated by.
  CostTimePoint dominator{0, kInf, kInf};
  std::vector<CostTimePoint> samples;

  void note_feasible(const CostTimePoint& p, std::uint64_t sample_stride) {
    ++feasible;
    if (sample_stride > 0 && feasible % sample_stride == 0)
      samples.push_back(p);
    if (dominator.cost <= p.cost && dominator.seconds <= p.seconds) return;
    // The last entry no dearer than p is the fastest such entry; p is
    // weakly dominated iff it is no slower. `<=` on both axes: an exact
    // tie keeps the earlier (lower config_index) point.
    auto first = std::upper_bound(
        frontier.begin(), frontier.end(), p.cost,
        [](double cost, const CostTimePoint& e) { return cost < e.cost; });
    if (first != frontier.begin()) {
      const CostTimePoint& no_dearer = *std::prev(first);
      if (no_dearer.seconds <= p.seconds) {
        dominator = no_dearer;
        return;
      }
      // An entry of equal cost is slower than p: p replaces it.
      if (no_dearer.cost == p.cost) --first;
    }
    // p joins, and evicts the dearer entries it weakly dominates: the run
    // up to the first entry faster than p.
    const auto last =
        std::find_if(first, frontier.end(), [&](const CostTimePoint& e) {
          return e.seconds < p.seconds;
        });
    frontier.insert(frontier.erase(first, last), p);
  }
};

/// Per-block scratch for the batched classification kernels: seconds/cost
/// output lanes plus the feasibility bitmask (one bit per lane element;
/// kBatch is a multiple of 64 so the mask is a whole number of words).
struct ClassifyScratch {
  std::array<double, SweepPlan::kBatch> seconds;
  std::array<double, SweepPlan::kBatch> cost;
  std::array<std::uint64_t, SweepPlan::kBatch / 64> mask;
};

/// Visit the set bits of `mask` in ascending position order. Feasible hits
/// must be consumed in index order — the block frontier's dominance rule
/// and the sample stride observe the arrival sequence.
template <typename OnFeasible>
void for_each_set_bit(const std::uint64_t* mask, std::size_t n,
                      OnFeasible&& fn) {
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

std::vector<double> capacity_rates(const ResourceCapacity& capacity) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < capacity.num_types(); ++i)
    rates.push_back(capacity.rate(i));
  return rates;
}

struct RouteCounters {
  obs::Counter& sweep = obs::counter(
      "celia_planner_route_sweep_total",
      "Planner queries answered by the full sweep (index never requested)");
  obs::Counter& index = obs::counter(
      "celia_planner_route_index_total",
      "Planner queries answered by a caller-provided FrontierIndex");
  obs::Counter& fallback = obs::counter(
      "celia_planner_route_fallback_total",
      "Planner queries that requested an index but were ineligible "
      "(risk-aware, sampled, or multi-dimensional) and fell back to the "
      "full sweep");
};

RouteCounters& route_counters() {
  static RouteCounters counters;
  return counters;
}

}  // namespace

void validate_query(double demand, const Constraints& constraints) {
  if (!std::isfinite(demand) || demand <= 0)
    throw std::invalid_argument(
        "planner query: demand must be finite and positive");
  if (std::isnan(constraints.deadline_seconds) ||
      constraints.deadline_seconds < 0)
    throw std::invalid_argument(
        "planner query: deadline must be non-negative (NaN rejected)");
  if (std::isnan(constraints.budget_dollars) || constraints.budget_dollars < 0)
    throw std::invalid_argument(
        "planner query: budget must be non-negative (NaN rejected)");
  if (!std::isfinite(constraints.confidence_z) || constraints.confidence_z < 0)
    throw std::invalid_argument(
        "planner query: confidence_z must be finite and non-negative");
  if (!std::isfinite(constraints.rate_sigma) || constraints.rate_sigma < 0)
    throw std::invalid_argument(
        "planner query: rate_sigma must be finite and non-negative");
}

void validate_query(const apps::DemandVector& demand,
                    const Constraints& constraints,
                    const apps::DemandDimensions* schema) {
  if (demand.size() == 0)
    throw std::invalid_argument(
        "planner query: demand vector must have at least one dimension");
  if (schema != nullptr && schema->size() != demand.size())
    throw std::invalid_argument(
        "planner query: demand vector has " + std::to_string(demand.size()) +
        " dimensions but the schema [" + schema->describe() + "] names " +
        std::to_string(schema->size()));
  validate_query(demand.values[0], constraints);
  for (std::size_t d = 1; d < demand.size(); ++d)
    if (!std::isfinite(demand.values[d]) || demand.values[d] < 0)
      throw std::invalid_argument(
          "planner query: demand dimension " + std::to_string(d) +
          (schema != nullptr ? " ('" + schema->name(d) + "')" : "") +
          " must be finite and non-negative");
  if (demand.size() > 1 && constraints.confidence_z > 0 &&
      constraints.rate_sigma > 0)
    throw std::invalid_argument(
        "planner query: risk-aware selection (confidence_z with rate_sigma) "
        "models a spread on the scalar instruction rate and is not "
        "supported for multi-dimensional demand" +
        (schema != nullptr
             ? " over the schema [" + schema->describe() + "]"
             : " (" + std::to_string(demand.size()) + " dimensions)"));
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  const cloud::Catalog& catalog, const Query& query) {
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "sweep: capacity was characterized against a structurally different "
        "catalog than '" + catalog.name() + "'");
  const std::span<const double> hourly_costs = catalog.hourly_costs();
  detail::validate_model_widths(space, capacity, hourly_costs, "sweep");
  detail::validate_demand_dimensions(capacity, query.num_dimensions(),
                                     "sweep");
  const double demand = query.demand();
  const Constraints& constraints = query.constraints();
  const SweepOptions& options = query.options();
  const IndexPolicy& policy = options.index_policy;
  const bool multi = query.num_dimensions() > 1;

  QueryRoute route = QueryRoute::kSweep;
  if (policy.mode != IndexPolicy::Mode::kNever) {
    if (policy.index == nullptr)
      throw std::invalid_argument(
          "sweep: IndexPolicy::Prefer requires a non-null FrontierIndex");
    if (query.index_eligible()) {
      if (policy.index->catalog_fingerprint() != catalog.fingerprint())
        throw std::invalid_argument(
            "sweep: FrontierIndex is pinned to a different catalog than '" +
            catalog.name() + "'");
      if (!policy.index->matches(space, capacity, catalog))
        throw std::invalid_argument(
            "sweep: FrontierIndex was built for a different model");
      route_counters().index.add(1);
      return policy.index->query(query);
    }
    // Index requested but this query needs the sweep (risk-aware,
    // sampled, or multi-dimensional): fall back, visibly.
    route_counters().fallback.add(1);
    route = QueryRoute::kSweepFallback;
  } else {
    route_counters().sweep.add(1);
  }

  static obs::Counter& sweep_queries = obs::counter(
      "celia_sweep_queries_total", "Full-sweep planner query executions");
  static obs::Counter& configs_walked = obs::counter(
      "celia_sweep_configurations_total",
      "Configurations walked by sweep/for_each_configuration");
  static obs::Counter& feasible_found =
      obs::counter("celia_sweep_feasible_total",
                   "Feasible configurations found by full sweeps");
  static obs::Counter& blocks_walked =
      obs::counter("celia_sweep_blocks_total",
                   "Enumeration blocks executed by worker threads");
  static obs::Histogram& block_seconds = obs::histogram(
      "celia_sweep_block_seconds", {},
      "Wall time of one enumeration block on one worker thread");
  static obs::Histogram& sweep_seconds = obs::histogram(
      "celia_sweep_seconds", {}, "End-to-end full-sweep wall time");
  static obs::Counter& multidim_sweeps = obs::counter(
      "celia_sweep_multidim_queries_total",
      "Full-sweep executions of multi-dimensional (vector-demand) queries");
  sweep_queries.add(1);
  if (multi) multidim_sweeps.add(1);
  util::Stopwatch sweep_timer;
  obs::Span sweep_span("sweep", "planner");

  const std::vector<double> rates = capacity_rates(capacity);

  // Full-instance rate rows for the multi-dimensional walk ([dim][type]);
  // the scalar path keeps using `rates` through the original walk_range.
  const apps::DemandVector& demand_vec = query.demand_vector();
  std::vector<std::vector<double>> rate_rows;
  if (multi) {
    rate_rows.resize(capacity.num_dimensions());
    for (std::size_t d = 0; d < capacity.num_dimensions(); ++d) {
      rate_rows[d].reserve(capacity.num_types());
      for (std::size_t i = 0; i < capacity.num_types(); ++i)
        rate_rows[d].push_back(capacity.rate(i, d));
    }
  }

  // Per-type variance contribution for risk-aware selection: adding one
  // instance of type i adds (W_i x sigma)^2 to the capacity variance.
  const bool risk_aware =
      constraints.confidence_z > 0 && constraints.rate_sigma > 0;
  std::vector<double> var_terms(rates.size(), 0.0);
  if (risk_aware) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double term = rates[i] * constraints.rate_sigma;
      var_terms[i] = term * term;
    }
  }
  const double z = constraints.confidence_z;

  // Build the SoA plan once per sweep; each block walks its own range over
  // it and classifies whole batches with the runtime-dispatched kernels.
  const SweepPlan plan =
      multi ? SweepPlan(space, rate_rows, hourly_costs)
            : SweepPlan(space, rates, hourly_costs, var_terms);
  const simd::Kernels& kernels = simd::active_kernels();
  simd::ClassifyParams params;
  params.demand = demand;
  params.deadline = constraints.deadline_seconds;
  params.budget = constraints.budget_dollars;
  params.z = z;

  // Dimensions with zero demand never bind the bottleneck max; list the
  // ones that do once, outside the walk.
  std::vector<std::uint32_t> active_dims;
  if (multi) {
    for (std::size_t d = 0; d < demand_vec.size(); ++d)
      if (demand_vec.values[d] > 0)
        active_dims.push_back(static_cast<std::uint32_t>(d));
  }

  std::mutex merge_mutex;
  SweepResult result;
  result.total = space.size();
  result.route = route;
  std::vector<CostTimePoint> merged_pareto;

  parallel::ForOptions for_options;
  for_options.pool = options.pool;
  parallel::parallel_for_blocked(
      0, space.size(),
      [&](parallel::BlockedRange range) {
        util::Stopwatch block_timer;
        PartialResult partial;
        auto scratch = std::make_unique<ClassifyScratch>();
        plan.walk(range, [&](std::uint64_t first, std::size_t n,
                             const SweepPlan::Lanes& lanes) {
          std::size_t hits;
          if (multi) {
            // Bottleneck feasibility: T = max_d D_d / U_d (generalized
            // Eq. 2) over the active dimensions.
            hits = kernels.classify_multi(
                lanes.u_rows, SweepPlan::kBatch, active_dims.data(),
                active_dims.size(), demand_vec.values.data(), lanes.cu, n,
                constraints.deadline_seconds, constraints.budget_dollars,
                scratch->seconds.data(), scratch->cost.data(),
                scratch->mask.data());
          } else if (risk_aware) {
            hits = kernels.classify_risk(lanes.u(), lanes.v, lanes.cu, n,
                                         params, scratch->seconds.data(),
                                         scratch->cost.data(),
                                         scratch->mask.data());
          } else {
            hits = kernels.classify(lanes.u(), lanes.cu, n, params,
                                    scratch->seconds.data(),
                                    scratch->cost.data(),
                                    scratch->mask.data());
          }
          if (hits == 0) return;
          for_each_set_bit(scratch->mask.data(), n, [&](std::size_t j) {
            partial.note_feasible(
                {first + j, scratch->seconds[j], scratch->cost[j]},
                options.sample_stride);
          });
        });

        // Block-granularity instrumentation: the inner walk stays
        // untouched, so metrics cost O(blocks), not O(configurations).
        block_seconds.record(block_timer.elapsed_seconds());
        blocks_walked.add(1);
        configs_walked.add(range.end - range.begin);
        feasible_found.add(partial.feasible);

        std::lock_guard<std::mutex> lock(merge_mutex);
        result.feasible += partial.feasible;
        if (!partial.frontier.empty()) {
          const CostTimePoint& min_cost = partial.frontier.front();
          const CostTimePoint& min_time = partial.frontier.back();
          if (!result.any_feasible) {
            result.min_cost = min_cost;
            result.min_time = min_time;
            result.any_feasible = true;
          } else {
            // Blocks arrive in any order; the total order makes the merged
            // winner independent of it.
            if (cheaper(min_cost, result.min_cost)) result.min_cost = min_cost;
            if (faster(min_time, result.min_time)) result.min_time = min_time;
          }
          if (options.collect_pareto)
            merged_pareto.insert(merged_pareto.end(), partial.frontier.begin(),
                                 partial.frontier.end());
        }
        result.feasible_points.insert(result.feasible_points.end(),
                                      partial.samples.begin(),
                                      partial.samples.end());
      },
      for_options);

  if (options.collect_pareto)
    result.pareto = pareto_filter(std::move(merged_pareto));
  sweep_seconds.record(sweep_timer.elapsed_seconds());
  return result;
}

namespace detail {

void validate_model_widths(const ConfigurationSpace& space,
                           const ResourceCapacity& capacity,
                           std::span<const double> hourly_costs,
                           const char* who) {
  if (space.num_types() != capacity.num_types())
    throw std::invalid_argument(std::string(who) +
                                ": space/capacity width mismatch");
  if (hourly_costs.size() != capacity.num_types())
    throw std::invalid_argument(std::string(who) +
                                ": hourly cost width mismatch");
}

void validate_demand_dimensions(const ResourceCapacity& capacity,
                                std::size_t query_dimensions,
                                const char* who) {
  if (capacity.num_dimensions() != query_dimensions)
    throw std::invalid_argument(
        std::string(who) + ": demand has " +
        std::to_string(query_dimensions) + " dimension(s) but the capacity "
        "was characterized for " +
        std::to_string(capacity.num_dimensions()) +
        " ('" + capacity.dimensions().name(0) +
        "' ...) — schema mismatch, not a degenerate case");
}

}  // namespace detail

}  // namespace celia::core

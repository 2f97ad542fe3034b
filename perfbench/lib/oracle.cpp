#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "core/query.hpp"

namespace perfbench {

namespace {

using celia::core::CostTimePoint;
using celia::core::SweepResult;

/// Widest divergence still attributed to the documented boundary case.
constexpr double kBoundaryUlps = 16.0;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const CostTimePoint& a, const CostTimePoint& b) {
  return same_bits(a.seconds, b.seconds) && same_bits(a.cost, b.cost);
}

bool near(double value, double limit) {
  if (!std::isfinite(limit)) return false;
  return std::abs(value - limit) <=
         kBoundaryUlps * std::numeric_limits<double>::epsilon() *
             std::abs(limit);
}

bool on_boundary(const CostTimePoint& point,
                 const celia::core::Constraints& constraints) {
  return near(point.cost, constraints.budget_dollars) ||
         near(point.seconds, constraints.deadline_seconds);
}

using Key = std::pair<std::uint64_t, std::uint64_t>;

std::vector<Key> keys(const std::vector<CostTimePoint>& points) {
  std::vector<Key> out;
  out.reserve(points.size());
  for (const CostTimePoint& p : points)
    out.emplace_back(std::bit_cast<std::uint64_t>(p.seconds),
                     std::bit_cast<std::uint64_t>(p.cost));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

OracleCheck compare_answers(const SweepResult& answer,
                            const SweepResult& oracle,
                            const celia::core::Constraints& constraints,
                            const CountAt& count_at) {
  std::string exact_mismatch;
  if (answer.total != oracle.total) {
    return {Verdict::kMismatch, "total " + std::to_string(answer.total) +
                                    " vs " + std::to_string(oracle.total)};
  }
  if (answer.feasible != oracle.feasible)
    exact_mismatch = "feasible " + std::to_string(answer.feasible) + " vs " +
                     std::to_string(oracle.feasible);
  else if (answer.any_feasible != oracle.any_feasible)
    exact_mismatch = "any_feasible differs";
  else if (answer.any_feasible &&
           (!same_point(answer.min_cost, oracle.min_cost) ||
            !same_point(answer.min_time, oracle.min_time)))
    exact_mismatch = "min-cost or min-time point differs";
  else if (answer.pareto.size() != oracle.pareto.size())
    exact_mismatch = "pareto length " + std::to_string(answer.pareto.size()) +
                     " vs " + std::to_string(oracle.pareto.size());
  else {
    for (std::size_t i = 0; i < answer.pareto.size(); ++i) {
      if (!same_point(answer.pareto[i], oracle.pareto[i])) {
        exact_mismatch = "pareto point " + std::to_string(i) + " differs";
        break;
      }
    }
  }
  if (exact_mismatch.empty()) return {};

  // Boundary classification: the count lies between the counts with both
  // limits moved a few ulps inward and outward, and every point that
  // differs sits within a few ulps of the budget or the deadline.
  bool boundary = true;
  if (answer.feasible != oracle.feasible) {
    const auto moved = [&](double factor) {
      celia::core::Constraints c = constraints;
      c.deadline_seconds *= factor;
      c.budget_dollars *= factor;
      return c;
    };
    const double shift =
        kBoundaryUlps * std::numeric_limits<double>::epsilon();
    boundary = count_at(moved(1.0 - shift)) <= answer.feasible &&
               answer.feasible <= count_at(moved(1.0 + shift));
  }
  if (boundary && answer.any_feasible && oracle.any_feasible) {
    for (const auto& [a, b] : {std::pair{answer.min_cost, oracle.min_cost},
                               std::pair{answer.min_time, oracle.min_time}}) {
      if (!same_point(a, b) &&
          !(on_boundary(a, constraints) || on_boundary(b, constraints)))
        boundary = false;
    }
  }
  if (boundary) {
    const std::vector<Key> a = keys(answer.pareto);
    const std::vector<Key> b = keys(oracle.pareto);
    std::vector<Key> diff;
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(diff));
    for (const Key& key : diff) {
      const CostTimePoint point{0, std::bit_cast<double>(key.first),
                                std::bit_cast<double>(key.second)};
      if (!on_boundary(point, constraints)) boundary = false;
    }
  }
  return {boundary ? Verdict::kBoundary : Verdict::kMismatch,
          exact_mismatch};
}

SweepResult oracle_answer(const celia::cloud::Catalog& catalog,
                          const celia::core::ResourceCapacity& capacity,
                          double demand,
                          const celia::core::Constraints& constraints,
                          bool collect_pareto,
                          celia::parallel::ThreadPool& pool) {
  celia::core::SweepOptions options;
  options.collect_pareto = collect_pareto;
  options.pool = &pool;
  options.index_policy = celia::core::IndexPolicy::Never();
  return celia::core::sweep(
      celia::core::ConfigurationSpace::for_catalog(catalog), capacity, catalog,
      celia::core::Query::make(demand, constraints, options));
}

std::string answer_defect(const SweepResult& answer, std::uint64_t space_size,
                          bool collect_pareto) {
  if (answer.total != space_size) return "total is not the space size";
  if (answer.feasible > answer.total) return "feasible exceeds total";
  if (answer.any_feasible != (answer.feasible > 0))
    return "any_feasible disagrees with the feasible count";
  if (answer.route == celia::core::QueryRoute::kTruncatedSweep)
    return "answered over a truncated space";
  if (!collect_pareto || !answer.any_feasible)
    return answer.pareto.empty() ? "" : "frontier that was not asked for";
  const std::vector<CostTimePoint>& pareto = answer.pareto;
  if (pareto.empty()) return "feasible answer without a frontier";
  for (std::size_t i = 1; i < pareto.size(); ++i)
    if (!(pareto[i].cost >= pareto[i - 1].cost &&
          pareto[i].seconds <= pareto[i - 1].seconds))
      return "frontier not ordered by cost and time";
  if (!same_bits(pareto.front().cost, answer.min_cost.cost))
    return "min-cost point is not the frontier's cheapest";
  if (!same_bits(pareto.back().seconds, answer.min_time.seconds))
    return "min-time point is not the frontier's fastest";
  return "";
}

}  // namespace perfbench

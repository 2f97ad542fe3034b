#pragma once
// Cost-time Pareto filtering (paper §III-D).
//
// Feasible configurations are filtered to the Pareto frontier: the set of
// configurations not dominated in (time, cost). Both objectives are
// minimized. Two filters are provided: the exact sort-and-scan filter, and
// the epsilon-nondomination variant of Woodruff & Herman's pareto.py (the
// tool the paper cites), which thins the frontier to one representative
// per epsilon box.

#include <cstdint>
#include <vector>

namespace celia::core {

/// A feasible configuration's predicted performance.
struct CostTimePoint {
  std::uint64_t config_index = 0;  // into a ConfigurationSpace
  double seconds = 0.0;
  double cost = 0.0;

  friend bool operator==(const CostTimePoint&, const CostTimePoint&) = default;
};

/// The total orders every planner route chooses points by. When several
/// configurations tie exactly in cost and time, the LOWEST config_index
/// wins, so an answer never depends on thread count, block arrival order
/// or route (sweep, FrontierIndex, engine, service).
///
/// Min-cost order: (cost, seconds, config_index). Written `<` before `==`
/// so a point that is neither cheaper nor tied costs two compares.
inline bool cheaper(const CostTimePoint& a, const CostTimePoint& b) {
  return a.cost < b.cost ||
         (a.cost == b.cost &&
          (a.seconds < b.seconds ||
           (a.seconds == b.seconds && a.config_index < b.config_index)));
}

/// Min-time order: (seconds, cost, config_index).
inline bool faster(const CostTimePoint& a, const CostTimePoint& b) {
  return a.seconds < b.seconds ||
         (a.seconds == b.seconds &&
          (a.cost < b.cost ||
           (a.cost == b.cost && a.config_index < b.config_index)));
}

/// True when `a` dominates `b`: no worse in both objectives, strictly
/// better in at least one.
bool dominates(const CostTimePoint& a, const CostTimePoint& b);

/// Exact Pareto filter; returns the frontier sorted by ascending cost
/// (hence descending time). Points are ordered by cheaper(), so of several
/// exactly tied points the lowest config_index is kept. O(n log n).
std::vector<CostTimePoint> pareto_filter(std::vector<CostTimePoint> points);

/// Epsilon-nondomination sort: points are binned into (eps_seconds x
/// eps_cost) boxes; dominance is evaluated on box coordinates and one
/// representative (closest to the ideal corner of its box) is kept per
/// nondominated box. Returns representatives sorted by ascending cost.
std::vector<CostTimePoint> epsilon_nondominated(
    std::vector<CostTimePoint> points, double eps_seconds, double eps_cost);

}  // namespace celia::core

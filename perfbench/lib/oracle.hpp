#pragma once
// The oracle check: a served answer is compared against core::sweep with
// IndexPolicy::Never() on the same catalog snapshot. Compared are the
// feasible count, the bits of the min-cost and min-time points (seconds,
// cost) and the Pareto (seconds, cost) sequence. config_index is not
// compared, because tie-breaking between configurations with identical
// (seconds, cost) is not canonical yet.
//
// frontier_index.hpp documents one permitted divergence from the sweep:
// points whose cost or time lies within a few ulps of a constraint
// boundary. A difference made only of such points is classified as
// kBoundary and counted apart; anything else is a kMismatch.

#include <cstdint>
#include <functional>
#include <string>

#include "cloud/catalog.hpp"
#include "core/capacity.hpp"
#include "core/enumerate.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

enum class Verdict { kMatch, kBoundary, kMismatch };

struct OracleCheck {
  Verdict verdict = Verdict::kMatch;
  std::string detail;  // empty on kMatch
};

/// Feasible count of the same query under other constraints (a
/// feasibility-only sweep); brackets a count gap at the boundary.
using CountAt =
    std::function<std::uint64_t(const celia::core::Constraints& constraints)>;

/// Compare `answer` with the sweep's `oracle` for a query under
/// `constraints`. A differing feasible count is a boundary divergence only
/// if `count_at` shows it lies between the counts with both limits moved a
/// few ulps inward and outward.
OracleCheck compare_answers(const celia::core::SweepResult& answer,
                            const celia::core::SweepResult& oracle,
                            const celia::core::Constraints& constraints,
                            const CountAt& count_at);

/// The oracle's own answer: a full sweep of `catalog`'s space at its
/// prices, the index explicitly disabled.
celia::core::SweepResult oracle_answer(
    const celia::cloud::Catalog& catalog,
    const celia::core::ResourceCapacity& capacity, double demand,
    const celia::core::Constraints& constraints, bool collect_pareto,
    celia::parallel::ThreadPool& pool);

/// Cheap structural checks every answer must pass: totals, counts, a
/// Pareto frontier ascending in cost and descending in time, and min
/// points at its ends. Returns an empty string when the answer is sound.
std::string answer_defect(const celia::core::SweepResult& answer,
                          std::uint64_t space_size, bool collect_pareto);

}  // namespace perfbench

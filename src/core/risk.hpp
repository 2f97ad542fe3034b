#pragma once
// Pattern-aware probabilistic feasibility (extension E3).
//
// The paper's Eq. 2 is deterministic, but delivered instance performance
// varies (its own Table IV shows 5-17 % error). Whether that variation
// averages out or bites depends on the application's parallel structure:
//
//   kSumCapacity — task farms (x264, sand): work is divisible across
//     slots, so the effective capacity is the SUM of per-instance rates;
//     by the CLT its z-quantile is U - z * sqrt(sum_i m_i (W_i sigma)^2).
//
//   kBottleneck — bulk-synchronous apps (galaxy): every step waits for
//     the slowest node, so the run finishes in time only if the MINIMUM
//     per-instance factor stays above D / (U T'). With m instances and
//     factor ~ LogNormal(ln median, sigma), the feasibility condition is
//         m * ln(1 - Phi((ln x - ln median) / sigma)) >= ln(confidence),
//     which is far stricter than the averaging model — selecting with the
//     wrong risk model leaves the deadline unprotected (see
//     bench/ext_robust_selection).

#include <optional>
#include <string_view>

#include "core/capacity.hpp"
#include "core/configuration.hpp"
#include "core/pareto.hpp"
#include "parallel/thread_pool.hpp"

namespace celia::core {

enum class RiskModel {
  kNone,          // the paper's deterministic Eq. 2
  kSumCapacity,   // averaging (task farms)
  kBottleneck,    // min-statistics (bulk-synchronous)
};

std::string_view risk_model_name(RiskModel model);

struct RiskSpec {
  RiskModel model = RiskModel::kNone;
  /// Target P(T <= deadline), in (0, 1).
  double confidence = 0.95;
  /// Lognormal sigma of the per-instance delivered-rate factor.
  double sigma = 0.06;
  /// Median per-instance factor (captures turbo headroom above nominal).
  double median_factor = 1.0;
};

/// Min-cost configuration meeting `deadline_seconds` with the spec's
/// confidence (exhaustive sweep), priced with `catalog`. The returned
/// point carries the DETERMINISTIC predicted time/cost of the chosen
/// configuration (what the user would quote), feasibility having been
/// tested probabilistically. Exact ties resolve by pareto.hpp's cheaper()
/// order (lowest config_index wins). Returns nullopt when nothing qualifies.
/// Throws std::invalid_argument on a bad spec or a catalog structurally
/// incompatible with the capacity.
std::optional<CostTimePoint> robust_min_cost(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const cloud::Catalog& catalog, double demand, double deadline_seconds,
    const RiskSpec& spec, parallel::ThreadPool* pool = nullptr);

}  // namespace celia::core

#include "core/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace celia::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void validate(const ReliabilitySpec& spec) {
  if (spec.mtbf_seconds < 0 || spec.recovery_seconds < 0 ||
      spec.checkpoint_interval_seconds < 0 ||
      spec.checkpoint_write_seconds < 0 || spec.survive_losses < 0)
    throw std::invalid_argument("ReliabilitySpec: negative field");
}

double expected_makespan(double base_seconds, int nodes,
                         const ReliabilitySpec& spec) {
  if (spec.mtbf_seconds <= 0 || nodes <= 0 || base_seconds <= 0)
    return base_seconds;
  // Checkpoint-write overhead applies only when writes actually happen
  // (interval shorter than the run); without checkpoints a failure loses
  // half the run in expectation.
  double with_overhead = base_seconds;
  double interval = base_seconds;
  if (spec.checkpoint_interval_seconds > 0 &&
      spec.checkpoint_interval_seconds < base_seconds) {
    interval = spec.checkpoint_interval_seconds;
    with_overhead = base_seconds * (1.0 + spec.checkpoint_write_seconds /
                                              spec.checkpoint_interval_seconds);
  }
  const double lost_per_failure = 0.5 * interval + spec.recovery_seconds;
  const double fleet_rate = static_cast<double>(nodes) / spec.mtbf_seconds;
  const double drag = fleet_rate * lost_per_failure;
  if (drag >= 1.0) return kInf;  // the fleet re-fails faster than it heals
  return with_overhead / (1.0 - drag);
}

std::optional<ReliablePoint> reliable_min_cost(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const cloud::Catalog& catalog, double demand, double deadline_seconds,
    const ReliabilitySpec& spec, parallel::ThreadPool* pool) {
  Constraints as_constraints;
  as_constraints.deadline_seconds = deadline_seconds;
  validate_query(demand, as_constraints);  // same rejection as sweep()
  validate(spec);
  if (space.num_types() != capacity.num_types() ||
      catalog.size() != capacity.num_types())
    throw std::invalid_argument("reliable_min_cost: width mismatch");
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "reliable_min_cost: capacity was characterized against a "
        "structurally different catalog than '" + catalog.name() + "'");
  const std::span<const double> hourly_costs = catalog.hourly_costs();

  const std::size_t m = space.num_types();
  std::vector<double> rates(m), hourly(m);
  for (std::size_t i = 0; i < m; ++i) {
    rates[i] = capacity.rate(i);
    hourly[i] = hourly_costs[i];
  }
  // Types by descending rate: the k-loss worst case removes the fastest
  // instances first.
  std::vector<std::size_t> by_rate_desc(m);
  std::iota(by_rate_desc.begin(), by_rate_desc.end(), 0);
  std::sort(by_rate_desc.begin(), by_rate_desc.end(),
            [&](std::size_t a, std::size_t b) { return rates[a] > rates[b]; });
  const int k_loss = spec.survive_losses;

  std::mutex merge_mutex;
  std::optional<ReliablePoint> best;
  // (expected cost, expected seconds, config_index): the lowest index wins
  // an exact tie, so the answer does not depend on which block merges
  // first (the cheaper() rule of core/pareto.hpp).
  const auto better = [](const ReliablePoint& a, const ReliablePoint& b) {
    if (a.expected_cost != b.expected_cost)
      return a.expected_cost < b.expected_cost;
    if (a.expected_seconds != b.expected_seconds)
      return a.expected_seconds < b.expected_seconds;
    return a.config_index < b.config_index;
  };

  parallel::ForOptions for_options;
  for_options.pool = pool;
  parallel::parallel_for_blocked(
      0, space.size(),
      [&](parallel::BlockedRange range) {
        if (range.empty()) return;
        // Digit-carrying suffix-sum walk as in risk.cpp: aggregates (U,
        // Cu, node count) advance incrementally; the digit vector stays
        // current for the k-loss check.
        const auto& max_counts = space.max_counts();
        std::vector<int> digits(m);
        space.decode_into(range.begin, digits);
        const double rate0 = rates[0];
        const double hourly0 = hourly[0];
        const std::uint64_t row_radix =
            static_cast<std::uint64_t>(max_counts[0]) + 1;

        std::optional<ReliablePoint> local;
        const auto consider = [&](std::uint64_t index, double u, double cu,
                                  int instances, int count0) {
          if (u <= 0) return;
          const double base_seconds = demand / u;
          const double e_seconds =
              expected_makespan(base_seconds, instances, spec);
          if (!(e_seconds < deadline_seconds)) return;
          if (k_loss > 0) {
            if (instances <= k_loss) return;  // losing k kills the fleet
            double removed = 0.0;
            int left = k_loss;
            for (const std::size_t t : by_rate_desc) {
              const int count = t == 0 ? count0 : digits[t];
              if (count == 0) continue;
              const int take = std::min(count, left);
              removed += take * rates[t];
              left -= take;
              if (left == 0) break;
            }
            const double u_survive = u - removed;
            if (!(u_survive > 0) ||
                !(demand / u_survive < deadline_seconds))
              return;
          }
          ReliablePoint point;
          point.config_index = index;
          point.base_seconds = base_seconds;
          point.base_cost = base_seconds / 3600.0 * cu;
          point.expected_seconds = e_seconds;
          point.expected_cost = e_seconds / 3600.0 * cu;
          point.expected_failures =
              spec.mtbf_seconds > 0
                  ? e_seconds * instances / spec.mtbf_seconds
                  : 0.0;
          if (!local || better(point, *local)) local = point;
        };

        std::vector<double> su(m + 1, 0.0), scu(m + 1, 0.0);
        std::vector<int> si(m + 1, 0);
        for (std::size_t i = m; i-- > 1;) {
          su[i] = su[i + 1] + digits[i] * rates[i];
          scu[i] = scu[i + 1] + digits[i] * hourly[i];
          si[i] = si[i + 1] + digits[i];
        }

        std::uint64_t index = range.begin;
        for (;;) {
          double u = su[1], cu = scu[1];
          int instances = si[1];
          const auto k_begin = static_cast<std::uint64_t>(digits[0]);
          for (std::uint64_t k = 0; k < k_begin; ++k) {
            u += rate0;
            cu += hourly0;
            ++instances;
          }
          const std::uint64_t steps =
              std::min<std::uint64_t>(row_radix - k_begin, range.end - index);
          for (std::uint64_t j = 0; j < steps; ++j) {
            consider(index + j, u, cu, instances,
                     static_cast<int>(k_begin + j));
            u += rate0;
            cu += hourly0;
            ++instances;
          }
          index += steps;
          if (index >= range.end) break;
          digits[0] = 0;
          std::size_t i = 1;
          for (; i < m; ++i) {
            if (digits[i] < max_counts[i]) {
              ++digits[i];
              break;
            }
            digits[i] = 0;
          }
          su[i] = su[i + 1] + digits[i] * rates[i];
          scu[i] = scu[i + 1] + digits[i] * hourly[i];
          si[i] = si[i + 1] + digits[i];
          for (std::size_t t = i; t-- > 1;) {
            su[t] = su[t + 1];
            scu[t] = scu[t + 1];
            si[t] = si[t + 1];
          }
        }

        if (local) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          if (!best || better(*local, *best)) best = local;
        }
      },
      for_options);
  return best;
}

}  // namespace celia::core

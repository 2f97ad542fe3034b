#pragma once
// Failure-aware configuration selection (robustness extension).
//
// The paper's Eq. 2 feasibility test T = D/U < T' assumes every node
// survives to the makespan. Under a per-node MTBF that is optimistic: the
// min-cost configuration typically sits right at the deadline edge, so a
// single crash (lost work since the last checkpoint + a replacement boot)
// pushes it over. This module plans WITH failures priced in:
//
//   * Renewal approximation of the expected makespan. A fleet of n nodes
//     with per-node MTBF theta fails at rate lambda = n / theta. With
//     checkpoint interval tau (write cost w) and per-failure recovery
//     overhead R (detection + replacement boot + rollback re-execution of
//     ~tau/2 of work), the expected makespan of a base run T0 is
//
//         T_ck  = T0 * (1 + w / tau)            (checkpoint overhead)
//         E[T] ~= T_ck / (1 - lambda * (tau/2 + R))
//
//     the standard first-order checkpoint/restart estimate (cf. Daly's
//     higher-order model); infeasible when lambda * (tau/2 + R) >= 1 (the
//     fleet re-fails before it can recover).
//
//   * k-node-loss survivability: a configuration only qualifies when,
//     after removing its k highest-rate instances, the residual capacity
//     still meets the deadline (a static worst-case check, independent of
//     the stochastic model).
//
// Like risk.hpp this is a full-sweep route over the configuration space
// (the expected-time transform is demand- and spec-dependent, so the
// demand-invariant FrontierIndex does not apply); the Pareto-style
// objective is EXPECTED cost (all nodes billed through E[T]).

#include <cstdint>
#include <optional>

#include "core/capacity.hpp"
#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "parallel/thread_pool.hpp"

namespace celia::core {

struct ReliabilitySpec {
  /// Per-node mean time between failures, seconds. 0 = fail-never (the
  /// paper's model; reliable_min_cost then reduces to the plain sweep).
  double mtbf_seconds = 0.0;
  /// Recovery overhead per failure beyond re-execution: failure detection
  /// plus replacement provisioning/boot plus restart.
  double recovery_seconds = 300.0;
  /// Checkpoint interval (seconds of computing between writes). 0 = no
  /// checkpoints: a failure re-runs everything (tau/2 becomes T0/2).
  double checkpoint_interval_seconds = 1800.0;
  /// Wall-clock stall of one checkpoint write.
  double checkpoint_write_seconds = 30.0;
  /// Require the deadline to survive the loss of this many nodes (the k
  /// highest-rate ones — worst case) with NO recomputation modeled.
  int survive_losses = 0;
};

/// Throws std::invalid_argument on negative fields.
void validate(const ReliabilitySpec& spec);

struct ReliablePoint {
  std::uint64_t config_index = 0;
  /// Fail-never quote (Eq. 2 / Eq. 5) — what the paper would print.
  double base_seconds = 0.0;
  double base_cost = 0.0;
  /// Renewal-approximation expectations under the spec.
  double expected_seconds = 0.0;
  double expected_cost = 0.0;
  double expected_failures = 0.0;
};

/// Expected makespan of a run with fail-never time `base_seconds` on
/// `nodes` instances under `spec` (renewal approximation above). Returns
/// +inf when the fleet cannot outrun its own failure rate.
double expected_makespan(double base_seconds, int nodes,
                         const ReliabilitySpec& spec);

/// Cheapest configuration whose EXPECTED makespan meets the deadline and
/// which survives the spec's k-node loss, priced with `catalog`.
/// Exhaustive parallel sweep; ties break toward smaller expected time,
/// then toward the lowest config_index, so the pick is independent of the
/// thread count.
/// Returns nullopt when nothing qualifies. Throws std::invalid_argument on
/// bad demand/deadline/spec or a catalog structurally incompatible with
/// the capacity.
std::optional<ReliablePoint> reliable_min_cost(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const cloud::Catalog& catalog, double demand, double deadline_seconds,
    const ReliabilitySpec& spec, parallel::ThreadPool* pool = nullptr);

}  // namespace celia::core

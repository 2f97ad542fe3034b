// Self-tests of the benchmark itself:
//   * workload generation is deterministic: the same seed gives the same
//     request-sequence digest, a different seed a different one;
//   * the oracle check accepts the sweep's own answer and rejects a
//     deliberately perturbed one on a tiny catalog.
// Exits non-zero on the first failed check.

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/capacity.hpp"
#include "oracle.hpp"
#include "parallel/thread_pool.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

void digests_are_seed_determined() {
  for (const perfbench::WorkloadKind kind :
       {perfbench::WorkloadKind::kIndexReads,
        perfbench::WorkloadKind::kSweepPareto}) {
    const std::string name(perfbench::workload_name(kind));
    const std::uint64_t a = perfbench::request_digest(kind, 7, 256);
    check(a == perfbench::request_digest(kind, 7, 256),
          name + ": same seed, same digest");
    check(a != perfbench::request_digest(kind, 8, 256),
          name + ": different seed, different digest");
  }
}

void repeats_copy_the_previous_request() {
  const perfbench::WorkloadSpec& spec =
      perfbench::workload_spec(perfbench::WorkloadKind::kSweepPareto);
  const perfbench::World world = perfbench::make_world(spec);
  const perfbench::RequestGenerator generator(spec, world, 11);
  std::size_t repeats = 0;
  const std::size_t n = 2000;
  for (std::uint64_t i = 1; i < n; ++i) {
    const perfbench::RequestSpec request =
        generator.at(perfbench::Stream::kOpen, i);
    if (!request.repeat) continue;
    ++repeats;
    const perfbench::RequestSpec previous =
        generator.at(perfbench::Stream::kOpen, i - 1);
    check(request.demand == previous.demand &&
              request.constraints.budget_dollars ==
                  previous.constraints.budget_dollars,
          "a repeat equals the request before it");
  }
  const double share = static_cast<double>(repeats) / n;
  check(std::abs(share - spec.repeat_fraction) < 0.05,
        "about a quarter of sweep_pareto's open-loop requests repeat");
}

void oracle_rejects_a_perturbed_answer() {
  const auto& table3 = celia::cloud::Catalog::ec2_table3();
  const celia::cloud::Catalog tiny(
      "tiny", "test",
      std::vector<celia::cloud::InstanceType>(table3.types().begin(),
                                              table3.types().begin() + 3),
      std::vector<int>(3, 2));
  const celia::core::ResourceCapacity capacity({1.2e9, 1.3e9, 1.1e9}, tiny);
  celia::core::Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 50.0;
  celia::parallel::ThreadPool pool(1);
  const double demand = 2e13;
  const celia::core::SweepResult truth = perfbench::oracle_answer(
      tiny, capacity, demand, constraints, true, pool);
  const perfbench::CountAt count_at =
      [&](const celia::core::Constraints& moved) {
        return perfbench::oracle_answer(tiny, capacity, demand, moved, false,
                                        pool)
            .feasible;
      };
  check(truth.any_feasible && truth.pareto.size() > 1,
        "the tiny query has a frontier to perturb");
  check(perfbench::compare_answers(truth, truth, constraints, count_at).verdict ==
            perfbench::Verdict::kMatch,
        "the sweep's own answer matches");
  check(perfbench::answer_defect(truth, 26, true).empty(),
        "the sweep's own answer is structurally sound");

  celia::core::SweepResult bad = truth;
  bad.min_cost.cost = std::nextafter(bad.min_cost.cost, 1e300);
  check(perfbench::compare_answers(bad, truth, constraints, count_at).verdict ==
            perfbench::Verdict::kMismatch,
        "a one-ulp min-cost change is a mismatch");

  bad = truth;
  bad.feasible += 1000;
  check(perfbench::compare_answers(bad, truth, constraints, count_at).verdict ==
            perfbench::Verdict::kMismatch,
        "a wrong feasible count is a mismatch");

  bad = truth;
  bad.pareto.pop_back();
  check(perfbench::compare_answers(bad, truth, constraints, count_at).verdict ==
            perfbench::Verdict::kMismatch,
        "a missing frontier point is a mismatch");

  bad = truth;
  bad.pareto[1].seconds *= 1.01;
  check(perfbench::compare_answers(bad, truth, constraints, count_at).verdict ==
            perfbench::Verdict::kMismatch,
        "a moved frontier point is a mismatch");

  // With the budget exactly at the cheapest cost, that configuration is
  // infeasible (strict C < C'); an answer that counted it anyway is the
  // documented boundary divergence, not a mismatch.
  celia::core::Constraints at_edge = constraints;
  at_edge.budget_dollars = truth.pareto.front().cost;
  const celia::core::SweepResult edge_truth = perfbench::oracle_answer(
      tiny, capacity, demand, at_edge, true, pool);
  bad = edge_truth;
  bad.feasible += 1;
  check(perfbench::compare_answers(bad, edge_truth, at_edge, count_at)
                .verdict == perfbench::Verdict::kBoundary,
        "a count gap at the budget boundary is classified apart");
  bad = truth;
  bad.feasible += 1;
  check(perfbench::compare_answers(bad, truth, constraints, count_at)
                .verdict == perfbench::Verdict::kMismatch,
        "a count gap away from any boundary is a mismatch");

  bad = truth;
  bad.total += 1;
  check(!perfbench::answer_defect(bad, 26, true).empty(),
        "an answer over the wrong space is structurally unsound");
}

}  // namespace

int main() {
  digests_are_seed_determined();
  repeats_copy_the_previous_request();
  oracle_rejects_a_perturbed_answer();
  if (failures == 0) std::cout << "perfbench self-tests passed\n";
  return failures == 0 ? 0 : 1;
}

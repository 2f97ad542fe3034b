// Tests for FrontierIndex delta maintenance (core/frontier_index.hpp) and
// the PlannerEngine's catalog-replace path.
//
// The contract is EXACTNESS, not approximation: an index maintained
// through repriced() / with_limit() must equal a from-scratch build of the
// edited catalog BIT FOR BIT — same content fingerprint, same staircase
// entries to the last ulp (compared in hexfloat so a red test prints the
// exact differing bits), same answers to probe queries. Whenever an edit
// falls outside a delta's provable envelope the delta must REFUSE
// (nullopt), never return an approximate index.
//
// The FrontierDelta suite is counter-free (it runs in the obs-disabled CI
// build); counter assertions live in PlannerEngineDelta, which the
// obs-disabled job excludes via its anchored ^PlannerEngine pattern.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/frontier_index.hpp"
#include "core/planner_engine.hpp"
#include "core/query.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace celia::core;
using celia::cloud::Catalog;
namespace obs = celia::obs;

std::string hex(double x) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", x);
  return buffer;
}

/// Deterministic 64-bit LCG (MMIX constants) for the edit-sequence
/// property test.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
  }
};

/// 6 Table III types, mixed limits — 4*5*3*4*4*3 - 1 = 2879 configurations,
/// small enough to rebuild from scratch at every step of the property test.
const Catalog& base_catalog() {
  static const Catalog catalog = [] {
    const auto& table3 = Catalog::ec2_table3();
    return Catalog("delta-base", "test",
                   std::vector<celia::cloud::InstanceType>{
                       table3.types().begin(), table3.types().begin() + 6},
                   std::vector<int>{3, 4, 2, 3, 3, 2});
  }();
  return catalog;
}

/// Measured-style rates for the base structure; rebound() re-pins them to
/// any same-hardware derivative (repriced or limit-shrunken) catalog.
const ResourceCapacity& base_capacity() {
  static const ResourceCapacity capacity = [] {
    std::vector<double> per_vcpu(base_catalog().size());
    for (std::size_t i = 0; i < per_vcpu.size(); ++i)
      per_vcpu[i] = 1.17e9 + 4.3e7 * static_cast<double>(i);
    return ResourceCapacity(std::move(per_vcpu), base_catalog());
  }();
  return capacity;
}

FrontierIndex build_for(const Catalog& catalog) {
  return FrontierIndex::build(ConfigurationSpace::for_catalog(catalog),
                              base_capacity().rebound(catalog), catalog);
}

struct Probe {
  double demand, deadline_seconds, budget_dollars;
};
constexpr Probe kProbes[] = {
    {5e14, 24 * 3600.0, 350.0},   // mid-space: most configs feasible
    {9e15, 12 * 3600.0, 80.0},    // tight: few survive
    {2e16, 2 * 3600.0, 10.0},     // over-constrained: likely none
};

/// Bit-exact equality of a delta-maintained index and a from-scratch
/// build: fingerprint, staircase (hexfloat on failure), totals, and the
/// full result of every probe query.
void expect_index_equal(const FrontierIndex& delta,
                        const FrontierIndex& scratch, const char* context) {
  EXPECT_EQ(delta.content_fingerprint(), scratch.content_fingerprint())
      << context;
  EXPECT_EQ(delta.total_configurations(), scratch.total_configurations())
      << context;
  EXPECT_EQ(delta.attainable_configurations(),
            scratch.attainable_configurations())
      << context;
  ASSERT_EQ(delta.frontier().size(), scratch.frontier().size()) << context;
  for (std::size_t i = 0; i < delta.frontier().size(); ++i) {
    const auto& d = delta.frontier()[i];
    const auto& s = scratch.frontier()[i];
    EXPECT_EQ(d.config_index, s.config_index) << context << " entry " << i;
    EXPECT_EQ(d.u, s.u) << context << " entry " << i << ": " << hex(d.u)
                        << " vs " << hex(s.u);
    EXPECT_EQ(d.cu, s.cu) << context << " entry " << i << ": " << hex(d.cu)
                          << " vs " << hex(s.cu);
  }
  for (const Probe& probe : kProbes) {
    Constraints constraints;
    constraints.deadline_seconds = probe.deadline_seconds;
    constraints.budget_dollars = probe.budget_dollars;
    const Query query = Query::make(probe.demand, constraints);
    const SweepResult a = delta.query(query);
    const SweepResult b = scratch.query(query);
    EXPECT_EQ(a.feasible, b.feasible) << context;
    EXPECT_EQ(a.any_feasible, b.any_feasible) << context;
    if (!a.any_feasible || !b.any_feasible) continue;
    EXPECT_EQ(a.min_cost.config_index, b.min_cost.config_index) << context;
    EXPECT_EQ(a.min_cost.seconds, b.min_cost.seconds)
        << context << ": " << hex(a.min_cost.seconds) << " vs "
        << hex(b.min_cost.seconds);
    EXPECT_EQ(a.min_cost.cost, b.min_cost.cost)
        << context << ": " << hex(a.min_cost.cost) << " vs "
        << hex(b.min_cost.cost);
    EXPECT_EQ(a.min_time.config_index, b.min_time.config_index) << context;
    EXPECT_EQ(a.min_time.seconds, b.min_time.seconds) << context;
    EXPECT_EQ(a.min_time.cost, b.min_time.cost) << context;
    ASSERT_EQ(a.pareto.size(), b.pareto.size()) << context;
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i].config_index, b.pareto[i].config_index);
      EXPECT_EQ(a.pareto[i].seconds, b.pareto[i].seconds);
      EXPECT_EQ(a.pareto[i].cost, b.pareto[i].cost);
    }
  }
}

// ---------------------------------------------------------------------------
// repriced(): price-only deltas.
// ---------------------------------------------------------------------------

TEST(FrontierDelta, RepricedMatchesFromScratchBuild) {
  const Catalog anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);
  ASSERT_TRUE(index.delta_capable());
  EXPECT_FALSE(index.is_repriced());

  // Uniform rescale inside the band.
  const Catalog uniform = anchor.with_price_multiplier("u", "test", 1.04);
  const auto delta_uniform = index.repriced(uniform);
  ASSERT_TRUE(delta_uniform.has_value());
  EXPECT_TRUE(delta_uniform->is_repriced());
  expect_index_equal(*delta_uniform, build_for(uniform), "uniform reprice");

  // Non-uniform per-type ratios whose SPREAD stays inside the band (the
  // band constrains max/min ratio, not each ratio's distance from 1) —
  // the staircase can genuinely change shape here, not just rescale.
  std::vector<double> skewed(anchor.hourly_costs().begin(),
                             anchor.hourly_costs().end());
  const double mult[] = {0.99, 1.06, 1.0, 0.98, 1.04, 0.985};
  for (std::size_t i = 0; i < skewed.size(); ++i) skewed[i] *= mult[i];
  const Catalog non_uniform = anchor.repriced("s", "test", skewed);
  const auto delta_skewed = index.repriced(non_uniform);
  ASSERT_TRUE(delta_skewed.has_value());
  expect_index_equal(*delta_skewed, build_for(non_uniform),
                     "non-uniform reprice");
}

TEST(FrontierDelta, RepricedChainsAgainstTheAnchorBand) {
  const Catalog& anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);

  // Uniform rescales have ratio spread 1 whatever their magnitude — a
  // 3x across-the-board hike never changes which mixes are cheapest per
  // unit of capacity, so it is always coverable.
  const Catalog tripled = anchor.with_price_multiplier("p0", "test", 3.0);
  const auto repriced0 = index.repriced(tripled);
  ASSERT_TRUE(repriced0.has_value());
  expect_index_equal(*repriced0, build_for(tripled), "uniform 3x");

  // Chained reprices measure their ratios against the ANCHOR prices, not
  // the previous step's, so repeated skews do not compound silently. One
  // type at 1.07x is inside the spread band from the anchor...
  std::vector<double> skew1(anchor.hourly_costs().begin(),
                            anchor.hourly_costs().end());
  skew1[1] *= 1.07;
  const Catalog step1 = anchor.repriced("p1", "test", skew1);
  const auto repriced1 = index.repriced(step1);
  ASSERT_TRUE(repriced1.has_value());
  expect_index_equal(*repriced1, build_for(step1), "chained step 1");

  // ...and from that repriced index, moving ANOTHER type down 7% puts the
  // anchor-relative spread at 1.07/0.93 > 1.10: the delta must refuse
  // even though each individual step looked small.
  std::vector<double> skew2 = skew1;
  skew2[3] *= 0.93;
  const Catalog step2 = anchor.repriced("p2", "test", skew2);
  EXPECT_FALSE(repriced1->repriced(step2).has_value());

  // Returning toward the anchor is always fine.
  const Catalog back = anchor.with_price_multiplier("p3", "test", 1.01);
  const auto repriced_back = repriced1->repriced(back);
  ASSERT_TRUE(repriced_back.has_value());
  expect_index_equal(*repriced_back, build_for(back), "chained return");
}

TEST(FrontierDelta, RepricedRefusesUncoverableEdits) {
  const Catalog& anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);
  const std::vector<double> anchor_hourly(anchor.hourly_costs().begin(),
                                          anchor.hourly_costs().end());

  // Ratio band exceeded.
  std::vector<double> jump = anchor_hourly;
  jump[2] *= 1.5;
  EXPECT_FALSE(
      index.repriced(anchor.repriced("jump", "test", jump)).has_value());

  // Width mismatch: a catalog of other types is never price-only.
  EXPECT_FALSE(index.repriced(Catalog::ec2_table3()).has_value());

  // A different STRUCTURE (limits) is never price-only either.
  Catalog shrunk = anchor.with_limits(
      "l", "test", std::vector<int>{3, 4, 2, 3, 3, 1});
  EXPECT_FALSE(index.repriced(shrunk).has_value());

  // Short and non-positive price vectors never reach an index: the
  // catalog that would carry them refuses to exist.
  std::vector<double> narrow(anchor_hourly.begin(), anchor_hourly.end() - 1);
  EXPECT_THROW(anchor.repriced("narrow", "test", narrow),
               std::invalid_argument);
  std::vector<double> zeroed = anchor_hourly;
  zeroed[0] = 0.0;
  EXPECT_THROW(anchor.repriced("zeroed", "test", zeroed),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// with_limit(): single-axis limit decreases.
// ---------------------------------------------------------------------------

TEST(FrontierDelta, WithLimitMatchesFromScratchBuild) {
  const Catalog anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);
  // Shrink each axis in turn — interior, first and last axes exercise
  // different strides of the index remap.
  for (const std::size_t type : {std::size_t{0}, std::size_t{1},
                                 std::size_t{5}}) {
    std::vector<int> limits(anchor.limits().begin(), anchor.limits().end());
    limits[type] -= 1;
    const Catalog shrunk = anchor.with_limits("shrunk", "test", limits);
    const auto delta = index.with_limit(type, limits[type], shrunk);
    ASSERT_TRUE(delta.has_value()) << "axis " << type;
    EXPECT_FALSE(delta->is_repriced());
    expect_index_equal(*delta, build_for(shrunk),
                       ("limit axis " + std::to_string(type)).c_str());
  }

  // A deep cut (4 -> 1 on axis 1) and a chained second cut: with_limit
  // builds from scratch, so the result is delta-capable again.
  std::vector<int> deep{3, 1, 2, 3, 3, 2};
  const Catalog deep_catalog = anchor.with_limits("deep", "test", deep);
  const auto deep_delta = index.with_limit(1, 1, deep_catalog);
  ASSERT_TRUE(deep_delta.has_value());
  expect_index_equal(*deep_delta, build_for(deep_catalog), "deep cut");
  ASSERT_TRUE(deep_delta->delta_capable());

  std::vector<int> chained{3, 1, 2, 3, 1, 2};
  const Catalog chained_catalog = anchor.with_limits("chain", "test", chained);
  const auto chained_delta = deep_delta->with_limit(4, 1, chained_catalog);
  ASSERT_TRUE(chained_delta.has_value());
  expect_index_equal(*chained_delta, build_for(chained_catalog),
                     "chained cuts");
}

TEST(FrontierDelta, WithLimitRefusesOutOfEnvelopeEdits) {
  const Catalog anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);

  // An INCREASE adds configurations no store pass can conjure.
  const Catalog grown =
      anchor.with_limits("up", "test", std::vector<int>{5, 4, 2, 3, 3, 2});
  EXPECT_FALSE(index.with_limit(0, 5, grown).has_value());
  // No-op "decrease".
  EXPECT_FALSE(index.with_limit(0, 3, anchor).has_value());
  // Out-of-range axis.
  EXPECT_FALSE(index.with_limit(17, 1, anchor).has_value());

  // A repriced index narrows like any other: with_limit builds over `to`
  // from scratch, so the anchor prices its store carries do not matter.
  const Catalog bumped = anchor.with_price_multiplier("p", "test", 1.05);
  const auto repriced = index.repriced(bumped);
  ASSERT_TRUE(repriced.has_value());
  const Catalog bumped_cut =
      bumped.with_limits("pc", "test", std::vector<int>{2, 4, 2, 3, 3, 2});
  const auto repriced_cut = repriced->with_limit(0, 2, bumped_cut);
  ASSERT_TRUE(repriced_cut.has_value());
  expect_index_equal(*repriced_cut, build_for(bumped_cut),
                     "cut of a repriced index");

  // `to` must differ from the anchor ONLY in the named axis: not in a
  // second limit, not in prices.
  EXPECT_FALSE(index.with_limit(0, 2, bumped_cut).has_value());
  std::vector<int> two_axes{2, 3, 2, 3, 3, 2};
  EXPECT_FALSE(index.with_limit(
      0, 2, anchor.with_limits("two", "test", two_axes)).has_value());
}

TEST(FrontierDelta, DerivedIndexesArePinnedToTheirTargetCatalog) {
  const Catalog& anchor = base_catalog();
  const ConfigurationSpace space = ConfigurationSpace::for_catalog(anchor);
  const FrontierIndex index = build_for(anchor);
  EXPECT_TRUE(index.matches(space, base_capacity(), anchor));

  // A reprice answers for the new prices only, never for the anchor.
  const Catalog bumped = anchor.with_price_multiplier("bumped", "test", 1.05);
  const auto repriced = index.repriced(bumped);
  ASSERT_TRUE(repriced.has_value());
  EXPECT_EQ(repriced->catalog_fingerprint(), bumped.fingerprint());
  EXPECT_TRUE(repriced->matches(space, base_capacity(), bumped));
  EXPECT_FALSE(repriced->matches(space, base_capacity(), anchor));
  EXPECT_FALSE(index.matches(space, base_capacity(), bumped));

  // A limit cut answers for the shrunken space and its catalog only.
  const Catalog cut =
      anchor.with_limits("cut", "test", std::vector<int>{3, 4, 2, 3, 3, 1});
  const ConfigurationSpace cut_space = ConfigurationSpace::for_catalog(cut);
  const ResourceCapacity cut_capacity = base_capacity().rebound(cut);
  const auto limited = index.with_limit(5, 1, cut);
  ASSERT_TRUE(limited.has_value());
  EXPECT_EQ(limited->catalog_fingerprint(), cut.fingerprint());
  EXPECT_TRUE(limited->matches(cut_space, cut_capacity, cut));
  EXPECT_FALSE(limited->matches(space, base_capacity(), anchor));
  EXPECT_FALSE(index.matches(cut_space, cut_capacity, cut));
}

// ---------------------------------------------------------------------------
// Property test: any edit sequence, delta-where-provable, equals scratch.
// ---------------------------------------------------------------------------

TEST(FrontierDelta, RandomEditSequenceMatchesFromScratch) {
  Lcg rng{20260808};
  Catalog current = base_catalog();
  FrontierIndex maintained = build_for(current);
  int deltas_taken = 0, rebuilds = 0;

  for (int step = 0; step < 24; ++step) {
    const std::string tag = "step " + std::to_string(step);
    Catalog next = current;
    std::optional<std::size_t> shrunk_axis;
    switch (rng.next() % 4) {
      case 0: {  // price drift inside the nominal band
        std::vector<double> hourly(current.hourly_costs().begin(),
                                   current.hourly_costs().end());
        for (double& price : hourly) price *= rng.uniform(0.96, 1.04);
        next = current.repriced("price" + std::to_string(step), "test",
                                hourly);
        break;
      }
      case 1: {  // price shock on one type — outside any provable band
        std::vector<double> hourly(current.hourly_costs().begin(),
                                   current.hourly_costs().end());
        hourly[rng.next() % hourly.size()] *= rng.uniform(1.3, 2.0);
        next = current.repriced("shock" + std::to_string(step), "test",
                                hourly);
        break;
      }
      case 2: {  // single-axis limit decrease (if any axis can shrink)
        std::vector<int> limits(current.limits().begin(),
                                current.limits().end());
        std::vector<std::size_t> shrinkable;
        for (std::size_t i = 0; i < limits.size(); ++i)
          if (limits[i] > 1) shrinkable.push_back(i);
        if (shrinkable.empty()) continue;
        const std::size_t axis = shrinkable[rng.next() % shrinkable.size()];
        limits[axis] -= 1;
        shrunk_axis = axis;
        next = current.with_limits("cut" + std::to_string(step), "test",
                                   limits);
        break;
      }
      default:  // structural reset: back to the base limits (increases)
        next = current.with_limits("reset" + std::to_string(step), "test",
                                   std::vector<int>(
                                       base_catalog().limits().begin(),
                                       base_catalog().limits().end()));
        break;
    }

    // Maintain the cached index the way PlannerEngine does: take the
    // provable delta when one applies, otherwise rebuild from scratch.
    std::optional<FrontierIndex> delta;
    if (next.structure_fingerprint() == current.structure_fingerprint())
      delta = maintained.repriced(next);
    else if (shrunk_axis.has_value())
      delta = maintained.with_limit(*shrunk_axis, next.limit(*shrunk_axis),
                                    next);
    if (delta.has_value()) {
      maintained = std::move(*delta);
      ++deltas_taken;
    } else {
      maintained = build_for(next);
      ++rebuilds;
    }

    expect_index_equal(maintained, build_for(next), tag.c_str());
    current = std::move(next);
  }
  // The sequence must actually have exercised both paths.
  EXPECT_GT(deltas_taken, 4) << "edit mix degenerated to rebuilds only";
  EXPECT_GT(rebuilds, 2) << "edit mix never fell back to a rebuild";
}

// ---------------------------------------------------------------------------
// PlannerEngine: incremental replace + counter exactness. Counter-reading
// tests — excluded from the obs-disabled CI build via ^PlannerEngine.
// ---------------------------------------------------------------------------

Query probe_query() {
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  SweepOptions options;
  options.collect_pareto = false;
  return Query::make(5e14, constraints, options);
}

TEST(PlannerEngineDelta, ReplaceClassifiesAndCountsExactly) {
  obs::Counter& replaces =
      obs::counter("celia_planner_engine_catalog_replaces_total");
  obs::Counter& rescales =
      obs::counter("celia_planner_engine_delta_rescale_total");
  obs::Counter& rebuilds =
      obs::counter("celia_planner_engine_delta_rebuild_total");
  obs::Counter& builds =
      obs::counter("celia_planner_engine_index_builds_total");
  const auto r0 = replaces.value(), s0 = rescales.value(),
             b0 = rebuilds.value();

  PlannerEngine engine;
  const auto anchor = std::make_shared<const Catalog>(base_catalog());
  engine.add_catalog("cat", anchor);
  (void)engine.plan("cat", base_capacity(), probe_query());
  ASSERT_EQ(engine.num_cached_indexes(), 1u);

  // 1. Single-axis limit decrease -> rebuild: the space moved, so the
  // cached index is evicted and the follow-up plan builds once.
  std::vector<int> limits(anchor->limits().begin(), anchor->limits().end());
  limits[1] -= 1;
  const auto cut = std::make_shared<const Catalog>(
      anchor->with_limits("cut", "test", limits));
  engine.add_catalog("cat", cut, /*replace=*/true);
  EXPECT_EQ(rebuilds.value() - b0, 1u);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);
  const auto builds_after_cut = builds.value();
  const SweepResult planned_cut =
      engine.plan("cat", base_capacity().rebound(*cut), probe_query());
  EXPECT_EQ(builds.value() - builds_after_cut, 1u)
      << "a limit decrease should rebuild on the next plan";

  // 2. Price-only replace -> reprice; no rebuild on the next plan.
  const auto repriced = std::make_shared<const Catalog>(
      cut->with_price_multiplier("repriced", "test", 1.06));
  engine.add_catalog("cat", repriced, /*replace=*/true);
  EXPECT_EQ(rescales.value() - s0, 1u);
  const auto builds_after_price = builds.value();
  const SweepResult planned_repriced = engine.plan(
      "cat", base_capacity().rebound(*repriced), probe_query());
  EXPECT_EQ(builds.value(), builds_after_price)
      << "rescale delta should keep the cache warm";

  // 3. Structural replace (limit increase) -> rebuild; cache dropped.
  const auto grown = std::make_shared<const Catalog>(
      repriced->with_limits("grown", "test",
                            std::vector<int>{4, 4, 2, 3, 3, 2}));
  engine.add_catalog("cat", grown, /*replace=*/true);
  EXPECT_EQ(rebuilds.value() - b0, 2u);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);

  // The exactness invariant: every replace took exactly one path.
  EXPECT_EQ(replaces.value() - r0, 3u);
  EXPECT_EQ((rescales.value() - s0) + (rebuilds.value() - b0),
            replaces.value() - r0);

  // Rebuilt and repriced answers must be bit-identical to a fresh
  // engine's.
  PlannerEngine fresh_cut;
  fresh_cut.add_catalog("cat", cut);
  const SweepResult scratch_cut =
      fresh_cut.plan("cat", base_capacity().rebound(*cut), probe_query());
  EXPECT_EQ(planned_cut.feasible, scratch_cut.feasible);
  EXPECT_EQ(planned_cut.min_cost.config_index,
            scratch_cut.min_cost.config_index);
  EXPECT_EQ(planned_cut.min_cost.seconds, scratch_cut.min_cost.seconds);
  EXPECT_EQ(planned_cut.min_cost.cost, scratch_cut.min_cost.cost);

  PlannerEngine fresh_repriced;
  fresh_repriced.add_catalog("cat", repriced);
  const SweepResult scratch_repriced = fresh_repriced.plan(
      "cat", base_capacity().rebound(*repriced), probe_query());
  EXPECT_EQ(planned_repriced.feasible, scratch_repriced.feasible);
  EXPECT_EQ(planned_repriced.min_cost.config_index,
            scratch_repriced.min_cost.config_index);
  EXPECT_EQ(planned_repriced.min_cost.seconds,
            scratch_repriced.min_cost.seconds);
  EXPECT_EQ(planned_repriced.min_cost.cost, scratch_repriced.min_cost.cost);
}

TEST(PlannerEngineDelta, InjectedDeltaFaultLeavesTheEngineUntouched) {
  obs::Counter& replaces =
      obs::counter("celia_planner_engine_catalog_replaces_total");
  obs::Counter& rescales =
      obs::counter("celia_planner_engine_delta_rescale_total");
  obs::Counter& rebuilds =
      obs::counter("celia_planner_engine_delta_rebuild_total");

  PlannerEngineOptions options;
  int injected = 0;
  options.delta_fault_injection = [&](std::size_t) {
    ++injected;
    throw std::runtime_error("injected delta fault");
  };
  PlannerEngine engine(options);
  const auto anchor = std::make_shared<const Catalog>(base_catalog());
  engine.add_catalog("cat", anchor);
  const SweepResult before =
      engine.plan("cat", base_capacity(), probe_query());
  ASSERT_EQ(engine.num_cached_indexes(), 1u);
  const std::size_t bytes_before = engine.cached_index_bytes();
  const auto r0 = replaces.value(), s0 = rescales.value(),
             b0 = rebuilds.value();

  // The hook throws mid-reprice, before any commit. Strong exception
  // safety: the throw propagates and the engine is EXACTLY as it was —
  // snapshot, cache, byte accounting, counters.
  const auto repriced = std::make_shared<const Catalog>(
      anchor->with_price_multiplier("bump", "test", 1.05));
  EXPECT_THROW(engine.add_catalog("cat", repriced, /*replace=*/true),
               std::runtime_error);
  EXPECT_EQ(injected, 1);
  EXPECT_EQ(engine.catalog("cat")->fingerprint(), anchor->fingerprint());
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
  EXPECT_EQ(engine.cached_index_bytes(), bytes_before);
  EXPECT_EQ(replaces.value(), r0);
  EXPECT_EQ(rescales.value(), s0);
  EXPECT_EQ(rebuilds.value(), b0);

  // The warm index still answers bit-identically to the pre-fault plan.
  const SweepResult after =
      engine.plan("cat", base_capacity(), probe_query());
  EXPECT_EQ(after.feasible, before.feasible);
  EXPECT_EQ(after.min_cost.config_index, before.min_cost.config_index);
  EXPECT_EQ(after.min_cost.seconds, before.min_cost.seconds);
  EXPECT_EQ(after.min_cost.cost, before.min_cost.cost);

  // A structural replace takes the rebuild path, which never reprices —
  // the hook is not reached and the engine is not wedged by the earlier
  // fault.
  const auto grown = std::make_shared<const Catalog>(
      anchor->with_limits("grown", "test",
                          std::vector<int>{4, 4, 2, 3, 3, 2}));
  engine.add_catalog("cat", grown, /*replace=*/true);
  EXPECT_EQ(injected, 1);
  EXPECT_EQ(engine.catalog("cat")->fingerprint(), grown->fingerprint());
  EXPECT_EQ(replaces.value() - r0, 1u);
  EXPECT_EQ(rebuilds.value() - b0, 1u);
}

TEST(PlannerEngineDelta, RepriceBandHeadroomGaugeTracksTheLatestAttempt) {
  obs::Gauge& headroom =
      obs::gauge("celia_frontier_reprice_band_headroom");
  const Catalog& anchor = base_catalog();
  const FrontierIndex index = build_for(anchor);
  const std::vector<double> anchor_hourly(anchor.hourly_costs().begin(),
                                          anchor.hourly_costs().end());

  // Prices at the anchor: ratio spread exactly 1, full headroom.
  ASSERT_TRUE(index.repriced(anchor).has_value());
  EXPECT_DOUBLE_EQ(headroom.value(), 1.0);

  // One type at 1.05x consumes half of the 1.10 band.
  std::vector<double> half = anchor_hourly;
  half[0] *= 1.05;
  ASSERT_TRUE(
      index.repriced(anchor.repriced("half", "test", half)).has_value());
  EXPECT_NEAR(headroom.value(), 0.5, 1e-9);

  // Outside the band: the delta refuses and the gauge goes negative —
  // a /metrics reader sees the rebuild-fallback coming.
  std::vector<double> outside = anchor_hourly;
  outside[0] *= 1.5;
  EXPECT_FALSE(
      index.repriced(anchor.repriced("outside", "test", outside)).has_value());
  EXPECT_LT(headroom.value(), 0.0);
}

TEST(PlannerEngineDelta, IdenticalSnapshotReplaceIsARescale) {
  obs::Counter& replaces =
      obs::counter("celia_planner_engine_catalog_replaces_total");
  obs::Counter& rescales =
      obs::counter("celia_planner_engine_delta_rescale_total");
  const auto r0 = replaces.value(), s0 = rescales.value();

  PlannerEngine engine;
  const auto anchor = std::make_shared<const Catalog>(base_catalog());
  engine.add_catalog("cat", anchor);
  (void)engine.plan("cat", base_capacity(), probe_query());
  // Replacing a snapshot with itself is the degenerate price-only edit.
  engine.add_catalog("cat", anchor, /*replace=*/true);
  EXPECT_EQ(replaces.value() - r0, 1u);
  EXPECT_EQ(rescales.value() - s0, 1u);
  EXPECT_EQ(engine.num_cached_indexes(), 1u);
}

TEST(PlannerEngineDelta, OutOfBandPriceReplaceFallsBackToEviction) {
  obs::Counter& rescales =
      obs::counter("celia_planner_engine_delta_rescale_total");
  const auto s0 = rescales.value();

  PlannerEngine engine;
  const auto anchor = std::make_shared<const Catalog>(base_catalog());
  engine.add_catalog("cat", anchor);
  (void)engine.plan("cat", base_capacity(), probe_query());
  ASSERT_EQ(engine.num_cached_indexes(), 1u);

  // Doubling ONE type's price is classified price-only (the counter
  // records the EDIT) but FrontierIndex::repriced refuses the ratio
  // spread, so the entry is evicted and the next plan rebuilds —
  // correctness over cleverness.
  std::vector<double> spiked(anchor->hourly_costs().begin(),
                             anchor->hourly_costs().end());
  spiked[2] *= 2.0;
  const auto doubled = std::make_shared<const Catalog>(
      anchor->repriced("spiked", "test", spiked));
  engine.add_catalog("cat", doubled, /*replace=*/true);
  EXPECT_EQ(rescales.value() - s0, 1u);
  EXPECT_EQ(engine.num_cached_indexes(), 0u);

  const SweepResult planned = engine.plan(
      "cat", base_capacity().rebound(*doubled), probe_query());
  PlannerEngine fresh;
  fresh.add_catalog("cat", doubled);
  const SweepResult scratch =
      fresh.plan("cat", base_capacity().rebound(*doubled), probe_query());
  EXPECT_EQ(planned.min_cost.cost, scratch.min_cost.cost);
  EXPECT_EQ(planned.feasible, scratch.feasible);
}

TEST(PlannerEngineDelta, CachedBytesCountTheStoreARepricedIndexKeeps) {
  PlannerEngine engine;
  const auto anchor = std::make_shared<const Catalog>(base_catalog());
  engine.add_catalog("cat", anchor);
  (void)engine.plan("cat", base_capacity(), probe_query());
  ASSERT_EQ(engine.num_cached_indexes(), 1u);
  const std::size_t before = engine.cached_index_bytes();

  // The reprice replaces the anchor in the cache but keeps its point store
  // alive, so the count must still include the store.
  const auto ticked = std::make_shared<const Catalog>(
      anchor->with_price_multiplier("tick", "test", 1.03));
  engine.add_catalog("cat", ticked, /*replace=*/true);
  ASSERT_EQ(engine.num_cached_indexes(), 1u);
  const std::size_t after = engine.cached_index_bytes();
  EXPECT_NEAR(static_cast<double>(after), static_cast<double>(before),
              0.01 * static_cast<double>(before));
}

}  // namespace

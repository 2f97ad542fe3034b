#pragma once
// The benchmark's workloads: their fixed constants, the characterized
// models they plan for, and the seeded generators of every input the
// program receives (planner requests and catalog-feed ticks).
//
// Every generated value is a pure function of (seed, stream, position)
// through a counter-based RNG, so the same seed gives the same inputs no
// matter how many requests a run gets through, and request_digest() pins
// that in the self-tests.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/elastic_app.hpp"
#include "cloud/catalog.hpp"
#include "core/capacity.hpp"
#include "core/enumerate.hpp"

namespace perfbench {

enum class WorkloadKind { kIndexReads, kSweepPareto };

std::optional<WorkloadKind> parse_workload(std::string_view name);
std::string_view workload_name(WorkloadKind kind);

/// Fixed per-workload constants. The open-loop rates are about half of the
/// closed-loop capacity measured once on a 4-core x86-64 box; they are
/// constants on purpose and are never re-derived per run.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kIndexReads;
  std::vector<std::string> apps;  // planned applications, by registry name
  int catalog_limit = 5;          // uniform per-type limit of the catalog
  bool risk_aware = false;        // confidence_z 1.645, rate_sigma 0.1
  double repeat_fraction = 0.0;   // open-loop share repeating the previous query
  std::size_t workers = 1;        // PlannerService worker threads
  std::size_t pool_threads = 1;   // sweep/build pool while serving
  std::size_t window = 1;         // closed-loop requests in flight
  double open_rate = 100.0;       // open-loop arrivals per second
  int setup_repeats = 3;          // set-ups per run; setup_s is their median
  // Shares of --seconds: closed loop, open loop, update probe.
  double closed_share = 0.35;
  double open_share = 0.5;
  double probe_share = 0.15;
  int probe_ticks = 6;  // price ticks of the update probe
  /// Sample sizes of the oracle check and the traced serial replay.
  std::size_t oracle_samples = 8;
  std::size_t replay_requests = 200;
};

const WorkloadSpec& workload_spec(WorkloadKind kind);

/// Provider seed of the characterization campaign: fixed, so every run
/// plans against the same models and only the requests vary with --seed.
inline constexpr std::uint64_t kCharacterizationSeed = 2017;

/// One characterized application.
struct Model {
  std::string name;
  std::shared_ptr<const celia::apps::ElasticApp> app;
  celia::core::ResourceCapacity capacity;  // pinned to the base catalog
};

/// The workload's catalog and models. Characterization runs here, so
/// building a World is part of every timed set-up.
struct World {
  std::shared_ptr<const celia::cloud::Catalog> catalog;
  std::vector<Model> models;
};

World make_world(const WorkloadSpec& spec);

/// Scales of one (model, catalog) pair used to place deadlines and
/// budgets: the largest attainable capacity and the cheapest slope.
struct ModelScale {
  double u_max = 0.0;  // sum_i limit_i * W_i
  double s_min = 0.0;  // min_i price_i / W_i (dollars per hour per unit rate)
};

ModelScale model_scale(const celia::core::ResourceCapacity& capacity,
                       const celia::cloud::Catalog& catalog);

/// Request streams: each phase draws from its own stream.
enum class Stream : std::uint64_t {
  kClosed = 1,
  kOpen = 2,
};

/// One generated planner request.
struct RequestSpec {
  std::size_t model = 0;
  celia::apps::AppParams params;
  double demand = 0.0;
  celia::core::Constraints constraints;
  bool repeat = false;  // identical to the previous request of its stream
};

class RequestGenerator {
 public:
  RequestGenerator(const WorkloadSpec& spec, const World& world,
                   std::uint64_t seed);

  /// The i-th request of `stream`. Pure in (seed, stream, i).
  RequestSpec at(Stream stream, std::uint64_t i) const;

 private:
  RequestSpec fresh(Stream stream, std::uint64_t i) const;

  const WorkloadSpec* spec_;
  std::vector<ModelScale> scales_;
  std::vector<celia::apps::ParamRange> ranges_;
  std::vector<std::shared_ptr<const celia::apps::ElasticApp>> apps_;
  std::uint64_t seed_;
};

/// The canary request of `model`: its characterization point with no
/// deadline or budget. The set-up warms the engine with it, and it is the
/// read issued right after every catalog tick.
RequestSpec canary_request(const WorkloadSpec& spec, const World& world,
                           std::size_t model);

/// One catalog-feed event.
struct FeedTick {
  enum class Kind { kPrice, kLimitDecrease };
  Kind kind = Kind::kPrice;
  /// kPrice: per-type multipliers in [0.97, 1.03] of the base prices, as a
  /// live price feed oscillates between structural catalog events.
  std::vector<double> multipliers;
  /// kLimitDecrease: this type's instance limit is lowered by one.
  std::size_t type = 0;
};

/// The k-th price tick of the seeded feed.
FeedTick price_tick(std::uint64_t seed, std::uint64_t k, std::size_t types);
/// The seeded single-type limit decrease.
FeedTick limit_tick(std::uint64_t seed, std::size_t types);

/// The catalog after applying `tick` to `base`. `version` names the
/// snapshot.
celia::cloud::Catalog apply_tick(const celia::cloud::Catalog& base,
                                 const FeedTick& tick, std::size_t version);

/// Digest of the first `count` requests of every stream plus the feed: the
/// same seed must give the same digest, a different seed a different one.
std::uint64_t request_digest(WorkloadKind kind, std::uint64_t seed,
                             std::size_t count);

}  // namespace perfbench

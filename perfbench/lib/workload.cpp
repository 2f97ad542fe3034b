#include "workload.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using celia::cloud::Catalog;

WorkloadSpec index_reads_spec() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kIndexReads;
  spec.apps = {"x264", "galaxy", "sand"};
  spec.catalog_limit = 5;
  spec.workers = 2;
  spec.pool_threads = 1;
  spec.window = 8;
  spec.open_rate = 9000.0;
  spec.setup_repeats = 3;
  spec.closed_share = 0.3;
  spec.open_share = 0.45;
  spec.probe_share = 0.25;
  spec.probe_ticks = 10;
  spec.oracle_samples = 6;
  spec.replay_requests = 400;
  return spec;
}

WorkloadSpec sweep_pareto_spec() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kSweepPareto;
  spec.apps = {"x264", "galaxy", "sand"};
  spec.catalog_limit = 3;
  spec.risk_aware = true;
  spec.repeat_fraction = 0.25;
  spec.workers = 1;
  spec.pool_threads = 2;
  spec.window = 2;
  spec.open_rate = 44.0;
  spec.setup_repeats = 9;
  spec.probe_ticks = 12;
  spec.oracle_samples = 12;
  spec.replay_requests = 60;
  return spec;
}

double log_uniform(double lo, double hi, double u) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "index_reads") return WorkloadKind::kIndexReads;
  if (name == "sweep_pareto") return WorkloadKind::kSweepPareto;
  return std::nullopt;
}

std::string_view workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kIndexReads: return "index_reads";
    case WorkloadKind::kSweepPareto: return "sweep_pareto";
  }
  return "unknown";
}

const WorkloadSpec& workload_spec(WorkloadKind kind) {
  static const WorkloadSpec index_reads = index_reads_spec();
  static const WorkloadSpec sweep_pareto = sweep_pareto_spec();
  switch (kind) {
    case WorkloadKind::kIndexReads: return index_reads;
    case WorkloadKind::kSweepPareto: return sweep_pareto;
  }
  throw std::invalid_argument("workload_spec: unknown workload");
}

World make_world(const WorkloadSpec& spec) {
  const std::shared_ptr<const Catalog> table3 = Catalog::ec2_table3_ptr();
  World world;
  world.catalog =
      spec.catalog_limit == table3->limit(0)
          ? table3
          : std::make_shared<const Catalog>(table3->with_limits(
                "table3-limit" + std::to_string(spec.catalog_limit),
                table3->region(),
                std::vector<int>(table3->size(), spec.catalog_limit)));
  for (const std::string& name : spec.apps) {
    std::shared_ptr<const celia::apps::ElasticApp> app =
        celia::apps::make_app(name);
    if (!app) throw std::invalid_argument("unknown application " + name);
    celia::cloud::CloudProvider provider(kCharacterizationSeed, table3);
    celia::core::ResourceCapacity capacity =
        celia::core::characterize_capacity(*app, provider);
    world.models.push_back(
        {name, app, capacity.rebound(*world.catalog)});
  }
  return world;
}

ModelScale model_scale(const celia::core::ResourceCapacity& capacity,
                       const Catalog& catalog) {
  ModelScale scale;
  scale.s_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const double rate = capacity.rate(i);
    scale.u_max += catalog.limit(i) * rate;
    scale.s_min = std::min(scale.s_min, catalog.hourly_costs()[i] / rate);
  }
  return scale;
}

RequestGenerator::RequestGenerator(const WorkloadSpec& spec,
                                   const World& world, std::uint64_t seed)
    : spec_(&spec), seed_(seed) {
  for (const Model& model : world.models) {
    scales_.push_back(model_scale(model.capacity, *world.catalog));
    ranges_.push_back(model.app->param_range());
    apps_.push_back(model.app);
  }
}

RequestSpec RequestGenerator::fresh(Stream stream, std::uint64_t i) const {
  const std::uint64_t base =
      mix64(mix64(seed_) ^ (static_cast<std::uint64_t>(stream) << 56) ^ i);
  const auto draw = [base](std::uint64_t k) { return mix64(base + k); };
  // The model and the two constraint factors follow a low-discrepancy (R2)
  // sequence from a seeded offset: each run covers the constraint space
  // evenly, so per-run means differ little between seeds while the
  // individual queries still differ.
  const std::uint64_t offset =
      mix64(seed_ ^ (static_cast<std::uint64_t>(stream) << 48));
  const double position = static_cast<double>(i);
  const auto r2 = [&](double alpha, std::uint64_t salt) {
    const double x = unit(mix64(offset + salt)) + position * alpha;
    return x - std::floor(x);
  };
  constexpr double kPlastic = 1.32471795724474602596;
  RequestSpec request;
  request.model = static_cast<std::size_t>((offset + i) % apps_.size());
  const celia::apps::ParamRange& range = ranges_[request.model];
  request.params.n = log_uniform(range.min_n, range.max_n, unit(draw(2)));
  request.params.a = log_uniform(range.min_a, range.max_a, unit(draw(3)));
  request.demand = apps_[request.model]->demand_vector(request.params)[0];
  // Deadlines run from just under the fastest attainable time (nothing
  // feasible) to hundreds of times it (most of the space feasible), and
  // budgets from just under the cheapest attainable cost to a few times it.
  const ModelScale& scale = scales_[request.model];
  const double fastest = request.demand / scale.u_max;
  const double cheapest = request.demand * scale.s_min / 3600.0;
  request.constraints.deadline_seconds =
      fastest * log_uniform(0.8, 300.0, r2(1.0 / kPlastic, 1));
  request.constraints.budget_dollars =
      cheapest * log_uniform(0.9, 4.0, r2(1.0 / (kPlastic * kPlastic), 2));
  if (spec_->risk_aware) {
    request.constraints.confidence_z = 1.645;
    request.constraints.rate_sigma = 0.1;
  }
  return request;
}

RequestSpec RequestGenerator::at(Stream stream, std::uint64_t i) const {
  // A repeat copies the nearest earlier fresh request of the same stream.
  std::uint64_t source = i;
  while (source > 0 && stream == Stream::kOpen &&
         unit(mix64(mix64(seed_ + 0x5eed) ^ source)) <
             spec_->repeat_fraction)
    --source;
  RequestSpec request = fresh(stream, source);
  request.repeat = source != i;
  return request;
}

RequestSpec canary_request(const WorkloadSpec& spec, const World& world,
                           std::size_t model) {
  RequestSpec request;
  request.model = model;
  request.params =
      celia::core::characterization_point(*world.models[model].app);
  request.demand = world.models[model].app->demand_vector(request.params)[0];
  if (spec.risk_aware) {
    request.constraints.confidence_z = 1.645;
    request.constraints.rate_sigma = 0.1;
  }
  return request;
}

FeedTick price_tick(std::uint64_t seed, std::uint64_t k, std::size_t types) {
  FeedTick tick;
  tick.kind = FeedTick::Kind::kPrice;
  for (std::size_t i = 0; i < types; ++i)
    tick.multipliers.push_back(
        0.97 + 0.06 * unit(mix64(mix64(seed ^ 0xfeedULL) ^ (k * 64 + i))));
  return tick;
}

FeedTick limit_tick(std::uint64_t seed, std::size_t types) {
  FeedTick tick;
  tick.kind = FeedTick::Kind::kLimitDecrease;
  tick.type = static_cast<std::size_t>(mix64(seed ^ 0x1d17ULL) % types);
  return tick;
}

Catalog apply_tick(const Catalog& base, const FeedTick& tick,
                   std::size_t version) {
  const std::string name = "table3-v" + std::to_string(version);
  if (tick.kind == FeedTick::Kind::kLimitDecrease) {
    std::vector<int> limits = base.limits();
    limits[tick.type] -= 1;
    return base.with_limits(name, base.region(), std::move(limits));
  }
  std::vector<double> prices(base.hourly_costs().begin(),
                             base.hourly_costs().end());
  for (std::size_t i = 0; i < prices.size(); ++i)
    prices[i] *= tick.multipliers[i];
  return base.repriced(name, base.region(), std::move(prices));
}

std::uint64_t request_digest(WorkloadKind kind, std::uint64_t seed,
                             std::size_t count) {
  const WorkloadSpec& spec = workload_spec(kind);
  const World world = make_world(spec);
  const RequestGenerator generator(spec, world, seed);
  Digest digest;
  for (const Stream stream :
       {Stream::kClosed, Stream::kOpen}) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const RequestSpec request = generator.at(stream, i);
      digest.add(static_cast<std::uint64_t>(request.model));
      digest.add(request.params.n);
      digest.add(request.params.a);
      digest.add(request.demand);
      digest.add(request.constraints.deadline_seconds);
      digest.add(request.constraints.budget_dollars);
      digest.add(request.constraints.confidence_z);
      digest.add(static_cast<std::uint64_t>(request.repeat));
    }
  }
  const std::size_t types = world.catalog->size();
  for (std::uint64_t k = 0; k < count; ++k)
    for (const double m : price_tick(seed, k, types).multipliers) digest.add(m);
  digest.add(static_cast<std::uint64_t>(limit_tick(seed, types).type));
  return digest.value();
}

}  // namespace perfbench

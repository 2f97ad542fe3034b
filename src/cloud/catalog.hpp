#pragma once
// cloud::Catalog — the resource catalog as an immutable, fingerprinted
// VALUE.
//
// The paper fixes one catalog forever: Table III's nine EC2 Oregon types
// with m_i,max = 5. A production planner must search over arbitrary
// provider price lists (different types, per-type instance limits,
// per-region prices), and serve many of them concurrently — so the
// catalog is a value that is constructed, copied, loaded from a file
// (cloud/catalog_io.hpp), snapshotted by core::PlannerEngine, and
// threaded explicitly through every planning layer.
//
// Two fingerprints identify a catalog:
//
//   * structure_fingerprint() covers the price-FREE identity: the ordered
//     instance types (name, category, size, vCPUs, frequency, memory,
//     storage, microarch) and the per-type instance limits. A
//     ResourceCapacity characterized against a catalog pins this value;
//     planning it against a structurally different catalog throws. Two
//     catalogs that differ only in prices (e.g. per-region repricings of
//     the same types) share a structure fingerprint, so one measurement
//     campaign serves every region.
//
//   * fingerprint() additionally covers prices and the (name, region)
//     identity. Every FrontierIndex is pinned to it and PlannerEngine's
//     index cache keys on it, so two distinct catalogs can never alias one
//     cached staircase.
//
// Catalog::ec2_table3() is the paper's Table III (uniform limit 5) and
// reproduces the historical global-catalog behavior bit-identically.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/instance_type.hpp"

namespace celia::cloud {

class Catalog {
 public:
  /// `limits[i]` = m_i,max for type i; an empty vector applies
  /// kDefaultInstanceLimit to every type. Throws std::invalid_argument on
  /// empty/duplicate/invalid types, non-positive prices, negative limits,
  /// or a limits/types length mismatch.
  Catalog(std::string name, std::string region,
          std::vector<InstanceType> types, std::vector<int> limits = {});

  /// The paper's Table III: nine EC2 us-west-2 (Oregon) on-demand types,
  /// uniform per-type limit of kDefaultInstanceLimit (= 5). Immutable and
  /// process-wide; every legacy entry point that used the old global
  /// catalog resolves to this value.
  static const Catalog& ec2_table3();
  /// Shared handle to ec2_table3() for owners that keep catalogs alive
  /// (CloudProvider, Celia, PlannerEngine snapshots).
  static std::shared_ptr<const Catalog> ec2_table3_ptr();

  const std::string& name() const { return name_; }
  const std::string& region() const { return region_; }

  std::size_t size() const { return types_.size(); }
  std::span<const InstanceType> types() const { return types_; }
  const InstanceType& type(std::size_t index) const {
    return types_.at(index);
  }

  /// Per-type instance limits (m_i,max), aligned with types().
  const std::vector<int>& limits() const { return limits_; }
  int limit(std::size_t index) const { return limits_.at(index); }

  /// Per-hour price of one instance of each type, aligned with types().
  std::span<const double> hourly_costs() const { return hourly_; }

  /// Lookup by type name; nullopt when unknown.
  std::optional<std::size_t> find(std::string_view type_name) const;
  /// Index of a type; throws std::out_of_range when unknown.
  std::size_t index_of(std::string_view type_name) const;

  /// Price-free identity: types + limits (see the header comment).
  std::uint64_t structure_fingerprint() const {
    return structure_fingerprint_;
  }
  /// Full identity: structure + prices + (name, region).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Same types and limits, new identity and prices — how per-region
  /// catalogs with per-type (non-uniform) price differences are made.
  /// `hourly_costs` must have one positive finite entry per type.
  Catalog repriced(std::string name, std::string region,
                   std::vector<double> hourly_costs) const;

  /// Convenience repricing: every price scaled by `multiplier` (> 0).
  Catalog with_price_multiplier(std::string name, std::string region,
                                double multiplier) const;

  /// Same types and prices, new per-type limits — how the provisioning
  /// orchestrator derives the SHRUNKEN catalog it re-plans against when a
  /// type hits InsufficientCapacity. Limits cover the structure, so the
  /// structure_fingerprint changes and stale index caches can never serve
  /// the shrunken space. `limits` needs one non-negative entry per type.
  Catalog with_limits(std::string name, std::string region,
                      std::vector<int> limits) const;

 private:
  std::string name_;
  std::string region_;
  std::vector<InstanceType> types_;
  std::vector<int> limits_;
  std::vector<double> hourly_;
  std::uint64_t structure_fingerprint_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace celia::cloud

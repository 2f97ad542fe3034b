// Tests for the EC2 catalog (paper Table III), repriced catalogs and
// billing policies.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cloud/catalog.hpp"
#include "cloud/instance_type.hpp"
#include "cloud/pricing.hpp"

namespace {

using namespace celia::cloud;

TEST(Catalog, HasNineTypes) { EXPECT_EQ(catalog_size(), 9u); }

TEST(Catalog, Table3RowsVerbatim) {
  struct Row {
    const char* name;
    int vcpus;
    double ghz;
    double mem;
    double cost;
  };
  const Row rows[] = {
      {"c4.large", 2, 2.9, 3.75, 0.105},  {"c4.xlarge", 4, 2.9, 7.5, 0.209},
      {"c4.2xlarge", 8, 2.9, 15, 0.419},  {"m4.large", 2, 2.3, 8, 0.133},
      {"m4.xlarge", 4, 2.3, 16, 0.266},   {"m4.2xlarge", 8, 2.3, 32, 0.532},
      {"r3.large", 2, 2.5, 15, 0.166},    {"r3.xlarge", 4, 2.5, 30.5, 0.333},
      {"r3.2xlarge", 8, 2.5, 61, 0.664},
  };
  const auto catalog = ec2_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].name, rows[i].name);
    EXPECT_EQ(catalog[i].vcpus, rows[i].vcpus);
    EXPECT_DOUBLE_EQ(catalog[i].frequency_ghz, rows[i].ghz);
    EXPECT_DOUBLE_EQ(catalog[i].memory_gb, rows[i].mem);
    EXPECT_DOUBLE_EQ(catalog[i].cost_per_hour, rows[i].cost);
  }
}

TEST(Catalog, PriceRangeMatchesPaper) {
  // "hourly prices range from $0.105 to $0.664"
  double min = 1e9, max = 0;
  for (const auto& type : ec2_catalog()) {
    min = std::min(min, type.cost_per_hour);
    max = std::max(max, type.cost_per_hour);
  }
  EXPECT_DOUBLE_EQ(min, 0.105);
  EXPECT_DOUBLE_EQ(max, 0.664);
}

TEST(Catalog, CategoriesGroupCorrectly) {
  for (const auto& type : ec2_catalog()) {
    const std::string_view name = type.name;
    if (name.substr(0, 2) == "c4") {
      EXPECT_EQ(type.category, Category::kCompute);
    }
    if (name.substr(0, 2) == "m4") {
      EXPECT_EQ(type.category, Category::kGeneralPurpose);
    }
    if (name.substr(0, 2) == "r3") {
      EXPECT_EQ(type.category, Category::kMemoryOptimized);
    }
  }
}

TEST(Catalog, SizesMatchVcpuCounts) {
  for (const auto& type : ec2_catalog()) {
    switch (type.size) {
      case Size::kLarge:
        EXPECT_EQ(type.vcpus, 2);
        break;
      case Size::kXLarge:
        EXPECT_EQ(type.vcpus, 4);
        break;
      case Size::k2XLarge:
        EXPECT_EQ(type.vcpus, 8);
        break;
    }
  }
}

TEST(Catalog, FindByName) {
  const auto type = find_instance_type("m4.xlarge");
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(type->vcpus, 4);
  EXPECT_FALSE(find_instance_type("t2.micro").has_value());
}

TEST(Catalog, IndexLookup) {
  EXPECT_EQ(catalog_index("c4.large"), 0u);
  EXPECT_EQ(catalog_index("r3.2xlarge"), 8u);
  EXPECT_THROW(catalog_index("nope"), std::out_of_range);
}

TEST(Catalog, RepricedRejectsMalformedPriceVectors) {
  // A catalog is the only price source the planner reads, so a bad price
  // vector must be refused here, before any sweep or index can see it.
  const Catalog& table3 = Catalog::ec2_table3();
  const std::vector<double> prices(table3.hourly_costs().begin(),
                                   table3.hourly_costs().end());
  EXPECT_THROW(table3.repriced("short", "test",
                               {prices.begin(), prices.end() - 1}),
               std::invalid_argument);
  std::vector<double> longer = prices;
  longer.push_back(0.1);
  EXPECT_THROW(table3.repriced("long", "test", longer), std::invalid_argument);
  EXPECT_THROW(table3.repriced("empty", "test", {}), std::invalid_argument);
  for (const double bad : {0.0, -0.105, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> damaged = prices;
    damaged[4] = bad;
    EXPECT_THROW(table3.repriced("bad", "test", damaged),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(table3.with_price_multiplier("zero", "test", 0.0),
               std::invalid_argument);
  EXPECT_NO_THROW(table3.repriced("same", "test", prices));
}

TEST(Catalog, RepricedKeepsStructureAndTakesANewIdentity) {
  const Catalog& table3 = Catalog::ec2_table3();
  std::vector<double> prices(table3.hourly_costs().begin(),
                             table3.hourly_costs().end());
  prices[2] *= 1.25;
  const Catalog repriced = table3.repriced("oregon-2", "us-west-2", prices);
  EXPECT_EQ(repriced.name(), "oregon-2");
  EXPECT_EQ(repriced.region(), "us-west-2");
  ASSERT_EQ(repriced.size(), table3.size());
  EXPECT_EQ(repriced.limits(), table3.limits());
  for (std::size_t i = 0; i < repriced.size(); ++i) {
    EXPECT_EQ(repriced.type(i).name, table3.type(i).name);
    EXPECT_EQ(repriced.hourly_costs()[i], prices[i]) << i;
    EXPECT_EQ(repriced.type(i).cost_per_hour, prices[i]) << i;
  }
  // Same types and limits: one capacity measurement serves both. Other
  // prices: a distinct full identity, so no index can answer for both.
  EXPECT_EQ(repriced.structure_fingerprint(), table3.structure_fingerprint());
  EXPECT_NE(repriced.fingerprint(), table3.fingerprint());

  // Identical prices under another name are still another catalog.
  const std::vector<double> same(table3.hourly_costs().begin(),
                                 table3.hourly_costs().end());
  const Catalog twin = table3.repriced("twin", "test", same);
  EXPECT_EQ(twin.structure_fingerprint(), table3.structure_fingerprint());
  EXPECT_NE(twin.fingerprint(), table3.fingerprint());
  EXPECT_EQ(table3.repriced("twin", "test", same).fingerprint(),
            twin.fingerprint());
}

TEST(Pricing, ContinuousIsFractional) {
  const auto type = *find_instance_type("c4.large");
  EXPECT_DOUBLE_EQ(instance_cost(type, 1800.0, BillingPolicy::kContinuous),
                   0.105 / 2);
}

TEST(Pricing, PerHourRoundsUp) {
  const auto type = *find_instance_type("c4.large");
  EXPECT_DOUBLE_EQ(instance_cost(type, 3601.0, BillingPolicy::kPerHour),
                   2 * 0.105);
  EXPECT_DOUBLE_EQ(instance_cost(type, 3600.0, BillingPolicy::kPerHour),
                   0.105);
}

TEST(Pricing, PerSecondRoundsUpSeconds) {
  const auto type = *find_instance_type("c4.large");
  EXPECT_DOUBLE_EQ(instance_cost(type, 0.2, BillingPolicy::kPerSecond),
                   0.105 / 3600.0);
}

TEST(Pricing, PoliciesOrdered) {
  // continuous <= per-second <= per-hour for any duration.
  const auto type = *find_instance_type("r3.xlarge");
  for (const double seconds : {1.0, 59.9, 3599.0, 3601.0, 86400.5}) {
    const double c = instance_cost(type, seconds, BillingPolicy::kContinuous);
    const double s = instance_cost(type, seconds, BillingPolicy::kPerSecond);
    const double h = instance_cost(type, seconds, BillingPolicy::kPerHour);
    EXPECT_LE(c, s + 1e-12);
    EXPECT_LE(s, h + 1e-12);
  }
}

TEST(Pricing, NegativeTimeThrows) {
  const auto type = *find_instance_type("c4.large");
  EXPECT_THROW(instance_cost(type, -1.0), std::invalid_argument);
}

TEST(Pricing, ConfigurationHourlyCostSumsTypes) {
  // Paper Eq. 6 on the Fig. 6(a) annotation [5,5,5,3,0,...]:
  // 5 x (0.105 + 0.209 + 0.419) + 3 x 0.133 = 4.064 $/hr.
  std::vector<int> counts = {5, 5, 5, 3, 0, 0, 0, 0, 0};
  EXPECT_NEAR(configuration_hourly_cost(counts), 4.064, 1e-12);
}

TEST(Pricing, ConfigurationCostWrongWidthThrows) {
  EXPECT_THROW(configuration_hourly_cost({1, 2}), std::invalid_argument);
  EXPECT_THROW(configuration_cost({1, 2}, 10.0), std::invalid_argument);
}

TEST(Pricing, NegativeCountThrows) {
  std::vector<int> counts(9, 0);
  counts[0] = -1;
  EXPECT_THROW(configuration_hourly_cost(counts), std::invalid_argument);
}

}  // namespace

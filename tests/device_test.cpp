#include <gtest/gtest.h>

#include "gpusim/device.hpp"
#include "util/error.hpp"

namespace lgg::gpusim {
namespace {

// Table I of the paper, row by row.
TEST(Device, C1060MatchesTableI) {
  const DeviceSpec& d = tesla_c1060();
  EXPECT_EQ(d.cores, 240u);
  EXPECT_EQ(d.global_mem_bytes, 4ull * 1024 * 1024 * 1024);
  EXPECT_EQ(d.shared_mem_bytes, 16u * 1024);
  EXPECT_EQ(d.shared_banks, 16u);
  EXPECT_EQ(d.cc, ComputeCapability::k13);
  EXPECT_EQ(d.sm_count, 30u);
  EXPECT_EQ(d.cores_per_sm(), 8u);
  EXPECT_EQ(d.partitions, 8u);  // 200-series: 8 partitions of 256 B
  EXPECT_FALSE(d.has_cached_global());
}

TEST(Device, C2050MatchesTableI) {
  const DeviceSpec& d = tesla_c2050();
  EXPECT_EQ(d.cores, 448u);
  EXPECT_EQ(d.global_mem_bytes, 3ull * 1024 * 1024 * 1024);
  EXPECT_EQ(d.shared_mem_bytes, 48u * 1024);
  EXPECT_EQ(d.shared_banks, 32u);
  EXPECT_EQ(d.cc, ComputeCapability::k20);
  EXPECT_TRUE(d.has_cached_global());
}

TEST(Device, C2070MatchesTableI) {
  const DeviceSpec& d = device_by_name("C2070");
  EXPECT_EQ(d.cores, 448u);
  EXPECT_EQ(d.global_mem_bytes, 6ull * 1024 * 1024 * 1024);
  EXPECT_EQ(d.shared_mem_bytes, 48u * 1024);
  EXPECT_EQ(d.cc, ComputeCapability::k20);
}

TEST(Device, KnownDevicesTableIOrder) {
  const auto devices = known_devices();
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0].name, "C1060");
  EXPECT_EQ(devices[1].name, "C2050");
  EXPECT_EQ(devices[2].name, "C2070");
}

TEST(Device, LookupByNameCaseInsensitive) {
  EXPECT_EQ(&device_by_name("c1060"), &tesla_c1060());
  EXPECT_EQ(&device_by_name("C2070"), &known_devices()[2]);
  EXPECT_THROW(device_by_name("GTX480"), lgg::Error);
}

TEST(Device, DerivedQuantities) {
  const DeviceSpec& d = tesla_c1060();
  EXPECT_EQ(d.shared_mem_bits(), 16ull * 1024 * 8);
  EXPECT_EQ(d.global_mem_bits(), 4ull * 1024 * 1024 * 1024 * 8);
}

TEST(Device, ComputeCapabilityNames) {
  EXPECT_STREQ(to_string(ComputeCapability::k10), "1.0");
  EXPECT_STREQ(to_string(ComputeCapability::k13), "1.3");
  EXPECT_STREQ(to_string(ComputeCapability::k20), "2.0");
}

}  // namespace
}  // namespace lgg::gpusim

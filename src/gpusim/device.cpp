#include "gpusim/device.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "util/error.hpp"

namespace lgg::gpusim {

namespace {

DeviceSpec make_c1060() {
  DeviceSpec d;
  d.name = "C1060";
  d.cores = 240;                                 // Table I
  d.global_mem_bytes = 4ull * 1024 * 1024 * 1024;
  d.shared_mem_bytes = 16 * 1024;
  d.shared_banks = 16;
  d.cc = ComputeCapability::k13;
  d.sm_count = 30;
  d.max_warps_per_sm = 32;
  d.max_blocks_per_sm = 8;
  d.max_threads_per_sm = 1024;
  d.registers_per_sm = 16384;
  d.partitions = 8;  // GT200 (200-series): 8 partitions of 256 B
  d.partition_width_bytes = 256;
  d.core_clock_ghz = 1.296;
  d.mem_bandwidth_gbps = 102.0;
  d.global_latency_cycles = 550;
  d.shared_latency_cycles = 4;
  return d;
}

DeviceSpec make_c2050() {
  DeviceSpec d;
  d.name = "C2050";
  d.cores = 448;                                 // Table I
  d.global_mem_bytes = 3ull * 1024 * 1024 * 1024;
  d.shared_mem_bytes = 48 * 1024;
  d.shared_banks = 32;
  d.cc = ComputeCapability::k20;
  d.sm_count = 14;
  d.max_warps_per_sm = 48;
  d.max_blocks_per_sm = 8;
  d.max_threads_per_sm = 1536;
  d.registers_per_sm = 32768;
  d.partitions = 6;  // Fermi: camping absorbed by caches anyway
  d.partition_width_bytes = 256;
  d.core_clock_ghz = 1.15;
  d.mem_bandwidth_gbps = 144.0;
  d.global_latency_cycles = 400;
  d.shared_latency_cycles = 4;
  return d;
}

DeviceSpec make_c2070() {
  DeviceSpec d = make_c2050();
  d.name = "C2070";
  d.global_mem_bytes = 6ull * 1024 * 1024 * 1024;
  return d;
}

const std::array<DeviceSpec, 3>& registry() {
  static const std::array<DeviceSpec, 3> devices = {
      make_c1060(), make_c2050(), make_c2070()};
  return devices;
}

}  // namespace

const DeviceSpec& tesla_c1060() { return registry()[0]; }
const DeviceSpec& tesla_c2050() { return registry()[1]; }

std::span<const DeviceSpec> known_devices() { return registry(); }

const DeviceSpec& device_by_name(std::string_view name) {
  auto lower = [](std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return out;
  };
  const std::string want = lower(name);
  for (const DeviceSpec& d : registry())
    if (lower(d.name) == want) return d;
  LGG_THROW("unknown device '" << name << "' (known: C1060, C2050, C2070)");
}

}  // namespace lgg::gpusim

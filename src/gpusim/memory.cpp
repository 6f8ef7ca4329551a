#include "gpusim/memory.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace lgg::gpusim {

void Buffer::out_of_range(std::uint64_t offset) const {
  LGG_THROW("Buffer::addr: offset " << offset << " out of range " << bytes);
}

DeviceMemory::DeviceMemory(const DeviceSpec& spec, FaultHook* faults)
    : spec_(&spec), capacity_(spec.global_mem_bytes), faults_(faults) {}

Buffer DeviceMemory::alloc(std::uint64_t bytes, std::uint64_t align) {
  LGG_CHECK(align != 0 && (align & (align - 1)) == 0,
            "alloc: alignment " << align << " not a power of two");
  if (faults_ != nullptr && faults_->on_alloc(bytes)) {
    throw DeviceFault(FaultSite::kAlloc,
                      "injected fault: device allocation of " +
                          std::to_string(bytes) + " B failed (simulated OOM)");
  }
  const std::uint64_t base = round_up_pow2(cursor_, align);
  LGG_CHECK(base + bytes <= capacity_,
            "device out of memory: need " << bytes << " B at " << base
                                          << ", capacity " << capacity_
                                          << " B (" << spec_->name << ")");
  cursor_ = base + bytes;
  allocations_.push_back({base, bytes, true});
  return {base, bytes};
}

Buffer DeviceMemory::alloc_in_partition(std::uint64_t bytes,
                                        std::uint32_t partition) {
  LGG_CHECK(partition < spec_->partitions,
            "alloc_in_partition: partition " << partition << " out of range");
  const std::uint64_t width = spec_->partition_width_bytes;
  const std::uint64_t period = width * spec_->partitions;
  const std::uint64_t want_offset = static_cast<std::uint64_t>(partition) * width;

  if (faults_ != nullptr && faults_->on_alloc(bytes)) {
    throw DeviceFault(FaultSite::kAlloc,
                      "injected fault: partitioned allocation of " +
                          std::to_string(bytes) + " B failed (simulated OOM)");
  }

  // First address >= cursor_ with addr % period == want_offset.
  std::uint64_t base = (cursor_ / period) * period + want_offset;
  if (base < cursor_) base += period;
  LGG_CHECK(base + bytes <= capacity_,
            "device out of memory: need " << bytes << " B at partition-"
                                          << partition << " base " << base);
  cursor_ = base + bytes;
  allocations_.push_back({base, bytes, true});
  return {base, bytes};
}

double transfer_time_s(const DeviceSpec& spec, std::uint64_t bytes) {
  return spec.pcie_latency_s +
         static_cast<double>(bytes) / (spec.pcie_bandwidth_gbps * 1e9);
}

}  // namespace lgg::gpusim

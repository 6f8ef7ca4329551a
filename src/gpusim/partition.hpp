// Partition-camping model (paper Section X, Figs. 6–7).
//
// GT200-class global memory is striped across 6–8 partitions of 256 bytes.
// Transactions to the same partition queue up and are serviced one at a
// time; transactions to distinct partitions proceed in parallel.  When the
// concurrently active warps all hit the same partition ("camping"), DRAM
// time degrades by up to a factor of P — Eq. (10)'s
// Minimize(Σ T_iw) ⇔ Maximize(Σ Part_i).
//
// The model histograms the kernel's transactions by partition:
//   serialized_steps = max_p count[p]      (what camping costs)
//   ideal_steps      = ceil(total / P)     (perfectly spread)
//   camping_factor   = serialized / ideal  (1.0 == no camping)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/coalescing.hpp"
#include "gpusim/device.hpp"

namespace lgg::gpusim {

class PartitionModel {
 public:
  explicit PartitionModel(const DeviceSpec& spec)
      : partitions_(spec.partitions),
        width_(spec.partition_width_bytes) {}
  PartitionModel(std::uint32_t partitions, std::uint32_t width_bytes)
      : partitions_(partitions), width_(width_bytes) {}

  [[nodiscard]] std::uint32_t partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] std::uint32_t width_bytes() const noexcept { return width_; }

  /// Partition serving byte address `addr`: 256-byte stripes round-robin.
  [[nodiscard]] std::uint32_t partition_of(std::uint64_t addr) const noexcept {
    return static_cast<std::uint32_t>((addr / width_) % partitions_);
  }

 private:
  std::uint32_t partitions_;
  std::uint32_t width_;
};

struct PartitionHistogram {
  std::vector<std::uint64_t> count;  // per partition
  std::uint64_t total = 0;

  void add(const PartitionModel& model, std::uint64_t addr) {
    count.resize(model.partitions(), 0);
    ++count[model.partition_of(addr)];
    ++total;
  }
  void add_transactions(const PartitionModel& model,
                        std::span<const Transaction> txns) {
    count.resize(model.partitions(), 0);
    for (const Transaction& t : txns) ++count[model.partition_of(t.base)];
    total += txns.size();
  }
  void merge(const PartitionHistogram& other);

  /// max_p count[p]: DRAM steps when queued per partition.
  [[nodiscard]] std::uint64_t serialized_steps() const noexcept;
  /// ceil(total / P): DRAM steps under a perfect spread.
  [[nodiscard]] std::uint64_t ideal_steps() const noexcept;
  /// serialized / ideal, >= 1.0 (1.0 when total == 0).
  [[nodiscard]] double camping_factor() const noexcept;
};

}  // namespace lgg::gpusim

#include "prof/profiler.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <sstream>

#include "gpusim/partition.hpp"
#include "obs/trace.hpp"

namespace lgg::prof {

namespace {

/// Modelled ns as fixed-precision microseconds (same rendering as the
/// Chrome-trace exporter, so counter tracks line up with the spans).
std::string micros(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

void Profiler::on_launch(const gpusim::KernelConfig& config,
                         const gpusim::DeviceSpec& dev,
                         const gpusim::LaunchCounters& counters,
                         const gpusim::KernelReport& report) {
  KernelProfile p;
  p.name = config.name;
  p.launch = profiles_.size();
  if (obs_ != nullptr) {
    p.stack = obs_->tracer.open_stack_names();
    p.ts_ns = obs_->tracer.now_ns();
  }

  p.blocks = config.blocks;
  p.threads_per_block = config.threads_per_block;
  p.warps = report.warps;
  p.sample_fraction = report.sample_fraction;

  p.global_slots = report.global_slots;
  p.coalesced_slots = counters.coalesced_slots;
  p.uncoalesced_slots = counters.uncoalesced_slots;
  p.transactions = report.transactions;
  p.coalesced_transactions = counters.coalesced_transactions;
  p.uncoalesced_transactions = counters.uncoalesced_transactions;
  p.ideal_transactions = counters.ideal_transactions;
  p.memory_replays = counters.memory_replays;
  p.bytes = report.bytes;
  p.shared_slots = report.shared_slots;
  p.shared_accesses = counters.shared_accesses;
  p.bank_conflict_steps = report.bank_conflict_steps;
  p.shared_replays = counters.shared_replays;
  p.divergent_warps = counters.divergent_warps;
  p.warp_instructions = report.warp_instructions;

  p.partition_pressure = report.partition_histogram.count;
  p.partition_total = report.partition_histogram.total;
  p.partition_serialized_steps = report.partition_histogram.serialized_steps();
  p.partition_ideal_steps = report.partition_histogram.ideal_steps();
  p.camping_factor = report.camping_factor;

  p.compute_cycles = report.compute_cycles;
  p.latency_cycles = report.latency_cycles;
  p.dram_cycles = report.dram_cycles;
  p.kernel_time_s = report.kernel_time_s;

  p.device = dev.name;
  p.cc = gpusim::to_string(dev.cc);
  p.cached_global = dev.has_cached_global();
  p.core_clock_ghz = dev.core_clock_ghz;
  p.peak_bandwidth_gbps = dev.mem_bandwidth_gbps;
  p.sm_count = dev.sm_count;
  p.max_warps_per_sm = dev.max_warps_per_sm;
  p.sms = counters.sms;

  p.finalize();
  profiles_.push_back(std::move(p));
}

std::string Profiler::profile_text() const {
  std::ostringstream os;
  os << "# lgg_prof v1\n";
  os << "lgg_prof_launches " << profiles_.size() << "\n";
  for (const KernelProfile& p : profiles_) {
    os << "# launch " << p.launch << ": " << p.name << "  device=" << p.device
       << " cc=" << p.cc << " roofline=" << roofline_name(p.roofline)
       << " stack=" << p.stack_path() << "\n";
    const std::string labels = "{kernel=\"" + obs::json_escape(p.name) +
                               "\",launch=\"" + std::to_string(p.launch) +
                               "\"}";
    const auto u64 = [&](const char* metric, std::uint64_t v) {
      os << "lgg_prof_" << metric << labels << " " << v << "\n";
    };
    const auto f64 = [&](const char* metric, double v) {
      os << "lgg_prof_" << metric << labels << " " << obs::format_number(v)
         << "\n";
    };
    u64("blocks", p.blocks);
    u64("threads_per_block", p.threads_per_block);
    u64("warps", p.warps);
    f64("sample_fraction", p.sample_fraction);
    u64("global_slots", p.global_slots);
    u64("coalesced_slots", p.coalesced_slots);
    u64("uncoalesced_slots", p.uncoalesced_slots);
    u64("transactions", p.transactions);
    u64("coalesced_transactions", p.coalesced_transactions);
    u64("uncoalesced_transactions", p.uncoalesced_transactions);
    u64("ideal_transactions", p.ideal_transactions);
    u64("memory_replays", p.memory_replays);
    u64("bytes", p.bytes);
    u64("shared_slots", p.shared_slots);
    u64("shared_accesses", p.shared_accesses);
    u64("bank_conflict_steps", p.bank_conflict_steps);
    u64("shared_replays", p.shared_replays);
    u64("divergent_warps", p.divergent_warps);
    f64("warp_instructions", p.warp_instructions);
    u64("partition_serialized_steps", p.partition_serialized_steps);
    u64("partition_ideal_steps", p.partition_ideal_steps);
    u64("camping_conflict_steps", p.camping_conflict_steps());
    f64("camping_factor", p.camping_factor);
    for (std::size_t part = 0; part < p.partition_pressure.size(); ++part) {
      os << "lgg_prof_partition_pressure{kernel=\"" << obs::json_escape(p.name)
         << "\",launch=\"" << p.launch << "\",partition=\"" << part << "\"} "
         << p.partition_pressure[part] << "\n";
    }
    f64("compute_cycles", p.compute_cycles);
    f64("latency_cycles", p.latency_cycles);
    f64("dram_cycles", p.dram_cycles);
    f64("kernel_time_s", p.kernel_time_s);
    f64("achieved_bandwidth_gbps", p.achieved_bandwidth_gbps);
    f64("bandwidth_fraction", p.bandwidth_fraction);
    f64("occupancy", p.occupancy);
    u64("roofline_class", static_cast<std::uint64_t>(p.roofline));
  }
  return os.str();
}

std::string Profiler::profile_tree_text() const {
  std::ostringstream os;
  os << "lgg_prof profile: " << profiles_.size() << " launch(es)\n";
  for (const KernelProfile& p : profiles_) {
    os << "\nlaunch " << p.launch << ": " << p.name << " [" << p.device
       << " cc " << p.cc << "]\n";
    os << "  stack: " << p.stack_path() << "\n";
    os << "  config: blocks=" << p.blocks << " tpb=" << p.threads_per_block
       << " warps=" << p.warps
       << " sample_fraction=" << obs::format_number(p.sample_fraction) << "\n";
    os << "  global: slots=" << p.global_slots << " (coalesced "
       << p.coalesced_slots << ", uncoalesced " << p.uncoalesced_slots
       << ")  txns=" << p.transactions << " (coalesced "
       << p.coalesced_transactions << ", uncoalesced "
       << p.uncoalesced_transactions << ", replays " << p.memory_replays
       << ")  bytes=" << p.bytes << "\n";
    os << "  camping: serialized=" << p.partition_serialized_steps
       << " ideal=" << p.partition_ideal_steps
       << " conflicts=" << p.camping_conflict_steps()
       << " factor=" << obs::format_number(p.camping_factor)
       << (p.cached_global ? " (cached: neutralised)" : "") << "  pressure=[";
    for (std::size_t part = 0; part < p.partition_pressure.size(); ++part) {
      if (part) os << " ";
      os << p.partition_pressure[part];
    }
    os << "]\n";
    os << "  shared: slots=" << p.shared_slots << " accesses="
       << p.shared_accesses << " conflict_steps=" << p.bank_conflict_steps
       << " replays=" << p.shared_replays << "\n";
    os << "  divergence: divergent_warps=" << p.divergent_warps << "\n";
    os << "  timing: compute=" << obs::format_number(p.compute_cycles)
       << " latency=" << obs::format_number(p.latency_cycles)
       << " dram=" << obs::format_number(p.dram_cycles) << " cycles -> "
       << obs::format_number(p.kernel_time_s) << " s (roofline: "
       << roofline_name(p.roofline) << ")\n";
    os << "  bandwidth: " << obs::format_number(p.achieved_bandwidth_gbps)
       << " GB/s of " << obs::format_number(p.peak_bandwidth_gbps)
       << " GB/s peak (" << obs::format_number(p.bandwidth_fraction * 100.0)
       << "%)\n";
    os << "  occupancy: " << obs::format_number(p.occupancy)
       << "  sm-timeline (busy cycles on the modelled clock):\n";
    for (const gpusim::SmCounters& c : p.sms) {
      if (c.warps == 0) continue;
      os << "    sm" << c.sm << ": warps=" << c.warps
         << " slots=" << c.global_slots << " txns=" << c.transactions
         << " busy=" << obs::format_number(c.busy_cycles) << "cyc\n";
    }
  }

  // Hotspot attribution: top launches by modelled kernel time.
  std::vector<std::size_t> order(profiles_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profiles_[a].kernel_time_s != profiles_[b].kernel_time_s)
      return profiles_[a].kernel_time_s > profiles_[b].kernel_time_s;
    return a < b;
  });
  const std::size_t top = std::min<std::size_t>(order.size(), 8);
  os << "\nhot launches (top " << top << " by modelled kernel time):\n";
  for (std::size_t r = 0; r < top; ++r) {
    const KernelProfile& p = profiles_[order[r]];
    os << "  " << (r + 1) << ". launch " << p.launch << " " << p.name << "  "
       << obs::format_number(p.kernel_time_s) << " s  "
       << roofline_name(p.roofline) << "  " << p.stack_path() << "\n";
  }
  return os.str();
}

std::vector<std::string> Profiler::counter_track_events() const {
  std::vector<std::string> events;
  events.reserve(profiles_.size() * 4);
  for (const KernelProfile& p : profiles_) {
    const std::string ts = micros(p.ts_ns);
    const auto counter = [&](const char* track, const std::string& args) {
      events.push_back(std::string("{\"name\":\"lgg_prof/") + track +
                       "\",\"ph\":\"C\",\"ts\":" + ts +
                       ",\"pid\":0,\"tid\":0,\"args\":{" + args + "}}");
    };
    counter("transactions",
            "\"coalesced\":" + std::to_string(p.coalesced_transactions) +
                ",\"uncoalesced\":" +
                std::to_string(p.uncoalesced_transactions));
    counter("camping_factor",
            "\"factor\":" + obs::format_number(p.camping_factor));
    counter("bank_conflicts",
            "\"steps\":" + std::to_string(p.bank_conflict_steps) +
                ",\"replays\":" + std::to_string(p.shared_replays));
    counter("occupancy", "\"occupancy\":" + obs::format_number(p.occupancy));
  }
  return events;
}

void Profiler::export_metrics(obs::Metrics& m) const {
  if (profiles_.empty()) return;
  std::uint64_t coalesced = 0, uncoalesced = 0, replays = 0, shared = 0,
                divergent = 0, camping = 0;
  static constexpr std::array<double, 7> kFractionBounds = {
      0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0};
  for (const KernelProfile& p : profiles_) {
    coalesced += p.coalesced_transactions;
    uncoalesced += p.uncoalesced_transactions;
    replays += p.memory_replays;
    shared += p.shared_replays;
    divergent += p.divergent_warps;
    camping += p.camping_conflict_steps();
    m.observe("lgg_prof_bandwidth_fraction", p.bandwidth_fraction,
              kFractionBounds);
    m.count("lgg_prof_roofline_launches_total", 1,
            std::string("class=\"") + roofline_name(p.roofline) + "\"");
  }
  m.count("lgg_prof_launches_total", profiles_.size());
  m.help("lgg_prof_coalesced_transactions_total",
         "global transactions at the CC-minimal count (Table III)");
  m.count("lgg_prof_coalesced_transactions_total", coalesced);
  m.count("lgg_prof_uncoalesced_transactions_total", uncoalesced);
  m.count("lgg_prof_memory_replays_total", replays);
  m.count("lgg_prof_shared_replays_total", shared);
  m.count("lgg_prof_divergent_warps_total", divergent);
  m.count("lgg_prof_camping_conflict_steps_total", camping);
}

std::string flamegraph_text(const obs::Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const obs::Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
  std::vector<std::string> path(spans.size());
  std::map<std::string, std::uint64_t> collapsed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    path[i] = spans[i].parent >= 0
                  ? path[static_cast<std::size_t>(spans[i].parent)] + ";" +
                        spans[i].name
                  : spans[i].name;
    const std::uint64_t dur = spans[i].duration_ns();
    const std::uint64_t self = dur - std::min(child_ns[i], dur);
    if (self > 0) collapsed[path[i]] += self;
  }
  std::string out;
  for (const auto& [stack, self] : collapsed)
    out += stack + " " + std::to_string(self) + "\n";
  return out;
}

}  // namespace lgg::prof

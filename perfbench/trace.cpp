#include "trace.hpp"

#include <ostream>
#include <utility>

#include "stats.hpp"

namespace perfbench {

std::size_t Tracer::open(std::string name, std::uint64_t op) {
  if (!enabled_) return kNone;
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ms = now_ms();
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  spans_[id].end_ms = now_ms();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::rename(std::size_t id, std::string name) {
  spans_[id].name = std::move(name);
}

void Tracer::write_tsv(std::ostream& out) const {
  const std::vector<double> self = self_times_ms(spans_);
  out << "index\tparent\top\tname\tstart_ms\tend_ms\tself_ms\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.op << '\t' << s.name << '\t'
        << s.start_ms << '\t' << s.end_ms << '\t' << self[i] << '\n';
  }
}

namespace {

std::vector<std::vector<Interval>> child_intervals(
    const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ms, s.end_ms});
  return children;
}

}  // namespace

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  const auto children = child_intervals(spans);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Interval outer{spans[i].start_ms, spans[i].end_ms};
    self[i] = (outer.end - outer.start) - covered_ms(outer, children[i]);
  }
  return self;
}

double unattributed_frac(const std::vector<Span>& spans,
                         const std::string& op_name) {
  const auto children = child_intervals(spans);
  double wall = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != op_name) continue;
    const Interval outer{spans[i].start_ms, spans[i].end_ms};
    wall += outer.end - outer.start;
    uncovered += (outer.end - outer.start) - covered_ms(outer, children[i]);
  }
  return wall > 0.0 ? uncovered / wall : 0.0;
}

std::map<std::string, std::vector<double>> durations_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) out[s.name].push_back(s.end_ms - s.start_ms);
  return out;
}

}  // namespace perfbench

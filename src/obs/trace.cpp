#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace lgg::obs {

std::size_t Tracer::begin(std::string name, std::string cat) {
  const std::uint64_t start = open_.empty() ? top_cursor_ : open_.back().cursor;
  if (spans_.size() >= cap_) {
    ++dropped_;
    open_.push_back({kDropped, start});
    return kDropped;
  }
  Span span;
  span.name = std::move(name);
  span.cat = std::move(cat);
  span.begin_ns = start;
  span.end_ns = start;
  // Parent = innermost open span that was actually recorded.
  span.parent = -1;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->idx != kDropped) {
      span.parent = static_cast<std::int64_t>(it->idx);
      break;
    }
  }
  spans_.push_back(std::move(span));
  const std::size_t idx = spans_.size() - 1;
  open_.push_back({idx, start});
  return idx;
}

void Tracer::charge_s(double seconds) {
  if (!(seconds > 0.0)) return;  // also rejects NaN
  const auto ns = static_cast<std::uint64_t>(std::llround(seconds * 1e9));
  if (open_.empty())
    top_cursor_ += ns;
  else
    open_.back().cursor += ns;
}

void Tracer::arg(std::size_t id, std::string key, std::string json) {
  if (id == kDropped) return;
  LGG_ASSERT(id < spans_.size());
  spans_[id].args.push_back({std::move(key), std::move(json)});
}

void Tracer::end(std::size_t id) {
  LGG_ASSERT(!open_.empty());
  const Frame frame = open_.back();
  LGG_ASSERT(frame.idx == id || frame.idx == kDropped);
  open_.pop_back();
  if (frame.idx != kDropped) spans_[frame.idx].end_ns = frame.cursor;
  // The parent's cursor advances over the whole closed interval.
  if (open_.empty())
    top_cursor_ = frame.cursor;
  else
    open_.back().cursor = frame.cursor;
}

std::uint64_t Tracer::now_ns() const noexcept {
  return open_.empty() ? top_cursor_ : open_.back().cursor;
}

TracerState Tracer::state() const {
  TracerState s;
  s.spans = spans_;
  s.open.reserve(open_.size());
  for (const Frame& f : open_)
    s.open.emplace_back(static_cast<std::uint64_t>(f.idx), f.cursor);
  s.top_cursor = top_cursor_;
  s.dropped = dropped_;
  return s;
}

void Tracer::restore(TracerState s) {
  spans_ = std::move(s.spans);
  open_.clear();
  open_.reserve(s.open.size());
  for (const auto& [idx, cursor] : s.open) {
    const auto i = static_cast<std::size_t>(idx);
    LGG_CHECK(i == kDropped || i < spans_.size(),
              "Tracer::restore: open frame index out of range");
    open_.push_back({i, cursor});
  }
  top_cursor_ = s.top_cursor;
  dropped_ = static_cast<std::size_t>(s.dropped);
}

std::size_t Tracer::open_top() const noexcept {
  return open_.empty() ? kDropped : open_.back().idx;
}

std::vector<std::string> Tracer::open_stack_names() const {
  std::vector<std::string> names;
  names.reserve(open_.size());
  for (const Frame& f : open_)
    if (f.idx != kDropped) names.push_back(spans_[f.idx].name);
  return names;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

namespace {

/// Modelled ns rendered as microseconds with fixed 3-decimal precision —
/// integer arithmetic only, so the text is deterministic by construction.
std::string micros(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

void append_args_json(std::string& out, const Span& span) {
  out += ",\"args\":{";
  for (std::size_t a = 0; a < span.args.size(); ++a) {
    if (a) out += ',';
    out += '"';
    out += json_escape(span.args[a].key);
    out += "\":";
    out += span.args[a].json;
  }
  out += '}';
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer,
                              const std::vector<std::string>& extra_events) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"modelled\"";
  if (tracer.dropped() > 0)
    out += ",\"dropped_spans\":" + std::to_string(tracer.dropped());
  out += "},\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"lgg (modelled time)\"}}";
  for (const Span& span : tracer.spans()) {
    out += ",\n{\"name\":\"";
    out += json_escape(span.name);
    out += "\",\"cat\":\"";
    out += json_escape(span.cat.empty() ? "span" : span.cat);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += micros(span.begin_ns);
    out += ",\"dur\":";
    out += micros(span.duration_ns());
    out += ",\"pid\":0,\"tid\":0";
    if (!span.args.empty()) append_args_json(out, span);
    out += '}';
  }
  for (const std::string& ev : extra_events) {
    out += ",\n";
    out += ev;
  }
  out += "\n]}\n";
  return out;
}

std::string span_tree_text(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  // Depth per span (parents always precede children in record order).
  std::vector<std::uint32_t> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      depth[i] = depth[static_cast<std::size_t>(spans[i].parent)] + 1;

  std::ostringstream os;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    for (std::uint32_t d = 0; d < depth[i]; ++d) os << "  ";
    os << span.name;
    if (!span.cat.empty()) os << " [" << span.cat << "]";
    os << "  " << micros(span.duration_ns()) << "us";
    for (const SpanArg& a : span.args) os << "  " << a.key << "=" << a.json;
    os << "\n";
  }
  if (tracer.dropped() > 0)
    os << "(" << tracer.dropped() << " span(s) dropped by the cap)\n";
  return os.str();
}

}  // namespace lgg::obs

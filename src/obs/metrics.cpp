#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"  // format_number

namespace lgg::obs {

namespace {

/// Full series key: "family" or "family{labels}".
std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

/// Family part of a series key (strips the label set).
std::string_view family_of(std::string_view key) {
  const auto brace = key.find('{');
  return brace == std::string_view::npos ? key : key.substr(0, brace);
}

}  // namespace

void Histogram::observe(double value) {
  if (count.size() != bounds.size() + 1) count.assign(bounds.size() + 1, 0);
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  ++count[static_cast<std::size_t>(it - bounds.begin())];
  ++observations;
  sum += value;
}

void Metrics::count(std::string_view name, std::uint64_t delta,
                    std::string_view labels) {
  counters_[series_key(name, labels)] += delta;
}

void Metrics::count_f(std::string_view name, double delta,
                      std::string_view labels) {
  counters_f_[series_key(name, labels)] += delta;
}

void Metrics::gauge(std::string_view name, double value,
                    std::string_view labels) {
  gauges_[series_key(name, labels)] = value;
}

void Metrics::observe(std::string_view name, double value,
                      std::span<const double> bounds,
                      std::string_view labels) {
  Histogram& h = histograms_[series_key(name, labels)];
  if (h.bounds.empty() && !bounds.empty())
    h.bounds.assign(bounds.begin(), bounds.end());
  h.observe(value);
}

void Metrics::help(std::string_view name, std::string_view text) {
  help_[std::string(name)] = std::string(text);
}

std::uint64_t Metrics::counter_value(std::string_view name,
                                     std::string_view labels) const {
  const auto it = counters_.find(series_key(name, labels));
  return it == counters_.end() ? 0 : it->second;
}

double Metrics::counter_f_value(std::string_view name,
                                std::string_view labels) const {
  const auto it = counters_f_.find(series_key(name, labels));
  return it == counters_f_.end() ? 0.0 : it->second;
}

double Metrics::gauge_value(std::string_view name,
                            std::string_view labels) const {
  const auto it = gauges_.find(series_key(name, labels));
  return it == gauges_.end() ? 0.0 : it->second;
}

bool Metrics::empty() const noexcept {
  return counters_.empty() && counters_f_.empty() && gauges_.empty() &&
         histograms_.empty();
}

std::string Metrics::prometheus_text() const {
  std::ostringstream os;
  std::string last_family;
  const auto header = [&](std::string_view key, const char* type) {
    const std::string family(family_of(key));
    if (family == last_family) return;
    last_family = family;
    const auto h = help_.find(family);
    if (h != help_.end()) os << "# HELP " << family << " " << h->second << "\n";
    os << "# TYPE " << family << " " << type << "\n";
  };

  for (const auto& [key, value] : counters_) {
    header(key, "counter");
    os << key << " " << value << "\n";
  }
  for (const auto& [key, value] : counters_f_) {
    header(key, "counter");
    os << key << " " << format_number(value) << "\n";
  }
  for (const auto& [key, value] : gauges_) {
    header(key, "gauge");
    os << key << " " << format_number(value) << "\n";
  }
  for (const auto& [key, hist] : histograms_) {
    header(key, "histogram");
    const std::string family(family_of(key));
    // Series labels, if any, splice before the `le` label.
    const auto brace = key.find('{');
    const std::string labels =
        brace == std::string::npos
            ? ""
            : key.substr(brace + 1, key.size() - brace - 2) + ",";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      cumulative += b < hist.count.size() ? hist.count[b] : 0;
      os << family << "_bucket{" << labels
         << "le=\"" << format_number(hist.bounds[b]) << "\"} " << cumulative
         << "\n";
    }
    os << family << "_bucket{" << labels << "le=\"+Inf\"} "
       << hist.observations << "\n";
    os << family << "_sum" << (brace == std::string::npos ? "" : key.substr(brace))
       << " " << format_number(hist.sum) << "\n";
    os << family << "_count"
       << (brace == std::string::npos ? "" : key.substr(brace)) << " "
       << hist.observations << "\n";
  }
  return os.str();
}

MetricsState Metrics::state() const {
  return {counters_, counters_f_, gauges_, histograms_, help_};
}

void Metrics::restore(MetricsState s) {
  counters_ = std::move(s.counters);
  counters_f_ = std::move(s.counters_f);
  gauges_ = std::move(s.gauges);
  histograms_ = std::move(s.histograms);
  help_ = std::move(s.help);
}

}  // namespace lgg::obs

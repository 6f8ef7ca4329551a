#include "prof/diff.hpp"

#include <regex.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace lgg::prof {
namespace {

struct Sample {
  std::string raw;       // value field verbatim, for exact compare + messages
  double value = 0.0;
  bool numeric = false;
};

// Parsed file: key -> sample, plus keys in input order for stable output.
struct Parsed {
  std::map<std::string, Sample> samples;
  std::vector<std::string> order;
};

Parsed parse(const std::string& text) {
  Parsed out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Strip a trailing '\r' so CRLF inputs diff cleanly.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::size_t end = line.find_last_not_of(" \t");
    std::size_t split = line.find_last_of(" \t", end);
    if (split == std::string::npos || split < start) continue;  // no value field
    std::string key = line.substr(start, line.find_last_not_of(" \t", split) -
                                             start + 1);
    std::string raw = line.substr(split + 1, end - split);
    Sample s;
    s.raw = raw;
    char* stop = nullptr;
    s.value = std::strtod(raw.c_str(), &stop);
    s.numeric = stop != raw.c_str() && *stop == '\0';
    if (out.samples.emplace(key, s).second) out.order.push_back(std::move(key));
  }
  return out;
}

/// One compiled ignore pattern: a POSIX extended regex (the dialect of
/// ci/prom_diff's awk match), freed on destruction.
class IgnorePattern {
 public:
  explicit IgnorePattern(const std::string& pattern) {
    const int rc = regcomp(&re_, pattern.c_str(), REG_EXTENDED | REG_NOSUB);
    if (rc != 0) {
      char msg[128];
      regerror(rc, &re_, msg, sizeof(msg));
      throw Error("lgg_prof: bad ignore regex '" + pattern + "': " + msg);
    }
  }
  ~IgnorePattern() { regfree(&re_); }
  IgnorePattern(const IgnorePattern&) = delete;
  IgnorePattern& operator=(const IgnorePattern&) = delete;

  [[nodiscard]] bool matches(const std::string& key) const {
    return regexec(&re_, key.c_str(), 0, nullptr, 0) == 0;
  }

 private:
  regex_t re_{};
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

DiffResult diff_profile_text(const std::string& a, const std::string& b,
                             const DiffOptions& opts) {
  std::deque<IgnorePattern> ignore;  // not movable: no vector
  for (const std::string& pat : opts.ignore) ignore.emplace_back(pat);
  auto ignored = [&](const std::string& key) {
    for (const IgnorePattern& re : ignore)
      if (re.matches(key)) return true;
    return false;
  };

  Parsed pa = parse(a);
  Parsed pb = parse(b);
  DiffResult res;

  for (const std::string& key : pa.order) {
    if (ignored(key)) continue;
    const Sample& sa = pa.samples.at(key);
    auto it = pb.samples.find(key);
    if (it == pb.samples.end()) {
      res.diffs.push_back("only in A: " + key + " " + sa.raw);
      continue;
    }
    const Sample& sb = it->second;
    if (sa.numeric && sb.numeric) {
      const double tol =
          opts.atol +
          opts.rtol * std::max(std::fabs(sa.value), std::fabs(sb.value));
      const double delta = std::fabs(sa.value - sb.value);
      // NaN on either side never matches (delta is NaN -> comparison false).
      if (delta <= tol || sa.value == sb.value) continue;
      res.diffs.push_back("value mismatch: " + key + "  A=" + sa.raw +
                          "  B=" + sb.raw + "  |delta|=" + fmt(delta) +
                          " > tol=" + fmt(tol));
    } else if (sa.raw != sb.raw) {
      res.diffs.push_back("value mismatch: " + key + "  A=" + sa.raw +
                          "  B=" + sb.raw);
    }
  }
  for (const std::string& key : pb.order) {
    if (ignored(key)) continue;
    if (pa.samples.find(key) == pa.samples.end()) {
      res.diffs.push_back("only in B: " + key + " " + pb.samples.at(key).raw);
    }
  }
  res.equal = res.diffs.empty();
  return res;
}

}  // namespace lgg::prof

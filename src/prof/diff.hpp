// Profile diffing with tolerances — the CI perf-regression gate
// (DESIGN.md §17).  Same contract as ci/prom_diff: a sample is
// "<key> <value>" (key = full series name incl. labels, value = last
// whitespace-separated field), blank lines and '#' comments are skipped,
// and two samples match iff |a - b| <= atol + rtol * max(|a|, |b|).
// Keys present on only one side always count as differences.
#pragma once

#include <string>
#include <vector>

namespace lgg::prof {

struct DiffOptions {
  double rtol = 0.0;
  double atol = 0.0;
  /// POSIX extended regexes (ERE, as ci/prom_diff); a key matching any
  /// of them anywhere is skipped entirely.
  std::vector<std::string> ignore;
};

struct DiffResult {
  bool equal = true;
  /// One human-readable line per difference, in input order (A's keys
  /// first, then keys only in B).
  std::vector<std::string> diffs;
};

/// Diff two profile (or Prometheus) text exports.  Throws lgg::Error on
/// an invalid ignore regex.
[[nodiscard]] DiffResult diff_profile_text(const std::string& a,
                                           const std::string& b,
                                           const DiffOptions& opts = {});

}  // namespace lgg::prof

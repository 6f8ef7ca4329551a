// lgg_lint — static determinism & plan-safety analyzer (DESIGN.md §14).
//
//   lgg_lint [--allowlist=FILE] PATH...   lint sources (files or dirs)
//   lgg_lint --list-rules                 print the rule catalog
//   lgg_lint --verify-plans [--loss-k=N]  whole-pipeline footprint +
//                                         schedule-repair proofs
//
// Exit codes: 0 clean, 1 violations/refuted proofs, 2 usage error.
// Output is deterministic: sources lint in sorted path order, plan checks
// run in a fixed suite order, and diagnostics print as
// `file:line: [rule] message` so CI diffs stay stable.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lint/plan_verify.hpp"
#include "lint/source_lint.hpp"

namespace {

using namespace lgg::tools;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::cerr << "error: " << message << "\n\n";
  std::cerr << "usage: lgg_lint [--allowlist=FILE] PATH...\n"
               "       lgg_lint --list-rules\n"
               "       lgg_lint --verify-plans [--loss-k=N]\n"
               "exit codes: 0 clean, 1 violations found, 2 usage error\n";
  std::exit(2);
}

void print(const lgg::lint::Violation& v) {
  std::cout << v.file << ':' << v.line << ": [" << v.rule << "] " << v.message
            << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths(argv + 1, argv + argc);
  const bool list_rules = take_flag(paths, "--list-rules");
  const bool verify_plans = take_flag(paths, "--verify-plans");
  const std::uint64_t loss_k = take_u64(paths, "--loss-k", 1, usage);
  if (loss_k < 1 || loss_k > 6) usage("--loss-k wants an integer in [1, 6]");
  std::string allowlist_path;
  take_value(paths, "--allowlist", allowlist_path, usage);
  reject_unknown_flags(paths, usage);

  if (list_rules) {
    for (const lgg::lint::Rule& rule : lgg::lint::source_rules())
      std::cout << rule.id << "  " << rule.summary << '\n';
    return 0;
  }
  if (paths.empty() && !verify_plans) usage();

  std::size_t violations = 0;

  if (!paths.empty()) {
    lgg::lint::Allowlist allow;
    if (!allowlist_path.empty()) {
      allow = lgg::lint::Allowlist::parse(read_file(allowlist_path, usage),
                                          allowlist_path);
      for (const std::string& err : allow.parse_errors())
        std::cerr << "lgg_lint: " << err << '\n';
      if (!allow.parse_errors().empty()) return 2;
    }

    const std::vector<std::string> files = lgg::lint::collect_sources(paths);
    if (files.empty()) {
      std::cerr << "lgg_lint: no sources under the given paths\n";
      return 2;
    }
    std::vector<lgg::lint::Violation> found =
        lgg::lint::lint_files(files, allowlist_path.empty() ? nullptr : &allow);
    if (!allowlist_path.empty()) {
      for (lgg::lint::Violation& v : allow.stale())
        found.push_back(std::move(v));
    }
    for (const lgg::lint::Violation& v : found) print(v);
    violations += found.size();
    std::cout << "lgg_lint: " << files.size() << " file(s), " << found.size()
              << " violation(s)\n";
  }

  if (verify_plans) {
    const lgg::lint::PlanReport report =
        lgg::lint::verify_default_pipelines(static_cast<std::uint32_t>(loss_k));
    std::cout << report << '\n';
    violations += report.total_findings();
  }

  return violations == 0 ? 0 : 1;
}

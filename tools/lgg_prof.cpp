// lgg_prof — profile-file differ: the CI perf-regression gate
// (DESIGN.md §17).
//
//   lgg_prof diff <a> <b> [--rtol X] [--atol Y] [--ignore REGEX]...
//
// Compares two `--profile` exports (or any Prometheus-style text: one
// "<key> <value>" sample per line, '#' comments skipped) with the
// ci/prom_diff contract: samples match iff |a - b| <= atol + rtol *
// max(|a|, |b|); keys present on only one side always differ; --ignore
// skips keys matching the POSIX extended regex (ERE, as in ci/prom_diff;
// repeatable).  With no tolerances the comparison is exact — the
// determinism gate: a threads-1 and a threads-8 profile of the same
// workload must diff clean.
//
// Exit codes: 0 no differences, 1 differences found, 2 usage/IO error.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lgg.hpp"

namespace {

using namespace lgg;
using namespace lgg::tools;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  lgg_prof diff <a> <b> [--rtol X] [--atol Y] [--ignore REGEX]...\n"
      "\n"
      "exit 0 when every sample matches within atol + rtol*max(|a|,|b|),\n"
      "1 on any difference (each printed to stdout), 2 on usage/IO error\n";
  std::exit(2);
}

int cmd_diff(std::vector<std::string> args) {
  prof::DiffOptions opts;
  opts.rtol = take_f64(args, "--rtol", opts.rtol, usage);
  opts.atol = take_f64(args, "--atol", opts.atol, usage);
  std::string value;
  while (take_value(args, "--ignore", value, usage))
    opts.ignore.push_back(value);
  if (args.size() != 2) usage("diff needs exactly two profile files");

  const std::string a = read_file(args[0], usage);
  const std::string b = read_file(args[1], usage);
  const prof::DiffResult res = prof::diff_profile_text(a, b, opts);
  for (const std::string& d : res.diffs) std::cout << d << "\n";
  if (!res.equal)
    std::cout << res.diffs.size() << " difference"
              << (res.diffs.size() == 1 ? "" : "s") << " between " << args[0]
              << " and " << args[1] << "\n";
  return res.equal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "diff") return cmd_diff(std::move(args));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage(("unknown command: " + command).c_str());
}

// lgg_chaos — kill-resume chaos harness for the durable checkpoint path
// (DESIGN.md §16).
//
//   lgg_chaos resilient --dir DIR [--gnm N,M,SEED] [--faults RATE[,SEED]]
//             [--kill-after K] [--every E] [--threads T] [--shared-mem B]
//
// The harness proves the checkpoint/restart contract the hard way: it
// does not simulate a crash, it TAKES one.  Three subprocess runs of the
// same workload (same binary, `worker` mode):
//
//   1. reference — runs to completion with checkpointing on, writes every
//      artifact (report, audit log, Chrome trace, span tree, Prometheus),
//   2. victim    — identical, except it hard-exits (std::_Exit, code 42,
//      no unwinding) immediately after the K-th durable checkpoint write,
//   3. resumed   — restarts from the victim's checkpoint and completes.
//
// The resumed run's artifacts must be BYTE-identical to the reference's;
// any drift — one span, one counter, one log line — fails the harness.
// Exit 0 on identity, 1 on drift or protocol violation, 2 on usage.
//
// `worker` is the internal single-run mode the parent spawns; it is not
// part of the supported surface.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "flags.hpp"
#include "lgg.hpp"

namespace {

using namespace lgg;
using namespace lgg::tools;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  lgg_chaos resilient --dir DIR [--gnm N,M,SEED]\n"
      "            [--faults RATE[,SEED]] [--kill-after K] [--every E]\n"
      "            [--threads T] [--shared-mem BYTES]\n"
      "\n"
      "Runs the resilient triangle workload three times (reference /\n"
      "killed-after-K-checkpoints / resumed) and byte-compares every\n"
      "artifact of the resumed run against the reference.\n";
  std::exit(2);
}

struct Config {
  // Sparse G(n,m): many BFS levels => many chunks on the small-shared
  // device below (14 with the defaults), so a kill after 2 checkpoints
  // leaves most of the run for the resumed process.
  std::uint64_t n = 400, m = 800, seed = 7;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 7;
  std::uint32_t kill_after = 2;
  std::uint32_t every = 1;
  std::uint64_t threads = 0;
  std::uint32_t shared_mem = 128;  // small shared => many chunks
  std::string dir;
  // worker-only
  std::string ckpt, out;
  bool resume = false;
  std::uint32_t worker_kill = 0;  // 0: run to completion
};

Config parse_config(std::vector<std::string>& args) {
  Config c;
  std::string value;
  if (take_value(args, "--gnm", value, usage)) {
    // "--gnm=N,M,SEED" (or the three numbers in one quoted argument).
    std::replace(value.begin(), value.end(), ',', ' ');
    std::istringstream is(value);
    const std::vector<std::string> nms{std::istream_iterator<std::string>(is),
                                       {}};
    if (nms.size() != 3) usage("--gnm needs N,M,SEED");
    std::uint64_t* fields[] = {&c.n, &c.m, &c.seed};
    for (std::size_t i = 0; i < 3; ++i)
      *fields[i] = parse_or_usage("--gnm", nms[i], util::parse_u64, usage);
  }
  take_faults(args, c.fault_rate, c.fault_seed, usage);
  const auto u32 = [&](std::string_view flag, std::uint32_t fallback) {
    return static_cast<std::uint32_t>(take_u64(args, flag, fallback, usage));
  };
  c.kill_after = u32("--kill-after", c.kill_after);
  c.every = u32("--every", c.every);
  c.threads = take_u64(args, "--threads", c.threads, usage);
  c.shared_mem = u32("--shared-mem", c.shared_mem);
  take_value(args, "--dir", c.dir, usage);
  take_value(args, "--ckpt", c.ckpt, usage);
  take_value(args, "--out", c.out, usage);
  c.resume = take_flag(args, "--resume");
  c.worker_kill = u32("--worker-kill", c.worker_kill);
  reject_extra_args(args, 0, usage);
  return c;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// ------------------------------------------------------------------ worker

// One resilient run with checkpointing + full observability; artifacts
// land at <out>.{report,log,trace.json,spans,prom} on completion.  With
// --worker-kill K the process hard-exits (code 42) right after the K-th
// checkpoint write — destructors skipped, buffers dropped, exactly what a
// SIGKILL leaves behind (the checkpoint itself is already renamed into
// place by then).
int cmd_worker(const Config& c) {
  const graph::Graph g = graph::gnm(c.n, c.m, c.seed);

  gpusim::DeviceSpec dev = gpusim::tesla_c1060();
  dev.name = "C1060-chaos";
  dev.shared_mem_bytes = c.shared_mem;

  obs::Session session;
  std::optional<resilience::FaultInjector> inj;
  if (c.fault_rate > 0.0)
    inj.emplace(c.fault_seed, resilience::FaultRates::uniform(c.fault_rate));

  resilience::RunnerOptions opts;
  opts.device = &dev;
  opts.exec = exec_policy(c.threads);
  opts.faults = inj ? &*inj : nullptr;
  opts.obs = &session;
  opts.checkpoint_path = c.ckpt;
  opts.checkpoint_every_chunks = c.every;

  std::uint32_t writes = 0;
  if (c.worker_kill > 0)
    opts.on_checkpoint = [&](std::uint32_t) {
      if (++writes == c.worker_kill) std::_Exit(42);
    };

  resilience::RunnerReport report;
  try {
    report = c.resume ? resilience::resume_resilient(g, opts)
                      : resilience::run_resilient(g, opts);
  } catch (const resilience::CheckpointError& e) {
    std::cerr << "lgg_chaos worker: checkpoint unusable ("
              << resilience::checkpoint_kind_name(e.kind())
              << "): " << e.what() << "\n";
    return 3;
  }

  std::ostringstream rep;
  rep << report << "\n";
  write_output(c.out + ".report", rep.str(), usage);
  write_output(c.out + ".log", report.log, usage);
  write_output(c.out + ".trace.json", obs::chrome_trace_json(session.tracer),
               usage);
  write_output(c.out + ".spans", obs::span_tree_text(session.tracer), usage);
  write_output(c.out + ".prom", session.metrics.prometheus_text(), usage);
  std::cout << "worker: chunks=" << report.chunks.size()
            << " triangles=" << report.triangles
            << " certified=" << (report.certified ? 1 : 0) << "\n";
  return 0;
}

// ------------------------------------------------------------------ parent

/// Spawn a worker subprocess and return its exit code (-1: died weirdly).
int spawn(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

int cmd_resilient(const char* argv0, const Config& c) {
  if (c.dir.empty()) usage("resilient needs --dir DIR");
  if (c.kill_after == 0) usage("--kill-after must be >= 1");
  ::mkdir(c.dir.c_str(), 0777);  // fine if it already exists

  std::ostringstream common;
  common << "'" << argv0 << "' worker --gnm=" << c.n << "," << c.m << ","
         << c.seed << " --every=" << c.every << " --threads=" << c.threads
         << " --shared-mem=" << c.shared_mem;
  if (c.fault_rate > 0.0)
    common << " --faults=" << c.fault_rate << "," << c.fault_seed;

  const std::string ref_ckpt = c.dir + "/ref.ckpt";
  const std::string run_ckpt = c.dir + "/run.ckpt";
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok:   " : "FAIL: ") << what << "\n";
    if (!ok) ++failures;
  };

  // 1. Reference: uninterrupted, checkpointing on (cadence must not
  // perturb any artifact).
  const int ref_rc = spawn(common.str() + " --ckpt '" + ref_ckpt +
                           "' --out '" + c.dir + "/ref'");
  check(ref_rc == 0, "reference run completed (exit " +
                         std::to_string(ref_rc) + ")");
  check(!file_exists(ref_ckpt), "reference checkpoint removed on completion");

  // 2. Victim: same run, hard-killed right after checkpoint K.
  const int victim_rc =
      spawn(common.str() + " --ckpt '" + run_ckpt + "' --out '" + c.dir +
            "/run' --worker-kill " + std::to_string(c.kill_after));
  check(victim_rc == 42, "victim killed after " +
                             std::to_string(c.kill_after) +
                             " checkpoint(s) (exit " +
                             std::to_string(victim_rc) + ")");
  check(file_exists(run_ckpt), "victim left a durable checkpoint behind");

  // 3. Resume: restart from the victim's checkpoint, run to completion.
  const int resume_rc = spawn(common.str() + " --ckpt '" + run_ckpt +
                              "' --out '" + c.dir + "/run' --resume");
  check(resume_rc == 0,
        "resumed run completed (exit " + std::to_string(resume_rc) + ")");
  check(!file_exists(run_ckpt), "resumed checkpoint removed on completion");

  // 4. Byte-compare every artifact: resumed vs reference.
  if (failures == 0) {
    for (const char* ext :
         {".report", ".log", ".trace.json", ".spans", ".prom"}) {
      const std::string ref = read_file(c.dir + "/ref" + ext, usage);
      const std::string got = read_file(c.dir + "/run" + ext, usage);
      check(ref == got, std::string("artifact byte-identical: ") + ext +
                            " (" + std::to_string(got.size()) + " bytes)");
    }
  } else {
    std::cout << "skip: artifact comparison (protocol violations above)\n";
  }

  std::cout << (failures == 0 ? "chaos: PASS" : "chaos: FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    const Config c = parse_config(args);
    if (command == "resilient") return cmd_resilient(argv[0], c);
    if (command == "worker") return cmd_worker(c);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage(("unknown command: " + command).c_str());
}

// lgg_serve — resident-graph analytics serving loop (DESIGN.md §15).
//
//   lgg_serve run <script|-> [options]
//
// The script mixes catalog directives and requests, one per line
// ('#' comments and blank lines skipped):
//
//   load <name> <path>            make a SNAP file resident
//   gen <name> gnm <n> <m> <seed> make a synthetic G(n,m) graph resident
//   drain                         serve everything submitted so far
//   <tenant> <graph> <query> ...  submit a request (serve/request.hpp)
//
// Pending requests are drained at end of script.  Responses print to
// stdout in request-id (= script line) order; the deterministic request
// log, Chrome trace, span tree and Prometheus dump are available behind
// flags.  For a fixed script, every one of those artifacts is
// byte-identical at any --threads setting — the serving determinism
// contract the serve CI stage pins.
//
// Options (the flag grammar of every lgg_* tool, tools/flags.hpp: a
// value flag takes "--flag V" or "--flag=V"; an output flag is bare for
// stdout or "--flag=FILE"):
//   --threads N      host ExecPolicy for device passes + ingest loader
//   --cache N        result-cache capacity in entries (default 64, 0 off)
//   --no-batching    one backend pass per request (no merging)
//   --quota N        per-tenant admission quota per drain (0 = unlimited)
//   --device-budget N  max ALS tests a graph may have for the resilient
//                      device triangle backend (larger graphs use DODG)
//   --log[=FILE]     the request log
//   --trace FILE     Chrome trace JSON
//   --trace-tree[=FILE]  indented span tree
//   --metrics[=FILE] Prometheus text
//   --profile[=FILE] lgg_prof counter file for the drain loop's backend
//                    passes (diff with `lgg_prof diff`)
//   --profile-tree[=FILE]  human hotspot report
//   --flamegraph[=FILE]    collapsed stacks, modelled self-ns
//   --trace-cap N    cap recorded spans; drops surface as
//                    lgg_obs_spans_dropped_total
//
// Resilience (DESIGN.md §16):
//   --faults RATE[,SEED]  inject device faults into resilient passes at
//                    the uniform RATE in [0, 1] (0: none); responses stay
//                    byte-identical, only recovery counters move
//   --checkpoint FILE  durably save the serving state after every drain
//                    (write-to-temp + rename); removed at normal exit
//   --resume         restore FILE before replaying the script: already-
//                    served drains are skipped, output continues from the
//                    first unserved drain (unusable checkpoints, including
//                    one taken with a different --faults setting, warn and
//                    fall back to a cold start)
//   --exit-after-drains K  hard-exit (code 42) right after the K-th
//                    checkpoint write — the chaos harness's kill switch
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lgg.hpp"
#include "obs_flags.hpp"

namespace {

using namespace lgg;
using namespace lgg::tools;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  lgg_serve run <script|-> [--threads N] [--cache N]\n"
      "            [--no-batching] [--quota N] [--device-budget N]\n"
      "            [--log[=FILE]] [--trace FILE] [--trace-tree[=FILE]]\n"
      "            [--metrics[=FILE]] [--profile[=FILE]]\n"
      "            [--profile-tree[=FILE]] [--flamegraph[=FILE]]\n"
      "            [--trace-cap N]\n"
      "            [--faults RATE[,SEED]]\n"
      "            [--checkpoint FILE] [--resume] [--exit-after-drains K]\n"
      "output flags print to stdout when bare, or write --flag=FILE\n"
      "\n"
      "script lines:\n"
      "  load <name> <path>             resident SNAP file\n"
      "  gen <name> gnm <n> <m> <seed>  resident synthetic graph\n"
      "  drain                          serve pending requests\n"
      "  <tenant> <graph> triangles\n"
      "  <tenant> <graph> kclique <k>\n"
      "  <tenant> <graph> doulion <p> <seed>\n"
      "  <tenant> <graph> wedges <samples> <seed>\n"
      "  <tenant> <graph> bfs <source>\n"
      "  <tenant> <graph> cc <vertex>\n";
  std::exit(2);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

int cmd_run(std::vector<std::string> args) {
  ObsFlags obsf;
  obsf.take(args, usage);
  std::string log_path;
  take_optional_value(args, "--log", log_path);

  const std::uint64_t threads = take_u64(args, "--threads", 0, usage);
  serve::CatalogOptions copts;
  copts.threads = static_cast<std::size_t>(threads);
  copts.obs = obsf.session();

  serve::ServeOptions sopts;
  sopts.cache_capacity =
      static_cast<std::size_t>(take_u64(args, "--cache", 64, usage));
  sopts.batching = !take_flag(args, "--no-batching");
  sopts.tenant_quota = take_u64(args, "--quota", 0, usage);
  sopts.device_test_budget =
      take_u64(args, "--device-budget", sopts.device_test_budget, usage);
  sopts.exec = exec_policy(threads);
  sopts.obs = copts.obs;
  sopts.prof = obsf.prof();

  take_faults(args, sopts.fault_rate, sopts.fault_seed, usage);
  std::string ckpt_path;
  take_value(args, "--checkpoint", ckpt_path, usage);
  const bool resume = take_flag(args, "--resume");
  const std::uint64_t exit_after =
      take_u64(args, "--exit-after-drains", 0, usage);
  if ((resume || exit_after > 0) && ckpt_path.empty())
    usage("--resume / --exit-after-drains need --checkpoint");

  if (args.empty()) usage("run needs a script path (or '-' for stdin)");
  const std::string script_path = args.front();
  args.erase(args.begin());
  reject_extra_args(args, 0, usage);

  std::ifstream file;
  if (script_path != "-") {
    file.open(script_path);
    if (!file) usage(("cannot open script " + script_path).c_str());
  }
  std::istream& in = script_path == "-" ? std::cin : file;

  serve::Catalog catalog(copts);
  serve::Service service(catalog, sopts);
  std::uint64_t next_id = 0;

  // Resume: restore the drain-boundary state and skip that many drains
  // (and every request line feeding them — their ids are already counted
  // in the restored cursor) while replaying the script.  load/gen lines
  // still execute: residency is recomputed, never checkpointed.
  std::uint64_t skip_drains = 0;
  if (resume) {
    try {
      const serve::ServeState st = serve::load_serve_state(ckpt_path);
      service.restore_state(st);
      next_id = st.next_id;
      skip_drains = st.drain_seq;
    } catch (const resilience::CheckpointError& e) {
      std::cerr << "lgg_serve: checkpoint unusable ("
                << resilience::checkpoint_kind_name(e.kind())
                << "): " << e.what() << "; starting cold\n";
    }
  }

  std::uint64_t drains_done = 0;
  std::uint64_t ckpt_writes = 0;
  std::size_t pending = 0;
  const auto drain = [&] {
    for (const serve::Response& resp : service.drain())
      std::cout << resp.line() << "\n";
    pending = 0;
    ++drains_done;
    if (!ckpt_path.empty()) {
      // Durability point: responses printed so far must survive the kill
      // the checkpoint protects against.
      std::cout.flush();
      serve::ServeState st = service.state();
      st.next_id = next_id;
      serve::save_serve_state(ckpt_path, st);
      ++ckpt_writes;
      if (exit_after > 0 && ckpt_writes == exit_after)
        std::_Exit(42);  // simulated kill: no unwinding, no flushing
    }
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;
    try {
      if (tok[0] == "load") {
        LGG_CHECK(tok.size() == 3, "load needs: load <name> <path>");
        catalog.load_file(tok[1], tok[2]);
      } else if (tok[0] == "gen") {
        LGG_CHECK(tok.size() == 6 && tok[2] == "gnm",
                  "gen needs: gen <name> gnm <n> <m> <seed>");
        std::uint64_t nms[3];
        for (int i = 0; i < 3; ++i) {
          const auto v = util::parse_u64(tok[3 + i]);
          LGG_CHECK(v.has_value(), "gen: bad integer '" << tok[3 + i] << "'");
          nms[i] = *v;
        }
        catalog.add(tok[1], graph::gnm(nms[0], nms[1], nms[2]));
      } else if (tok[0] == "drain") {
        LGG_CHECK(tok.size() == 1, "drain takes no arguments");
        if (drains_done < skip_drains)
          ++drains_done;  // already served before the checkpoint
        else
          drain();
      } else if (drains_done < skip_drains) {
        continue;  // request already served; its id is in the cursor
      } else {
        serve::Request req = serve::parse_request_line(line);
        req.id = next_id++;
        service.submit(std::move(req));
        ++pending;
      }
    } catch (const Error& e) {
      std::cerr << "error: " << script_path << ":" << lineno << ": "
                << e.what() << "\n";
      return 2;
    }
  }
  if (pending > 0) drain();
  if (!ckpt_path.empty()) std::remove(ckpt_path.c_str());

  if (!log_path.empty()) write_output(log_path, service.log(), usage);
  obsf.finish(usage);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "run") return cmd_run(std::move(args));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage(("unknown command: " + command).c_str());
}

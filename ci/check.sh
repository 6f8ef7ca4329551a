#!/usr/bin/env bash
# One-command local CI: configure/build/test the default preset (once,
# then three times under ctest -j4), a time-boxed deterministic fuzz
# smoke campaign, the serve stage (serving suites + golden +
# thread-count byte-identity), the prof stage (profiler
# suites + golden profile-tree + lgg_prof diff gate), the bench stage
# (bench_smoke vs the committed baseline via ci/bench_diff), the
# address+UB-sanitized preset, the thread-sanitized preset (concurrency
# label only -- TSan is too slow for the full suite), and finally the
# lint stage: lgg_lint's
# determinism source lint + whole-pipeline plan verification (always), and
# clang-tidy on top when installed.
#
# Usage: ci/check.sh [extra ctest args, e.g. -j8]
set -euo pipefail

cd "$(dirname "$0")/.."
CTEST_ARGS=("$@")
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n=== %s ===\n' "$*"; }

step "core: one launch path, one plan prologue, one ALS test walker, one flag grammar"
# core::launch (src/core/launch.cpp) is the only place in src/core that
# runs the simulator, builds the sancheck analyzer, rescales a sampled
# report, hands a launch to the profiler or records kernel counters; a
# driver that wires its own copy fails here.
if grep -nE 'TapeAnalyzer|record_kernel\(|on_launch\(|\.rescale\(|sim[A-Za-z_]*\.run\(|\.run\(kernel' src/core/* \
      | grep -v '^src/core/launch\.cpp:'; then
  echo "launch plumbing outside src/core/launch.cpp: use core::launch" >&2
  exit 1
fi
# core::plan_chunked_run (src/core/hybrid.cpp) is the only ALS plan
# prologue: the "plan/chunking" span and the prepared-plan check appear
# nowhere else in src/core or src/resilience.
if grep -nE '"plan/chunking"|prepared ALS plan was built' src/core/* \
      src/resilience/* | grep -v '^src/core/hybrid\.cpp:'; then
  echo "ALS plan prologue outside src/core/hybrid.cpp: use" \
       "core::plan_chunked_run" >&2
  exit 1
fi
# One checkpoint codec: the FNV-1a constants live in util::Fnv1a
# (src/util/fnv1a.hpp), 16-digit hex in graph::digest_hex (which needs no
# printf format), and the digest trailer in src/resilience/checkpoint.cpp.
if grep -rniE 'cbf29ce484222325|100000001b3' src \
      | grep -v '^src/util/fnv1a\.hpp:'; then
  echo "FNV-1a outside src/util/fnv1a.hpp: use util::Fnv1a" >&2
  exit 1
fi
if grep -rn '%016llx' src | grep -v '^src/graph/digest\.cpp:'; then
  echo "hex rendering outside graph::digest_hex" >&2
  exit 1
fi
if grep -rnF '"\ndigest ' src | grep -v '^src/resilience/checkpoint\.cpp:'; then
  echo "checkpoint digest trailer outside src/resilience/checkpoint.cpp:" \
       "use seal_checkpoint / open_checkpoint" >&2
  exit 1
fi

# One ALS test space: src/core/als_plan.{hpp,cpp} builds every AlsJob and
# core::TestCursor walks every test, so nothing else in src/ decodes or
# advances a test or binary-searches the jobs' test offsets.
if { grep -rnE 'als_decode_test|als_advance_test' src;
     grep -rnE -A2 'upper_bound' src | grep -E 'test_offset'; true; } \
      | grep -vE '^src/core/als_plan\.(hpp|cpp)[-:]'; then
  echo "ALS test walk outside src/core/als_plan.*: use core::TestCursor" >&2
  exit 1
fi

# One flag grammar: tools/flags.hpp turns argv into values through the
# strict util::parse_u64 / parse_f64, so no tool parses a number with
# strto*, std::sto* or atoi, and no tool keeps a second output grammar.
if grep -rnE 'strto|std::sto|atoi|OutputGrammar' tools; then
  echo "number parsing or output grammar outside tools/flags.hpp:" \
       "use take_u64 / take_f64 / arg_u64 / take_optional_value" >&2
  exit 1
fi

step "default: configure + build"
cmake --preset default
cmake --build --preset default -j "$JOBS"

step "default: full test suite"
ctest --test-dir build --output-on-failure "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "default: full test suite three times under ctest -j4"
# Tier-1 must be hermetic: no test may depend on another's files or on
# running alone, so the suite passes repeatedly in parallel.
ctest --test-dir build -j4 --repeat until-fail:3 --output-on-failure

step "fuzz: 30s deterministic differential smoke campaign"
# Fixed master seed: any finding here is reproducible from the emitted
# repro file (see DESIGN.md section 10 for the triage workflow).  The
# iteration cap is a backstop so the stage is time-boxed either way.
build/tools/lgg_fuzz campaign --seconds 30 --iterations 100000 --seed 20130520

step "resilience: fault-injection + recovery suites"
# The resilience-labelled tests (ctest -L resilience) pin the DESIGN.md
# section 11 contract: exact counts under injected faults, FaultPlan /
# RunReport accounting, and thread-count-independent fault campaigns.
ctest --test-dir build -L resilience --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "resilience: 15s fault-campaign smoke (10% fault rate)"
build/tools/lgg_fuzz campaign --seconds 15 --iterations 100000 \
      --seed 20130520 --faults=0.1,7

step "obs: tracing/metrics suites"
# The obs-labelled tests (ctest -L obs) pin the DESIGN.md section 12
# contract: modelled-time span trees and Prometheus dumps byte-identical
# across host thread counts, and counters that match the driver reports.
ctest --test-dir build -L obs --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "obs: trace determinism + golden span tree (lgg_cli triangle)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
build/tools/lgg_cli triangle tests/corpus/single-triangle.txt \
      --trace="$OBS_TMP/t1.json" --trace-tree="$OBS_TMP/t1.spans" \
      --metrics="$OBS_TMP/t1.prom" --threads 1 > /dev/null
build/tools/lgg_cli triangle tests/corpus/single-triangle.txt \
      --trace="$OBS_TMP/t4.json" --trace-tree="$OBS_TMP/t4.spans" \
      --metrics="$OBS_TMP/t4.prom" --threads 4 > /dev/null
cmp "$OBS_TMP/t1.json" "$OBS_TMP/t4.json"
cmp "$OBS_TMP/t1.prom" "$OBS_TMP/t4.prom"
if command -v jq > /dev/null; then
  jq -e '.traceEvents | length > 0' "$OBS_TMP/t1.json" > /dev/null
elif command -v python3 > /dev/null; then
  python3 -c "import json,sys; \
assert json.load(open(sys.argv[1]))['traceEvents']" "$OBS_TMP/t1.json"
fi
diff -u ci/golden/single-triangle.spans.txt "$OBS_TMP/t1.spans"

step "ingest: determinism suites"
# The ingest-labelled tests (ctest -L ingest) pin the DESIGN.md section 13
# contract: the parallel loader's LoadedGraph is byte-identical to the
# serial reference at any thread count and chunk size.
ctest --test-dir build -L ingest --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "ingest: serial-vs-parallel digest on 1M-edge graphs (lgg_cli)"
# The same contract end to end through the CLI, at a size where the
# parallel pipeline actually fans out (many chunks): a uniform gnm graph
# and a skewed R-MAT graph whose hubs stress the bucket dedup and the
# sorted-by-construction adjacency fill.  On each, the DODG count must
# also equal the forward algorithm's.
build/tools/lgg_cli generate gnm "$OBS_TMP/ingest-1m.txt" 200000 1000000 7 \
      > /dev/null
build/tools/lgg_cli generate rmat "$OBS_TMP/ingest-rmat.txt" 17 8 7 \
      > /dev/null
for G in ingest-1m ingest-rmat; do
  SERIAL_DIGEST="$(build/tools/lgg_cli ingest "$OBS_TMP/$G.txt" --serial \
        | awk '$1 == "digest:" { print $2 }')"
  for T in 1 8; do
    PAR_DIGEST="$(build/tools/lgg_cli ingest "$OBS_TMP/$G.txt" \
          --threads "$T" | awk '$1 == "digest:" { print $2 }')"
    if [ -z "$SERIAL_DIGEST" ] || [ "$SERIAL_DIGEST" != "$PAR_DIGEST" ]; then
      echo "$G: ingest digest mismatch at --threads $T:" \
           "serial=$SERIAL_DIGEST parallel=$PAR_DIGEST" >&2
      exit 1
    fi
  done
  # 4 KiB parse chunks: compaction reads thousands of per-chunk edge
  # arrays in place, with edge ranges crossing chunk boundaries.
  SMALL_DIGEST="$(build/tools/lgg_cli ingest "$OBS_TMP/$G.txt" \
        --threads 8 --chunk-bytes 4096 | awk '$1 == "digest:" { print $2 }')"
  if [ "$SERIAL_DIGEST" != "$SMALL_DIGEST" ]; then
    echo "$G: ingest digest mismatch at --threads 8 --chunk-bytes 4096:" \
         "serial=$SERIAL_DIGEST parallel=$SMALL_DIGEST" >&2
    exit 1
  fi
  echo "$G: digest $SERIAL_DIGEST identical for --serial, --threads 1," \
       "--threads 8, --threads 8 --chunk-bytes 4096"
  DODG_COUNT="$(build/tools/lgg_cli count "$OBS_TMP/$G.txt" --orient \
        | awk '$1 == "triangles:" { print $2 }')"
  FORWARD_COUNT="$(build/tools/lgg_cli count "$OBS_TMP/$G.txt" forward \
        | awk '$1 == "triangles:" { print $2 }')"
  if [ -z "$DODG_COUNT" ] || [ "$DODG_COUNT" != "$FORWARD_COUNT" ]; then
    echo "$G: DODG count $DODG_COUNT != forward count $FORWARD_COUNT" >&2
    exit 1
  fi
  echo "$G: DODG count $DODG_COUNT equals forward"
done

step "serve: serving-layer suites"
# The serve-labelled tests (ctest -L serve) pin the DESIGN.md section 15
# contract: concurrent submission byte-identical to serial, exact-match
# result cache transparent under eviction, batching that never changes
# per-query results, and cache hits that bypass the device entirely.
ctest --test-dir build -L serve --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "serve: golden responses + span tree + metrics (batching + cache)"
build/tools/lgg_serve run ci/serve-single-triangle.script \
      --trace-tree --metrics > "$OBS_TMP/serve-golden.txt"
diff -u ci/golden/serve-single-triangle.txt "$OBS_TMP/serve-golden.txt"
# The golden run must have actually merged a pass and hit the cache.
grep -q '^lgg_serve_batch_merges_total 1$' "$OBS_TMP/serve-golden.txt"
grep -q '^lgg_serve_cache_hits_total 1$' "$OBS_TMP/serve-golden.txt"

step "serve: threads-1-vs-8 byte-identity on a 100k-edge catalog"
# The full serving determinism contract at a size where device passes,
# the DODG counter and the estimate backends all fan out on the host.
# The third drain holds twelve independent doulion, wedges and bfs passes
# on both graphs in a row, so its host passes compute concurrently in
# waves and commit in pass order.
cat > "$OBS_TMP/serve-big.script" <<'EOF'
gen big gnm 20000 100000 7
gen small gnm 200 600 9
alice big triangles
bob small triangles
carol big doulion 0.25 3
alice small wedges 500 4
bob big bfs 0
carol small cc 7
alice big triangles
drain
bob big triangles
alice small kclique 4
drain
alice big doulion 0.1 11
bob small doulion 0.5 12
carol big wedges 4000 13
alice small wedges 700 14
bob big bfs 17
carol small bfs 3
alice big doulion 0.5 15
bob small wedges 900 16
carol big bfs 1999
alice small bfs 150
bob big wedges 2500 17
carol small doulion 0.25 18
drain
EOF
build/tools/lgg_serve run "$OBS_TMP/serve-big.script" --threads 1 \
      --log="$OBS_TMP/serve-big-t1.log" --metrics="$OBS_TMP/serve-big-t1.prom" \
      > "$OBS_TMP/serve-big-t1.out"
build/tools/lgg_serve run "$OBS_TMP/serve-big.script" --threads 8 \
      --log="$OBS_TMP/serve-big-t8.log" --metrics="$OBS_TMP/serve-big-t8.prom" \
      > "$OBS_TMP/serve-big-t8.out"
cmp "$OBS_TMP/serve-big-t1.out" "$OBS_TMP/serve-big-t8.out"
cmp "$OBS_TMP/serve-big-t1.log" "$OBS_TMP/serve-big-t8.log"
cmp "$OBS_TMP/serve-big-t1.prom" "$OBS_TMP/serve-big-t8.prom"
echo "serve responses, log and metrics identical at --threads 1 and 8"

step "chaos: kill/resume suites (ctest -L chaos)"
# The chaos-labelled tests really kill a process (_Exit) mid-run and
# resume it from its checkpoint, then require every artifact — report,
# log, trace, span tree, metrics — byte-identical to an uninterrupted
# reference (DESIGN.md section 16).
ctest --test-dir build -L chaos --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "chaos: kill-after-2-chunks resume smoke (faults armed)"
# Belt and braces outside ctest: one end-to-end kill/resume cycle with
# fault injection on.  lgg_chaos byte-compares the artifact pairs
# itself; prom_diff re-checks the metrics pair at zero tolerance, and
# with --rtol demonstrates the tolerant mode used for cross-host runs.
build/tools/lgg_chaos resilient --dir "$OBS_TMP/chaos" --faults 0.05,7 \
      --kill-after 2
ci/prom_diff "$OBS_TMP/chaos/ref.prom" "$OBS_TMP/chaos/run.prom"
echo "resumed metrics identical to uninterrupted reference (prom_diff)"

step "prof: profiler suites (ctest -L prof)"
# The prof-labelled tests pin the DESIGN.md section 17 contract: the
# modelled counters reproduce the driver KernelReport exactly, every
# export (profile, profile-tree, flamegraph, trace counter tracks) is
# byte-identical across ExecPolicy/thread counts, and lgg_prof diff
# honours the prom_diff tolerance contract.
ctest --test-dir build -L prof --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "prof: golden profile-tree + threads-1-vs-8 byte-identity"
build/tools/lgg_cli triangle tests/corpus/single-triangle.txt \
      --profile="$OBS_TMP/p1.prof" --profile-tree="$OBS_TMP/p1.tree" \
      --flamegraph="$OBS_TMP/p1.flame" --threads 1 > /dev/null
build/tools/lgg_cli triangle tests/corpus/single-triangle.txt \
      --profile="$OBS_TMP/p8.prof" --profile-tree="$OBS_TMP/p8.tree" \
      --flamegraph="$OBS_TMP/p8.flame" --threads 8 > /dev/null
cmp "$OBS_TMP/p1.prof" "$OBS_TMP/p8.prof"
cmp "$OBS_TMP/p1.tree" "$OBS_TMP/p8.tree"
cmp "$OBS_TMP/p1.flame" "$OBS_TMP/p8.flame"
diff -u ci/golden/single-triangle.profile-tree.txt "$OBS_TMP/p1.tree"

step "prof: lgg_prof diff gate (clean exits 0, tampered exits 1)"
build/tools/lgg_prof diff "$OBS_TMP/p1.prof" "$OBS_TMP/p8.prof"
sed '/^lgg_prof_transactions{/s/ / 9/' "$OBS_TMP/p1.prof" \
      > "$OBS_TMP/p1-tampered.prof"
if build/tools/lgg_prof diff "$OBS_TMP/p1.prof" "$OBS_TMP/p1-tampered.prof" \
      > /dev/null; then
  echo "lgg_prof diff failed to flag a tampered profile" >&2
  exit 1
fi
echo "profiles identical at --threads 1 and 8; tampered profile flagged"

step "bench: perf-regression gate (bench_smoke vs committed baseline)"
# Modelled metrics only — wall-clock fields are always ignored by
# ci/bench_diff.  The 2% rtol absorbs deliberate small recalibrations;
# anything larger needs a reviewed baseline refresh (DESIGN.md s17).
build/bench/bench_smoke | grep '^BENCHJSON ' | sed 's/^BENCHJSON //' \
      > "$OBS_TMP/bench_smoke.json"
ci/bench_diff ci/golden/bench_smoke.json "$OBS_TMP/bench_smoke.json" \
      --rtol 0.02
echo "bench_smoke modelled metrics within 2% of the committed baseline"

step "asan: configure + build (LGG_SANITIZE=address, LGG_WERROR=ON)"
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

step "asan: full test suite"
ctest --preset asan-full "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "tsan: configure + build (LGG_SANITIZE=thread, LGG_WERROR=ON)"
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

step "tsan: concurrency-labelled tests"
ctest --preset tsan-concurrency "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "lint: determinism + plan-safety suites (ctest -L lint)"
# The lint-labelled tests pin the DESIGN.md section 14 contract: every
# rule catches its seeded fixture at the exact line, the allowlist stays
# non-stale, and the footprint/schedule-repair proofs hold.
ctest --test-dir build -L lint --output-on-failure \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

step "lint: rule catalog matches the reviewed golden"
build/tools/lgg_lint --list-rules > "$OBS_TMP/lint-rules.txt"
diff -u ci/golden/lint-rules.txt "$OBS_TMP/lint-rules.txt"

step "lint: source tree clean through ci/lint_allow.txt"
build/tools/lgg_lint --allowlist=ci/lint_allow.txt src tools bench

step "lint: whole-pipeline plan verification (loss-k=2)"
build/tools/lgg_lint --verify-plans --loss-k=2

step "lint: lgg_lint + clang-tidy via the CMake target"
cmake --build build --target lint

step "all checks passed"

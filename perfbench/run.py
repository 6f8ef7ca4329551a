#!/usr/bin/env python3
"""Build the host-wall benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig11_sim|snap_admit|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build/perfbench (the library sources under src/ are compiled into
the benchmark's own static library); later calls only re-check the build.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result.  Exits non-zero, printing no result, when the build or the
run fails.

A run that dies of a crash signal (SIGSEGV, SIGABRT, ...) or hangs past
its time limit is the library's known ThreadPool race (see "Known defect"
in perfbench/README.md).  It is rerun with the same seed, while the run's
time budget allows, and every lost run is counted in the result as one
attempted and failed op, so the defect stays visible in `failed` and
`ok_frac`.  Any other failure ends the run with no result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

# A run must end within 180 s of wall time, build excluded; keep a margin.
RUN_BUDGET_S = 165.0
# One run is set-up plus the window plus the post-window checks; none of
# the workloads needs more than this beyond --seconds.  A run still going
# after that has hung.
RUN_OVERHEAD_S = 45.0
MAX_RUNS = 3
CRASH_SIGNALS = {signal.SIGSEGV, signal.SIGABRT, signal.SIGBUS,
                 signal.SIGILL, signal.SIGFPE}


class Stopped(Exception):
    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def call(cmd, timeout=None, capture=False):
    """Runs cmd in its own process group; returns (exit code, or None if
    it outlived `timeout`; its stdout when `capture`).  Whatever ends the
    wait, the whole group is killed and the child reaped first."""
    child = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr, text=True,
        start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate()
        return None, out
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


def build():
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        code, _ = call(step)
        if code != 0:
            raise RuntimeError("%s exited with %s" % (" ".join(step), code))
    return os.path.join(BUILD_DIR, "perfbench")


def seconds_arg(argv):
    try:
        return float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        return 0.0  # the binary reports the bad flag itself


def describe(code):
    if code is None:
        return "hung (killed at its time limit)"
    return "died of " + signal.Signals(-code).name


def count_lost(line, lost):
    """The result line with `lost` runs added as attempted, failed ops."""
    result = json.loads(line)
    result["attempted"] += lost
    result["failed"] += lost
    if "ok_frac" in result["metrics"]:
        result["metrics"]["ok_frac"]["value"] = (
            1.0 - result["failed"] / result["attempted"])
    return json.dumps(result)


def run(binary, argv):
    cmd = [binary] + argv + ["--work-dir", WORK_DIR]
    seconds = seconds_arg(argv)
    start = time.monotonic()
    lost = 0
    while True:
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        code, out = call(cmd, min(remaining, seconds + RUN_OVERHEAD_S),
                         capture=True)
        crashed = code is None or (code < 0 and -code in CRASH_SIGNALS)
        if not crashed:
            break
        lost += 1
        sys.stderr.write(out)
        print("perfbench: run %d %s; counted as one failed op"
              % (lost, describe(code)), file=sys.stderr)
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        if lost >= MAX_RUNS or remaining < seconds + RUN_OVERHEAD_S:
            print("perfbench: no time left to rerun", file=sys.stderr)
            return 1
        print("perfbench: rerunning with the same seed", file=sys.stderr)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        return 128 - code if code < 0 else code or 1
    if lost:
        lines[-1] = count_lost(lines[-1], lost)
    print("\n".join(lines), flush=True)
    return 0


def main(argv):
    def stop(signum, _frame):
        raise Stopped(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        try:
            binary = build()
        except (OSError, RuntimeError) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return 1
        os.makedirs(WORK_DIR, exist_ok=True)
        return run(binary, argv)
    except Stopped as e:
        return 128 + e.signum


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

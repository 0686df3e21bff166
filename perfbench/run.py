#!/usr/bin/env python3
"""Build and run one triarch benchmark workload.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths are resolved
against this file). Each run first builds the simulator libraries, the
triarchd daemon and the harness from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), which is
a no-op when nothing changed, then runs the harness. The harness's
last stdout line is the result JSON; build output goes to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("table3", "sweep_small")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The harness exits within this many seconds of its measured time, or
# is killed with the daemon it started (the run gets 180 s in all).
SLACK_SECONDS = 150
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no triarch sources under {ROOT / 'src'}")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(out),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet)
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.call(["cmake", "--build", str(out), "-j", BUILD_JOBS,
                          "--target", *targets], **quiet)
    if rc != 0:
        fail("build failed")
    return out


def kill_group(pgid):
    """SIGKILL what is left of a process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(argv, timeout):
    """Run argv in its own session. When it ends, or on timeout, kill
    whatever it left behind (a daemon of a crashed harness)."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail(f"timed out after {timeout} s")
    kill_group(proc.pid)
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the harness's own unit tests")
    args = p.parse_args()

    if args.self_test:
        out = build(["perfbench_selftest"])
        sys.exit(run([str(out / "perfbench_selftest")], timeout=600))
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build(["perfbench_harness", "triarchd"])
    run_dir = out / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    rel = lambda path: os.path.relpath(path, ROOT)
    rc = run([str(out / "perfbench_harness"),
              "--workload", args.workload,
              "--seed", str(args.seed),
              "--seconds", str(args.seconds),
              "--trace", str(args.trace),
              "--daemon", str(out / "triarchd"),
              "--out-dir", rel(run_dir),
              "--baseline", rel(ROOT / "bench" / "baselines" / "BENCH_table3.json")],
             timeout=args.seconds + SLACK_SECONDS)
    sys.exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [extra perfbench flags]

The first call configures and builds perfbench/ (and the src/ libraries
it links) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traced runs write
their spans file to the spans/ directory next to the build.
"""

import fcntl
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
SPANS_DIR = os.path.join(OUT_DIR, "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The first run of a checkout builds and must end within 900 s, every
# later run within 180 s.
BUILD_BUDGET_S = 700
RUN_TIMEOUT_S = 160


def run_group(command, timeout, **kwargs):
    """Runs a build step in a process group of its own and returns its exit
    code. On timeout the whole group (cmake, make and the compilers) is
    killed and reaped before TimeoutExpired propagates."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as child:
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise


def build():
    """Configures (once) and builds the perfbench binary; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_BUDGET_S
    # One build at a time per checkout; a concurrent run waits here.
    with open(os.path.join(OUT_DIR, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                code = run_group(step, max(1.0, deadline - time.monotonic()),
                                 stdout=sys.stderr, stderr=sys.stderr, env=env)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"perfbench: build step failed: {error}", file=sys.stderr)
                return False
            if code != 0:
                print(f"perfbench: {' '.join(step)} exited {code}",
                      file=sys.stderr)
                return False
    return True


def main():
    if not build():
        return 2
    os.makedirs(SPANS_DIR, exist_ok=True)
    command = [BINARY, *sys.argv[1:], "--spans-dir", SPANS_DIR]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

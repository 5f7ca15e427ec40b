#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Runs every workload briefly through perfbench/run.py and checks that
  1. every metric named in BENCHMARK.json is printed, with its unit;
  2. exact counts repeat between two runs with the same seed
     (transfer.bytes_per_query on staged-probe, and 0 elsewhere);
  3. on hot-probe after set-up, plan.builds_per_query is 0 and
     plan.cache_hit_ratio is 1.0;
  4. the oracle rejects a deliberately wrong expected result: one
     expected value is changed after the cold runs were checked, so the
     per-query comparison on the served path must end the run (exit 3,
     "correct": false).

Usage, from the root of the repository: python3 perfbench/selftest.py
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
BRIEF = ["--seconds", "1"]


def run(workload, trace, seed=7, extra=()):
    """Runs one brief benchmark; returns (exit code, parsed last line)."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace",
               str(trace)] + BRIEF + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    layer = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: exit 0, correct, no failures")
            metrics = (result or {}).get("metrics", {})
            for metric in wanted:
                printed = metrics.get(metric["name"])
                check(printed is not None and printed["unit"] == metric["unit"],
                      f"{workload} trace={trace}: {metric['name']} printed "
                      f"in {metric['unit']}")
            if trace == 1:
                layer[workload] = metrics

    def value(workload, name):
        return layer.get(workload, {}).get(name, {}).get("value")

    _, again = run("staged-probe", 1)
    staged = value("staged-probe", "transfer.bytes_per_query")
    repeat = (again or {}).get("metrics", {}).get(
        "transfer.bytes_per_query", {}).get("value")
    check(staged is not None and staged > 0 and staged == repeat,
          f"staged-probe: transfer.bytes_per_query repeats exactly "
          f"({staged} vs {repeat})")
    for workload in ("hot-probe", "adhoc-build", "short-queries"):
        check(value(workload, "transfer.bytes_per_query") == 0,
              f"{workload}: transfer.bytes_per_query is 0")

    check(value("hot-probe", "plan.builds_per_query") == 0,
          "hot-probe: plan.builds_per_query is 0 after set-up")
    check(value("hot-probe", "plan.cache_hit_ratio") == 1.0,
          "hot-probe: plan.cache_hit_ratio is 1.0 after set-up")

    code, result = run("short-queries", 0, extra=["--corrupt-oracle"])
    check(code == 3 and result is not None and result["correct"] is False,
          f"served-path oracle rejects a wrong expected result (exit {code})")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

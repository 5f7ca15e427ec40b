#!/usr/bin/env bash
# Runs the execution-runtime micro benches and merges their JSON records
# into BENCH_micro.json at the repo root, so perf trajectories are
# diffable commit over commit.
#
#   micro_parallel  — hand-rolled harness, emits records via --json:
#                     fork-join dispatch latency and morsel claiming
#                     from the central MorselDispatcher at 1..N workers
#   micro_engine    — hand-rolled harness: plan-IR latency per SSB query
#                     and Q6 with the trace recorder off and on, plus
#                     compile time and the enabled-tracing overhead
#   micro_hashtable — records section only (--records-only): scalar vs
#                     interleaved vs SIMD ht_probe_ns per table kind, the
#                     one benchmark of the ProbeBatch kernels
#   micro_join      — records section only (--records-only): direct
#                     scatter vs software write-combining partition pass
#   micro_morsel    — google-benchmark GPU batch-size ablation, emits
#                     benchmark_out JSON that is converted to the same
#                     {experiment, config, mean, stderr, runs} record
#                     shape
#   servebench      — serving-layer closed-loop driver: qps, p50/p99
#                     latency, cache hit rate, shed/cancel/deadline
#                     counters
#   ext_multi_gpu_mesh — sharded-join scaling over N-GPU meshes: modelled
#                     speedup and exchange cost per {ring, crossbar,
#                     host-bounce} x {1,2,4,8} GPUs, results checked
#                     bit-identical to the CPU reference
#
# A bench binary that crashes mid-run (or writes empty/unparseable JSON)
# fails the whole script with a named, non-zero error — partial records
# are never merged into the trajectory.
#
# Usage: scripts/bench_trajectory.sh [-j N] [-q] [--check]
#   -j N     build parallelism (default: nproc)
#   -q       quick mode: shrunken sizes, for smoke-testing the pipeline
#   --check  regression watchdog: compare this run's fresh records
#            against the committed BENCH_micro.json (median/MAD band via
#            scripts/bench_check.py, band knobs BENCH_BAND_PCT /
#            BENCH_MAD_K) and exit nonzero on regression. Read-only —
#            the baseline is not rewritten.
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=""
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done
set -- ${ARGS[@]+"${ARGS[@]}"}

JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=""
while getopts "j:qc" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    q) QUICK="--quick" ;;
    c) CHECK=1 ;;
    *) echo "usage: $0 [-j N] [-q] [--check]" >&2; exit 2 ;;
  esac
done

say() { printf '\n==> %s\n' "$*"; }

# Runs one bench binary and fails LOUDLY if it dies mid-run. `set -e`
# alone reports the bare exit status of whatever happened to run last; a
# segfaulting bench would leave no hint of which binary crashed or that
# the trajectory merge was skipped. Name the casualty, keep the partial
# JSON out of BENCH_micro.json, exit non-zero.
run_bench() {
  local label="$1"
  shift
  say "run $label"
  local status=0
  "$@" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: $label exited with status $status mid-run;" \
         "no records merged into BENCH_micro.json" >&2
    exit "$status"
  fi
}

# A bench that exits zero but leaves an empty or unparseable JSON file
# also crashed, just politely. Refuse to merge its output.
check_json() {
  local label="$1" path="$2"
  python3 - "$path" <<'PY' || { echo "FAIL: $label wrote bad JSON" >&2; exit 1; }
import json
import sys

with open(sys.argv[1]) as f:
    records = json.load(f)
assert isinstance(records, (list, dict)) and records, "no records"
PY
}

say "build (Release)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      -DPUMP_SANITIZE="" >/dev/null
cmake --build build-release -j "$JOBS" \
      --target micro_parallel micro_engine micro_hashtable micro_join \
               micro_morsel servebench ext_multi_gpu_mesh

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

run_bench "micro_parallel ${QUICK:-"(full sizes)"}" \
    ./build-release/bench/micro_parallel ${QUICK} \
    --json="$OUT_DIR/micro_parallel.json"
check_json micro_parallel "$OUT_DIR/micro_parallel.json"

run_bench "micro_engine ${QUICK:-"(full sizes)"}" \
    ./build-release/bench/micro_engine ${QUICK} \
    --json="$OUT_DIR/micro_engine.json"
check_json micro_engine "$OUT_DIR/micro_engine.json"

run_bench "micro_hashtable ${QUICK:-"(full sizes)"}" \
    ./build-release/bench/micro_hashtable --records-only ${QUICK} \
    --json="$OUT_DIR/micro_hashtable.json"
check_json micro_hashtable "$OUT_DIR/micro_hashtable.json"

run_bench "micro_join ${QUICK:-"(full sizes)"}" \
    ./build-release/bench/micro_join --records-only ${QUICK} \
    --json="$OUT_DIR/micro_join.json"
check_json micro_join "$OUT_DIR/micro_join.json"

run_bench "micro_morsel" \
    ./build-release/bench/micro_morsel \
    --benchmark_out="$OUT_DIR/micro_morsel_gbench.json" \
    --benchmark_out_format=json \
    ${QUICK:+--benchmark_min_time=0.05}
check_json micro_morsel "$OUT_DIR/micro_morsel_gbench.json"

run_bench "servebench ${QUICK:-"(full sizes)"}" \
    ./build-release/tools/servebench ${QUICK} \
    --json="$OUT_DIR/servebench.json"
check_json servebench "$OUT_DIR/servebench.json"

run_bench "ext_multi_gpu_mesh ${QUICK:-"(full sizes)"}" \
    ./build-release/bench/ext_multi_gpu_mesh ${QUICK} \
    --json="$OUT_DIR/mesh_scaling.json" >/dev/null
check_json ext_multi_gpu_mesh "$OUT_DIR/mesh_scaling.json"

if [ -n "$CHECK" ]; then
  say "check fresh records against BENCH_micro.json"
  python3 scripts/bench_check.py \
      --baseline BENCH_micro.json \
      --band-pct "${BENCH_BAND_PCT:-25}" \
      --mad-k "${BENCH_MAD_K:-5}" \
      "$OUT_DIR/micro_parallel.json" \
      "$OUT_DIR/micro_engine.json" \
      "$OUT_DIR/servebench.json" \
      "$OUT_DIR/micro_hashtable.json" \
      "$OUT_DIR/micro_join.json" \
      "$OUT_DIR/mesh_scaling.json"
  say "check passed"
  exit 0
fi

say "merge into BENCH_micro.json"
# Merge, never overwrite wholesale: records from this run replace prior
# records with the same (experiment, config) key; every other prior
# record is preserved. An aborted or partial run therefore cannot erase
# trajectory data it did not itself regenerate. The write is atomic
# (temp + rename) so a crash mid-write keeps the old file intact.
python3 - "$OUT_DIR/micro_parallel.json" \
           "$OUT_DIR/micro_engine.json" \
           "$OUT_DIR/micro_morsel_gbench.json" \
           "$OUT_DIR/servebench.json" \
           "$OUT_DIR/micro_hashtable.json" \
           "$OUT_DIR/micro_join.json" \
           "$OUT_DIR/mesh_scaling.json" <<'PY'
import datetime
import json
import os
import socket
import subprocess
import sys

records = []

# micro_parallel, micro_engine, servebench, micro_hashtable, micro_join
# and ext_multi_gpu_mesh already emit the target record shape.
for arg in (1, 2, 4, 5, 6, 7):
    with open(sys.argv[arg]) as f:
        records.extend(json.load(f))

# Convert google-benchmark output: one record per benchmark entry, the
# benchmark name split into experiment (binary/family) and config (args).
with open(sys.argv[3]) as f:
    gbench = json.load(f)
for entry in gbench.get("benchmarks", []):
    if entry.get("run_type") == "aggregate":
        continue
    name, _, config = entry["name"].partition("/")
    records.append({
        "experiment": "micro_morsel/" + name,
        "config": config,
        "mean": entry.get("real_time", 0.0),
        "stderr": 0.0,
        "runs": int(entry.get("repetitions", 1) or 1),
    })

# Provenance: every fresh record carries where and when it was measured,
# so a trajectory mixing machines or stale checkouts is visible in the
# data rather than a mystery.
try:
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
except (OSError, subprocess.CalledProcessError):
    sha = "unknown"
stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ")
host = socket.gethostname()
for record in records:
    record["git_sha"] = sha
    record["recorded_at"] = stamp
    record["hostname"] = host

merged = {}
kept = 0
if os.path.exists("BENCH_micro.json"):
    try:
        with open("BENCH_micro.json") as f:
            for record in json.load(f):
                merged[(record["experiment"], record["config"])] = record
        kept = len(merged)
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        print(f"warning: ignoring unreadable BENCH_micro.json ({error})",
              file=sys.stderr)
for record in records:
    merged[(record["experiment"], record["config"])] = record

out = sorted(merged.values(),
             key=lambda r: (r["experiment"], r["config"]))
tmp_path = "BENCH_micro.json.tmp"
with open(tmp_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
os.replace(tmp_path, "BENCH_micro.json")
preserved = len(out) - len({(r["experiment"], r["config"])
                            for r in records})
print(f"wrote {len(out)} records to BENCH_micro.json "
      f"({len(records)} fresh, {preserved} preserved of {kept} prior)")
PY

say "done"

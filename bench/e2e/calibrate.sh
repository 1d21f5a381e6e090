#!/usr/bin/env bash
# Calibrate the end-to-end benchmark: run every workload RUNS times (default
# 10), each run with its own seed, alternating the workload order between
# rounds so slow drift of the machine hits every workload alike. Writes OUT
# (default bench/e2e/baseline/BENCH_e2e.json) with the git sha, build type,
# core count, reps, and per-metric median / IQR / min / max over the runs.
# The IQR, as a share of the median, is the spread the bounds in
# BENCHMARK.json are set from.
#
# usage: bench/e2e/calibrate.sh [RUNS] [OUT]    (from the repository root)
set -euo pipefail

runs="${1:-10}"
out="${2:-bench/e2e/baseline/BENCH_e2e.json}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=(bulk chain durable remote)
lines="build/bench-e2e/calibrate.jsonl"

mkdir -p "$(dirname "$lines")" "$(dirname "$out")"
: > "$lines"
for ((round = 0; round < runs; round++)); do
  order=("${workloads[@]}")
  if ((round % 2 == 1)); then
    order=(remote durable chain bulk)
  fi
  for w in "${order[@]}"; do
    seed=$((round + 1))
    result="$(python3 bench/e2e/run.py --workload "$w" --seed "$seed" \
              --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $result}" >> "$lines"
    echo "calibrate: round $((round + 1))/$runs $w done" >&2
  done
done

sha="$(git describe --always --dirty 2>/dev/null || echo unknown)"
python3 - "$lines" "$out" "$sha" "$seconds" <<'EOF'
import json
import os
import statistics
import sys

lines, out, sha, seconds = sys.argv[1:5]
rows = [json.loads(line) for line in open(lines)]
reports = {}
doc = {"bench": "e2e", "git_sha": sha, "run_seconds": float(seconds),
       "nproc": os.cpu_count(), "workloads": {}}
for row in rows:
    w = row["workload"]
    report = json.load(open(f"build/bench-e2e/out/{w}-seed{row['seed']}.json"))
    doc["build_type"] = report["build_type"]
    entry = doc["workloads"].setdefault(w, {"runs": 0, "reps_per_run": [],
                                            "correct": True, "metrics": {}})
    entry["runs"] += 1
    entry["reps_per_run"].append(report["reps_untraced"])
    entry["correct"] &= row["result"]["correct"]
    # Every end-to-end metric of the report, also those BENCHMARK.json
    # leaves out because their spread is too wide to bound.
    units = {name: m["unit"] for name, m in report["untraced_metrics"].items()}
    units["peak_rss_mb"] = "MB"
    for name, value in report["summary"].items():
        entry["metrics"].setdefault(name, {"unit": units[name], "values": []})
        entry["metrics"][name]["values"].append(value)
for entry in doc["workloads"].values():
    for m in entry["metrics"].values():
        v = m["values"]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        m.update(median=med, iqr=q[2] - q[0],
                 iqr_frac=(q[2] - q[0]) / med if med else 0.0,
                 min=min(v), max=max(v))
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
for w, entry in doc["workloads"].items():
    for name, m in entry["metrics"].items():
        print(f"{w:8s} {name:22s} median {m['median']:14.6g} {m['unit']:5s} "
              f"iqr {100 * m['iqr_frac']:6.2f}%")
print(f"written to {out}")
EOF

#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark and record a baseline.

    python3 perfbench/baseline.py

Runs perfbench/run.py untraced on every workload of BENCHMARK.json,
seeds 1 to 10, for its run_seconds (one run after another, never in
parallel), then once traced on seed 1. Prints, per workload and
end-to-end metric, the median, the quartiles (statistics.quantiles(n=4))
and the spread (q3 - q1) / median next to a third of the metric's bound,
and rewrites perfbench/baseline.json with the figures under the run
header. Exits 1 when any spread is above a third of its bound.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 3:
        sys.exit(f"{workload} seed {seed} trace {trace} failed "
                 f"(exit {proc.returncode})")
    return lines[0]["header"], lines[-1], wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    header = None
    worst = 0.0
    for w in (w["name"] for w in spec["workloads"]):
        values, walls = {}, []
        for seed in SEEDS:
            header, result, wall = run_once(w, seed, seconds, 0)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
        entry = {"wall_s": summarize(walls), "end_to_end": {}}
        print(f"\n{w}  (wall per run: median {statistics.median(walls):.1f} s)")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, vals in values.items():
            s = summarize(vals)
            entry["end_to_end"][name] = s
            worst = max(worst, s["spread"] / bounds[name])
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:22} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f} {bounds[name] / 3:8.4f}"
                  f"{flag}")
        _, result, _ = run_once(w, TRACED_SEED, seconds, 1)
        entry[f"per_layer_seed{TRACED_SEED}"] = {
            k: m["value"] for k, m in result["metrics"].items()}
        out["workloads"][w] = entry
    print(f"\nworst spread / bound: {worst:.3f}")

    header = {k: v for k, v in header.items()
              if k not in ("workload", "seed", "trace",
                           "comparable_with_baseline")}
    (HERE / "baseline.json").write_text(
        json.dumps({"header": header, **out}, indent=1) + "\n")
    print("wrote perfbench/baseline.json")
    return 0 if worst <= 1 / 3 else 1


if __name__ == "__main__":
    sys.exit(main())

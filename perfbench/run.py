#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the library sources under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
memcon_perfbench, checks that its result names every metric of
BENCHMARK.json with the right unit, and prints a header line, a digest
line and, last, the result object. Build output goes to stderr.

The exit code is the benchmark's: nonzero when a correctness gate
failed, when the build failed, or when the result is malformed. A
result that was produced is printed in every case; a malformed one is
marked "correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "closedloop", "memcond", "detect")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally. Returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "memcon_perfbench"


def host_identity():
    """The like-for-like header fields the binary cannot see."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    flags = {}
    cache = build_dir() / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            for key in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELWITHDEBINFO",
                        "CMAKE_CXX_COMPILER"):
                if line.startswith(key + ":"):
                    flags[key] = line.split("=", 1)[1]
    cxx_flags = " ".join(v for v in (flags.get("CMAKE_CXX_FLAGS", ""),
                                     flags.get("CMAKE_CXX_FLAGS_RELWITHDEBINFO", ""))
                         if v)
    return {"host": cpu, "cxx": flags.get("CMAKE_CXX_COMPILER", ""),
            "cxx_flags": cxx_flags}


# Header fields that must match for two results to be compared.
COMPARABLE_KEYS = ("host", "nproc", "compiler", "cxx_flags", "build_type",
                   "kernel_set", "size")


def comparability(header):
    """Compare the header against the committed baseline's."""
    path = HERE / "baseline.json"
    if not path.exists():
        return True, []
    base = json.loads(path.read_text()).get("header", {})
    differs = [k for k in COMPARABLE_KEYS if base.get(k) != header.get(k)]
    return not differs, differs


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, trace):
    """Problems with the result's shape; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')} != {unit}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    for name in got:
        if name not in want:
            problems.append(f"unexpected metric {name}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the test-suite size")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    workdir = build_dir() / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1

    raw = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        lines = [json.loads(l) for l in raw]
    except json.JSONDecodeError:
        lines = []
    if len(lines) < 3 or "header" not in lines[0] or "digest" not in lines[1]:
        log(f"malformed benchmark output (exit {proc.returncode}):\n{proc.stdout}")
        return 1
    header, result = lines[0]["header"], lines[-1]
    header.update(host_identity())
    ok, differs = comparability(header)
    header["comparable_with_baseline"] = ok
    if not ok:
        log("not comparable with perfbench/baseline.json: header differs in "
            + ", ".join(differs))

    problems = check_result(result, bool(args.trace))
    for p in problems:
        log(f"malformed result: {p}")
    print(json.dumps({"header": header}))
    print(raw[1])
    if problems:
        # Still printed, so the caller sees what was measured, but
        # marked as failing.
        print(json.dumps({**result, "correct": False}), flush=True)
        return proc.returncode or 1
    print(raw[-1], flush=True)  # verbatim: every digit as measured
    if not result["correct"]:
        log("correctness gate failed")
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

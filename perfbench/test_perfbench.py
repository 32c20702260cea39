#!/usr/bin/env python3
"""The benchmark's own tests: every workload at its tiny size.

    python3 perfbench/test_perfbench.py

Checks that each workload prints every end-to-end metric of
BENCHMARK.json with its unit, that the traced run prints every
per-layer metric, that tracing does not change the simulated digest,
that detect and closedloop digests do not depend on the SIMD kernel
set, that a correctness-gate failure still prints every metric but
marks the result failing and exits nonzero, and that the benchmark
refuses to run without the library sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIMULATED = ("refresh_reduction", "drop_frac")


def invoke(workload, trace, seed=7, env=None):
    """Run one tiny workload through run.py; returns (exit code, lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env, timeout=600)
    return proc.returncode, [json.loads(l) for l in proc.stdout.splitlines()
                             if l.strip()]


def bench(workload, trace, seed=7, env=None):
    """Run one tiny workload that must pass; returns (header, digest, result)."""
    code, lines = invoke(workload, trace, seed, env)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}:\n"
                             f"{lines}")
    return lines[0]["header"], lines[1]["digest"], lines[-1]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.plain = {w: bench(w, 0) for w in WORKLOADS}
        cls.traced = {w: bench(w, 1) for w in WORKLOADS}

    def test_end_to_end_metrics_printed_with_units(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w, (_, _, result) in self.plain.items():
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertGreaterEqual(result["attempted"], 1, w)
            got = result["metrics"]
            self.assertEqual(set(got), set(want), w)
            for name, unit in want.items():
                self.assertEqual(got[name]["unit"], unit, f"{w}.{name}")
                value = got[name]["value"]
                # The tiny size may drop nothing; host measurements
                # are never 0.
                lowest = 0 if name in SIMULATED else math.ulp(0)
                self.assertTrue(math.isfinite(value) and value >= lowest,
                                f"{w}.{name} = {value}")

    def test_traced_run_prints_every_layer(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w, (_, _, result) in self.traced.items():
            self.assertTrue(result["correct"], w)
            got = result["metrics"]
            self.assertEqual(set(got), set(want), w)
            for name, unit in want.items():
                self.assertEqual(got[name]["unit"], unit, f"{w}.{name}")
                # Every layer is timed, by this workload or by the tiny
                # pass of the one that exercises it.
                if name.endswith("_s"):
                    self.assertGreater(got[name]["value"], 0, f"{w}.{name}")
            self.assertGreater(got["bench.epoch_samples"]["value"], 0, w)

    def test_tracing_keeps_the_digest(self):
        for w in WORKLOADS:
            self.assertEqual(self.plain[w][1], self.traced[w][1], w)

    def test_header_is_like_for_like(self):
        for w, (header, _, _) in self.plain.items():
            for key in run.COMPARABLE_KEYS + ("seed",):
                self.assertIn(key, header, w)

    def test_digest_independent_of_kernel_set(self):
        env = dict(os.environ, MEMCON_FORCE_SCALAR="1")
        for w in ("detect", "closedloop"):
            header, digest, _ = bench(w, 0, env=env)
            self.assertTrue(header["kernel_set"].startswith("scalar"), w)
            self.assertEqual(digest, self.plain[w][1], w)

    def test_gate_failure_prints_result_and_fails(self):
        env = dict(os.environ, PERFBENCH_FORCE_VIOLATION="1")
        for trace in (0, 1):
            code, lines = invoke("detect", trace, env=env)
            self.assertNotEqual(code, 0, trace)
            result = lines[-1]
            self.assertFalse(result["correct"], trace)
            self.assertGreaterEqual(result["failed"], 1, trace)
            for name, m in result["metrics"].items():
                self.assertTrue(math.isfinite(m["value"]), f"{trace}.{name}")

    def test_refuses_to_run_without_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "detect",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, timeout=600)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark at tiny sizes (about two minutes on 2 CPUs).

    python3 perfbench/selftest.py

It checks that every workload emits every metric ``BENCHMARK.json``
names, with its unit; that a deliberately corrupted output is counted
as failed and makes the command exit non-zero; that the command
refuses to run where there is no program; and the compare step's
verdicts on synthetic result sets.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import compare  # noqa: E402
from run import WORKLOADS  # noqa: E402  (also the ones BENCHMARK.json omits)


def bench(*args: str, cwd: Path = CHECKOUT) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "5",
         "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return done.returncode, last, done.stdout + done.stderr


class EveryMetric(unittest.TestCase):
    def test_end_to_end_and_per_layer(self):
        for workload in WORKLOADS:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, last, output = bench(
                        "--workload", workload, "--trace", trace
                    )
                    self.assertEqual(code, 0, output)
                    self.assertEqual(
                        sorted(last), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    units = {e["name"]: e["unit"] for e in SPEC[group]}
                    self.assertEqual(set(last["metrics"]), set(units))
                    for name, metric in last["metrics"].items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertIsInstance(metric["value"], float, name)


class GateFires(unittest.TestCase):
    def test_corrupted_output_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, last, output = bench(
                    "--workload", workload, "--trace", "0", "--corrupt"
                )
                self.assertNotEqual(code, 0, output)
                self.assertFalse(last["correct"])
                self.assertGreaterEqual(last["failed"], 1)
                self.assertLess(last["metrics"]["correct_ratio"]["value"], 1.0)

    def test_refuses_without_a_program(self):
        bare = BENCH / ".work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
            shutil.copy(CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
            code, last, _ = bench("--workload", WORKLOADS[0], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class CompareVerdicts(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}

    @staticmethod
    def runs(values):
        return [
            {"workload": "w", "seed": seed, "trace": False,
             "metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}
            for seed, v in enumerate(values)
        ]

    def verdict(self, parent, change):
        return compare.rows(self.runs(parent), self.runs(change), self.SPEC)[0][-1]

    def test_verdicts(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(parent, [v - 20 for v in parent]), "improved")
        self.assertEqual(self.verdict(parent, [v + 1 for v in parent]), "no worse")
        self.assertEqual(self.verdict(parent, [v + 30 for v in parent]), "worse")
        noisy = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        self.assertEqual(self.verdict(noisy, noisy[::-1]), "unresolved")

    def test_ratio_has_its_base(self):
        row = compare.rows(self.runs([100] * 3), self.runs([90] * 3), self.SPEC)[0]
        self.assertIn("base: parent median 100 ms", row[5])


if __name__ == "__main__":
    unittest.main(verbosity=2)

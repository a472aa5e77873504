"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the root of a checkout with ``python3 bench/test_smoke.py`` (or
``python3 -m pytest bench/test_smoke.py``).  It takes about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EVENTS = 3


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--events", str(EVENTS)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.assertTrue(any(l.startswith("error_rate 0 ") for l in lines))
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in SPEC[key]})
                    for m in SPEC[key]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                        self.assertTrue(
                            any(l.startswith(m["name"] + " ") and l.split()[2] == m["unit"]
                                for l in lines),
                            f"{m['name']} not printed with its unit")
                        if key == "end_to_end":
                            self.assertGreater(metrics[m["name"]]["value"], 0)
                    if trace:
                        self.assertEqual(metrics["reference.mismatch_events"]["value"], 0)
                        expected_b = EVENTS if workload == "dense-overflow" else 0
                        self.assertEqual(
                            metrics["reference.mismatch_events_merge_b"]["value"], expected_b)

    def test_refuses_to_run_without_the_sources(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "bench", bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip(), proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/tests/test_perfbench.py      # from the repo root

Runs every workload at a tiny size (run.py --size tiny) and asserts that
  * every metric BENCHMARK.json names prints with its unit, untraced and
    traced, and the run is correct with no failed operation;
  * the exact counts of the traced run repeat exactly for the same seed;
  * in every traced run the layers' self times add up to the tracer's
    covered wall, and that covers at least 90% of the tracer's process
    wall seen from outside;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("game.builds", "engine.rounds", "engine.latency_evals",
                "engine.rows_filled", "engine.rows_pruned",
                "sweep.rng_splits", "persist.manifest_appends",
                "persist.eventlog_bytes", "serve.frames_per_trial")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return done


def parse(done) -> tuple[dict, dict]:
    """(result line, info lines by tag)."""
    lines = done.stdout.strip().splitlines()
    infos = {}
    for line in lines[:-1]:
        tag, _, payload = line.partition(": ")
        infos[tag] = json.loads(payload)
    return json.loads(lines[-1]), infos


class WorkloadTest(unittest.TestCase):
    def check_result(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_workloads(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                done = run(workload, 5, 0)
                self.assertEqual(done.returncode, 0, done.stderr)
                result, _ = parse(done)
                self.check_result(result, SPEC["end_to_end"])
                for spec in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][spec["name"]]["value"], 0,
                        spec["name"])

                traced = [run(workload, 5, 1) for _ in range(2)]
                parsed = []
                for done in traced:
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result, infos = parse(done)
                    self.check_result(result, SPEC["per_layer"])
                    parsed.append(infos["per-layer"])
                for name in EXACT_COUNTS:
                    self.assertEqual(parsed[0][name], parsed[1][name], name)

                for layers in parsed:
                    for closure in layers["closure"]:
                        # Nine-digit report values: equal to rounding.
                        self.assertAlmostEqual(closure["self_sum_s"],
                                               closure["covered_s"],
                                               delta=1e-8)
                        self.assertLessEqual(closure["covered_s"],
                                             closure["traced_wall_s"])
                        self.assertGreaterEqual(
                            closure["covered_s"],
                            0.9 * closure["traced_wall_s"])

    def test_fails_without_sources(self) -> None:
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests for the benchmark (run.py and its harness).

  * a perturbed reference digest is reported as a failure;
  * each workload's node-tick count equals the traced engine.ticks;
  * every metric name printed matches BENCHMARK.json, in both modes;
  * timers print in adaptive units, never as a bare 0.0000.

Usage: python3 perfbench/test_run.py   (builds first; ~1 min)
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "0.5"


def bench(workload, trace):
    """Run the benchmark; returns (exit code, last JSON, result.json)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(run.REFERENCE_SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    out = os.path.join(run.build_dir(), "out",
                       f"{workload}-s{run.REFERENCE_SEED}-t{trace}")
    return (proc.returncode, json.loads(lines[-1]),
            run.load_json(os.path.join(out, "result.json")))


class Runs(unittest.TestCase):
    """End-to-end runs, one per workload and mode, shared by the tests."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = bench(w, trace)

    def test_runs_are_correct(self):
        for key, (code, last, _) in self.runs.items():
            self.assertEqual(code, 0, key)
            self.assertTrue(last["correct"], key)
            self.assertEqual(last["failed"], 0, key)
            self.assertGreater(last["attempted"], 0, key)

    def test_node_ticks_equal_registry_ticks(self):
        for key, (_, _, result) in self.runs.items():
            self.assertGreater(result["node_ticks"], 0, key)
            self.assertEqual(result["node_ticks"],
                             result["registry_ticks"], key)
            self.assertEqual(
                sum(e["ticks"] for e in result["experiments"]),
                result["node_ticks"], key)

    def test_metric_names_match_benchmark_json(self):
        for (w, trace), (_, last, _) in self.runs.items():
            want = dict(run.metric_specs(trace))
            got = {k: m["unit"] for k, m in last["metrics"].items()}
            self.assertEqual(got, want, (w, trace))
        spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_perturbed_reference_digest_fails_the_run(self):
        reference = run.load_json(run.REFERENCE)
        exps = reference["workloads"]["node_crowd_admission"]
        first = sorted(exps)[0]
        exps[first] = "%016x" % (int(exps[first], 16) ^ 1)
        _, _, result = self.runs[("node_crowd_admission", 0)]
        correct, _, failed, _, errors = run.evaluate(
            result, 0, reference, run.REFERENCE_SEED)
        self.assertFalse(correct)
        self.assertGreater(failed, 0)
        self.assertTrue(any(e.startswith(first) for e in errors), errors)


class Evaluate(unittest.TestCase):
    """run.evaluate() on synthetic harness results; no build needed."""

    def result(self):
        names = [n for n, _ in run.metric_specs(0)]
        return {
            "workload": "node_paper", "attempted": 4, "failed": 0,
            "node_ticks": 10, "registry_ticks": 10,
            "end_to_end": {n: 1.5 for n in names},
            "per_layer": {n: 0 for n, _ in run.metric_specs(1)},
            "experiments": [
                {"id": "a", "digest": "00ff", "runs": 2,
                 "failed_runs": 0, "errors": []},
                {"id": "b", "digest": "0100", "runs": 2,
                 "failed_runs": 0, "errors": []}],
        }

    def test_matching_reference_passes(self):
        ref = {"seed": 1, "workloads": {"node_paper": {"a": "00ff",
                                                       "b": "0100"}}}
        correct, attempted, failed, metrics, errors = run.evaluate(
            self.result(), 0, ref, 1)
        self.assertTrue(correct, errors)
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(len(metrics), len(run.metric_specs(0)))

    def test_perturbed_digest_counts_every_run_failed(self):
        ref = {"seed": 1, "workloads": {"node_paper": {"a": "00fe",
                                                       "b": "0100"}}}
        correct, _, failed, _, errors = run.evaluate(
            self.result(), 0, ref, 1)
        self.assertFalse(correct)
        self.assertEqual(failed, 2)
        self.assertIn("a: digest 00ff != reference 00fe", errors)

    def test_reference_applies_only_at_its_seed(self):
        ref = {"seed": 1, "workloads": {"node_paper": {"a": "dead"}}}
        correct, _, failed, _, _ = run.evaluate(self.result(), 0, ref, 7)
        self.assertTrue(correct)
        self.assertEqual(failed, 0)

    def test_tick_mismatch_and_zero_metric_fail(self):
        r = self.result()
        r["registry_ticks"] = 11
        r["end_to_end"]["setup_s"] = 0
        correct, _, _, _, errors = run.evaluate(r, 0, {"seed": 1}, 7)
        self.assertFalse(correct)
        self.assertEqual(len(errors), 2, errors)

    def test_adaptive_time_units(self):
        self.assertEqual(run.fmt_value(8e-8, "s"), "80 ns")
        self.assertEqual(run.fmt_value(2.5e-5, "s"), "25 µs")
        self.assertEqual(run.fmt_value(0.0123, "s"), "12.3 ms")
        self.assertEqual(run.fmt_value(650.0, "us"), "650 µs")
        self.assertEqual(run.fmt_value(0.08, "us"), "80 ns")
        self.assertEqual(run.fmt_value(2.0, "s"), "2 s")


if __name__ == "__main__":
    unittest.main()

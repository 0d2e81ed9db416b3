"""Unit tests of run.py's own code: the quartile spread the steadiness mode
and its bounds check use, the steadiness mode's verdict, and the result
line it prints.

    python3 -m unittest perfbench/test_run.py
"""

import contextlib
import os
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.spread([5.0] * 10), 0.0)

    def test_known_quartiles(self):
        # Exclusive method on 1..9: q1 = 2.5, median = 5, q3 = 7.5.
        self.assertAlmostEqual(run.spread(list(range(1, 10))), 1.0)

    def test_scale_free(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(run.spread(values), run.spread([v * 1000 for v in values]))

    def test_zero_median_is_infinite(self):
        self.assertEqual(run.spread([-1.0, 0.0, 0.0, 0.0, 1.0]), float("inf"))


SPEC = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "sim.events_per_op", "unit": "count", "better": "lower"},
        {"name": "svc.cache.hit_ratio", "unit": "ratio", "better": "higher"},
    ],
}

RESULT = {
    "correct": True,
    "attempted": 120,
    "failed": 0,
    "metrics": {
        "p50_ms": {"value": 1.25, "unit": "ms", "samples": 120},
        "setup_s": {"value": 2.5, "unit": "s"},
        "p99_ms": {"value": 9.0, "unit": "ms"},
        "sim.events_per_op": {"value": 100.0, "unit": "count"},
    },
    "info": {},
}


class ResultLineTest(unittest.TestCase):
    def test_end_to_end_keys_exactly(self):
        line = run.result_line(RESULT, SPEC, trace=False)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {
            "p50_ms": {"value": 1.25, "unit": "ms"},
            "setup_s": {"value": 2.5, "unit": "s"},
        })

    def test_missing_end_to_end_metric_fails_the_run(self):
        result = dict(RESULT, metrics={"p50_ms": RESULT["metrics"]["p50_ms"]})
        with self.assertRaises(SystemExit):
            run.result_line(result, SPEC, trace=False)

    def test_unexercised_layer_reads_zero(self):
        line = run.result_line(RESULT, SPEC, trace=True)
        self.assertEqual(line["metrics"]["sim.events_per_op"]["value"], 100.0)
        self.assertEqual(line["metrics"]["svc.cache.hit_ratio"], {"value": 0, "unit": "ratio"})

    def test_failures_carried_through(self):
        result = dict(RESULT, correct=False, failed=3)
        line = run.result_line(result, SPEC, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 3)


class SteadyTest(unittest.TestCase):
    """steady() over a fake ftbench: which runs land in which set, and
    which spreads and set distances fail it."""

    def run_steady(self, value_of, runs=4, sets=2):
        calls = []

        def fake_run(out, workload, seed, seconds, trace, corrupt=False):
            calls.append((workload, seed))
            metrics = {name: {"value": value_of(name, seed), "unit": "x"}
                       for name in ("p50_ms", "setup_s")}
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": metrics, "info": {}}

        saved = run.run_ftbench
        run.run_ftbench = fake_run
        try:
            with open(os.devnull, "w") as devnull, \
                    contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                ok = run.steady(None, SPEC, runs, ["a", "b"], 1.0, sets)
        finally:
            run.run_ftbench = saved
        return ok, calls

    def test_workloads_take_turns_per_seed(self):
        _, calls = self.run_steady(lambda name, seed: 1.0, runs=2, sets=2)
        self.assertEqual(calls, [("a", 1), ("b", 1), ("a", 2), ("b", 2),
                                 ("a", 3), ("b", 3), ("a", 4), ("b", 4)])

    def test_steady_values_pass(self):
        ok, _ = self.run_steady(lambda name, seed: 1.0 + 0.001 * seed)
        self.assertTrue(ok)

    def test_noisy_setup_fails(self):
        ok, _ = self.run_steady(
            lambda name, seed: 1.0 if name == "p50_ms" else float(seed))
        self.assertFalse(ok)

    def test_sets_apart_fail(self):
        # Odd seeds (set 1) read 1.0, even seeds (set 2) read 1.5: each set
        # is steady, but their medians lie 50% apart.
        ok, _ = self.run_steady(lambda name, seed: 1.0 if seed % 2 else 1.5)
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()

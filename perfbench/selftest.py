"""Fast self-test of the benchmark harness, at minimal sizes.

Checks that every workload emits every metric ``BENCHMARK.json`` names,
with its unit, in both modes, and that each correctness check fails on a
corrupted output.  Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import unittest

import harness

sys.path.insert(0, harness.SRC)
os.environ["PERFBENCH_QUICK"] = "1"

import child_sweep  # noqa: E402  (needs the sources on the path)
import wl_cli  # noqa: E402
import wl_service  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    DEFINITION = json.load(_handle)


def bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace)],
        capture_output=True, cwd=harness.ROOT, timeout=170, check=True)
    return json.loads(completed.stdout.decode().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    """Every named metric, with its unit, for every workload and mode."""

    def check(self, trace: int, section: str) -> None:
        expected = {metric["name"]: metric["unit"]
                    for metric in DEFINITION[section]}
        for workload in DEFINITION["workloads"]:
            with self.subTest(workload=workload["name"], trace=trace):
                result = bench(workload["name"], trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {name: metric["unit"]
                     for name, metric in result["metrics"].items()},
                    expected)
                for metric in result["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]))

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class CorruptedOutputsFail(unittest.TestCase):
    """Each correctness check accepts the real output and rejects a
    corrupted one."""

    def setUp(self):
        self.work = harness.make_workdir()

    def tearDown(self):
        harness.remove_workdir(self.work)

    def test_cli_replay_stdout_and_cache_hit(self):
        op = ("fig3_radio", "json")
        cache, expected, _ = wl_cli.prime(self.work, dict([op]), 0)
        env = harness.child_env(cache)
        record = harness.Record("cli_replay")
        wl_cli.replay(op, env, self.work, expected, record)
        self.assertEqual(record.failed, 0)
        corrupted = {op: expected[op].replace(b"0", b"1", 1)}
        wl_cli.replay(op, env, self.work, corrupted, record)
        self.assertEqual(record.failed, 1)
        empty = harness.child_env(os.path.join(self.work, "empty-cache"))
        wl_cli.replay(op, empty, self.work, expected, record)
        self.assertEqual(record.failed, 2)  # computed, not a cache hit

    def test_sweep_points_and_reference(self):
        import repro.api as api
        spec = child_sweep.build_spec()
        result = api.Session(cache=False).sweep(spec)
        rows = [dict(row) for row in result.rows]
        self.assertTrue(all(child_sweep.point_ok(row) for row in rows))
        self.assertEqual(child_sweep.reference_check(rows, spec), "")
        for row in rows:
            row["mean_power_uw"] *= 1.0 + 1e-9
        self.assertNotEqual(child_sweep.reference_check(rows, spec), "")
        rows[0]["mean_power_uw"] = float("nan")
        self.assertFalse(child_sweep.point_ok(rows[0]))

    def test_service_sample_and_job_states(self):
        spec = wl_service.Jobs(3).burst(1)[0]
        from repro.api import Session
        text = Session(cache=False).run(spec["name"], seed=spec["seed"],
                                        **spec["params"]).to_json()
        for served, failures in ((text, 0), (text.replace("1", "2", 1), 1)):
            record = harness.Record("service_burst")
            wl_service.check_sample(FakeServer(served), [spec],
                                    {spec["seed"]: "job"}, random.Random(0),
                                    record)
            self.assertEqual(record.failed, failures)
        for state, failures in (("done", 0), ("failed", 1)):
            record = harness.Record("service_burst")
            wl_service.run_burst(FakeServer(text, state), [spec],
                                 random.Random(0), record)
            self.assertEqual(record.failed, failures)

    def test_exact_count_drift_fails(self):
        record = harness.Record("any")
        harness.check_exact([{"kernel.cca": 5}, {"kernel.cca": 5}], None,
                            record, "same")
        self.assertEqual(record.failed, 0)
        harness.check_exact([{"kernel.cca": 5}, {"kernel.cca": 6}], None,
                            record, "drift")
        self.assertEqual(record.failed, 1)


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = list(range(1, 101))
        tail = harness.tail(values)
        self.assertEqual(tail["value"], 90)
        self.assertEqual(sum(value > tail["value"] for value in values), 10)
        self.assertEqual(tail["percentile"], 90.0)

    def test_tail_never_below_median(self):
        self.assertEqual(harness.tail(list(range(1, 19)))["value"], 10)
        self.assertEqual(harness.tail([3, 1, 2])["value"], 3)


class FakeClient:
    """Stands in for ``ServiceClient``: one job, a fixed state and
    result text."""

    def __init__(self, text: str, state: str):
        self.text, self.state, self.created = text, state, False

    def submit(self, spec):
        created, self.created = not self.created, True
        return {"job_id": "job", "created": created}

    def jobs(self):
        return {"jobs": [{"job_id": "job", "state": self.state}]}

    def status(self, job_id):
        return {"state": self.state}

    def result_text(self, job_id):
        return self.text


class FakeServer:
    def __init__(self, text: str, state: str = "done"):
        self.client = FakeClient(text, state)


if __name__ == "__main__":
    harness.check_checkout()
    unittest.main()

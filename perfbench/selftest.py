"""Self-tests of the benchmark (not of the program).

Run from the root of the repository::

    python3 perfbench/selftest.py

They run every workload at LUBM(1) for one second, traced and untraced,
and check that each emits exactly the metrics ``BENCHMARK.json`` names,
with their units; that a corrupted response digest is counted as an
error; that host-speed scaling cancels a synthetic drift; and that no
process a run starts outlives it.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import harness  # noqa: E402
from data import LubmInput  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


class WorkloadsEmitDeclaredMetrics(unittest.TestCase):
    def _check(self, name: str, traced: bool) -> None:
        outcome = run.run_workload(name, seed=3, seconds=1.0, traced=traced,
                                   universities=1)
        result = outcome["result"]
        section = "per_layer" if traced else "end_to_end"
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(units, _declared(section))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        if not traced:
            for key, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, key)

    def test_every_workload_is_declared(self):
        self.assertEqual(
            sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"])
        )

    def test_paper_tables(self):
        self._check("paper-tables", traced=False)
        self._check("paper-tables", traced=True)

    def test_serve_http(self):
        self._check("serve-http", traced=False)
        self._check("serve-http", traced=True)

    def test_update_mix(self):
        self._check("update-mix", traced=False)
        self._check("update-mix", traced=True)

    def test_sharded_pool(self):
        self._check("sharded-pool", traced=False)
        self._check("sharded-pool", traced=True)


class CorruptedDigestIsAnError(unittest.TestCase):
    def test_corrupted_digest_raises_error_rate(self):
        workload = WORKLOADS["paper-tables"](LubmInput(3, universities=1))
        harness.timed_setup(workload.setup)
        attempted = 0
        for _ in range(20):
            _, _, _, after = workload.next_op()
            after()
            attempted += 1
        key = next(iter(workload.verifier.observed))
        workload.verifier.observed[key][0] = "0" * 40
        workload.verify()
        workload.teardown()
        self.assertEqual(workload.verifier.mismatches, 1)
        self.assertGreater(workload.verifier.mismatches / attempted, 0)

    def test_clean_run_has_no_mismatch(self):
        workload = WORKLOADS["sharded-pool"](LubmInput(3, universities=1))
        harness.timed_setup(workload.setup)
        try:
            for _ in range(12):
                workload.next_op()[3]()
            workload.verify()
        finally:
            workload.teardown()
        self.assertEqual(workload.verifier.mismatches, 0)
        self.assertGreater(workload.verifier.checked, 0)


class NoProcessOutlivesARun(unittest.TestCase):
    def test_worker_pools_and_resource_tracker_are_stopped(self):
        run.run_workload("sharded-pool", seed=3, seconds=0.5, traced=False,
                         universities=1)
        # The shared-memory resource tracker is still running here.
        self.assertTrue(run.child_pids())
        run.stop_children()
        self.assertEqual(run.child_pids(), [])


class ProbeScaling(unittest.TestCase):
    def test_scaling_cancels_synthetic_drift(self):
        # Work that takes 1.0 ms on the reference host, timed on a host
        # whose speed drifts; the probe drifts with it.
        slowness = [1.0, 1.3, 1.6, 1.1, 0.9, 1.45]
        samples = harness.Samples()
        for before, after in zip(slowness, slowness[1:]):
            host = (before + after) / 2
            factor = harness.scale_for(
                harness.PROBE_REF_MS * before, harness.PROBE_REF_MS * after
            )
            samples.add_slice([("read", "c", 1.0e-3 * host)] * 4, factor)
        for value in samples.scaled[("read", "c")]:
            self.assertAlmostEqual(value, 1.0, places=9)
        raw = samples.raw[("read", "c")]
        self.assertGreater(max(raw) / min(raw), 1.4)

    def test_measure_scales_each_slice_by_its_probes(self):
        readings = iter([2 * harness.PROBE_REF_MS] * 1000)
        original = harness.probe_ms
        harness.probe_ms = lambda reps=harness.PROBE_REPS: next(readings)
        try:
            samples = harness.Samples()
            harness.measure(
                0.3, lambda: ("read", "c", 0.002, None), lambda index: samples
            )
        finally:
            harness.probe_ms = original
        self.assertGreater(samples.ops, 0)
        for value in samples.scaled[("read", "c")]:
            self.assertAlmostEqual(value, 1.0, places=9)


def tearDownModule():
    run.stop_children()


if __name__ == "__main__":
    unittest.main(verbosity=2)

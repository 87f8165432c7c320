#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload, untraced
and traced, must report every metric BENCHMARK.json names with its
unit, fail no allocator call, and reconcile the allocator's books.

    python3 perfbench/selftest.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 2


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()

    def check(self, workload, trace):
        res = run.measure(workload, seed=7, seconds=SECONDS, trace=trace,
                          tiny=True, build_path=self.build)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in spec))
        for m in spec:
            value, unit = res["metrics"][m["name"]]
            self.assertEqual(unit, m["unit"], m["name"])
            self.assertTrue(math.isfinite(value), m["name"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["info"]["failed_ops_frac"][0], 0.0)
        if trace:
            self.assertEqual(len(res["checks"]), 3)
        for check, ok in res["checks"].items():
            self.assertTrue(ok, "reconciliation failed: " + check)
        self.assertTrue(res["correct"])
        # The JSON line the contract asks for has exactly these keys.
        self.assertEqual(sorted(run.summary(res)),
                         ["attempted", "correct", "failed", "metrics"])


def _add(workload, trace):
    def test(self):
        self.check(workload, trace)
    setattr(TinyRuns, "test_%s_trace%d" % (workload, trace), test)


for _workload in run.WORKLOADS:
    for _trace in (0, 1):
        _add(_workload, _trace)


if __name__ == "__main__":
    unittest.main()

"""Unit tests of run.py's result handling, on synthetic records.

    python3 perfbench/run.py --self-test
"""

import importlib.util
import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stdout

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)

HOST = {"nproc": 4, "cpu": "Some CPU", "avx2": True, "kernel": "avx2",
        "compiler": "gcc 12.2.0", "build_type": "Release"}


def record(value, workload="serve_open", **host):
    h = dict(HOST, git_sha="abc")
    h.update(host)
    return {"workload": workload, "trace": 0, "host": h,
            "metrics": {"p50_us.light": {"value": value, "unit": "us", "n": 1000}}}


class FingerprintTest(unittest.TestCase):
    def test_equal_hosts_compare(self):
        self.assertIsNone(run.fingerprint_mismatch([record(1), record(2)]))

    def test_git_sha_is_not_part_of_the_host(self):
        self.assertIsNone(run.fingerprint_mismatch([record(1), record(2, git_sha="def")]))

    def test_each_host_fact_refuses(self):
        for key, other in [("nproc", 8), ("cpu", "Other CPU"), ("avx2", False),
                           ("kernel", "word64"), ("compiler", "clang 15"),
                           ("build_type", "Debug")]:
            msg = run.fingerprint_mismatch([record(1), record(2, **{key: other})])
            self.assertIsNotNone(msg, key)
            self.assertIn(key, msg)

    def test_compare_refuses_mixed_hosts(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            with open(a, "w") as f:
                json.dump(record(100), f)
            with open(b, "w") as f:
                json.dump(record(100, nproc=2), f)
            out = io.StringIO()
            with redirect_stdout(out):
                self.assertEqual(run.compare([a], [b]), 2)
            self.assertIn("refusing", out.getvalue())

    def test_compare_flags_a_regression_beyond_its_bound(self):
        bound = {m["name"]: m for m in run.load_spec()["end_to_end"]}["p50_us.light"]["bound"]
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            with open(a, "w") as f:
                json.dump(record(100.0), f)
            with open(b, "w") as f:
                json.dump(record(100.0 * (1 + 2 * bound)), f)
            with redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare([a], [b]), 1)
                self.assertEqual(run.compare([a], [a]), 0)


class ShapeTest(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "a", "unit": "s"}],
            "per_layer": [{"name": "x.y", "unit": "count"}]}

    def test_end_to_end_must_all_be_measured(self):
        _, errors = run.shape_metrics({}, self.SPEC, trace=0)
        self.assertEqual(len(errors), 1)

    def test_unexercised_layers_read_zero(self):
        out, errors = run.shape_metrics({"a": {"value": 1.0, "unit": "s", "n": 3}},
                                        self.SPEC, trace=1)
        self.assertEqual(errors, [])
        self.assertEqual(out, {"x.y": {"value": 0.0, "unit": "count", "n": 0}})

    def test_unit_and_name_mismatches_are_errors(self):
        _, errors = run.shape_metrics({"a": {"value": 1.0, "unit": "ms", "n": 1},
                                       "b": {"value": 1.0, "unit": "s", "n": 1}},
                                      self.SPEC, trace=0)
        self.assertEqual(len(errors), 2)


if __name__ == "__main__":
    unittest.main()

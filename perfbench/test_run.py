"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the driver (as run.py does) and checks that the correctness gate
fires on a tampered payment in every workload, that a clean short run
prints a well-formed result, and that the compare step refuses records
from different hosts.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def driver(*args):
    return subprocess.run([run.DRIVER, *args], capture_output=True,
                          text=True, timeout=run.DRIVER_TIMEOUT_S,
                          cwd=run.ROOT)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("perfbench_driver did not build")

    def test_gate_self_test(self):
        proc = driver("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_tampered_payment_fails_the_gate(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = driver("--workload", workload, "--seed", "5",
                              "--seconds", "1", "--trace", "0", "--tamper")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("correctness gate FAILED on workload %s seed 5"
                              % workload, proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)

    def test_clean_run_prints_declared_metrics(self):
        proc = driver("--workload", "fleet_zipf", "--seed", "5",
                      "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        last = proc.stdout.splitlines()[-1]
        self.assertEqual(run.check_result(last, 0, run.load_spec()), "")
        self.assertTrue(json.loads(last)["correct"])

    def test_compare_refuses_other_hosts(self):
        host = {"nproc": 4, "cpu_model": "A", "avx512": True,
                "build_type": "Release", "compiler": "GNU-12"}
        record = {"workload": "cold_sweep", "seed": 1, "trace": 0,
                  "host": host, "metrics": {}}
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            base = os.path.join(tmp, "base.jsonl")
            head = os.path.join(tmp, "head.jsonl")
            with open(base, "w") as f:
                f.write(json.dumps(record) + "\n")
            record["host"] = dict(host, avx512=False)
            with open(head, "w") as f:
                f.write(json.dumps(record) + "\n")
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "compare",
                 base, head], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("different hosts", proc.stderr)


if __name__ == "__main__":
    unittest.main()

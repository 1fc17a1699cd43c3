"""The benchmark's own test, at smoke size (tiny orders); finishes in seconds.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("export-many", "export-large", "validate-mix")
# never run while the benchmark was built; guards against seed-specific tuning
HELD_OUT_SEED = 2718


def _bench(*args, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--smoke", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class BenchmarkTest(unittest.TestCase):
    def test_end_to_end_run(self):
        for name in WORKLOADS:
            result = _result("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run(self):
        metrics = {}
        for name in WORKLOADS:
            result = _result("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
            self.assertTrue(result["correct"])
            expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
            metrics[name] = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["validate-mix"]["connectivity.generate.calls"], 0)
        self.assertGreater(metrics["validate-mix"]["validation.check_pairwise_disjoint.calls"], 0)
        for name in ("export-many", "export-large"):
            self.assertEqual(metrics[name]["validation.check_containment_sampling.calls"], 0)
            self.assertGreater(metrics[name]["lattice.node_id.calls"], 0)
        self.assertGreater(metrics["export-large"]["cli.run.self_s"], 0)
        self.assertGreater(metrics["export-large"]["validation.build_face_incidence.self_s"], 0)
        for values in metrics.values():
            self.assertTrue(all(values[f"{layer}.errors"] == 0
                                for layer in ("cli", "connectivity", "lattice", "validation", "io")))

    def test_held_out_seed_has_no_errors(self):
        result = _result("--workload", "all", "--seed", str(HELD_OUT_SEED), "--seconds", "1")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_fails_without_the_package(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "export-many", "--seed", "7", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

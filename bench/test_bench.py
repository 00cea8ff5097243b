"""Self-tests of the benchmark: manifest, oracles, smoke runs, exact counters.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)

The smoke tests start fresh benchmark processes at tiny sizes and take about
ten seconds together.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from worker import EXACT_COUNTERS, pass_count  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def bench_json(*args: str) -> dict:
    code, out = bench(*args)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


class ManifestTest(unittest.TestCase):
    def setUp(self):
        self.manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_names(self):
        m = self.manifest
        self.assertEqual(set(m), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(m["command"], ["python3", "bench/run.py"])
        self.assertEqual([w["name"] for w in m["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(wl.WORKLOADS))
        for w in m["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= m["run_seconds"] <= 60)

    def test_metrics_match_the_benchmark(self):
        e2e, layer = self.manifest["end_to_end"], self.manifest["per_layer"]
        self.assertEqual({x["name"]: x["unit"] for x in e2e}, run.END_TO_END)
        self.assertEqual({x["name"]: x["unit"] for x in layer}, run.PER_LAYER)
        for x in e2e:
            self.assertEqual(set(x), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < x["bound"] <= 0.25)
        for x in layer:
            self.assertEqual(set(x), {"name", "unit", "better"})
        for x in e2e + layer:
            self.assertRegex(x["name"], NAME)
            self.assertRegex(x["unit"], UNIT)
            self.assertIn(x["better"], ("higher", "lower"))
        setup = next(x for x in e2e if x["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(x["bound"] for x in e2e))

    def test_known_defect_is_named(self):
        why = next(w["why"] for w in self.manifest["workloads"] if w["name"] == "protocol")
        self.assertIn("--outcomes=--", why)


class OracleTest(unittest.TestCase):
    """Each oracle accepts the real output and rejects a corrupted one."""

    @classmethod
    def setUpClass(cls):
        import mss
        import mss.cli  # noqa: F401

        cls.mss = mss

    def assert_rejects(self, workload, item, output):
        with self.assertRaises(wl.OracleFailure):
            wl.check_item(workload, item, output)

    def test_experiment(self):
        item = wl.build_items("experiment", 3, smoke=True)[0]
        code, out, err = wl.run_item(self.mss, item)
        wl.check_item("experiment", item, (code, out, err))
        payload = json.loads(out)
        payload["rows"][0]["c_charlie"] += 1e-3
        self.assert_rejects("experiment", item, (code, json.dumps(payload), err))

    def test_certify(self):
        item = wl.build_items("certify", 3, smoke=True)[0]
        code, out, err = wl.run_item(self.mss, item)
        wl.check_item("certify", item, (code, out, err))
        payload = json.loads(out)
        payload["sigma_gap"] = math.nan
        self.assert_rejects("certify", item, (code, json.dumps(payload), err))

    def test_magic2q(self):
        from mss.qcore import DensityMatrix

        psi = np.kron(*[np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)] * 2)
        mat = np.outer(psi, psi.conj())
        item = wl.Item(rho=DensityMatrix(mat), expect={"kind": "phase_product", "mat": mat})
        result = wl.run_item(self.mss, item)
        wl.check_item("magic2q", item, result)
        self.assertGreater(result.c_value, 0.1)
        wrong_y = dataclasses.replace(result, dual_witness=1.001 * result.dual_witness)
        self.assert_rejects("magic2q", item, wrong_y)

    def test_stabilizer_orbit_matches_the_package_order(self):
        from mss.stabilizer import enumerate_stabilizer_states

        ours = wl.vertex_matrix_2q()
        theirs = enumerate_stabilizer_states(2).vertex_matrix
        self.assertEqual(ours.shape, (16, 60))
        self.assertLess(float(np.max(np.abs(ours - theirs))), 1e-12)

    def test_protocol_counts_the_double_dash_refusal(self):
        argv = ["run", "--phi=0.7", "--n", "3", "--outcomes=--", "--format", "json"]
        item = wl.Item(argv=argv, expect={"phi": 0.7, "n": 3, "outcomes": "--"})
        output = wl.run_item(self.mss, item)
        if output[0] == 0:  # the defect has been fixed: the oracle must pass
            wl.check_item("protocol", item, output)
            return
        with self.assertRaises(wl.OracleFailure) as ctx:
            wl.check_item("protocol", item, output)
        self.assertTrue(wl.is_known_defect(str(ctx.exception)))

    def test_protocol_other_failures_are_not_known(self):
        argv = ["run", "--phi=0.7", "--n", "4", "--outcomes=-+-", "--format", "json"]
        item = wl.Item(argv=argv, expect={"phi": 0.7, "n": 4, "outcomes": "-+-"})
        code, out, err = wl.run_item(self.mss, item)
        wl.check_item("protocol", item, (code, out, err))
        payload = json.loads(out)
        payload["final_c"] += 1e-3
        with self.assertRaises(wl.OracleFailure) as ctx:
            wl.check_item("protocol", item, (code, json.dumps(payload), err))
        self.assertFalse(wl.is_known_defect(str(ctx.exception)))
        with self.assertRaises(wl.OracleFailure) as ctx:
            wl.check_item("protocol", item, (2, "", "mss: refused"))
        self.assertFalse(wl.is_known_defect(str(ctx.exception)))

    def test_items_depend_only_on_the_seed(self):
        for name in wl.WORKLOADS:
            a = wl.build_items(name, 7, smoke=True)
            b = wl.build_items(name, 7, smoke=True)
            c = wl.build_items(name, 8, smoke=True)
            key = (lambda items: [i.argv or i.expect["mat"].tobytes() for i in items])
            self.assertEqual(key(a), key(b))
            self.assertNotEqual(key(a), key(c))

    def test_failed_count_does_not_depend_on_the_seed(self):
        runs = wl.FULL["protocol"]["runs_per_n"]
        for seed in range(20):
            items = wl.build_items("protocol", seed)
            outcomes = [i.expect["outcomes"] for i in items if "outcomes" in i.expect]
            self.assertEqual(outcomes.count("--"), runs // 4, seed)
            for n in range(3, 7):
                strings = {i.expect["outcomes"] for i in items
                           if i.expect.get("n") == n}
                self.assertEqual(len(strings), min(runs, 2 ** (n - 1)), (seed, n))

    def test_pass_count_depends_only_on_the_seconds(self):
        for name in wl.WORKLOADS:
            self.assertEqual(pass_count(name, 0.001, False), 1)
            self.assertEqual(pass_count(name, 0.001, True), 1)
            self.assertLessEqual(pass_count(name, 20, True), pass_count(name, 20, False))
        self.assertEqual(pass_count("protocol", 20, False), 11)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [("cli.main", 0.0, 10.0, -1, 0, None),
                 ("magic.wigner_distance", 1.0, 6.0, 0, 0, None),
                 ("simplex.solve_lp", 2.0, 5.0, 1, 0, (9, 4)),
                 ("qcore.dm_construct", 7.0, 8.0, 0, 0, None)]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 3.0, 1.0])
        agg = tracer.aggregate(spans, 10.0)
        self.assertEqual(agg["simplex.solves"], 1)
        self.assertEqual(agg["simplex.pivots"], 4)
        self.assertEqual(agg["trace.self_coverage"], 1.0)

    def test_install_is_undone(self):
        import mss.magic
        import mss.tomo

        before = (mss.tomo.wigner_distance, mss.magic.solve_lp)
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(mss.tomo.wigner_distance, before[0])
        self.assertIs(mss.tomo.wigner_distance, mss.magic.wigner_distance)
        t.uninstall()
        self.assertEqual((mss.tomo.wigner_distance, mss.magic.solve_lp), before)


class SmokeTest(unittest.TestCase):
    """Every workload end to end, in fresh processes, at tiny sizes."""

    def test_untraced_run_prints_every_metric(self):
        results = bench_json("--workload", "all", "--smoke", "--seed", "5")
        self.assertEqual(set(results), set(run.WORKLOADS))
        for name, res in results.items():
            self.assertTrue(res["correct"], name)
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(set(res["metrics"]), set(run.END_TO_END))
            for metric in res["metrics"].values():
                self.assertGreater(metric["value"], 0)

    def test_traced_counters_repeat_exactly(self):
        first = bench_json("--workload", "all", "--smoke", "--trace", "1", "--seed", "5")
        second = bench_json("--workload", "all", "--smoke", "--trace", "1", "--seed", "5")
        for name in run.WORKLOADS:
            a, b = first[name]["metrics"], second[name]["metrics"]
            self.assertTrue(first[name]["correct"], name)
            self.assertEqual(set(a), set(run.PER_LAYER))
            for counter in EXACT_COUNTERS:
                self.assertEqual(a[counter]["value"], b[counter]["value"], (name, counter))
            self.assertGreater(a["trace.self_coverage"]["value"], 0.95, name)
            self.assertLessEqual(a["trace.self_coverage"]["value"], 1.0, name)
        boot = wl.SMOKE["experiment"]["boot"]
        exp = first["experiment"]["metrics"]
        self.assertEqual(exp["simplex.solves"]["value"],
                         wl.SMOKE["experiment"]["items"] * (boot + 2))
        self.assertEqual(exp["tomo.bootstrap.replicas"]["value"],
                         wl.SMOKE["experiment"]["items"] * boot)
        self.assertEqual(first["certify"]["metrics"]["steering.lp_solves_per_replica"]["value"],
                         3.0)
        self.assertGreater(first["magic2q"]["metrics"]["simplex.2q.solve_us_p50"]["value"], 0)

    def test_refuses_without_package_source(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("tmp*", "traces", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "protocol", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers the span arithmetic, the restoring of traced names, the output
checks (each must reject a deliberately perturbed artifact) and the
agreement between BENCHMARK.json and the metrics run.py prints.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lenspace.cli  # noqa: E402
from lenspace.generators import generate, parse_space_spec  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


def _cli(out_dir, *args):
    return lenspace.cli.main(["--out-dir", out_dir, *args])


def _rewrite(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _namespace_snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "lenspace" or name.startswith("lenspace.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    snap[(name, key, k)] = id(v)
    return snap


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, None],
            ["x", 1.0, 4.0, 0, None],
            ["b", 3.0, 6.0, 0, None],     # overlaps x: union [1, 6]
            ["x", 1.5, 2.0, 1, None],     # nested in a span of the same name
            ["c", 9.0, 12.0, 0, None],    # clipped to the parent: [9, 10]
        ]
        self.assertEqual(self_times(spans), [4.0, 2.5, 3.0, 0.5, 3.0])
        summary = summarize(spans)
        self.assertEqual(summary["x"]["calls"], 2)
        self.assertEqual(summary["x"]["incl_s"], 3.0)   # outermost call only
        self.assertEqual(summary["x"]["self_s"], 3.0)
        self.assertEqual(summary["root"]["incl_s"], 10.0)


class Tracing(unittest.TestCase):
    def test_wrappers_restored_and_spans_complete(self):
        before = _namespace_snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(lenspace.cli.w2, "__perfbench_original__"))
            self.assertTrue(hasattr(lenspace.inequalities._RATIOS["lsi"],
                                    "__perfbench_original__"))
            with tempfile.TemporaryDirectory() as tmp:
                code = lenspace.cli.main(["--out-dir", tmp, "constants", "--space",
                                          "gaussian_interval:9:1:4", "--budget", "1"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertEqual(_namespace_snapshot(), before)
        s = summarize(tracer.spans)
        for name in ("cli.main", "generators.generate", "space.build_from_graph",
                     "space.shortest_path", "transport.w2", "inequalities.lsi_ratio",
                     "inequalities.estimate_constant:talagrand"):
            self.assertGreater(s.get(name, {}).get("calls", 0), 0, name)
        root = s["cli.main"]["incl_s"]
        self.assertAlmostEqual(sum(e["self_s"] for e in s.values()), root, delta=1e-9)


class Checks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def test_references_agree(self):
        rng = np.random.default_rng(3)
        pos = np.sort(rng.uniform(-2, 2, 12))
        a, b = rng.gamma(1.0, size=12), rng.gamma(1.0, size=12)
        a, b = a / a.sum(), b / b.sum()
        lp = wl.reference_w2_sq((pos[:, None] - pos[None, :]) ** 2, a, b)
        self.assertAlmostEqual(wl.quantile_w2_sq(pos, a, b), lp, delta=1e-12)
        torus = generate(parse_space_spec("torus2d:4:5"))
        np.testing.assert_allclose(wl.torus_dist(4, 5), torus.dist, atol=1e-12)
        circle = generate(parse_space_spec("circle:16"))
        np.testing.assert_allclose(wl.circle_dist(16), circle.dist, atol=1e-12)

    def test_path_transport_perturbed(self):
        self.assertEqual(_cli(self.out, "transport", "--space", wl.GAUSS,
                              "--mu0", "tilt:1", "--mu1", "nu"), 0)
        self.assertEqual(wl.check_path_transport(self.out), [])
        path = os.path.join(self.out, "transport.json")
        _rewrite(path, lambda d: d.update(distance=d["distance"] * (1 + 1e-7)))
        self.assertTrue(wl.check_path_transport(self.out))

    def test_torus_transport_perturbed(self):
        n, m = wl.TORUS_T
        paths = [os.path.join(self.out, f"mu{k}.csv") for k in (0, 1)]
        for k, p in enumerate(paths):
            wl.write_marginal(p, np.random.default_rng([0, k]).gamma(1.0, size=n * m))
        check = wl.check_torus_transport(*paths, wl.torus_dist(n, m) ** 2)
        self.assertEqual(_cli(self.out, "transport", "--space", f"torus2d:{n}:{m}",
                              "--mu0", paths[0], "--mu1", paths[1]), 0)
        self.assertEqual(check(self.out), [])
        path = os.path.join(self.out, "transport.json")
        with open(path) as fh:
            good = json.load(fh)

        def moved_mass(d):
            d["coupling"][0][2] += 1e-7
        _rewrite(path, moved_mass)
        self.assertTrue(check(self.out))
        # a cheaper plan that is still consistent with itself: only the
        # reference LP can tell the cost is wrong
        with open(path, "w") as fh:
            json.dump(dict(good, cost=good["cost"] * (1 - 1e-6),
                           distance=math.sqrt(good["cost"] * (1 - 1e-6))), fh)
        self.assertTrue(any("reference LP" in f for f in check(self.out)))

    def test_constants_and_chain_perturbed(self):
        good = {"K_estimates": {"lsi": 0.96, "talagrand": 0.97, "poincare": 0.99},
                "checks": {"reproducibility_failures": []}}
        for name in good["K_estimates"]:
            open(os.path.join(self.out, f"witness_{name}.csv"), "w").close()
        check = wl.check_constants(("lsi", "talagrand", "poincare"))
        path = os.path.join(self.out, "constants.json")
        for edit, bad in ((lambda d: None, False),
                          (lambda d: d["K_estimates"].update(lsi=1.2), True),
                          (lambda d: d["K_estimates"].update(lsi=1.06, talagrand=0.95), True)):
            doc = json.loads(json.dumps(good))
            edit(doc)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.assertEqual(bool(check(self.out)), bad)

        self.assertEqual(_cli(self.out, "chain", "--space", "gaussian_interval:21:1:4",
                              "--K", "0.5", "--n-random", "1", "--trace-fields", "2"), 0)
        self.assertEqual(wl.check_chain(self.out), [])
        _rewrite(os.path.join(self.out, "chain.json"),
                 lambda d: d["traces"]["phi"].update(endpoint_identity_gap=1e-9))
        self.assertTrue(wl.check_chain(self.out))

    def test_regularity_perturbed(self):
        spec = "torus2d:{}:{}".format(*wl.TORUS_R)
        self.assertEqual(_cli(self.out, "gen", "--spec", spec), 0)
        self.assertEqual(_cli(self.out, "doubling", "--space", spec, "--r-min", "0.3",
                              "--r-max", "1.5", "--field", "random", "--radius", "0.7"), 0)
        self.assertEqual(wl.check_gen_torus(self.out), [])
        self.assertEqual(wl.check_doubling_torus(self.out), [])
        _rewrite(os.path.join(self.out, "space.json"), lambda d: d["edges"].pop())
        _rewrite(os.path.join(self.out, "doubling.json"),
                 lambda d: d["space"].update(midpoint_defect=d["space"]["mesh_h"]))
        self.assertTrue(wl.check_gen_torus(self.out))
        self.assertTrue(wl.check_doubling_torus(self.out))

    def test_semigroup_perturbed(self):
        n = wl.CIRCLE_N
        f = np.cos(2 * math.pi * np.arange(n) / n)
        d2 = wl.circle_dist(n) ** 2
        times = [0.1, 1.0]
        fields = [(f[None, :] + d2 / (2 * t)).min(axis=1).tolist() for t in times]
        doc = {"checks": {"lipschitz_bound_failures": []},
               "trace": {"times": times, "fields": fields, "convergence_defect": 0.0,
                         "convergence_bound": 1.0},
               "defect_vs_mesh": [[0.4, 1e-3], [0.2, 2.5e-4], [0.1, 6e-5], [0.05, 1.5e-5]]}
        path = os.path.join(self.out, "semigroup.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.assertEqual(wl.check_semigroup_circle(self.out), [])
        self.assertEqual(wl.check_defect_ladder(self.out), [])
        doc["trace"]["fields"][1][5] += 1e-9
        doc["defect_vs_mesh"][3][1] = 5e-5
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.assertTrue(wl.check_semigroup_circle(self.out))
        self.assertTrue(wl.check_defect_ladder(self.out))


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_metrics_and_workloads_match(self):
        bench = self.bench
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))

    def test_format(self):
        bench = self.bench
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertIn(bench["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [x["name"] for x in bench["workloads"] + bench["end_to_end"]
                 + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()

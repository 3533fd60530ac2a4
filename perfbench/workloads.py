"""The benchmark's workloads: seeded inputs, command lists and output checks.

A workload is a fixed list of ``lenspace`` CLI commands.  ``WORKLOADS``
maps its name to a builder that turns a seed into that list, writing any
input files the commands read into a given directory; the program only
ever sees those files and flags.  Each command carries a check that
reads the command's artifacts and returns a list of failure messages
(empty when the outputs are correct).  The references the checks
compare against are computed here, from the spec geometry alone, and not
with lenspace code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

GAUSS = "gaussian_interval:81:1:4"
TORUS_T = (20, 20)      # transport solves: 400 points, 160,000 LP variables
TORUS_R = (24, 24)      # regularity tools: 576 points
CIRCLE_N = 1024
LADDER_N = 128          # defect ladder 128 -> 256 -> 512 -> 1024

COUPLING_TOL = 1e-9     # marginal and stored-cost agreement
REFERENCE_TOL = 1e-9    # relative agreement with the benchmark's own LP
ORACLE_1D_TOL = 1e-8    # path W2 distance vs the quantile coupling
APPLY_TOL = 1e-10       # Q_t f vs the dense minimum on the analytic metric


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check(out_dir)`` returns failure messages."""

    args: tuple
    check: Callable[[str], list]

    @property
    def name(self) -> str:
        return self.args[0]


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _cli_seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 7919])
    return [str(int(s)) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


# ---------------------------------------------------------------- references

def gauss_positions(n=81, width=4.0) -> np.ndarray:
    return np.linspace(-width, width, n)


def gauss_measure(x: np.ndarray, sigma=1.0) -> np.ndarray:
    w = np.exp(-(x ** 2) / (2 * sigma ** 2))
    return w / w.sum()


def torus_dist(n: int, m: int, side=2 * math.pi) -> np.ndarray:
    """Shortest-path metric of the 4-neighbour n x m grid on a flat torus."""
    i, j = np.divmod(np.arange(n * m), m)
    di = np.abs(i[:, None] - i[None, :])
    dj = np.abs(j[:, None] - j[None, :])
    return (side / n) * np.minimum(di, n - di) + (side / m) * np.minimum(dj, m - dj)


def circle_dist(n: int, length=2 * math.pi) -> np.ndarray:
    k = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return (length / n) * np.minimum(k, n - k)


def quantile_w2_sq(pos, a, b) -> float:
    """Squared W2 between two measures on sorted points of a line, by the
    quantile coupling: integrate |F^-1(u) - G^-1(u)|^2 over u in (0, 1)."""
    ca = np.cumsum(a / a.sum())
    cb = np.cumsum(b / b.sum())
    ca[-1] = cb[-1] = 1.0
    hi = np.union1d(ca, cb)
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)
    last = len(pos) - 1
    ia = np.minimum(np.searchsorted(ca, mid), last)
    ib = np.minimum(np.searchsorted(cb, mid), last)
    return float(((pos[ia] - pos[ib]) ** 2 * (hi - lo)).sum())


def reference_w2_sq(dist_sq: np.ndarray, a, b) -> float:
    """Optimal transport cost by a dense LP built here from scratch."""
    n = len(a)
    k = np.arange(n * n)
    rows = np.concatenate([k // n, n + k % n])
    A = csr_matrix((np.ones(2 * n * n), (rows, np.concatenate([k, k]))),
                   shape=(2 * n, n * n))
    res = linprog(dist_sq.ravel(), A_eq=A, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def write_marginal(path: str, weights: np.ndarray):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(weights):
            fh.write(f"{i},{float(v):.17g}\n")


def read_marginal(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = fh.read().split()[1:]
    w = np.array([float(r.partition(",")[2]) for r in rows])
    return w / w.sum()


# -------------------------------------------------------------------- checks

def check_coupling(doc: dict, mu0, mu1, dist_sq) -> list:
    """Coupling marginals, stored cost and distance against the inputs."""
    fails = []
    cells = np.array(doc["coupling"], dtype=float).reshape(-1, 3)
    i, j, mass = cells[:, 0].astype(int), cells[:, 1].astype(int), cells[:, 2]
    if mass.min() < 0:
        fails.append(f"coupling has negative mass {mass.min()}")
    rows = np.bincount(i, weights=mass, minlength=len(mu0))
    cols = np.bincount(j, weights=mass, minlength=len(mu1))
    for label, got, want in (("row", rows, mu0), ("column", cols, mu1)):
        err = float(np.abs(got - want).max())
        if err > COUPLING_TOL:
            fails.append(f"coupling {label} sums off the input marginal by {err:.3g}")
    cost = float(doc["cost"])
    recomputed = float((mass * dist_sq[i, j]).sum())
    if abs(recomputed - cost) > COUPLING_TOL * (1 + cost):
        fails.append(f"stored cost {cost!r} vs recomputed {recomputed!r}")
    if abs(float(doc["distance"]) ** 2 - cost) > COUPLING_TOL * (1 + cost):
        fails.append(f"distance {doc['distance']!r} is not sqrt(cost {cost!r})")
    if float(doc["duality_gap"]) > COUPLING_TOL * (1 + cost):
        fails.append(f"duality gap {doc['duality_gap']!r} too large")
    return fails


def check_constants(requested) -> Callable[[str], list]:
    def check(out_dir):
        doc = _load(out_dir, "constants.json")
        fails = list(doc["checks"]["reproducibility_failures"])
        est = {k: v for k, v in doc["K_estimates"].items() if v is not None}
        for name in requested:
            if name not in est:
                fails.append(f"no {name} estimate reported")
            if not os.path.exists(os.path.join(out_dir, f"witness_{name}.csv")):
                fails.append(f"witness_{name}.csv missing")
        for name, value in est.items():
            if not 0.90 <= value <= 1.10:
                fails.append(f"K_{name} = {value!r} outside [0.90, 1.10]")
        if len(est) == 3 and not (est["lsi"] <= 1.05 * est["talagrand"]
                                  <= 1.05 ** 2 * est["poincare"]):
            fails.append(f"estimates break K_lsi <= 1.05 K_T <= 1.05^2 K_P: {est}")
        return fails
    return check


def check_chain(out_dir) -> list:
    doc = _load(out_dir, "chain.json")
    fails = []
    if not doc["consistent"] or doc["hypothesis_refuted"]:
        fails.append(f"chain not consistent: {doc['verdict']}")
    psi, phi = doc["traces"]["psi"], doc["traces"]["phi"]
    if psi["max_excess"] > psi["tolerance"]:
        fails.append(f"psi excess {psi['max_excess']!r} above {psi['tolerance']}")
    if phi["max_upward_step"] > phi["tolerance"]:
        fails.append(f"phi upward step {phi['max_upward_step']!r} above {phi['tolerance']}")
    if phi["endpoint_identity_gap"] > 1e-12:
        fails.append(f"endpoint identity gap {phi['endpoint_identity_gap']!r} above 1e-12")
    return fails


def check_path_transport(out_dir) -> list:
    doc = _load(out_dir, "transport.json")
    x = gauss_positions()
    nu = gauss_measure(x)
    tilt = np.exp(x) * nu
    tilt /= tilt.sum()
    fails = check_coupling(doc, tilt, nu, (x[:, None] - x[None, :]) ** 2)
    ref = math.sqrt(quantile_w2_sq(x, tilt, nu))
    if abs(float(doc["distance"]) - ref) > ORACLE_1D_TOL:
        fails.append(f"path W2 {doc['distance']!r} vs quantile coupling {ref!r}")
    return fails


def check_torus_transport(mu0_path, mu1_path, dist_sq) -> Callable[[str], list]:
    reference = {}

    def check(out_dir):
        doc = _load(out_dir, "transport.json")
        mu0, mu1 = read_marginal(mu0_path), read_marginal(mu1_path)
        fails = check_coupling(doc, mu0, mu1, dist_sq)
        if "cost" not in reference:  # solved once per run, outside the timed jobs
            reference["cost"] = reference_w2_sq(dist_sq, mu0, mu1)
        ref, cost = reference["cost"], float(doc["cost"])
        if abs(cost - ref) > REFERENCE_TOL * (1 + ref):
            fails.append(f"transport cost {cost!r} vs reference LP {ref!r}")
        return fails
    return check


def check_gen_torus(out_dir) -> list:
    doc = _load(out_dir, "space.json")
    n, m = TORUS_R
    fails = []
    if doc["n"] != n * m or len(doc["edges"]) != 2 * n * m:
        fails.append(f"saved torus has n={doc['n']}, {len(doc['edges'])} edges")
    if abs(sum(doc["measure"]) - 1.0) > 1e-12:
        fails.append("saved measure does not sum to 1")
    return fails


def check_doubling_torus(out_dir) -> list:
    doc = _load(out_dir, "doubling.json")
    fails = []
    if not doc["metric_check"]["passed"]:
        fails.append(f"metric check failed: {doc['metric_check']}")
    # on an equal-sided grid the worst midpoint is between neighbours: h / 2
    h = 2 * math.pi / TORUS_R[0]
    defect = doc["space"].get("midpoint_defect")
    if defect is None or abs(defect - h / 2) > 1e-12:
        fails.append(f"midpoint defect {defect!r}, expected {h / 2!r}")
    if not 1.0 <= doc["doubling_constant"] < math.inf:
        fails.append(f"doubling constant {doc['doubling_constant']!r}")
    if doc["local_poincare"] is None or not 0 <= doc["local_poincare"] < math.inf:
        fails.append(f"local Poincare constant {doc['local_poincare']!r}")
    return fails


def check_semigroup_circle(out_dir) -> list:
    doc = _load(out_dir, "semigroup.json")
    fails = list(doc["checks"]["lipschitz_bound_failures"])
    trace = doc["trace"]
    d2 = circle_dist(CIRCLE_N) ** 2
    f = np.cos(2 * math.pi * np.arange(CIRCLE_N) / CIRCLE_N)
    for t, got in zip(trace["times"], trace["fields"]):
        want = (f[None, :] + d2 / (2 * t)).min(axis=1)
        err = float(np.abs(np.array(got) - want).max())
        if err > APPLY_TOL:
            fails.append(f"Q_t f at t={t} off the dense minimum by {err:.3g}")
    if trace["convergence_defect"] > trace["convergence_bound"] + 1e-12:
        fails.append("convergence defect above t_min Lip(f)^2 / 2")
    return fails


def check_defect_ladder(out_dir) -> list:
    rows = _load(out_dir, "semigroup.json")["defect_vs_mesh"] or []
    fails = [] if len(rows) == 4 else [f"defect ladder has {len(rows)} levels, not 4"]
    for (h0, d0), (h1, d1) in zip(rows, rows[1:]):
        if abs(h1 / h0 - 0.5) > 1e-9:
            fails.append(f"mesh {h0!r} -> {h1!r} is not a halving")
        if not (d0 > 0 and d1 <= 0.7 * d0):
            fails.append(f"defect {d0!r} -> {d1!r} decays slower than 0.7 per halving")
    return fails


# ----------------------------------------------------------------- workloads

def _ineq_gauss(seed: int, inputs_dir: str) -> list:
    s = _cli_seeds(seed, 3)
    return [
        Command(("constants", "--space", GAUSS, "--seed", s[0]),
                check_constants(("lsi", "talagrand", "poincare"))),
        Command(("constants", "--space", GAUSS, "--which", "lsi,poincare",
                 "--seed", s[1]), check_constants(("lsi", "poincare"))),
        Command(("chain", "--space", GAUSS, "--K", "0.9", "--seed", s[2]), check_chain),
        Command(("transport", "--space", GAUSS, "--mu0", "tilt:1", "--mu1", "nu"),
                check_path_transport),
    ]


def _transport_torus(seed: int, inputs_dir: str) -> list:
    n, m = TORUS_T
    dist_sq = torus_dist(n, m) ** 2
    commands = []
    for k in range(4):
        paths = []
        for side in (0, 1):
            path = os.path.join(inputs_dir, f"mu{k}_{side}.csv")
            write_marginal(path, np.random.default_rng([seed, k, side]).gamma(1.0, size=n * m))
            paths.append(path)
        commands.append(Command(
            ("transport", "--space", f"torus2d:{n}:{m}", "--mu0", paths[0],
             "--mu1", paths[1]), check_torus_transport(paths[0], paths[1], dist_sq)))
    spec = "torus2d:{}:{}".format(*TORUS_R)
    return commands + [
        Command(("gen", "--spec", spec), check_gen_torus),
        Command(("doubling", "--space", spec, "--r-min", "0.3", "--r-max", "1.5",
                 "--field", "random", "--radius", "0.7", "--seed", _cli_seeds(seed, 1)[0]),
                check_doubling_torus),
    ]


def _semigroup_circle(seed: int, inputs_dir: str) -> list:
    s = _cli_seeds(seed, 2)
    return [
        Command(("semigroup", "--space", f"circle:{CIRCLE_N}", "--field", "cos",
                 "--seed", s[0]), check_semigroup_circle),
        Command(("semigroup", "--space", f"circle:{LADDER_N}", "--field", "cos",
                 "--refinements", "3", "--seed", s[1]), check_defect_ladder),
    ]


# why each workload is in the benchmark is recorded in BENCHMARK.json
WORKLOADS = {
    "ineq-gauss": _ineq_gauss,
    "transport-torus": _transport_torus,
    "semigroup-circle": _semigroup_circle,
}

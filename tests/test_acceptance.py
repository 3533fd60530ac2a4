"""End-to-end acceptance gate.

Each test exercises one advertised guarantee at its stated tolerance and
time budget and prints a single verdict line; run with -v (or -s) to see
them.  The continuum targets are the classical constants: on the unit
Gaussian all of LSI/T/P hold with constant 1, on the unit-speed circle
the Poincare constant is 1 (first harmonic).
"""

import time

import numpy as np
import pytest

from lenspace import (apply, build_from_graph, dual_talagrand_defect,
                      estimate_constant, generate, lipschitz_constant,
                      parse_space_spec, phi_trace, psi_trace, semigroup_defect,
                      verify_chain, w2)
from lenspace.fields import cosine_field, random_smoothed_field
from lenspace.hopflax import _residual
from lenspace.inequalities import default_witness_family
from oracles import brute_force_w2, dense_lipschitz, dense_w2, w2_oracle_1d


def _space(text):
    return generate(parse_space_spec(text))


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

_CORPUS = ["circle:128", "circle:512", "gaussian_interval:101:1:4",
           "gaussian_interval:201:1:4", "torus2d:12:12", "path:64",
           "complete:16"]
_TIMES = (0.1, 0.5, 1.0)
_STEPS = (0.05, 0.5)


def test_criterion_1_exact_invariants():
    start = time.monotonic()
    violations = []
    n_fields = 0
    for si, text in enumerate(_CORPUS):
        space = _space(text)
        diam = space.diameter
        for fi in range(8):
            f = random_smoothed_field(space, np.random.default_rng([10, si, fi]))
            n_fields += 1
            vals = f.values
            tol = 1e-12 * (1.0 + float(np.abs(vals).max()))
            qs = {t: apply(space, f, t) for t in _TIMES}
            for t, qf in qs.items():
                # band: min f <= Q_t f <= f
                if float((qf.values - vals).max()) > tol:
                    violations.append((text, fi, t, "upper band"))
                if float(qf.values.min()) < float(vals.min()) - tol:
                    violations.append((text, fi, t, "lower band"))
                # Lip(Q_t f) <= diam / t
                lip = lipschitz_constant(space, qf)
                if lip > diam / t * (1 + 1e-12) + 1e-12:
                    violations.append((text, fi, t, "lipschitz bound"))
                # the edge-slope constant is the all-pairs one
                if not lip <= dense_lipschitz(space, qf) <= lip * (1 + 1e-12):
                    violations.append((text, fi, t, "edge vs dense lipschitz"))
            # monotone in t
            for t1, t2 in zip(_TIMES, _TIMES[1:]):
                if float((qs[t2].values - qs[t1].values).max()) > tol:
                    violations.append((text, fi, t2, "t-monotonicity"))
            for t in _TIMES:
                g = qs[t]
                rhs = lipschitz_constant(space, g) ** 2 / 2.0
                for s in _STEPS:
                    two_step = apply(space, g, s)
                    one_step = apply(space, f, t + s)
                    # semigroup comparison Q_s Q_t f >= Q_{t+s} f
                    if float((one_step.values - two_step.values).max()) > tol:
                        violations.append((text, fi, (t, s), "semigroup order"))
                    # exact speed bound (g - Q_s g)/s <= Lip(g)^2/2
                    lhs = float((g.values - two_step.values).max()) / s
                    if lhs > rhs + tol / s:
                        violations.append((text, fi, (t, s), "speed bound"))
                    # one-step form needs the midpoint defect as slack
                    slack = semigroup_defect(space, f, s, t) / s
                    lhs1 = float((g.values - one_step.values).max()) / s
                    if lhs1 > rhs + slack + tol / s:
                        violations.append((text, fi, (t, s), "one-step speed bound"))
    elapsed = time.monotonic() - start
    ok = not violations and n_fields >= 50 and elapsed <= 60
    _verdict(1, ok,
             f"{n_fields} fields x {len(_CORPUS)} spaces, "
             f"{len(violations)} violations, {elapsed:.1f}s <= 60s"
             + (f"; first: {violations[0]}" if violations else ""))


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_semigroup_convergence():
    start = time.monotonic()
    defects = []
    for n in (128, 256, 512):
        space = _space(f"circle:{n}")
        f = cosine_field(space)
        defects.append(semigroup_defect(space, f, 0.5, 0.5))
    r1 = defects[1] / defects[0]
    r2 = defects[2] / defects[1]
    elapsed = time.monotonic() - start
    ok = (defects[0] > defects[1] > defects[2]
          and r1 <= 0.7 and r2 <= 0.7 and elapsed <= 30)
    _verdict(2, ok,
             f"defects {defects[0]:.3e} > {defects[1]:.3e} > {defects[2]:.3e}, "
             f"ratios {r1:.3f}, {r2:.3f} <= 0.7, {elapsed:.1f}s <= 30s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_hj_residual_decay():
    start = time.monotonic()
    space = _space("circle:512")
    f = cosine_field(space)
    means = []
    for s in (0.1, 0.05, 0.025):
        r = _residual(space, apply(space, f, 0.5), apply(space, f, 0.5 + s), s)
        means.append(float(np.abs(r.values) @ space.measure))
    elapsed = time.monotonic() - start
    decreasing = all(b <= 1.1 * a for a, b in zip(means, means[1:]))
    ok = decreasing and means[-1] <= 0.05 and elapsed <= 10
    _verdict(3, ok,
             f"mean residuals {means[0]:.4f}, {means[1]:.4f}, {means[2]:.4f}; "
             f"final <= 0.05, {elapsed:.1f}s <= 10s")


# ---------------------------------------------------------------- criterion 4

def _random_small_space(rng):
    n = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        edges = [(i, i + 1, float(rng.uniform(0.2, 2.0))) for i in range(n - 1)]
    else:
        edges = [(i, j, float(rng.uniform(0.2, 2.0)))
                 for i in range(n) for j in range(i + 1, n)]
    w = rng.uniform(0.1, 1.0, n)
    return build_from_graph(edges, w, n)


def _random_marginal(rng, n):
    m = rng.dirichlet(np.ones(n))
    if n > 2 and rng.random() < 0.3:
        m[int(rng.integers(n))] = 0.0
        m = m / m.sum()
    return m


def test_criterion_4_transport_cross_validation():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    # the oracles check the dense reference LP of tests/oracles.py; w2, which
    # certifies the monotone coupling without an LP on paths numbered along
    # themselves, is checked against that LP in cost
    worst_brute = worst_path = worst_w2 = 0.0
    for _ in range(200):
        space = _random_small_space(rng)
        mu0 = _random_marginal(rng, space.n)
        mu1 = _random_marginal(rng, space.n)
        d_lp, cost_lp = dense_w2(space, mu0, mu1)
        d_bf = brute_force_w2(space, mu0, mu1)
        worst_brute = max(worst_brute, abs(d_lp - d_bf))
        _, plan = w2(space, mu0, mu1)
        worst_w2 = max(worst_w2, abs(plan.cost - cost_lp) / (1.0 + cost_lp))
    for _ in range(50):
        n = int(rng.integers(2, 202))
        length = float(rng.uniform(0.5, 10.0))
        step = length / (n - 1)
        space = build_from_graph([(i, i + 1, step) for i in range(n - 1)],
                                 np.ones(n), n)
        mu0 = _random_marginal(rng, n)
        mu1 = _random_marginal(rng, n)
        d_lp, cost_lp = dense_w2(space, mu0, mu1)
        d_or = w2_oracle_1d(step * np.arange(n), mu0, mu1)
        worst_path = max(worst_path, abs(d_lp - d_or))
        _, plan = w2(space, mu0, mu1)
        worst_w2 = max(worst_w2, abs(plan.cost - cost_lp) / (1.0 + cost_lp))
    for k in range(20):
        # circles and tori take the shortlist route
        if k % 2:
            space = _space(f"circle:{int(rng.integers(3, 65))}")
        else:
            space = _space(f"torus2d:{int(rng.integers(3, 8))}:{int(rng.integers(3, 8))}")
        mu0 = _random_marginal(rng, space.n)
        mu1 = _random_marginal(rng, space.n)
        _, cost_lp = dense_w2(space, mu0, mu1)
        _, plan = w2(space, mu0, mu1)
        worst_w2 = max(worst_w2, abs(plan.cost - cost_lp) / (1.0 + cost_lp))
    elapsed = time.monotonic() - start
    ok = (worst_brute <= 1e-9 and worst_path <= 1e-8 and worst_w2 <= 1e-10
          and elapsed <= 30)
    _verdict(4, ok,
             f"200 brute instances, LP worst gap {worst_brute:.2e} <= 1e-9; "
             f"50 path instances, LP vs oracle worst gap {worst_path:.2e} <= 1e-8; "
             f"w2 vs LP on these and 20 circles/tori, worst relative cost gap "
             f"{worst_w2:.2e} <= 1e-10; "
             f"{elapsed:.1f}s <= 30s")


# ------------------------------------------------------- criteria 5 + 8 share

@pytest.fixture(scope="module")
def continuum_estimates():
    start = time.monotonic()
    circle = _space("circle:512")
    gauss = _space("gaussian_interval:201:1:4")
    out = {
        "circle_p": estimate_constant(circle, "poincare", seed=0).value,
        "lsi": estimate_constant(gauss, "lsi", seed=0).value,
        "talagrand": estimate_constant(gauss, "talagrand", seed=0).value,
        "poincare": estimate_constant(gauss, "poincare", seed=0).value,
    }
    out["elapsed"] = time.monotonic() - start
    return out


def test_criterion_5_continuum_constants(continuum_estimates):
    est = continuum_estimates
    ok = (0.95 <= est["circle_p"] <= 1.05
          and all(0.90 <= est[k] <= 1.10 for k in ("lsi", "talagrand", "poincare"))
          and est["elapsed"] <= 300)
    _verdict(5, ok,
             f"circle P {est['circle_p']:.4f} in [0.95, 1.05]; gaussian "
             f"LSI {est['lsi']:.4f}, T {est['talagrand']:.4f}, "
             f"P {est['poincare']:.4f} in [0.90, 1.10]; "
             f"{est['elapsed']:.0f}s <= 300s")


def test_criterion_8_chain_ordering_with_slack(continuum_estimates):
    est = continuum_estimates
    lhs, mid, rhs = est["lsi"], est["talagrand"] * 1.05, est["poincare"] * 1.05 ** 2
    ok = lhs <= mid <= rhs
    _verdict(8, ok, f"{lhs:.4f} <= {mid:.4f} <= {rhs:.4f}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_chain_consistency():
    start = time.monotonic()
    space = _space("gaussian_interval:201:1:4")
    family = default_witness_family(space, seed=0)

    report = verify_chain(space, 0.9, family, 0.05)
    consistent = report.consistent and not report.hypothesis_refuted

    psi_grid = np.geomspace(0.01, 2.0, 12)
    phi_grid = np.geomspace(0.01, 1.0, 12)
    max_excess, max_step = -np.inf, 0.0
    for i in range(20):
        h = random_smoothed_field(space, np.random.default_rng([0, 2000 + i]))
        max_excess = max(max_excess, psi_trace(space, h, 0.9, psi_grid).max_excess)
        max_step = max(max_step, phi_trace(space, h, 0.9, phi_grid).max_upward_step)

    adversarial = verify_chain(space, 1.5, family, 0.05)
    refuted_cleanly = (adversarial.hypothesis_refuted
                       and adversarial.counterexample is None)

    elapsed = time.monotonic() - start
    ok = (consistent and max_excess <= 0.02 and max_step <= 0.01
          and refuted_cleanly and elapsed <= 300)
    _verdict(6, ok,
             f"chain at K=0.9 consistent: {consistent}; psi excess "
             f"{max_excess:.2e} <= 0.02; phi step {max_step:.2e} <= 0.01; "
             f"K=1.5 refutes hypothesis only: {refuted_cleanly}; "
             f"{elapsed:.0f}s <= 300s")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_endpoint_identity():
    start = time.monotonic()
    space = _space("gaussian_interval:101:1:4")
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([7, i])
        g = random_smoothed_field(space, rng)
        K = float(rng.uniform(0.3, 2.0))
        # recompute phi(1) through the public trace, then compare routes
        tr = phi_trace(space, g, K, [1.0])
        gap = abs(K * (float(tr.values[-1]) - tr.mean_g)
                  - dual_talagrand_defect(space, g, K))
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed <= 10
    _verdict(7, ok,
             f"100 (g, K) pairs, worst gap {worst:.2e} <= 1e-12, "
             f"{elapsed:.1f}s <= 10s")

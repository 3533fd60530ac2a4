import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lenspace import build_from_graph, w2
from lenspace import generate as _generate, parse_space_spec as _parse
from lenspace import hopflax, transport
from lenspace.generators import SpaceSpec
from oracles import brute_force_w2, coupling_vertices, dense_w2, w2_oracle_1d


def _lp_cells(monkeypatch) -> list:
    """Record the cell count of every transport LP that w2 solves."""
    sizes = []
    real = transport._TransportLP.solve

    def counted(lp, src, dst, cold):
        result = real(lp, src, dst, cold)
        sizes.append(lp.highs.getNumCol())
        return result

    monkeypatch.setattr(transport._TransportLP, "solve", counted)
    return sizes


def _dense(plan, n: int) -> np.ndarray:
    """The plan's coupling as an n x n array."""
    coupling = np.zeros((n, n))
    coupling[plan.rows, plan.cols] = plan.mass
    return coupling


def test_identical_marginals_give_zero(circle64):
    d, plan = w2(circle64, circle64.measure, circle64.measure)
    assert d == 0.0
    assert plan.cost == 0.0
    assert plan.duality_gap == 0.0
    assert np.array_equal(_dense(plan, 64), np.diag(circle64.measure))


def test_identity_plan_is_certified(circle64, monkeypatch):
    # the identity plan passes the same n^2 reduced-cost check as every other
    # plan, with zero potentials on the diagonal cells
    made = []
    real = transport._certified_plan

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(transport, "_certified_plan", recorded)
    _, plan = w2(circle64, circle64.measure, circle64.measure)
    assert len(made) == 1 and made[0][0] is plan


def test_point_masses_give_distance(path3):
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    d, plan = w2(path3, a, b)
    assert d == pytest.approx(path3.dist[0, 2], rel=1e-12)
    plan.check(path3)


def test_two_point_half_mass_frozen(two_point):
    d, plan = w2(two_point, np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    assert d == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert plan.cost == pytest.approx(0.5, rel=1e-12)
    plan.check(two_point)


def test_plan_invariants_on_random_instance(gauss101):
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 1.0, gauss101.n); a /= a.sum()
    b = rng.uniform(0.1, 1.0, gauss101.n); b /= b.sum()
    d, plan = w2(gauss101, a, b)
    plan.check(gauss101)
    assert plan.mass.min() >= 0.0
    assert plan.duality_gap <= 1e-9 * (1.0 + plan.cost)
    assert d == pytest.approx(math.sqrt(plan.cost), rel=1e-12)


def test_plan_check_raises_under_python_O():
    # the CLI's plan check must not vanish with the interpreter's asserts
    import lenspace
    src = os.path.dirname(os.path.dirname(lenspace.__file__))
    code = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from lenspace import generate, parse_space_spec, w2
        g = generate(parse_space_spec("path:3"))
        _, plan = w2(g, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        # the last cell again, with no mass: sums and cost stay right
        twice = dict(rows=np.r_[plan.rows, plan.rows[-1]], cols=np.r_[plan.cols, plan.cols[-1]],
                     mass=np.r_[plan.mass, 0.0])
        for bad in (dict(cost=plan.cost + 1.0), twice, dict(cols=plan.cols + 1)):
            try:
                dataclasses.replace(plan, **bad).check(g)
            except AssertionError as exc:
                print(exc)
    """)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    layout = "cells are not distinct, in 0..n-1 and in row-major order"
    assert out.stdout.splitlines() == ["stored cost 5.0 vs recomputed 4.0", layout, layout]


@pytest.mark.parametrize("bad, message", [
    (dict(mass=np.array([0.0, 0.0, 1.0, -0.5, 0.5])), "coupling has negative mass"),
    (dict(source_marginal=np.array([0.5, 0.5, 0.0])), "row sums off by 0.5"),
    (dict(target_marginal=np.array([0.0, 0.5, 0.5])), "column sums off by 0.5"),
    (dict(duality_gap=1e-3), "duality gap 0.001 too large"),
], ids=["negative", "rows", "columns", "gap"])
def test_plan_check_names_each_failure(path3, bad, message):
    # one point mass moved along path:3; each change breaks one invariant,
    # and the first broken one in check's order is the one named
    _, plan = w2(path3, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    plan.check(path3)
    with pytest.raises(AssertionError) as err:
        dataclasses.replace(plan, **bad).check(path3)
    assert str(err.value) == message


def _run_python(*blocks: str) -> str:
    """Run the code blocks, one after the other, in a fresh interpreter that
    imports this checkout's lenspace; returns its stdout."""
    import lenspace
    src = os.path.dirname(os.path.dirname(lenspace.__file__))
    code = "".join(textwrap.dedent(block) for block in blocks)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True).stdout


# a w2 on torus2d:6:6 that needs the LP: a gamma draw against the uniform measure
_TORUS6_W2 = """
    import sys
    import numpy as np
    from lenspace import generate, parse_space_spec, w2
    g = generate(parse_space_spec("torus2d:6:6"))
    a = np.random.default_rng(3).gamma(1.0, size=g.n)
    _, plan = w2(g, a / a.sum(), np.full(g.n, 1.0 / g.n))
    plan.check(g)
    core = sys.modules["scipy.optimize._highspy._core"]
"""


def test_direct_highs_load_is_reused_by_scipy_optimize():
    # HiGHS's extension module is loaded without scipy.optimize, under its own
    # name, so a later import of scipy.optimize in the process shares it
    out = _run_python(_TORUS6_W2, """
        print("scipy.optimize" in sys.modules)
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        print(_core is core)
        print(linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs").x.tolist())
    """)
    assert out.splitlines() == ["False", "True", "[1.0, 0.0]"]


def test_transport_loads_highs_without_scipy_optimize(tmp_path):
    # tilt:1 against nu on circle:64 is no staircase plan, so the LP is solved
    out = _run_python(f"""
        import sys
        from lenspace.cli import main
        print(main(["--out-dir", {str(tmp_path)!r}, "transport", "--space", "circle:64",
                    "--mu0", "tilt:1", "--mu1", "nu"]))
        print([m for m in ("scipy.optimize", "scipy.special", "scipy.optimize._highspy._core")
               if m in sys.modules])
    """)
    assert out.splitlines() == ["0", "['scipy.optimize._highspy._core']"]


def test_highs_falls_back_to_the_plain_import():
    # when no extension file is found, scipy.optimize is imported as before
    out = _run_python("""
        import importlib.machinery
        importlib.machinery.EXTENSION_SUFFIXES = [".no-such-suffix"]
    """, _TORUS6_W2, """
        print("scipy.optimize" in sys.modules)
    """)
    assert out.splitlines() == ["True"]


def test_marginal_sum_mismatch_names_defect(two_point):
    with pytest.raises(ValueError, match="sums to"):
        w2(two_point, np.array([0.7, 0.7]), two_point.measure)


def test_marginal_sum_mismatch_says_plain_floats():
    # the total used to be shown as np.float64(0.9)
    two = _generate(_parse("path:2"))
    with pytest.raises(ValueError) as err:
        w2(two, [0.45, 0.45], two.measure)
    assert str(err.value) == "mu0 sums to 0.9, off from 1 by -0.09999999999999998"


def test_overflowing_marginal_total_is_one_error_and_no_warning(path3):
    # numpy's overflow RuntimeWarning used to print before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            w2(path3, [1e308, 1e308, 1], path3.measure)
    assert str(err.value) == "mu0 sums past the largest float"


def _scaled(kind, k):
    # circle:16 or torus2d:4:4 with every length 2^k times the default
    side = math.ldexp(2 * math.pi, k)
    spec = (SpaceSpec(kind="circle", n=16, length=side) if kind == "circle"
            else SpaceSpec(kind="torus2d", n=4, m=4, side_x=side, side_y=side))
    return _generate(spec)


_SCALES = (-190, -100, -40, -21, -1, 0, 1, 10, 11, 40, 100, 190)


@pytest.mark.parametrize("kind", ["circle", "torus2d"])
def test_w2_is_exact_at_every_scale(kind):
    # the certificate's floor is relative below diameter 1, and HiGHS gets
    # costs scaled by a power of two far from 1: at length 2^-20 the
    # index-order staircase used to pass as certified (79% above the optimum
    # on the circle), and from 2^40 HiGHS failed
    rng = np.random.default_rng(0)
    a, b = rng.gamma(1.0, size=16), rng.gamma(1.0, size=16)
    a, b = a / a.sum(), b / b.sum()
    cost = {}
    for k in _SCALES:
        g = _scaled(kind, k)
        _, plan = w2(g, a, b)
        plan.check(g)
        cost[k] = plan.cost * 4.0 ** -k
    for k in _SCALES:
        assert cost[k] == pytest.approx(cost[0], rel=1e-12), k
    assert cost[0] == pytest.approx(dense_w2(_scaled(kind, 0), a, b)[0] ** 2, rel=1e-9)


def test_negative_marginal_rejected(two_point):
    with pytest.raises(ValueError, match="negative"):
        w2(two_point, np.array([1.5, -0.5]), two_point.measure)


def test_wrong_length_marginal_rejected(two_point):
    with pytest.raises(ValueError, match="has 1 entries"):
        w2(two_point, np.array([1.0]), two_point.measure)


def test_oracle_path3_frozen(path3):
    a = np.array([0.5, 0.5, 0.0])
    b = np.array([0.0, 0.5, 0.5])
    assert w2_oracle_1d(path3.coords[:, 0], a, b) == pytest.approx(1.0, rel=1e-12)


def test_oracle_identical_marginals(path3):
    assert w2_oracle_1d(path3.coords[:, 0], path3.measure, path3.measure) == 0.0


def test_oracle_forced_two_point_transport():
    g = _generate(_parse("path:2"))
    assert w2_oracle_1d(g.coords[:, 0], np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_oracle_matches_lp_on_gaussian_reflection(gauss101):
    # reflecting the measure across 0 is transport along the interval
    flipped = gauss101.measure[::-1].copy()
    d_lp, cost_lp = dense_w2(gauss101, gauss101.measure, flipped)
    d_or = w2_oracle_1d(gauss101.coords[:, 0], gauss101.measure, flipped)
    assert abs(d_lp - d_or) <= 1e-8
    # the flip moves only rounding-level mass, so compare w2 with the LP in
    # cost: the square root turns the LP's 1e-10 feasibility slack into 1e-9
    d, plan = w2(gauss101, gauss101.measure, flipped)
    assert abs(plan.cost - cost_lp) <= 1e-10
    # and with the oracle in cost too: the two CDF merges round the moved
    # mass differently, and the exact cost here is 1.2e-17
    assert abs(plan.cost - d_or ** 2) <= 1e-15
    plan.check(gauss101)


def test_lp_matches_oracle_uneven_spacing():
    # path with irregular edge lengths exercises the CDF merge properly
    edges = [(0, 1, 0.3), (1, 2, 1.7), (2, 3, 0.9)]
    g = build_from_graph(edges, np.array([0.4, 0.1, 0.2, 0.3]), 4)
    pos = np.cumsum([0.0] + [e[2] for e in edges])
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.uniform(0.0, 1.0, 4); a /= a.sum()
        b = rng.uniform(0.0, 1.0, 4); b /= b.sum()
        d_lp, _ = dense_w2(g, a, b)
        assert abs(d_lp - w2_oracle_1d(pos, a, b)) <= 1e-10
        assert abs(w2(g, a, b)[0] - d_lp) <= 1e-10


@st.composite
def _path_instance(draw):
    # a path with irregular edges, labels permuted away from path order,
    # and marginals that may vanish at some points
    n = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(n)))
    lengths = draw(st.lists(st.floats(1e-3, 50.0), min_size=n - 1, max_size=n - 1))
    edges = [(perm[k], perm[k + 1], lengths[k]) for k in range(n - 1)]
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    marginals = []
    for _ in range(2):
        m = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        if m.sum() == 0:
            m[draw(st.integers(0, n - 1))] = 1.0
        marginals.append(m / m.sum())
    return build_from_graph(edges, np.ones(n), n), marginals[0], marginals[1]


@given(_path_instance())
@settings(max_examples=150, deadline=None)
def test_path_fast_path_matches_dense_lp(instance):
    g, a, b = instance
    d, plan = w2(g, a, b)
    _, cost_lp = dense_w2(g, a, b)
    # in cost, where the LP is certified; near zero distance the square root
    # would magnify the LP's feasibility slack
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    assert d == math.sqrt(plan.cost)
    plan.check(g)


def test_path_fast_path_solves_no_lp(gauss101, monkeypatch):
    # on a path numbered along itself the index-order staircase is the
    # monotone coupling: it is certified before any LP, restricted or dense
    def no_lp(*args):
        raise AssertionError("LP solved on a path graph")

    monkeypatch.setattr(transport._TransportLP, "solve", no_lp)
    for g, alpha in ((gauss101, 1.0), (_generate(_parse("path:64")), 0.1)):
        target = np.exp(alpha * g.coords[:, 0]) * g.measure
        d, plan = w2(g, target / target.sum(), g.measure)
        assert d > 0
        plan.check(g)
        assert np.count_nonzero(plan.mass) <= 2 * g.n - 1


def test_failed_certificate_falls_back_to_lp(gauss101, monkeypatch):
    # an anti-monotone staircase is a feasible tree plan but not an optimal
    # one; the reduced-cost check must reject it and restricted LPs must
    # answer, none of them over all n^2 cells
    real = transport._staircase

    def anti_monotone(a, b):
        rows, cols, mass = real(a, b[::-1])
        return rows, len(b) - 1 - cols, mass

    monkeypatch.setattr(transport, "_staircase", anti_monotone)
    sizes = _lp_cells(monkeypatch)
    target = np.exp(gauss101.coords[:, 0]) * gauss101.measure
    target /= target.sum()
    d, plan = w2(gauss101, target, gauss101.measure)
    _, cost_lp = dense_w2(gauss101, target, gauss101.measure)
    assert sizes and max(sizes) < gauss101.n ** 2
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    assert d == math.sqrt(plan.cost)
    plan.check(gauss101)


def test_failed_shortlist_falls_back_to_dense_lp(torus8, monkeypatch):
    # a restricted solve that fails leaves no potentials to grow the support
    # by: the next support must be all n^2 cells, and that one solve answers,
    # started cold
    n = torus8.n
    sizes, colds = [], []
    real = transport._TransportLP.solve

    def fail_restricted(lp, src, dst, cold):
        result = real(lp, src, dst, cold)
        sizes.append(lp.highs.getNumCol())
        colds.append(cold)
        return result if sizes[-1] == n * n else ("forced failure", None, None, None)

    monkeypatch.setattr(transport._TransportLP, "solve", fail_restricted)
    a = np.zeros(n); a[0] = 1.0
    d, plan = w2(torus8, a, torus8.measure)
    assert len(sizes) == 2 and sizes[0] < n * n and sizes[1] == n * n
    assert colds == [True, True]
    plan.check(torus8)
    _, cost_lp = dense_w2(torus8, a, torus8.measure)
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    assert d == math.sqrt(plan.cost)


def test_uncertified_support_grows_to_all_cells(torus8, monkeypatch):
    # a certificate that fails on every restricted support, and only on cells
    # already in it (the diagonal is in every first support), adds no cell:
    # the next support must be all n^2 cells, and that one solve answers
    n = torus8.n
    real = transport._certified_plan

    def full_only(space, a, b, src, dst, *args):
        if len(src) < n * n:
            return None, (np.arange(n), np.arange(n))
        return real(space, a, b, src, dst, *args)

    monkeypatch.setattr(transport, "_certified_plan", full_only)
    sizes = _lp_cells(monkeypatch)
    a = np.zeros(n); a[0] = 1.0
    d, plan = w2(torus8, a, torus8.measure)
    assert sizes.count(n * n) == 1 and sizes[-1] == n * n
    plan.check(torus8)
    _, cost_lp = dense_w2(torus8, a, torus8.measure)
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    assert d == math.sqrt(plan.cost)


def test_failed_certificate_names_least_cell_of_each_failing_row_and_column(torus8):
    # the cells a failed check returns are, for each row and each column with
    # a reduced cost below the floor, the cell of its least reduced cost
    n = torus8.n
    rng = np.random.default_rng(15)
    u, v = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    idx = np.arange(n)
    plan, (rows, cols) = transport._certified_plan(
        torus8, torus8.measure, torus8.measure, idx, idx, torus8.measure, u, v)
    d2 = torus8.dist ** 2
    reduced = d2 - u[:, None] - v[None, :]
    floor = -1e-10 * (1.0 + d2.max())
    failing_rows = np.flatnonzero(reduced.min(axis=1) < floor)
    failing_cols = np.flatnonzero(reduced.min(axis=0) < floor)
    assert plan is None and 0 < len(failing_rows) < n and 0 < len(failing_cols) < n
    expected = ([(i, int(reduced[i].argmin())) for i in failing_rows]
                + [(int(reduced[:, j].argmin()), j) for j in failing_cols])
    assert list(zip(rows.tolist(), cols.tolist())) == expected


@pytest.mark.parametrize("block_cells", [1, 7, 100])
@pytest.mark.parametrize("spec", ["torus2d:6:6", "circle:64", "complete:9"])
def test_certificate_flags_the_rows_and_columns_of_the_dense_reduced_costs(
        spec, block_cells, monkeypatch):
    # the check reads the kernel's minima, min_j d(i, j)^2 - v_j less u_i,
    # in blocks of any size; it flags exactly the rows and columns whose
    # least entry of the dense matrix d^2 - u - v is below the floor
    g = _generate(_parse(spec))
    monkeypatch.setattr(hopflax, "_BLOCK_CELLS", block_cells)
    n, idx = g.n, np.arange(g.n)
    rng = np.random.default_rng(23)
    u, v = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    plan, (rows, cols) = transport._certified_plan(g, g.measure, g.measure, idx, idx,
                                                   g.measure, u, v)
    reduced = g.dist ** 2 - u[:, None] - v[None, :]
    floor = -1e-10 * (1.0 + (g.dist ** 2).max())
    failing_rows = np.flatnonzero(reduced.min(axis=1) < floor)
    failing_cols = np.flatnonzero(reduced.min(axis=0) < floor)
    assert plan is None and 0 < len(failing_rows) < n and 0 < len(failing_cols) < n
    k = len(failing_rows)
    assert len(rows) == len(cols) == k + len(failing_cols)
    assert np.array_equal(rows[:k], failing_rows) and np.array_equal(cols[k:], failing_cols)
    # each flagged cell is its row's or column's least reduced cost
    assert np.array_equal(cols[:k], reduced[failing_rows].argmin(axis=1))
    assert np.array_equal(rows[k:], reduced[:, failing_cols].argmin(axis=0))


def _infeasible_lp(*args):
    return "The problem is infeasible.", None, None, None


def _never_certified(space, *args):
    return None, (np.arange(space.n), np.arange(space.n))


@pytest.mark.parametrize("owner, name, fake, words", [
    (transport._TransportLP, "solve", _infeasible_lp,
     "all n\\^2 cells failed: The problem is infeasible"),
    (transport, "_certified_plan", _never_certified, "all n\\^2 cells gave no certified plan"),
], ids=["lp-fails", "never-certified"])
def test_dense_support_failure_raises(torus8, monkeypatch, owner, name, fake, words):
    # only a failed or uncertified solve over all n^2 cells gives up
    monkeypatch.setattr(owner, name, fake)
    a = np.zeros(torus8.n); a[0] = 1.0
    with pytest.raises(RuntimeError, match=words):
        w2(torus8, a, torus8.measure)


@st.composite
def _graph_instance(draw):
    # a connected graph that is not a path: a random tree, extra edges, and a
    # closing edge when the tree happens to be a path; marginals may vanish
    # at some points or live on disjoint supports
    n = draw(st.integers(3, 12))
    length = st.floats(1e-3, 50.0)
    edges = [(k, draw(st.integers(0, k - 1)), draw(length)) for k in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges += [(i, j, draw(length)) for i, j in draw(st.lists(pairs, max_size=n))]
    g = build_from_graph(edges, np.ones(n), n)
    src, dst, _, _, _ = g.edges
    rows, cols = src[src < dst], dst[src < dst]
    degree = np.bincount(np.concatenate([rows, cols]), minlength=n)
    if len(rows) == n - 1 and degree.max() <= 2:
        # a connected tree with no vertex of degree 3 is a path: close it
        ends = np.flatnonzero(degree == 1)
        g = build_from_graph(edges + [(ends[0], ends[1], draw(length))], np.ones(n), n)
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    a, b = (np.array(draw(st.lists(weight, min_size=n, max_size=n))) for _ in range(2))
    if draw(st.booleans()):
        b[a > 0] = 0.0
    for m in (a, b):
        if m.sum() == 0:
            m[draw(st.integers(0, n - 1))] = 1.0
    return g, a / a.sum(), b / b.sum()


@given(_graph_instance())
@settings(max_examples=150, deadline=None)
def test_general_route_matches_dense_lp(instance):
    g, a, b = instance
    solves = []  # [support cells, LP result, potentials (u, v) it was checked by]
    solve, certify = transport._TransportLP.solve, transport._certified_plan

    def recorded_solve(lp, src, dst, cold):
        support = (solves[-1][0] if solves else set()) | set(zip(src.tolist(), dst.tolist()))
        solves.append([support, solve(lp, src, dst, cold), None])
        return solves[-1][1]

    def recorded_certify(*args):
        if solves:
            solves[-1][2] = args[-2:]
        return certify(*args)

    with mock.patch.object(transport._TransportLP, "solve", recorded_solve), \
            mock.patch.object(transport, "_certified_plan", recorded_certify):
        d, plan = w2(g, a, b)
    # every restricted solve answered, and each support grew only by cells its
    # certificate found violated, at most one per row and one per column: no
    # jump to all n^2 cells happened
    for _, (_, x, _, _), _ in solves:
        assert x is not None and x.min() >= -1e-9
    d2 = g.dist ** 2
    for (before, _, (u, v)), (after, _, _) in zip(solves, solves[1:]):
        added = after - before
        assert added and len(added) <= 2 * g.n
        reduced = d2 - u[:, None] - v[None, :]
        assert all(reduced[cell] < -1e-10 * (1.0 + d2.max()) for cell in added)
    _, cost_lp = dense_w2(g, a, b)
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    assert d == math.sqrt(plan.cost)
    plan.check(g)  # includes duality gap <= 1e-9 (1 + cost)


@pytest.mark.parametrize("spec", ["torus2d:6:6", "circle:32", "circle:256"])
def test_general_route_solves_no_dense_lp(spec, monkeypatch):
    g = _generate(_parse(spec))
    sizes = _lp_cells(monkeypatch)
    rng = np.random.default_rng(14)
    a = rng.gamma(1.0, size=g.n); a /= a.sum()
    d, plan = w2(g, a, g.measure)
    assert d > 0
    plan.check(g)
    assert sizes and max(sizes) < g.n ** 2
    _, cost_lp = dense_w2(g, a, g.measure)
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)


def _first_support_space(name: str):
    if name == "star:40":  # every leaf at 1 from the hub and 2 from each other leaf
        return build_from_graph([(0, i, 1.0) for i in range(1, 40)], np.ones(40), 40)
    if name == "shuffled ring:48":  # a ring whose neighbours are not index neighbours
        label = np.random.default_rng(6).permutation(48).tolist()
        edges = [(label[i], label[(i + 1) % 48], 0.5 + 0.25 * (i % 3)) for i in range(48)]
        return build_from_graph(edges, 1.0 + np.arange(48) % 5, 48)
    return _generate(_parse(name))


_SUPPORT_SPACES = ["torus2d:12:12", "torus2d:10:15:1:6.283", "torus2d:4:4", "circle:64",
                   "circle:129", "star:40", "complete:30", "shuffled ring:48"]


# the module's block of 2^16 cells (one block on these spaces) is named by
# the space alone, every other block size by space and size
@pytest.mark.parametrize("name, block_cells", [
    pytest.param(name, cells, id=name if cells == 1 << 16 else f"{name}-{cells}")
    for cells in (1 << 16, 1, 7, 100, 250) for name in _SUPPORT_SPACES])
def test_first_support_is_each_rows_ball_and_the_staircase(name, block_cells, monkeypatch):
    # the first LP holds, in each row, every cell strictly nearer than the
    # row's (_NEAREST + 1)-th smallest distance, ties and all, and the
    # staircase cells; on 16 points or fewer it holds every cell.  The ball
    # is taken in blocks of rows of any size
    monkeypatch.setattr(transport, "_BLOCK_CELLS", block_cells)
    g = _first_support_space(name)
    rng = np.random.default_rng(17)
    a, b = (transport._check_marginal(g, m / m.sum(), "mu")
            for m in rng.gamma(1.0, size=(2, g.n)))
    first = []
    real = transport._TransportLP.solve

    def recorded(lp, src, dst, cold):
        if not first:
            first.append((set(zip(src.tolist(), dst.tolist())), len(src), cold))
        return real(lp, src, dst, cold)

    monkeypatch.setattr(transport._TransportLP, "solve", recorded)
    _, plan = w2(g, a, b)
    k = transport._NEAREST
    kth = np.sort(g.dist, axis=1)[:, k, None] if g.n > k else np.inf
    ball = g.dist < kth
    assert ball.sum(axis=1).max() <= k
    rows, cols, _ = transport._staircase(a, b)
    expected = set(zip(*np.nonzero(ball))) | set(zip(rows.tolist(), cols.tolist()))
    cells, count, cold = first[0]
    assert cold and count == len(cells) and cells == expected
    _, cost_lp = dense_w2(g, a, b)
    assert abs(plan.cost - cost_lp) <= 1e-10 * (1.0 + cost_lp)
    plan.check(g)


def test_warm_rounds_reuse_one_model(monkeypatch):
    # a solve over several shortlist rounds builds one HiGHS model; its later
    # rounds start from the last optimal basis, so together they take fewer
    # simplex iterations than the cold first round
    from scipy.optimize._highspy import _core
    iterations = []  # per model built, the simplex iterations of each run

    class Counted(_core._Highs):
        def __init__(self):
            super().__init__()
            iterations.append([])

        def run(self):
            status = super().run()
            iterations[-1].append(self.getInfo().simplex_iteration_count)
            return status

    monkeypatch.setattr(_core, "_Highs", Counted)
    # on circle:256 this pair's first support, the staircase and a ball of
    # 15 cells a row, is certified after six warm rounds
    g = _generate(_parse("circle:256"))
    a = np.random.default_rng(1).gamma(1.0, size=g.n)
    a /= a.sum()
    _, plan = w2(g, a, np.full(g.n, 1.0 / g.n))
    plan.check(g)
    assert len(iterations) == 1
    first, *warm = iterations[0]
    assert warm and sum(warm) < first, iterations


def test_shortlist_solve_allocates_less_than_one_square_array(monkeypatch):
    # a solve over many shortlist rounds peaks below one n x n float array:
    # the plan is its cells, and there is no n x n seed, support mask or
    # index array.
    # torus2d:32:32 has as many points as circle:1024, whose solves take
    # about 30 rounds and several times as long
    g = _generate(_parse("torus2d:32:32"))
    sizes = _lp_cells(monkeypatch)
    a = np.random.default_rng(3).gamma(1.0, size=g.n)
    a /= a.sum()
    tracemalloc.start()
    try:
        _, plan = w2(g, a, np.full(g.n, 1.0 / g.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) > 1 and max(sizes) < g.n ** 2
    assert peak < 1.0 * g.n * g.n * 8, peak
    plan.check(g)


def test_antipodal_point_masses_on_circle(circle64, monkeypatch):
    # the balls of the two mass-carrying rows cannot reach each other, so
    # only the staircase seed makes the first restricted LP feasible
    a = np.zeros(64); a[0] = 1.0
    b = np.zeros(64); b[32] = 1.0
    sizes = _lp_cells(monkeypatch)
    d, plan = w2(circle64, a, b)
    assert max(sizes) < 64 * 64
    assert d == pytest.approx(circle64.dist[0, 32], rel=1e-12)
    assert _dense(plan, 64)[0, 32] == 1.0
    plan.check(circle64)
    monkeypatch.undo()
    k = transport._NEAREST
    ball = circle64.dist < np.sort(circle64.dist, axis=1)[:, k, None]
    assert not ball[0, 32]
    status, x, _, _ = transport._TransportLP(circle64, a, b).solve(*np.nonzero(ball), True)
    assert status == "Infeasible" and x is None


def test_brute_force_matches_lp_small():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        edges = [(i, j, float(rng.uniform(0.3, 2.0)))
                 for i, j in itertools.combinations(range(n), 2)]
        g = build_from_graph(edges, rng.uniform(0.2, 1.0, n), n)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, n); a /= a.sum()
            b = rng.uniform(0.0, 1.0, n); b /= b.sum()
            d_lp, _ = dense_w2(g, a, b)
            assert abs(d_lp - brute_force_w2(g, a, b)) <= 1e-9


def test_brute_force_identical_marginals(path3):
    assert brute_force_w2(path3, path3.measure, path3.measure) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_size_limit(circle64):
    with pytest.raises(ValueError, match="n <= 4"):
        brute_force_w2(circle64, circle64.measure, circle64.measure)


def test_vertex_enumeration_counts():
    # bases of the coupling polytope correspond to spanning trees of K_{n,n}:
    # n^(n-1) * n^(n-1) * ... gives 4, 81, 4096 for n = 2, 3, 4
    for n, count in ((2, 4), (3, 81), (4, 4096)):
        supports, solves = coupling_vertices(n)
        assert len(supports) == count
        assert len(solves) == count

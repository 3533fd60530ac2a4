import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lenspace import build_from_graph, w2
from lenspace import generate as _generate, parse_space_spec as _parse
from lenspace import transport
from lenspace.transport import _w2_lp
from oracles import brute_force_w2, coupling_vertices, w2_oracle_1d


def test_identical_marginals_give_zero(circle64):
    d, plan = w2(circle64, circle64.measure, circle64.measure)
    assert d == 0.0
    assert plan.cost == 0.0
    assert plan.duality_gap == 0.0
    assert np.array_equal(plan.coupling, np.diag(circle64.measure))


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
    assert plan.coupling.min() >= 0.0
    assert plan.duality_gap <= 1e-9 * (1.0 + plan.cost)
    assert d == pytest.approx(math.sqrt(plan.cost), rel=1e-12)


def test_marginal_sum_mismatch_names_defect(two_point):
    with pytest.raises(ValueError, match="sums to"):
        w2(two_point, np.array([0.7, 0.7]), two_point.measure)


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
    d_lp, plan_lp = _w2_lp(gauss101, gauss101.measure, flipped)
    d_or = w2_oracle_1d(gauss101.coords[:, 0], gauss101.measure, flipped)
    assert abs(d_lp - d_or) <= 1e-8
    # the flip moves only rounding-level mass, so compare w2 with the LP in
    # cost: the square root turns the LP's 1e-10 feasibility slack into 1e-9
    d, plan = w2(gauss101, gauss101.measure, flipped)
    assert abs(plan.cost - plan_lp.cost) <= 1e-10
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
        d_lp, _ = _w2_lp(g, a, b)
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
    _, plan_lp = _w2_lp(g, a, b)
    # in cost, where the LP is certified; near zero distance the square root
    # would magnify the LP's feasibility slack
    assert abs(plan.cost - plan_lp.cost) <= 1e-10 * (1.0 + plan_lp.cost)
    assert d == math.sqrt(plan.cost)
    plan.check(g)


def test_path_fast_path_solves_no_lp(gauss101, monkeypatch):
    # on a path numbered along itself the index-order staircase is the
    # monotone coupling: it is certified before any LP, restricted or dense
    def no_lp(*args):
        raise AssertionError("LP solved on a path graph")

    monkeypatch.setattr(transport, "_w2_lp", no_lp)
    monkeypatch.setattr(transport, "_transport_lp", no_lp)
    for g, alpha in ((gauss101, 1.0), (_generate(_parse("path:64")), 0.1)):
        target = np.exp(alpha * g.coords[:, 0]) * g.measure
        d, plan = w2(g, target / target.sum(), g.measure)
        assert d > 0
        plan.check(g)
        assert np.count_nonzero(plan.coupling) <= 2 * g.n - 1


def test_failed_certificate_falls_back_to_lp(gauss101, monkeypatch):
    # an anti-monotone staircase is a feasible tree plan but not an optimal
    # one; the reduced-cost check must reject it and the certified shortlist
    # LP must answer without the dense LP
    real = transport._staircase

    def anti_monotone(a, b):
        rows, cols, mass = real(a, b[::-1])
        return rows, len(b) - 1 - cols, mass

    lp_calls = []

    def counted_lp(*args):
        lp_calls.append(args)
        return _w2_lp(*args)

    monkeypatch.setattr(transport, "_staircase", anti_monotone)
    monkeypatch.setattr(transport, "_w2_lp", counted_lp)
    target = np.exp(gauss101.coords[:, 0]) * gauss101.measure
    target /= target.sum()
    d, plan = w2(gauss101, target, gauss101.measure)
    d_lp, plan_lp = _w2_lp(gauss101, target, gauss101.measure)
    assert lp_calls == []
    assert abs(plan.cost - plan_lp.cost) <= 1e-10 * (1.0 + plan_lp.cost)
    assert d == math.sqrt(plan.cost)
    plan.check(gauss101)


def test_failed_shortlist_falls_back_to_dense_lp(torus8, monkeypatch):
    # a certificate that only ever rejects cells already in the support
    # (the diagonal is in every first support) adds no cell: the shortlist
    # must stop and the dense LP must answer
    lp_calls = []

    def counted_lp(*args):
        lp_calls.append(args)
        return _w2_lp(*args)

    def diagonal_violation(space, *args):
        return None, -np.eye(space.n)

    monkeypatch.setattr(transport, "_certified_plan", diagonal_violation)
    monkeypatch.setattr(transport, "_w2_lp", counted_lp)
    a = np.zeros(torus8.n); a[0] = 1.0
    d, plan = w2(torus8, a, torus8.measure)
    assert len(lp_calls) == 1
    assert d == _w2_lp(torus8, a, torus8.measure)[0]
    plan.check(torus8)


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
    rows, cols, _ = g.edges
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
    d, plan = w2(g, a, b)
    _, plan_lp = _w2_lp(g, a, b)
    assert abs(plan.cost - plan_lp.cost) <= 1e-10 * (1.0 + plan_lp.cost)
    assert d == math.sqrt(plan.cost)
    plan.check(g)  # includes duality gap <= 1e-9 (1 + cost)
    # the route under test answered, not the dense fallback
    assert np.array_equal(a, b) or transport._shortlist_plan(g, a, b) is not None


def _no_dense_lp(*args):
    raise AssertionError("dense LP called")


@pytest.mark.parametrize("spec", ["torus2d:6:6", "circle:32"])
def test_general_route_solves_no_dense_lp(spec, monkeypatch):
    g = _generate(_parse(spec))
    monkeypatch.setattr(transport, "_w2_lp", _no_dense_lp)
    rng = np.random.default_rng(14)
    a = rng.gamma(1.0, size=g.n); a /= a.sum()
    d, plan = w2(g, a, g.measure)
    assert d > 0
    plan.check(g)
    monkeypatch.undo()
    _, plan_lp = _w2_lp(g, a, g.measure)
    assert abs(plan.cost - plan_lp.cost) <= 1e-10 * (1.0 + plan_lp.cost)


def test_antipodal_point_masses_on_circle(circle64, monkeypatch):
    # the nearest cells of the two mass-carrying rows cannot reach each
    # other, so only the staircase seed makes the first restricted LP feasible
    a = np.zeros(64); a[0] = 1.0
    b = np.zeros(64); b[32] = 1.0
    monkeypatch.setattr(transport, "_w2_lp", _no_dense_lp)
    d, plan = w2(circle64, a, b)
    assert d == pytest.approx(circle64.dist[0, 32], rel=1e-12)
    assert plan.coupling[0, 32] == 1.0
    plan.check(circle64)
    nearest = np.zeros((64, 64), dtype=bool)
    k = transport._NEAREST
    nearest[np.arange(64).repeat(k),
            np.argpartition(circle64.dist_sq, k - 1, axis=1)[:, :k].ravel()] = True
    nearest |= nearest.T
    assert not nearest[0, 32]
    res = transport._transport_lp(circle64, a, b, *np.nonzero(nearest))
    assert res.status == 2  # infeasible


def test_brute_force_matches_lp_small():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        edges = [(i, j, float(rng.uniform(0.3, 2.0)))
                 for i, j in itertools.combinations(range(n), 2)]
        g = build_from_graph(edges, rng.uniform(0.2, 1.0, n), n)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, n); a /= a.sum()
            b = rng.uniform(0.0, 1.0, n); b /= b.sum()
            d_lp, _ = _w2_lp(g, a, b)
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

import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lenspace import (apply, build_from_graph, lipschitz_constant, make_field,
                      make_trace, semigroup_defect, transport)
from lenspace import generate as _generate, parse_space_spec as _parse
from lenspace import hopflax
from lenspace.fields import random_smoothed_field
from lenspace.hopflax import _residual, grad_norm_field, subgrad_norm_field
from conftest import kernel_scales, scales_of
from oracles import dense_hopf_lax, dense_lipschitz, dense_minima

_PATH8 = _generate(_parse("path:8"))


def _f01(space):
    return make_field(space, np.array([0.0, 1.0]))


def test_two_point_closed_form(two_point):
    f = _f01(two_point)
    # Q_t f(B) = min(1, 1/(2t)); point A never moves
    for t, expect in ((0.25, 1.0), (0.5, 1.0), (1.0, 0.5), (2.0, 0.25)):
        q = apply(two_point, f, t)
        assert q.values[0] == 0.0
        assert q.values[1] == pytest.approx(expect, rel=1e-15)


def test_zero_time_is_identity(two_point):
    f = _f01(two_point)
    q = apply(two_point, f, 0.0)
    assert np.array_equal(q.values, f.values)
    assert q.values is not f.values


def test_tiny_time_is_identity(two_point):
    # 1/(2t) overflows to inf here; the limit Q_t f = f is returned
    f = _f01(two_point)
    for t in (1e-310, 5e-324):
        assert np.array_equal(apply(two_point, f, t).values, f.values)


def test_negative_time_rejected(two_point):
    with pytest.raises(ValueError, match="nonnegative"):
        apply(two_point, _f01(two_point), -0.5)


def test_constant_field_fixed_point(circle64):
    f = make_field(circle64, np.full(circle64.n, 3.25))
    q = apply(circle64, f, 0.7)
    assert np.all(q.values == 3.25)


def test_binding_between_spaces_rejected(two_point, path3):
    f = _f01(two_point)
    with pytest.raises(ValueError, match="bound to space"):
        apply(path3, f, 0.5)


def test_semigroup_defect_two_point(two_point):
    # Q_{1/2}f = f, so the two-step value at B stays 1 while Q_1f(B) = 1/2
    f = _f01(two_point)
    assert semigroup_defect(two_point, f, 0.5, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_semigroup_defect_evolves_f_in_one_pass(circle64):
    # Q_s f and Q_{t+s} f share one kernel pass; Q_t Q_s f takes a second
    f = random_smoothed_field(circle64, np.random.default_rng(5))
    with kernel_scales() as calls:
        defect = semigroup_defect(circle64, f, 0.3, 0.2)
    assert calls == [scales_of([0.2, 0.3 + 0.2]), scales_of([0.3])]
    two = apply(circle64, apply(circle64, f, 0.2), 0.3).values
    assert defect == float((two - apply(circle64, f, 0.3 + 0.2).values).max())


def test_semigroup_inequality_direction(two_point):
    f = _f01(two_point)
    two = apply(two_point, apply(two_point, f, 0.3), 0.9)
    one = apply(two_point, f, 1.2)
    assert np.all(two.values >= one.values - 1e-12)


def test_hj_residual_two_point_frozen(two_point):
    f = _f01(two_point)
    r = _residual(two_point, apply(two_point, f, 1.0), apply(two_point, f, 1.0 + 0.1), 0.1)
    assert r.values[0] == pytest.approx(0.0, abs=1e-15)
    # (0.4545... - 0.5)/0.1 + 0.5^2/2
    assert r.values[1] == pytest.approx(-0.32954545454545453, rel=1e-12)


def test_residual_zero_for_constant(circle64):
    f = make_field(circle64, np.zeros(circle64.n))
    r = _residual(circle64, apply(circle64, f, 0.5), apply(circle64, f, 0.5 + 0.1), 0.1)
    assert np.all(r.values == 0.0)


def test_grad_subgrad_hand_values(path3):
    f = make_field(path3, np.array([0.0, 1.0, -1.0]))
    # unit edges: slopes are plain neighbour differences
    grad = grad_norm_field(path3, f)
    sub = subgrad_norm_field(path3, f)
    assert grad[0] == 1.0
    assert grad[1] == 2.0
    assert sub[0] == 0.0   # 0 is a local min looking right
    assert sub[1] == 2.0
    assert sub[2] == 0.0


def test_subgrad_zero_at_local_min(circle64):
    rng = np.random.default_rng(5)
    f = random_smoothed_field(circle64, rng)
    sub = subgrad_norm_field(circle64, f)
    x = int(np.argmin(f.values))
    assert sub[x] == 0.0


def test_subgrad_dominated_by_grad(circle64):
    f = random_smoothed_field(circle64, np.random.default_rng(6))
    assert np.all(subgrad_norm_field(circle64, f) <= grad_norm_field(circle64, f) + 1e-15)


def test_lipschitz_constant_two_point(two_point):
    assert lipschitz_constant(two_point, _f01(two_point)) == 1.0


def test_lipschitz_regularization(circle64):
    f = random_smoothed_field(circle64, np.random.default_rng(7))
    for t in (0.05, 0.3, 1.0):
        q = apply(circle64, f, t)
        assert lipschitz_constant(circle64, q) <= circle64.diameter / t + 1e-12


@st.composite
def _graph_with_chords(draw):
    # a random tree, random extra edges, and chords longer than the whole
    # tree, so no chord is a geodesic; then a field on it
    n = draw(st.integers(2, 20))
    length = st.floats(1e-3, 50.0)
    edges = [(k, draw(st.integers(0, k - 1)), draw(length)) for k in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges += [(i, j, draw(length)) for i, j in draw(st.lists(pairs, max_size=n))]
    total = sum(e[2] for e in edges)
    edges += [(i, j, total * draw(st.floats(1.01, 3.0)))
              for i, j in draw(st.lists(pairs, max_size=n))]
    g = build_from_graph(edges, np.ones(n), n)
    vals = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    return g, make_field(g, np.array(vals))


@given(_graph_with_chords())
@settings(max_examples=150, deadline=None)
def test_lipschitz_from_edges_is_all_pairs(instance):
    g, f = instance
    for t in (0.0, 0.01, 0.3):
        q = apply(g, f, t)
        edge = lipschitz_constant(g, q)
        assert edge <= dense_lipschitz(g, q) <= edge * (1 + 1e-12)


# properties the operator satisfies exactly, fuzzed on a small fixed space
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8),
       st.floats(0.01, 3.0))
@settings(max_examples=80, deadline=None)
def test_band_and_monotonicity_property(vals, t):
    f = make_field(_PATH8, np.array(vals))
    q = apply(_PATH8, f, t)
    assert np.all(q.values <= f.values + 1e-12)
    assert np.all(q.values >= min(vals) - 1e-12)
    q2 = apply(_PATH8, f, t + 0.5)
    assert np.all(q2.values <= q.values + 1e-12)


@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8),
       st.floats(-4, 4), st.floats(0.01, 3.0))
@settings(max_examples=80, deadline=None)
def test_commutes_with_adding_constants(vals, c, t):
    f = make_field(_PATH8, np.array(vals))
    g = make_field(_PATH8, np.array(vals) + c)
    qf = apply(_PATH8, f, t)
    qg = apply(_PATH8, g, t)
    assert np.allclose(qg.values, qf.values + c, rtol=0, atol=1e-12)


@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8),
       st.lists(st.floats(0, 3), min_size=8, max_size=8),
       st.floats(0.01, 3.0))
@settings(max_examples=80, deadline=None)
def test_order_preservation(vals, bump, t):
    f = make_field(_PATH8, np.array(vals))
    g = make_field(_PATH8, np.array(vals) + np.array(bump))
    assert np.all(apply(_PATH8, f, t).values <= apply(_PATH8, g, t).values + 1e-12)


@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8),
       st.floats(0.1, 4.0), st.floats(0.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_positive_scaling_rescales_time(vals, c, t):
    # Q_t(c f) = c Q_{ct} f for c > 0
    f = make_field(_PATH8, np.array(vals))
    cf = make_field(_PATH8, c * np.array(vals))
    lhs = apply(_PATH8, cf, t).values
    rhs = c * apply(_PATH8, f, c * t).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_trace_two_point_frozen(two_point):
    f = _f01(two_point)
    tr = make_trace(two_point, f, [0.25, 0.5, 1.0, 2.0])
    got = [fld.values[1] for fld in tr.fields]
    assert got == [1.0, 1.0, 0.5, 0.25]
    assert np.array_equal(tr.steps, [0.25, 0.5, 1.0, 1.0])


def test_trace_rejects_bad_grids(two_point):
    f = _f01(two_point)
    with pytest.raises(ValueError, match="empty"):
        make_trace(two_point, f, [])
    with pytest.raises(ValueError, match="increasing"):
        make_trace(two_point, f, [0.5, 0.5])
    with pytest.raises(ValueError, match="positive"):
        make_trace(two_point, f, [0.0, 1.0])


def test_trace_convergence_bound_on_circle(circle256):
    from lenspace.fields import cosine_field
    f = cosine_field(circle256)
    tr = make_trace(circle256, f, np.geomspace(1e-3, 1.0, 8))
    # smallest-time field is within t*Lip(f)^2/2 of the source, plus mesh slack
    assert tr.convergence_defect <= tr.convergence_bound + circle256.mesh_h ** 2


def test_trace_single_time(two_point):
    tr = make_trace(two_point, _f01(two_point), [1.0])
    assert tr.steps == pytest.approx([0.5])
    assert len(tr.fields) == 1


def test_trace_json_dict_shape(two_point):
    tr = make_trace(two_point, _f01(two_point), [0.5, 1.0])
    doc = tr.to_json_dict()
    assert set(doc) >= {"times", "fields", "lip_constants", "residual_summaries"}
    assert len(doc["fields"]) == 2


@pytest.mark.parametrize("times, n_times", [
    # len(times) grid fields plus the last step, which leaves the grid
    (np.geomspace(0.01, 1.0, 8), 9),
    # 0.001 + (0.01 - 0.001) != 0.01 and 0.2 + (0.82 - 0.2) != 0.82 in
    # floating point, so those two steps are times of their own
    (np.array([0.001, 0.01, 0.2, 0.82, 1.5]), 8),
])
def test_trace_reuses_grid_fields(circle64, times, n_times):
    f = random_smoothed_field(circle64, np.random.default_rng(11))
    with kernel_scales() as calls:
        tr = make_trace(circle64, f, times)
    # one kernel pass, in which each grid time and each t + s is evaluated once
    grid = tr.times.tolist()
    needed = sorted(set(grid) | {t + s for t, s in zip(grid, tr.steps.tolist())})
    assert len(needed) == n_times
    assert calls == [scales_of(needed)]
    for t, s, r in zip(tr.times, tr.steps, tr.residuals):
        ref = _residual(circle64, apply(circle64, f, t), apply(circle64, f, t + s), s)
        assert np.array_equal(r.values, ref.values)


@pytest.mark.parametrize("block_cells", [1, 7, 100, 250])
@pytest.mark.parametrize("spec", ["path:3", "path:8", "complete:9", "circle:64",
                                  "torus2d:6:6", "gauss:81"])
def test_blocked_apply_is_bitwise_the_dense_minimum(spec, block_cells, monkeypatch):
    # blocks of one row, of more rows than n, and blocks that leave a short
    # last one: 7 cells on path:3 (2 + 1 rows), 250 on circle:64 (21 x 3 + 1)
    g = _generate(_parse(spec))
    monkeypatch.setattr(hopflax, "_BLOCK_CELLS", block_cells)
    f = random_smoothed_field(g, np.random.default_rng(21))
    for t in (0.01, 0.3, 0.5, 1.0):
        assert apply(g, f, t).values.tobytes() == dense_hopf_lax(g, f, t).tobytes()
    # a grid in one pass is each scale's own pass, minimizers included: t = 0
    # and t = 1e-310 give an infinite scale, t = 1e-308 overflows every cell
    # but a row's own, and t = 1e308 gives scale 0
    times = (0.3, 0.0, 1e-310, 0.01, 1e-308, 1.0, 0.5, 1e308)
    with np.errstate(divide="ignore", over="ignore"):
        scales = 1.0 / (2.0 * np.array(times))
    arg, low = hopflax._minima(g, f.values, scales)
    assert arg.shape == low.shape == (len(times), g.n)
    for k, a in enumerate(scales):
        (one_arg,), (one_low,) = hopflax._minima(g, f.values, [a])
        assert arg[k].tobytes() == one_arg.tobytes()
        assert low[k].tobytes() == one_low.tobytes()
        if np.isinf(a):  # Q_0 f = f: each point is its own minimizer
            assert np.array_equal(arg[k], np.arange(g.n))
            assert low[k].tobytes() == f.values.tobytes()
        else:  # the first minimizer of the dense row, and its value
            with np.errstate(over="ignore"):
                dense = f.values[None, :] + g.dist ** 2 * a
            assert np.array_equal(arg[k], dense.argmin(axis=1))
            assert low[k].tobytes() == dense.min(axis=1).tobytes()


@pytest.mark.parametrize("n", [255, 256, 257])
def test_blocked_apply_across_a_block_boundary(n):
    # the default block is 65536 // n rows: all of 255 or 256 rows, and 255
    # rows plus a last block of 2 for 257
    g = _generate(_parse(f"circle:{n}"))
    f = random_smoothed_field(g, np.random.default_rng(n))
    for t in (0.01, 0.5):
        assert apply(g, f, t).values.tobytes() == dense_hopf_lax(g, f, t).tobytes()


def test_kernel_callers_allocate_no_square_array():
    # apply, a trace and a failing transport certificate each peak below a
    # quarter of one n x n float array
    g = _generate(_parse("circle:1024"))
    n = g.n
    f = random_smoothed_field(g, np.random.default_rng(22))
    idx, u, v = np.arange(n), np.zeros(n), np.ones(n)
    peaks = []
    for run in (lambda: apply(g, f, 0.3),
                lambda: make_trace(g, f, np.geomspace(0.01, 1.0, 8)),
                lambda: transport._certified_plan(g, g.measure, g.measure, idx, idx,
                                                  g.measure, u, v)):
        tracemalloc.start()
        try:
            result = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < n * n * 8 / 4, peaks
    plan, (rows, cols) = result
    assert plan is None and len(rows) == len(cols) == 2 * n


# circles, square and non-square tori and complete graphs (one row per
# orbit) and line spaces; the last of each kind is large enough that a
# block holds at most an eighth of the rows, so columns are pruned
_KERNEL_SPECS = ("circle:3", "circle:17", "circle:64:1e-100", "circle:800",
                 "circle:1030:1e100", "torus2d:4:4", "torus2d:5:7", "torus2d:20:24",
                 "torus2d:30:27", "complete:5", "complete:300", "complete:760", "path:9",
                 "gauss:41", "path:750")


@lru_cache(maxsize=None)
def _kernel_space(spec):
    return _generate(_parse(spec))


def _kernel_field(kind, n, rng):
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "symmetric":  # g(x) = g(-x) on circles: ties between mirror images
        half = np.round(rng.normal(size=n) * 3)
        return half[np.minimum(np.arange(n), (-np.arange(n)) % n)]
    if kind == "integers":
        return np.round(rng.normal(size=n) * 2)
    return rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300)


@given(spec=st.sampled_from(_KERNEL_SPECS),
       kind=st.sampled_from(["constant", "symmetric", "integers", "random"]),
       seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.sampled_from([math.inf, 0.0, 5e-324, 1e-300, 1e-12, 0.01, 0.5,
                                        1.0, 7.25, 1e10, 1e300])
                       | st.floats(0.0, 1e6), min_size=1, max_size=4))
@example(spec="torus2d:20:24", kind="random", seed=4, scales=[0.5, 7.25, 1e-12])
@example(spec="complete:300", kind="integers", seed=5, scales=[1.0, 0.01])
@settings(max_examples=60, deadline=None)
def test_kernel_is_bitwise_the_dense_reference(spec, kind, seed, scales):
    # ties, t = 0 (an infinite scale), scale 0, tiny and huge scales, and
    # cells that overflow; the pruned and unpruned paths agree too
    g = _kernel_space(spec)
    f = _kernel_field(kind, g.n, np.random.default_rng(seed))
    arg, low = hopflax._minima(g, f, scales)
    ref_arg, ref_low = dense_minima(g, f, scales)
    assert arg.tobytes() == ref_arg.tobytes()
    assert low.tobytes() == ref_low.tobytes()
    with mock.patch.object(hopflax, "_BLOCK_CELLS", g.n * g.n):  # one block: no pruning
        whole_arg, whole_low = hopflax._minima(g, f, scales)
    assert whole_arg.tobytes() == arg.tobytes()
    assert whole_low.tobytes() == low.tobytes()


def test_orbit_kernel_never_reads_dist():
    # the kernel copies translates of point 0's squared row
    for spec in ("circle:800", "torus2d:30:27", "complete:760"):
        g = _generate(_parse(spec))
        make_trace(g, make_field(g, np.cos(np.arange(g.n))), np.geomspace(0.01, 1.0, 8))
        assert "dist" not in vars(g), spec

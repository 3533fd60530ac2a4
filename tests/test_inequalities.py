import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lenspace import (apply, build_from_graph, dual_talagrand_defect, entropy_functional,
                      estimate_constant, lsi_ratio, make_field, phi_trace,
                      poincare_ratio, psi_trace, talagrand_ratio, verify_chain)
from lenspace import generate as _generate, parse_space_spec as _parse
from lenspace.fields import random_smoothed_field, tilt_field
from lenspace import inequalities
from lenspace.inequalities import (DegenerateWitnessError,
                                   default_witness_family,
                                   laplacian_eigenfields)
from conftest import kernel_scales, scales_of

_PATH8 = _generate(_parse("path:8"))

LOG2 = math.log(2.0)


def _sqrt2_bump(space):
    # F with F^2 = (2, 0): all mass and all entropy at the first point
    return make_field(space, np.array([math.sqrt(2.0), 0.0]))


def test_entropy_frozen_two_point(two_point):
    assert entropy_functional(two_point, _sqrt2_bump(two_point)) == pytest.approx(LOG2, rel=1e-14)


def test_entropy_zero_on_constant(two_point):
    f = make_field(two_point, np.array([1.7, 1.7]))
    assert entropy_functional(two_point, f) == pytest.approx(0.0, abs=1e-15)


def test_entropy_zero_on_constant_absolute_value(two_point):
    f = make_field(two_point, np.array([1.0, -1.0]))
    assert entropy_functional(two_point, f) == pytest.approx(0.0, abs=1e-15)


def test_entropy_rejects_zero_field(two_point):
    f = make_field(two_point, np.zeros(2))
    with pytest.raises(DegenerateWitnessError, match="vanishes"):
        entropy_functional(two_point, f)


@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
       st.floats(-4, 4).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=60, deadline=None)
def test_entropy_scale_invariant(vals, c):
    arr = np.array(vals)
    if float(arr ** 2 @ _PATH8.measure) < 1e-6:
        return
    f = make_field(_PATH8, arr)
    g = make_field(_PATH8, c * arr)
    a = entropy_functional(_PATH8, f)
    b = entropy_functional(_PATH8, g)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
    assert a >= -1e-12


def test_lsi_frozen_two_point(two_point):
    assert lsi_ratio(two_point, _sqrt2_bump(two_point)) == pytest.approx(2.0 / LOG2, rel=1e-14)


def test_talagrand_frozen_two_point(two_point):
    assert talagrand_ratio(two_point, _sqrt2_bump(two_point)) == pytest.approx(4.0 * LOG2, rel=1e-12)


def test_poincare_frozen_two_point(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    assert poincare_ratio(two_point, h) == 2.0


def test_poincare_invariant_under_constants(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    g = make_field(two_point, np.array([4.0, 6.0]))
    assert poincare_ratio(two_point, g) == pytest.approx(poincare_ratio(two_point, h), rel=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
       st.floats(0.01, 5.0))
@settings(max_examples=40, deadline=None)
# the first used to fail on its squares, which underflow; the second on an
# absolute variance floor that the scaled field falls below
@example(vals=[0.0] * 7 + [4.70684413617123e-161], c=0.0625)
@example(vals=[0.0] * 7 + [6.103515625e-05], c=0.03125)
def test_ratios_invariant_under_positive_scaling(vals, c):
    # the one-sided slope flips under negative scaling, so only c > 0 here;
    # talagrand sees F only through F^2 and is checked for -F separately
    arr = np.array(vals)
    f = make_field(_PATH8, arr)
    g = make_field(_PATH8, c * arr)
    for ratio in (lsi_ratio, poincare_ratio):
        try:
            a = ratio(_PATH8, f)
        except DegenerateWitnessError:
            continue
        assert ratio(_PATH8, g) == pytest.approx(a, rel=1e-9)


def test_poincare_variance_floor_is_relative_to_the_field():
    # the 1e-12 variance floor applies after max|f| is scaled into [0.5, 1):
    # a large, nearly constant witness is degenerate although its absolute
    # variance (5e-11) is above the floor, while a larger spread still counts
    x = np.arange(8)
    flat = 1000.0 + 1e-5 * np.cos(x)
    centered = flat - flat @ _PATH8.measure
    assert centered ** 2 @ _PATH8.measure > 1e-12
    with pytest.raises(DegenerateWitnessError, match="variance vanishes"):
        poincare_ratio(_PATH8, make_field(_PATH8, flat))
    assert poincare_ratio(_PATH8, make_field(_PATH8, 1000.0 + 1e-2 * np.cos(x))) > 0


def test_talagrand_invariant_under_sign_flip(gauss101):
    f = tilt_field(gauss101, 0.5)
    g = make_field(gauss101, -f.values)
    assert talagrand_ratio(gauss101, g) == pytest.approx(
        talagrand_ratio(gauss101, f), rel=1e-9)


def test_degenerate_witnesses_raise(two_point, circle64, gauss101):
    const = make_field(circle64, np.full(circle64.n, 2.0))
    with pytest.raises(DegenerateWitnessError):
        lsi_ratio(circle64, const)
    with pytest.raises(DegenerateWitnessError):
        talagrand_ratio(circle64, const)
    with pytest.raises(DegenerateWitnessError):
        poincare_ratio(circle64, const)
    # on a path, w2 is exact, so rounding in F^2 nu / mass gives a tiny
    # nonzero distance; the witness is still degenerate
    for c in (0.3, 2.0, 7.0):
        with pytest.raises(DegenerateWitnessError):
            talagrand_ratio(gauss101, make_field(gauss101, np.full(gauss101.n, c)))


def test_eigenfields_shape_and_normalization(circle256):
    fields = laplacian_eigenfields(circle256, k=3)
    assert len(fields) == 3
    for f in fields:
        assert np.abs(f.values).max() == pytest.approx(1.0, rel=1e-12)


def test_first_eigenfield_sees_spectral_gap(circle256):
    # continuum Poincare constant of the unit-speed circle's first mode is 1
    f = laplacian_eigenfields(circle256, k=1)[0]
    assert poincare_ratio(circle256, f) == pytest.approx(1.0, abs=0.01)


def _check_eigenfields_against_scipy(space, k):
    """The k eigenfields against scipy.linalg.eigh(L, B) of the oracle: each
    Rayleigh quotient within 1e-10 of its eigenvalue, relative, and each
    eigenspace by projector distance, in the B-inner product."""
    from oracles import laplacian_pencil, scipy_eigenpairs
    lam, vecs = scipy_eigenpairs(space)
    lap, B = laplacian_pencil(space)
    fields = np.array([f.values for f in laplacian_eigenfields(space, k)]).T
    k = fields.shape[1]
    rayleigh = np.einsum("ij,ij->j", fields, lap @ fields) / np.einsum("ij,ij->j", fields, B @ fields)
    assert np.all(np.abs(rayleigh - lam[1:k + 1]) <= 1e-10 * np.abs(lam[1:k + 1]))
    # eigenvalues within 1e-8 of each other, relative, form one eigenspace;
    # one cut at k is compared as the part of it the fields span
    root = np.sqrt(np.diag(B))[:, None]
    ours = np.linalg.qr(root * fields)[0]
    theirs = root * vecs
    j = 1
    while j <= k:
        end = j + 1
        while end < space.n and lam[end] - lam[end - 1] <= 1e-8 * lam[end]:
            end += 1
        q, u = ours[:, j - 1:min(end, k + 1) - 1], theirs[:, j:end]
        if end <= k + 1:  # the whole eigenspace: the two projectors agree
            assert np.linalg.norm(q @ q.T - u @ u.T, 2) <= 1e-8
        else:  # the fields lie in it
            assert np.linalg.norm(q - u @ (u.T @ q), 2) <= 1e-8
        j = end


@pytest.mark.parametrize("spec", ["gauss:41:1:4", "gauss:81:1:4", "gauss:201:1:4",
                                  "circle:32", "circle:256", "torus2d:12:12",
                                  "torus2d:5:8:1:3", "path:64", "complete:9"])
@pytest.mark.parametrize("k", [3, 8])
def test_eigenfields_match_scipy_on_generators(spec, k):
    _check_eigenfields_against_scipy(_generate(_parse(spec)), k)


@given(st.integers(4, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_eigenfields_match_scipy_on_chorded_rings(n, seed):
    # a ring with random arcs, chords longer than the arcs they span and an
    # uneven measure, as the chorded ring of tools/artifact_diff.py
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, w) for i, w in enumerate(rng.uniform(0.5, 2.0, n).tolist())]
    edges += [(*rng.choice(n, 2, replace=False).tolist(), w)
              for w in rng.uniform(1.0, 10.0, int(rng.integers(1, n))).tolist()]
    g = build_from_graph(edges, rng.integers(1, 5, n), n)
    _check_eigenfields_against_scipy(g, 3)


def test_estimate_constant_two_point_exhaustive(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    est = estimate_constant(two_point, "poincare", [("pm", h)], seed=0)
    # every nonconstant field on two points has ratio exactly 2
    assert est.value == 2.0
    assert est.witness_label == "pm"


def test_estimate_constant_requires_budget(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="budget"):
        estimate_constant(two_point, "poincare", [("pm", h)], budget=0)


def test_estimate_constant_all_degenerate_raises(two_point):
    const = make_field(two_point, np.ones(2))
    with pytest.raises(DegenerateWitnessError, match="every witness"):
        estimate_constant(two_point, "poincare", [("c", const)], seed=0)


def test_estimate_constant_deterministic(gauss101):
    a = estimate_constant(gauss101, "lsi", seed=3)
    b = estimate_constant(gauss101, "lsi", seed=3)
    assert a.value == b.value
    assert np.array_equal(a.witness.values, b.witness.values)


def test_estimator_soundness_appending_witnesses():
    # adding family members can only lower the reported upper bound
    base = [(f"w{i}", random_smoothed_field(_PATH8, np.random.default_rng([21, i])))
            for i in range(3)]
    extra = base + [("x", random_smoothed_field(_PATH8, np.random.default_rng([21, 99])))]
    for which in ("lsi", "poincare"):
        small = estimate_constant(_PATH8, which, base, budget=4, seed=1)
        grown = estimate_constant(_PATH8, which, extra, budget=4, seed=1)
        assert grown.value <= small.value + 1e-12
        # earlier witnesses are evaluated identically in both runs
        assert grown.evaluations[:3] == small.evaluations


def test_dual_talagrand_frozen_two_point(two_point):
    g = make_field(two_point, np.array([0.0, 1.0]))
    expect = math.log(0.5 * (1.0 + math.e)) - 1.0
    assert dual_talagrand_defect(two_point, g, 2.0) == pytest.approx(expect, rel=1e-14)


def test_dual_talagrand_zero_on_constants(gauss101):
    g = make_field(gauss101, np.full(gauss101.n, 0.37))
    assert dual_talagrand_defect(gauss101, g, 1.3) == pytest.approx(0.0, abs=1e-12)


def test_dual_talagrand_requires_positive_K(two_point):
    g = make_field(two_point, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        dual_talagrand_defect(two_point, g, 0.0)


_GAUSS81 = _generate(_parse("gauss:81"))
_GAUSS81_FIELD = random_smoothed_field(_GAUSS81, 5).values
_WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e300))


@st.composite
def _logsumexp_inputs(draw):
    if draw(st.booleans()):  # K times a smoothed field on gauss:81, weighted by its measure
        K = draw(st.floats(-1e3, 1e3, allow_nan=False))
        return K * _GAUSS81_FIELD, _GAUSS81.measure
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
    a = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))  # repeats
    b = np.array(draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
    return a, b


@settings(max_examples=400, deadline=None)
@given(_logsumexp_inputs())
@example((np.array([2.5]), np.array([0.3])))  # a single entry
@example((np.array([1.0, 7.0, 3.0]), np.array([0.0, 0.0, 0.4])))  # all but one weight zero
@example((np.array([np.inf, 1.0]), np.array([0.0, 2.0])))  # a zero weight drops inf
@example((np.array([4.0, 4.0, 1.0, 4.0]), np.array([0.2, 0.3, 0.1, 0.4])))  # repeated maxima
@example((np.array([800.0, 800.0, -5.0]), np.array([0.5, 0.5, 1.0])))  # exp(a) overflows
@example((np.array([np.inf, 1.0]), np.array([1.0, 1.0])))  # inf result: the direct sum decides
@example((np.array([1.0, 0.0]), np.array([1e-300, 1e300])))  # s / m overflows, sum is finite
def test_logsumexp_port_is_bitwise_scipy(inputs):
    from scipy.special import logsumexp
    a, b = inputs
    ours = inequalities._logsumexp(a, b)
    with np.errstate(all="ignore"):
        theirs = float(logsumexp(a, b=b))
    assert np.float64(ours).tobytes() == np.float64(theirs).tobytes() or (
        math.isnan(ours) and math.isnan(theirs)), (ours, theirs)


def test_psi_trace_zero_field_is_one(gauss101):
    h = make_field(gauss101, np.zeros(gauss101.n))
    tr = psi_trace(gauss101, h, 0.9, [0.01, 0.1, 1.0])
    assert np.allclose(tr.values, 1.0, rtol=0, atol=1e-12)
    assert abs(tr.max_excess) <= 1e-12


def test_psi_trace_small_time_near_one(gauss101):
    # psi(0+) = 1 since the input is centered; deviation is O(t^2)
    h = random_smoothed_field(gauss101, np.random.default_rng(14))
    tr = psi_trace(gauss101, h, 0.9, [1e-4])
    assert abs(tr.values[0] - 1.0) <= 5e-3


def test_phi_trace_frozen_two_point(two_point):
    g = make_field(two_point, np.array([0.0, 1.0]))
    tr = phi_trace(two_point, g, 2.0, [0.5, 1.0])
    phi_half = math.log(0.5 * (1.0 + math.e))
    assert tr.values[0] == pytest.approx(phi_half, rel=1e-14)
    assert tr.values[1] == pytest.approx(phi_half / 2.0, rel=1e-14)
    assert tr.max_upward_step == 0.0
    assert tr.endpoint_identity_gap == 0.0


def test_phi_trace_constant_field(gauss101):
    g = make_field(gauss101, np.full(gauss101.n, -1.25))
    tr = phi_trace(gauss101, g, 0.7, np.geomspace(0.01, 1.0, 5))
    assert np.allclose(tr.values, -1.25, rtol=0, atol=1e-12)
    assert tr.small_t_defect <= 1e-12


def test_phi_small_t_limit_is_mean(gauss101):
    g = random_smoothed_field(gauss101, np.random.default_rng(15))
    tr = phi_trace(gauss101, g, 0.9, [1e-5, 1.0])
    assert tr.small_t_defect <= 1e-3


def test_psi_phi_sign_agreement(gauss101):
    # psi <= 1 exactly when phi <= 0, for mean-zero input on a shared grid
    h = random_smoothed_field(gauss101, np.random.default_rng(16))
    centered = make_field(gauss101, h.values - float(h.values @ gauss101.measure))
    grid = np.geomspace(0.01, 2.0, 9)
    ps = psi_trace(gauss101, centered, 0.9, grid)
    ph = phi_trace(gauss101, centered, 0.9, grid)
    for pv, fv in zip(ps.values, ph.values):
        if abs(pv - 1.0) > 1e-12:
            assert (pv > 1.0) == (fv > 0.0)


def test_phi_trace_reads_phi_1_off_its_grid(gauss101):
    # one kernel pass gives the grid and Q_1 g, which the endpoint identity's
    # dual defect reads too: t = 1 is added only when the grid lacks it
    g = random_smoothed_field(gauss101, np.random.default_rng(18))
    grid = np.geomspace(0.01, 1.0, 12)
    with kernel_scales() as calls:
        tr = phi_trace(gauss101, g, 0.9, grid)
    assert calls == [scales_of(grid)]
    assert tr.endpoint_identity_gap <= 1e-12
    with kernel_scales() as calls:
        tr = phi_trace(gauss101, g, 0.9, [0.5])
    assert calls == [scales_of([0.5, 1.0])]
    assert tr.endpoint_identity_gap <= 1e-12
    # the gap compares against the public dual defect, bitwise
    phi_1 = phi_trace(gauss101, g, 0.9, [1.0]).values[0]
    assert tr.endpoint_identity_gap == abs(
        0.9 * (phi_1 - tr.mean_g) - dual_talagrand_defect(gauss101, g, 0.9))


def test_psi_trace_is_one_kernel_pass(gauss101):
    h = random_smoothed_field(gauss101, np.random.default_rng(19))
    grid = [0.1, 0.5, 1.0]
    with kernel_scales() as calls:
        tr = psi_trace(gauss101, h, 0.9, grid)
    assert calls == [scales_of(grid)]
    centered = make_field(gauss101, h.values - float(h.values @ gauss101.measure))
    for t, value in zip(grid, tr.values):
        q = apply(gauss101, centered, t).values
        assert value == float(np.exp(0.9 * t * q) @ gauss101.measure)


def test_endpoint_identity_random_pairs(gauss101):
    for i in range(5):
        rng = np.random.default_rng([17, i])
        g = random_smoothed_field(gauss101, rng)
        K = float(rng.uniform(0.3, 2.0))
        tr = phi_trace(gauss101, g, K, [0.5, 1.0])
        assert tr.endpoint_identity_gap <= 1e-12


def test_verify_chain_validations(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    family = [("h", h)]
    with pytest.raises(ValueError, match="K must be positive"):
        verify_chain(two_point, -1.0, family, 0.05)
    with pytest.raises(ValueError, match="tau"):
        verify_chain(two_point, 1.0, family, 1.5)
    with pytest.raises(ValueError, match="witness family is empty"):
        verify_chain(two_point, 1.0, [], 0.05)


def test_verify_chain_tiny_K_vacuous(two_point):
    F = _sqrt2_bump(two_point)
    rep = verify_chain(two_point, 1e-6, [("F", F)], 0.05)
    assert rep.consistent and not rep.hypothesis_refuted
    assert "consistent" in rep.verdict
    assert all(c.ratio is not None for c in rep.checks)


def test_verify_chain_huge_K_refutes_hypothesis_only(two_point):
    F = _sqrt2_bump(two_point)
    rep = verify_chain(two_point, 50.0, [("F", F)], 0.05)
    assert rep.hypothesis_refuted
    assert rep.counterexample is None
    assert rep.consistent
    assert "fails on this space" in rep.verdict
    # implications were never tested
    assert all(c.stage == "lsi" for c in rep.checks)


def test_verify_chain_degenerate_witness_passes_as_no_information(two_point):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    const = make_field(two_point, np.ones(2))
    rep = verify_chain(two_point, 1e-6, [("h", h), ("c", const)], 0.05)
    # every stage tests every member; the constant informs none of them
    assert [(c.stage, c.witness_label) for c in rep.checks] == [
        (s, lab) for s in ("lsi", "talagrand", "poincare") for lab in ("h", "c")]
    assert all(c.ratio is None for c in rep.checks if c.witness_label == "c")
    assert all(c.passed for c in rep.checks)
    assert rep.consistent


@pytest.mark.parametrize("stage", ["talagrand", "poincare"])
def test_verify_chain_counterexample_at_later_stage(two_point, monkeypatch, stage):
    # an implication stage whose ratio falls below its threshold is a
    # counterexample; the walk stops there and the hypothesis stands
    monkeypatch.setitem(inequalities._RATIOS, stage, lambda space, f: 1e-12)
    F = _sqrt2_bump(two_point)
    rep = verify_chain(two_point, 1e-6, [("F", F)], 0.05)
    stages = list(inequalities._RATIOS)
    assert [c.stage for c in rep.checks] == stages[:stages.index(stage) + 1]
    assert [c.threshold for c in rep.checks] == [
        1e-6 * (1 - 0.05) ** k for k in range(1, len(rep.checks) + 1)]
    assert rep.counterexample == rep.checks[-1]
    assert rep.counterexample.stage == stage and rep.counterexample.ratio == 1e-12
    assert not rep.hypothesis_refuted and not rep.consistent
    assert f"counterexample at stage {stage}" in rep.verdict


def test_default_witness_family_rejects_negative_n_random(circle64):
    with pytest.raises(ValueError, match="n_random must be >= 0, got -1"):
        default_witness_family(circle64, n_random=-1)


def test_default_witness_family_label_kinds(gauss101, circle64):
    labels = [lab for lab, _ in default_witness_family(gauss101, seed=0)]
    assert any(lab.startswith("tilt:") for lab in labels)
    assert any(lab.startswith("eigen:") for lab in labels)
    assert any(lab.startswith("random:") for lab in labels)
    assert len(labels) == len(set(labels))
    # tilts realize the Gaussian extremals only on non-periodic 1-d spaces
    labels = [lab for lab, _ in default_witness_family(circle64, seed=0, n_random=2)]
    assert labels == ["eigen:1", "eigen:2", "eigen:3", "random:0", "random:1"]


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf])
def test_every_K_consumer_rejects_bad_K(two_point, K):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    for call in (lambda: verify_chain(two_point, K, [("h", h)], 0.05),
                 lambda: psi_trace(two_point, h, K, [0.5]),
                 lambda: phi_trace(two_point, h, K, [0.5]),
                 lambda: dual_talagrand_defect(two_point, h, K)):
        with pytest.raises(ValueError, match="K must be positive"):
            call()


@pytest.mark.parametrize("grid, words", [([], "empty"), ([0.5, 0.5], "increasing"),
                                         ([0.0, 1.0], "positive"),
                                         ([math.nan], "positive")])
def test_trace_grids_validated_like_make_trace(two_point, grid, words):
    h = make_field(two_point, np.array([-1.0, 1.0]))
    for trace in (psi_trace, phi_trace):
        with pytest.raises(ValueError, match=words):
            trace(two_point, h, 1.0, grid)


@pytest.mark.parametrize("kind", ["circle", "torus2d"])
def test_constants_scale_by_four_to_the_minus_k(kind):
    # every ratio is 1/length^2 times a scale-free one: T's degeneracy floor
    # is relative to the diameter, and W2 is exact far from scale 1 (at
    # length 6.2e-120 every T witness used to be refused as degenerate)
    from lenspace.generators import SpaceSpec

    def estimates(k):
        side = math.ldexp(2 * math.pi, k)
        spec = (SpaceSpec(kind="circle", n=16, length=side) if kind == "circle"
                else SpaceSpec(kind="torus2d", n=4, m=4, side_x=side, side_y=side))
        g = _generate(spec)
        return [estimate_constant(g, which, budget=2).value * 4.0 ** k
                for which in ("lsi", "talagrand", "poincare")]

    base = estimates(0)
    for k in (-190, -100, -20, -1, 1, 20, 100, 190):
        assert estimates(k) == pytest.approx(base, rel=1e-9), k

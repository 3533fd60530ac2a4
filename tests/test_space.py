import functools
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lenspace import (build_from_graph, doubling_constant,
                      local_poincare_constant, make_field, validate_metric)
from lenspace import generate as _generate, parse_space_spec as _parse
from lenspace.hopflax import grad_norm_field, subgrad_norm_field


def test_two_point_distances(two_point):
    assert two_point.n == 2
    assert two_point.dist[0, 1] == 1.0
    assert two_point.dist[0, 0] == 0.0
    assert two_point.diameter == 1.0
    assert np.allclose(two_point.measure, [0.5, 0.5])


def test_measure_normalized():
    g = build_from_graph([(0, 1, 1.0)], np.array([3.0, 1.0]), 2)
    assert g.measure.sum() == pytest.approx(1.0, abs=1e-15)
    assert g.measure[0] == 0.75


def test_shortest_path_beats_direct_edge():
    # direct edge 0-2 is longer than the two-hop route
    g = build_from_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)],
                         np.ones(3), 3)
    assert g.dist[0, 2] == 2.0


def test_parallel_edges_keep_shortest():
    g = build_from_graph([(0, 1, 3.0), (0, 1, 1.0)], np.ones(2), 2)
    assert g.dist[0, 1] == 1.0


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_from_graph([(0, 0, 1.0), (0, 1, 1.0)], np.ones(2), 2)


def test_nonpositive_length_rejected():
    with pytest.raises(ValueError, match="positive"):
        build_from_graph([(0, 1, 0.0)], np.ones(2), 2)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        build_from_graph([(0, 1, 1.0)], np.array([1.0, -0.5]), 2)


def test_zero_total_weight_rejected():
    with pytest.raises(ValueError, match="zero"):
        build_from_graph([(0, 1, 1.0)], np.zeros(2), 2)


def test_overflowing_total_weight_rejected():
    # the total used to overflow to inf, with a warning, and the measure to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            build_from_graph([(0, 1, 1.0), (1, 2, 1.0)], [1e308, 1e308, 1.0], 3)
    assert str(err.value) == "measure weights sum past the largest float"


@pytest.mark.parametrize("params", [{"length": math.nan}, {"a": {"b": [-math.inf]}}],
                         ids=["nan", "nested-inf"])
def test_nonfinite_params_rejected(params):
    # a saved file would hold such a number as null, and reload with another id
    with pytest.raises(ValueError) as err:
        build_from_graph([(0, 1, 1.0)], np.ones(2), 2, params=params)
    assert str(err.value) == f"params must hold finite numbers only, got {params!r}"


@pytest.mark.parametrize("edges, measure, n, coords, message", [
    ([], [], 0, None, "need at least one point, got n=0"),
    ([(0, 1, 1.0)], [1.0, 1.0, 1.0], 2, None, "measure has 3 entries, expected n=2"),
    ([(0, 1, 1.0)], [1.0, np.nan], 2, None, "measure weights must be finite"),
    ([(0, 1, 1.0)], [1.0, 1.0], 2, [0.0, 1.0, 2.0], "coords have (3, 1) entries, expected n=2"),
], ids=["no-points", "measure-length", "nan-weight", "coords-length"])
def test_build_input_errors(edges, measure, n, coords, message):
    with pytest.raises(ValueError) as err:
        build_from_graph(edges, np.array(measure), n, coords=coords)
    assert str(err.value) == message


def test_field_shape_errors(circle64):
    from lenspace.space import ScalarField, check_binding
    with pytest.raises(ValueError) as err:
        ScalarField(np.zeros((2, 2)), circle64.space_id)
    assert str(err.value) == "field values must be a 1-d array"
    with pytest.raises(ValueError) as err:
        make_field(circle64, np.zeros(63))
    assert str(err.value) == "field has (63,) values, space has 64 points"
    with pytest.raises(ValueError) as err:
        check_binding(circle64, ScalarField(np.zeros(63), circle64.space_id))
    assert str(err.value) == "field length does not match space size"


def test_disconnected_rejected_names_pair():
    with pytest.raises(ValueError, match="points 0 and 2 are not connected"):
        build_from_graph([(0, 1, 1.0), (2, 3, 1.0)], np.ones(4), 4)


@pytest.mark.parametrize("edges, n, message", [
    # a path, whose line route overflows in a cumsum
    ([(0, 1, 1e308), (1, 2, 1e308)], 3, "diameter inf is above 2^400: squares would overflow"),
    # a ring with a chord, whose search route overflows in a relaxation
    ([(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1e308), (3, 0, 1e308), (0, 2, 1.0)], 4,
     "diameter inf is above 2^400: squares would overflow"),
    # an overflowing path beside a second component
    ([(0, 1, 1e308), (1, 2, 1e308), (3, 4, 1.0)], 5,
     "graph is disconnected: points 0 and 3 are not connected"),
])
def test_overflowed_distance_sums_are_not_called_disconnected(edges, n, message):
    # an overflowed sum is inf, as a missing path is; the edges tell the two
    # apart, and no RuntimeWarning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            build_from_graph(edges, np.ones(n), n)
    assert str(err.value) == message


def test_dist_symmetric_and_zero_diagonal(circle64):
    assert np.array_equal(circle64.dist, circle64.dist.T)
    assert np.all(np.diag(circle64.dist) == 0.0)


def test_arrays_read_only(circle64):
    with pytest.raises(ValueError):
        circle64.dist[0, 1] = 99.0
    with pytest.raises(ValueError):
        circle64.measure[0] = 99.0


def test_space_id_is_stable_and_disambiguates(circle64):
    from lenspace.generators import parse_space_spec, generate
    again = generate(parse_space_spec("circle:64"))
    other = generate(parse_space_spec("circle:65"))
    assert circle64.space_id == again.space_id
    assert circle64.space_id != other.space_id


def test_space_id_covers_edges():
    # a redundant edge leaves dist and measure alone but changes the graph,
    # and with it every gradient computed on the space
    from lenspace.hopflax import grad_norm_field
    path = build_from_graph([(0, 1, 1.0), (1, 2, 1.0)], np.ones(3), 3)
    chorded = build_from_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)], np.ones(3), 3)
    assert np.array_equal(path.dist, chorded.dist)
    assert path.space_id != chorded.space_id
    f = make_field(path, [0.0, 4.0, 0.0])
    with pytest.raises(ValueError, match="bound to space"):
        grad_norm_field(chorded, f)
    # edge order and parallel duplicates do not matter, only the graph
    again = build_from_graph([(2, 1, 1.0), (1, 0, 3.0), (0, 1, 1.0)], np.ones(3), 3)
    assert again.space_id == path.space_id


@st.composite
def _edge_lists(draw):
    """(n, edges): a ring through n points plus chords, each pair drawn in
    either orientation, pairs repeated, and lengths from a set with ties."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = [(i, (i + 1) % n) for i in range(n)] + draw(st.lists(pair, max_size=30))
    length = st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -52, 3.0])
    edges = [(j, i, draw(length)) if draw(st.booleans()) else (i, j, draw(length))
             for i, j in pairs]
    return n, draw(st.permutations(edges))


# edges inserted into a valid list: bad ones of every kind, some bad in two
# ways at once, and float endpoints, which are read as int() reads them
_ODD_EDGES = [
    lambda n: (n, 0, 1.0), lambda n: (0, -1, 1.0), lambda n: (10 ** 400, 1, 1.0),
    lambda n: (1, 1, 2.0), lambda n: (1.2, 1.9, 2.0), lambda n: (0, 1, 0.0),
    lambda n: (1, 0, -2.0), lambda n: (0, 1, math.nan), lambda n: (1, 0, math.inf),
    lambda n: (n, n, 1.0), lambda n: (-1, 0, 0.0), lambda n: (1, 1, -1.0),
    lambda n: (0.5, 1.7, 0.25),
]


@settings(max_examples=200, deadline=None)
@given(_edge_lists(), st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_ODD_EDGES)),
                               max_size=3))
def test_edge_collapse_is_the_reference_loop(case, odd):
    from lenspace.space import _collapse_edges
    from oracles import collapse_edges_loop, graph_space_id
    n, edges = case
    for at, make in odd:
        edges.insert(at, make(n))
    try:
        expected = collapse_edges_loop(edges, n)
    except ValueError as exc:  # the first bad edge in input order, one message
        with pytest.raises(ValueError) as err:
            build_from_graph(edges, np.ones(n), n)
        assert str(err.value) == str(exc)
        return
    got = _collapse_edges(edges, n)
    for ours, ref in zip(got, expected):
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
    g = build_from_graph(edges, np.ones(n), n)
    src, dst, weight = g.edges[:3]
    half = src < dst
    assert src[half].tobytes() == expected[0].tobytes()
    assert dst[half].tobytes() == expected[1].tobytes()
    assert weight[half].tobytes() == expected[2].tobytes()
    assert g.space_id == graph_space_id(g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_coords_rejected(bad):
    # like a non-finite measure or length; a NaN coordinate used to build a
    # space whose tilt witnesses were then dropped as if they overflowed
    with pytest.raises(ValueError, match="^coords must be finite$"):
        build_from_graph([(0, 1, 1.0)], np.ones(2), 2, kind="path", coords=[0.0, bad])


def test_space_id_covers_kind_and_coords(tmp_path):
    # coords, kind and params feed the witness family and the cos, coordinate
    # and tilt fields, so two spaces that differ only there must not share an id
    from lenspace.fields import load_field_csv, save_field_csv
    from lenspace.generators import load_space, save_space
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    base = build_from_graph(edges, np.ones(3), 3, kind="path", coords=[0.0, 1.0, 2.0])
    variants = [
        build_from_graph(edges, np.ones(3), 3, kind="path", coords=[0.0, 2.0, 4.0]),
        build_from_graph(edges, np.ones(3), 3, kind="circle", coords=[0.0, 1.0, 2.0]),
        build_from_graph(edges, np.ones(3), 3, kind="path"),
        build_from_graph(edges, np.ones(3), 3, kind="path", coords=[[0.0, 1.0, 2.0]] * 2),
        build_from_graph(edges, np.ones(3), 3, kind="path", coords=[0.0, 1.0, 2.0],
                         params={"n": 3}),
        # a custom space keeps its params on disk too
        build_from_graph(edges, np.ones(3), 3, params={"b": 1, "a": [2]}),
    ]
    ids = {base.space_id} | {v.space_id for v in variants}
    assert len(ids) == 1 + len(variants)
    csv = tmp_path / "f.csv"
    save_field_csv(make_field(base, [0.0, 1.0, 4.0]), str(csv))
    f = load_field_csv(base, str(csv))
    for other in variants:
        with pytest.raises(ValueError, match="bound to space"):
            local_poincare_constant(other, f, 1.0)
    for space in [base] + variants:
        save_space(space, str(tmp_path / "s.json"))
        assert load_space(str(tmp_path / "s.json")).space_id == space.space_id


def test_space_file_labels_key_is_ignored(tmp_path):
    # files may carry per-point labels; nothing reads them, so neither the
    # space nor its id depends on them
    import json
    from lenspace.generators import load_space
    doc = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "measure": [1.0, 2.0, 1.0],
           "coords": [0.0, 1.0, 3.0], "kind": "path", "params": {"n": 3}}
    ids = []
    for extra in ({}, {"labels": ["a", "b", "c"]}, {"labels": 7}):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(doc, **extra)))
        ids.append(load_space(str(path)).space_id)
    assert ids[0] == ids[1] == ids[2]


def test_space_id_covers_params():
    # a circle whose length differs only in params gets another cos field,
    # so it must get another id; the order of the keys does not matter
    from lenspace.fields import cosine_field
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]

    def circle(params):
        return build_from_graph(edges, np.ones(3), 3, kind="circle", params=params,
                                coords=[0.0, 1.0, 2.0])

    base, other = circle({"length": 3.0}), circle({"length": 6.0})
    assert base.space_id != other.space_id
    assert not np.array_equal(cosine_field(base).values, cosine_field(other).values)
    assert circle({"length": 3.0, "x": 1}).space_id == circle({"x": 1, "length": 3.0}).space_id


@pytest.mark.parametrize("spec", ["circle:16", "gauss:9", "torus2d:3:4", "path:5",
                                  "complete:5"])
def test_save_load_reproduces_edges(spec, tmp_path):
    from lenspace.generators import generate, load_space, parse_space_spec, save_space
    g = generate(parse_space_spec(spec))
    # a chord longer than the path it skips stays in the graph as given
    chorded = build_from_graph([(2, 0, 7.5), (0, 1, 1.0), (1, 2, 0.5), (1, 2, 2.0)],
                               np.ones(3), 3)
    for space in (g, chorded):
        save_space(space, str(tmp_path / "s.json"))
        back = load_space(str(tmp_path / "s.json"))
        for mine, theirs in zip(space.edges, back.edges):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
            assert not theirs.flags.writeable
        # the file holds the src < dst half, one row per edge with row < col,
        # sorted by (row, col)
        with open(tmp_path / "s.json") as fh:
            rows, cols, _ = np.array(json.load(fh)["edges"]).T.astype(int)
        src, dst, _, _, _ = back.edges
        assert rows.tolist() == src[src < dst].tolist()
        assert cols.tolist() == dst[src < dst].tolist()
        assert np.all(rows < cols)
        assert np.all(np.diff(rows * back.n + cols) > 0)
    src, dst, weight, _, _ = chorded.edges
    assert weight[src < dst].tolist() == [1.0, 7.5, 0.5]


def test_edge_arrays_hold_both_orientations_sorted(torus8):
    # the one directed-edge table: every undirected edge both ways, sorted by
    # (src, dst), with its raw weight, its metric length and the start of
    # each point's group; the chord 0-2 (weight 7.5) is longer than d(0, 2)
    g = build_from_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 7.5), (2, 3, 0.5)],
                         np.ones(4), 4)
    src, dst, weight, length, starts = g.edges
    assert src.tolist() == [0, 0, 1, 1, 2, 2, 2, 3]
    assert dst.tolist() == [1, 2, 0, 2, 0, 1, 3, 2]
    assert weight.tolist() == [1.0, 7.5, 1.0, 1.0, 7.5, 1.0, 0.5, 0.5]
    assert length.tolist() == [1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 0.5, 0.5]
    assert starts.tolist() == [0, 2, 4, 7]
    assert not any(a.flags.writeable for a in g.edges)  # stored once per space
    src, dst, weight, length, starts = torus8.edges
    up = src < dst
    rows, cols, vals = src[up].tolist(), dst[up].tolist(), weight[up].tolist()
    assert len(src) == 2 * len(rows)
    assert np.all(np.diff(src * torus8.n + dst) > 0)
    assert set(zip(src.tolist(), dst.tolist(), weight.tolist())) == (
        set(zip(rows, cols, vals)) | set(zip(cols, rows, vals)))
    assert np.array_equal(length, torus8.dist[src, dst])
    assert np.array_equal(starts, np.searchsorted(src, np.arange(torus8.n)))


def test_mesh_h_circle(circle64):
    assert circle64.mesh_h == pytest.approx(2 * math.pi / 64, rel=1e-12)


def test_midpoint_defect_is_half_mesh_on_grids(path3, circle64):
    # adjacent pairs have no midpoint at all, so the defect sits at h/2
    assert path3.midpoint_defect == pytest.approx(0.5, abs=1e-12)
    assert circle64.midpoint_defect == pytest.approx(math.pi / 64, rel=1e-12)


def test_midpoint_defect_complete3():
    g = build_from_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], np.ones(3), 3)
    # no point is anywhere near halfway between two others
    assert g.midpoint_defect == pytest.approx(0.5, abs=1e-12)


def test_validate_metric_passes_on_generators(circle64, gauss101, torus8):
    for g in (circle64, gauss101, torus8):
        rep = validate_metric(g)
        assert rep.passed
        assert rep.symmetry_defect == 0.0
        assert rep.relaxation_defect <= 1e-12
        assert rep.realization_defect <= 1e-12
        assert rep.measure_sum_defect <= 1e-12


def test_edge_certificate_and_triangle_oracle_pass_on_generators(circle64, gauss101, torus8):
    from oracles import full_triangle_violation
    spaces = [circle64, gauss101, torus8] + [
        _generate(_parse(spec)) for spec in ("path:7", "complete:6", "torus2d:3:5")]
    for g in spaces:
        rep = validate_metric(g)
        assert rep.passed
        assert max(rep.relaxation_defect, rep.realization_defect) <= rep.tol
        assert full_triangle_violation(g.dist) <= rep.tol


@pytest.mark.parametrize("shift", [-3, 1])
def test_tampered_distance_fails_edge_certificate_and_triangle_oracle(circle64, shift):
    # d(0, 32) is the antipodal 32 hops; 29 hops breaks d(1, 32) <= d(1, 0) + d(0, 32),
    # 33 hops breaks d(0, 32) <= d(0, 1) + d(1, 32)
    from dataclasses import replace
    from oracles import full_triangle_violation
    h = circle64.mesh_h
    dist = circle64.dist.copy()
    dist[0, 32] = dist[32, 0] = dist[0, 32] + shift * h
    g = replace(circle64, _metric=(None, dist))  # the tampered distances, stored whole
    rep = validate_metric(g)
    assert not rep.passed
    assert rep.symmetry_defect == 0.0
    assert min(rep.relaxation_defect, rep.realization_defect) > rep.tol
    assert full_triangle_violation(dist) > rep.tol


def test_doubling_constant_unit_circle_frozen():
    g = _generate(_parse("circle:256:1.0"))
    c = doubling_constant(g, 4 / 256, 0.1, 22)
    assert c == pytest.approx(91 / 45, rel=1e-12)
    # continuum circle doubles with constant exactly 2
    assert abs(c - 2.0) <= 0.04


def test_doubling_constant_zero_ball_error():
    # vertex with zero weight makes an empty-measure ball at small radius
    g = build_from_graph([(0, 1, 1.0), (1, 2, 1.0)],
                         np.array([0.0, 1.0, 1.0]), 3)
    with pytest.raises(ValueError, match="radius 0.1 around point 0"):
        doubling_constant(g, 0.1, 0.5, 4)


@pytest.mark.parametrize("r_min, r_max", [(0.1, math.inf), (0.1, math.nan),
                                          (math.nan, 0.5), (math.inf, math.inf)])
def test_doubling_constant_rejects_nonfinite_radii(circle64, r_min, r_max):
    # r_max = inf used to reach linspace and report a "ball of radius nan"
    with pytest.raises(ValueError, match="r_max < inf"):
        doubling_constant(circle64, r_min, r_max, 4)


@pytest.mark.parametrize("radius, dilation, words", [
    (0.5, math.nan, "dilation must be >= 1"), (0.5, 0.5, "dilation must be >= 1"),
    (math.nan, 2.0, "radius must be positive"), (math.inf, 2.0, "radius must be positive"),
    (0.0, 2.0, "radius must be positive")])
def test_local_poincare_rejects_bad_scales(circle64, radius, dilation, words):
    # dilation = nan used to empty every dilated ball and return inf
    f = make_field(circle64, np.cos(np.arange(circle64.n)))
    with pytest.raises(ValueError, match=words):
        local_poincare_constant(circle64, f, radius, dilation)


def test_local_poincare_constant_zero_for_constant_field(circle64):
    f = make_field(circle64, np.ones(circle64.n))
    assert local_poincare_constant(circle64, f, 1.0, 2.0) == 0.0


def test_local_poincare_zero_ball_error():
    # point 0 weighs nothing, and its ball of radius 0.5 holds only it
    g = build_from_graph([(0, 1, 1.0), (1, 2, 1.0)], np.array([0.0, 1.0, 1.0]), 3)
    f = make_field(g, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError) as err:
        local_poincare_constant(g, f, 0.5, 2.0)
    assert str(err.value) == "ball of radius 0.5 around point 0 has zero measure"


def test_one_point_space_file_passes_the_metric_checks(tmp_path):
    # a saved and reloaded point has no edge and no pair of distinct points
    from lenspace import load_space, save_space
    path = str(tmp_path / "one.json")
    save_space(build_from_graph([], np.array([1.0]), 1), path)
    g = load_space(path)
    report = validate_metric(g)
    assert report.passed
    assert (report.relaxation_defect, report.realization_defect,
            report.symmetry_defect) == (0.0, 0.0, 0.0)
    assert g.midpoint_defect == 0.0
    assert (g.mesh_h, g.diameter) == (0.0, 0.0)


def test_local_poincare_two_point_hand_value(two_point):
    f = make_field(two_point, np.array([0.0, 1.0]))
    assert local_poincare_constant(two_point, f, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_local_poincare_cosine_stable_under_refinement():
    g1 = _generate(_parse("circle:256"))
    g2 = _generate(_parse("circle:512"))
    from lenspace.fields import cosine_field
    c1 = local_poincare_constant(g1, cosine_field(g1), 0.1, 2.0)
    c2 = local_poincare_constant(g2, cosine_field(g2), 0.1, 2.0)
    assert c1 > 0 and c2 > 0
    assert abs(c1 - c2) <= 0.2 * max(c1, c2)


def test_midpoint_defect_is_lazy():
    g = _generate(_parse("circle:512"))
    assert "midpoint_defect" not in g.__dict__
    h2 = math.pi / 512
    assert abs(g.midpoint_defect - h2) <= 1e-12 * h2
    assert "midpoint_defect" in g.__dict__


def _full_midpoint_defect(dist):
    # every ordered pair (x, y), no symmetry assumed
    worst = 0.0
    for x in range(dist.shape[0]):
        gap = np.abs(np.maximum(dist[x][:, None], dist) - dist[x][None, :] / 2.0)
        worst = max(worst, float(gap.min(axis=0).max()))
    return worst


@st.composite
def _connected_graphs(draw):
    n = draw(st.integers(2, 14))
    length = st.floats(1e-3, 50.0, allow_nan=False)
    # a random spanning tree keeps the graph connected; extra edges add cycles
    edges = [(i, draw(st.integers(0, i - 1)), draw(length)) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    length), max_size=2 * n))
    edges += [(i, j, w) for i, j, w in extra if i != j]
    return build_from_graph(edges, np.ones(n), n)


@given(_connected_graphs())
@settings(max_examples=150, deadline=None)
def test_half_loop_midpoint_defect_matches_full_matrix(g):
    # the pruned path, on graphs whose chords can be longer than the
    # distance between their endpoints
    assert g.midpoint_defect == _full_midpoint_defect(g.dist)


@given(_connected_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_slopes_match_dense_oracle_bitwise(g, data):
    # slopes divide by the metric length of each edge, not its raw weight
    from oracles import dense_slopes
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=g.n, max_size=g.n))
    f = make_field(g, values)
    grad, sub = dense_slopes(g, f)
    assert grad_norm_field(g, f).tobytes() == grad.tobytes()
    assert subgrad_norm_field(g, f).tobytes() == sub.tobytes()


@given(_connected_graphs())
@settings(max_examples=150, deadline=None)
def test_edge_certificate_and_triangle_oracle_pass_on_random_graphs(g):
    from oracles import full_triangle_violation
    rep = validate_metric(g)
    assert rep.passed
    assert max(rep.relaxation_defect, rep.realization_defect) <= rep.tol
    assert full_triangle_violation(g.dist) <= rep.tol


@functools.lru_cache(maxsize=None)
def _reference_midpoint_defect(spec):
    return _full_midpoint_defect(_generate(_parse(spec)).dist)


@pytest.mark.parametrize("block_cells", [1, 7, 100])
@pytest.mark.parametrize("spec", ["torus2d:24:24", "circle:256", "path:7", "complete:6"])
def test_pruned_midpoint_defect_is_bitwise_the_full_loop(spec, block_cells, monkeypatch):
    # blocks of one row with one pair minimized at a time, and short last blocks
    import lenspace.space
    monkeypatch.setattr(lenspace.space, "_BLOCK_CELLS", block_cells)
    g = _generate(_parse(spec))
    assert g.midpoint_defect == _reference_midpoint_defect(spec)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_metric_checks_allocate_no_square_array():
    # validate_metric and midpoint_defect each peak below a quarter of one
    # n x n float array
    g = _generate(_parse("circle:1024"))
    peaks = [_peak_bytes(run) for run in (lambda: validate_metric(g), lambda: g.midpoint_defect)]
    assert max(peaks) < g.n * g.n * 8 / 4, peaks
    # shortest_path, on either route and by orbit, allocates its result and
    # blocks of rows
    from lenspace.space import shortest_path
    for h, shape in ((g, (1024,)), (_generate(_parse("torus2d:32:32")), (32, 32))):
        src, dst, weight, _, starts = h.edges
        for grid in (None, shape):
            peak = _peak_bytes(lambda: shortest_path(h.n, src, dst, weight, starts, grid))
            assert peak < h.n * h.n * 8 + (4 << 20), peak


def test_build_holds_one_square_array():
    # the build reads its diameter and connectivity from one dist.max(),
    # with no n x n mask beside dist, and the space keeps that diameter
    spec = _parse("circle:2048")
    built = []
    peak = _peak_bytes(lambda: built.append(_generate(spec)))
    g = built[0]
    assert peak < g.dist.nbytes + g.n * g.n / 2, peak
    assert vars(g)["diameter"] == float(g.dist.max())


@given(_connected_graphs())
@settings(max_examples=100, deadline=None)
def test_saved_space_reloads_edge_table_id_and_mesh_bitwise(g):
    from lenspace.generators import load_space, save_space
    from oracles import dense_mesh_h
    with tempfile.TemporaryDirectory() as tmp:
        save_space(g, os.path.join(tmp, "s.json"))
        back = load_space(os.path.join(tmp, "s.json"))
    assert len(back.edges) == len(g.edges) == 5
    for mine, theirs in zip(g.edges, back.edges):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    assert back.space_id == g.space_id
    assert back.mesh_h == g.mesh_h == dense_mesh_h(back.dist)


@given(_connected_graphs())
@settings(max_examples=150, deadline=None)
def test_edge_mesh_h_matches_dense_oracle(g):
    # the nearest distinct point of every x is one of its graph neighbours
    from oracles import dense_mesh_h
    assert g.mesh_h == dense_mesh_h(g.dist)


def _weights(draw, count):
    # log-uniform over 1e-3..1e3, one repeated value (ties everywhere), or a
    # few values (ties between some paths)
    kind = draw(st.sampled_from(["spread", "equal", "few"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equal":
        return [draw(st.sampled_from([1e-3, 0.1, 1.0, 2 * math.pi / 7, 1e3]))] * count
    if kind == "few":
        return rng.choice([0.25, 1.0, 3.0], size=count).tolist()
    return (10.0 ** rng.uniform(-3, 3, size=count)).tolist()


@st.composite
def _shortest_path_graphs(draw):
    """(n, edges) of a connected graph: random, a cycle, a path, degree-2
    chains hung on a dense core, a star or a complete graph."""
    shape = draw(st.sampled_from(["random", "cycle", "path", "chains", "star", "complete"]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if n == 1:
        return 1, []
    if shape == "cycle" and n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif shape == "path" or shape == "cycle":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif shape == "complete":
        n = min(n, 30)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif shape == "chains":
        core = draw(st.integers(1, min(n, 8)))
        pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
        # the other points in chains, each leaving the core at a random
        # point and, if drawn so, coming back at another
        v = core
        while v < n:
            length = int(rng.integers(1, n - v + 1))
            pairs.append((int(rng.integers(core)), v))
            pairs += [(k, k + 1) for k in range(v, v + length - 1)]
            if rng.random() < 0.5:
                pairs.append((v + length - 1, int(rng.integers(core))))
            v += length
    else:
        pairs = [(i, int(rng.integers(i))) for i in range(1, n)]
        pairs += [tuple(rng.integers(n, size=2).tolist()) for _ in range(int(rng.integers(0, 2 * n)))]
        pairs = [(i, j) for i, j in pairs if i != j]
    # points renumbered at random, so chains and cycles do not run in index order
    label = rng.permutation(n).tolist()
    return n, [(label[i], label[j], w) for (i, j), w in zip(pairs, _weights(draw, len(pairs)))]


@given(_shortest_path_graphs(), st.sampled_from([1 << 16, 40, 1]))
@settings(max_examples=300, deadline=None)
def test_shortest_path_is_bitwise_csgraph_dijkstra(graph, block_cells):
    # in blocks of all sources, of a few and of one, and tiles of 128, 3 and
    # 1 points when the two directions are merged
    import lenspace.space
    from oracles import csgraph_dist
    n, edges = graph
    with mock.patch.object(lenspace.space, "_BLOCK_CELLS", block_cells):
        dist = build_from_graph(edges, np.ones(n), n).dist
    assert np.array_equal(dist, csgraph_dist(n, edges))


@pytest.mark.parametrize("block_cells", [1, 50, 1 << 16])
def test_shortest_path_bitwise_on_chorded_ring_any_block(block_cells, monkeypatch):
    # the ring of 12 points with chords longer than the arcs they span, in
    # blocks of one source, of a few and of all
    import lenspace.space
    from oracles import csgraph_dist
    monkeypatch.setattr(lenspace.space, "_BLOCK_CELLS", block_cells)
    edges = [(i, (i + 1) % 12, 1.0 + 0.25 * (i % 3)) for i in range(12)]
    edges += [(0, 3, 9.0), (4, 9, 2.5), (2, 7, 4.0)]
    assert np.array_equal(build_from_graph(edges, np.ones(12), 12).dist, csgraph_dist(12, edges))


def _refuse(route):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the {route} route ran")
    return refuse


def test_paths_and_cycles_take_the_line_route(monkeypatch):
    import lenspace.space
    from oracles import csgraph_dist
    monkeypatch.setattr(lenspace.space, "_search", _refuse("search"))
    for spec in ("circle:257", "path:64", "gaussian_interval:81:1:4"):
        _generate(_parse(spec))
    # a cycle whose points are renumbered at random, so it does not run in
    # index order
    rng = np.random.default_rng(5)
    label = rng.permutation(40).tolist()
    weights = (10.0 ** rng.uniform(-3, 3, size=40)).tolist()
    edges = [(label[i], label[(i + 1) % 40], w) for i, w in enumerate(weights)]
    assert np.array_equal(build_from_graph(edges, np.ones(40), 40).dist, csgraph_dist(40, edges))


def test_other_graphs_take_the_search_route(monkeypatch):
    import lenspace.space
    monkeypatch.setattr(lenspace.space, "_line", _refuse("line"))
    for spec in ("torus2d:6:6", "complete:9"):
        _generate(_parse(spec))


@given(_shortest_path_graphs(), _shortest_path_graphs())
@settings(max_examples=100, deadline=None)
def test_disconnected_graph_message_names_first_unreached_pair(a, b):
    from oracles import csgraph_dist
    (n, edges), (m, more) = a, b
    edges = edges + [(i + n, j + n, w) for i, j, w in more]
    i, j = np.argwhere(np.isinf(csgraph_dist(n + m, edges)))[0]
    with pytest.raises(ValueError) as err:
        build_from_graph(edges, np.ones(n + m), n + m)
    assert str(err.value) == f"graph is disconnected: points {i} and {j} are not connected"


def _assert_dijkstra_bitwise(g):
    from oracles import csgraph_dist
    src, dst, weight = (arr[g.edges[0] < g.edges[1]] for arr in g.edges[:3])
    assert np.array_equal(g.dist, csgraph_dist(g.n, zip(src.tolist(), dst.tolist(), weight)))


# space ids computed with scipy's Dijkstra, when the id hashed dist too:
# legacy_space_id still gives them, so the metric, the measure, the edges and
# every artifact keyed by them are unchanged
@pytest.mark.parametrize("spec, space_id", [
    ("circle:1024", "c6d843f1676a324d"),
    ("torus2d:24:24", "0231c92b35b6d16e"),
    ("torus2d:20:30:1:6.283", "130eaab11dcb3f5e"),
    ("gaussian_interval:201:1:4", "313eca076fa257d7"),
    ("circle:2", "fd787200e6563689"),
    ("circle:3", "c66c9f31cdd7eaed"),
    ("torus2d:2:7", "a63693a73890c8e7"),
    ("torus2d:3:5:0.7:2.9", "aeada70bdcdbf41c"),
    ("complete:9", "790d5c9455d71d5f"),
])
def test_space_id_pinned_on_generator_spaces(spec, space_id):
    from oracles import graph_space_id, legacy_space_id
    g = _generate(_parse(spec))
    assert legacy_space_id(g) == space_id
    assert g.space_id == graph_space_id(g) == _GRAPH_IDS[spec]
    _assert_dijkstra_bitwise(g)


# the ids of the same spaces now that they hash the graph, not dist
_GRAPH_IDS = {
    "circle:1024": "310029483e3063d7",
    "torus2d:24:24": "8002e5b5b0a39348",
    "torus2d:20:30:1:6.283": "e4823a89e113a5c9",
    "gaussian_interval:201:1:4": "09318fa4d4634ac0",
    "circle:2": "4a23b129e56ca818",
    "circle:3": "433e07ae3b500fde",
    "torus2d:2:7": "0eaec4778a489f45",
    "torus2d:3:5:0.7:2.9": "629489965adbf4c7",
    "complete:9": "4baf2396d71bbc3e",
}


def _counting_rows(patch):
    """Wrap both shortest-path routes with patch(name, new); returns the list
    that collects the number of rows each call computes."""
    import lenspace.space
    rows = []
    for name in ("_search", "_line"):
        def counted(*args, route=getattr(lenspace.space, name)):
            dist = route(*args)
            rows.append(len(dist))
            return dist
        patch(name, counted)
    return rows


@pytest.mark.parametrize("spec", [
    "circle:2", "circle:3", "circle:7:3.3", "circle:257", "torus2d:2:2", "torus2d:2:7",
    "torus2d:7:2", "torus2d:3:5:0.7:2.9", "torus2d:20:30:1:6.283", "complete:2", "complete:9",
])
def test_grid_spaces_build_one_row_bitwise_as_dijkstra(spec, monkeypatch):
    import lenspace.space
    rows = _counting_rows(lambda name, new: monkeypatch.setattr(lenspace.space, name, new))
    g = _generate(_parse(spec))
    assert rows == [1]
    _assert_dijkstra_bitwise(g)


@given(st.one_of(
    st.tuples(st.just("circle"), st.integers(2, 80), st.floats(1e-3, 1e3)),
    st.tuples(st.just("torus2d"), st.integers(2, 9), st.integers(2, 9),
              st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
))
@settings(max_examples=100, deadline=None)
def test_orbit_route_exact_on_circle_and_torus_sizes(fields):
    # the metric bitwise as Dijkstra, and the midpoint defect as the full loop
    import lenspace.space
    spec = ":".join(map(str, fields))
    with mock.patch.object(lenspace.space, "_search", lenspace.space._search), \
            mock.patch.object(lenspace.space, "_line", lenspace.space._line):
        rows = _counting_rows(lambda name, new: setattr(lenspace.space, name, new))
        g = _generate(_parse(spec))
    assert rows == [1]
    _assert_dijkstra_bitwise(g)
    assert g.midpoint_defect == _full_midpoint_defect(g.dist)


def test_saved_torus_reloads_by_orbit(tmp_path, monkeypatch):
    import lenspace.space
    from lenspace.generators import load_space, save_space
    g = _generate(_parse("torus2d:3:5:0.7:2.9"))
    save_space(g, str(tmp_path / "t.json"))
    rows = _counting_rows(lambda name, new: monkeypatch.setattr(lenspace.space, name, new))
    back = load_space(str(tmp_path / "t.json"))
    assert rows == [1]
    assert back.space_id == g.space_id
    assert back.dist.tobytes() == g.dist.tobytes()


def _ring(weights):
    return [(i, (i + 1) % len(weights), w) for i, w in enumerate(weights)]


def _torus_file(tmp_path, **params):
    from lenspace.generators import save_space
    path = str(tmp_path / "t.json")
    save_space(_generate(_parse("torus2d:3:5:0.7:2.9")), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["params"].update(params)
    return doc


@pytest.mark.parametrize("case", ["ulp", "chord", "swapped", "float-params"])
def test_mislabelled_grids_take_the_full_routes(case, tmp_path, monkeypatch):
    # a label alone does not give the orbit route: the edge table must be
    # invariant under the unit translations of a shape of ints
    import lenspace.space
    from lenspace.generators import load_space
    if case in ("ulp", "chord"):
        weights = [1.0] * 12
        if case == "ulp":
            weights[5] = np.nextafter(1.0, 2.0)
        edges = _ring(weights) + ([(0, 6, 2.5)] if case == "chord" else [])
        n, measure, kind, params = 12, np.ones(12), "circle", {"length": 12.0}
    else:
        doc = _torus_file(tmp_path, **({"n": 5, "m": 3} if case == "swapped"
                                       else {"n": 3.0, "m": 5.0}))
        edges, measure, n, kind, params = doc["edges"], doc["measure"], doc["n"], \
            doc["kind"], doc["params"]
        with open(tmp_path / "t.json", "w") as fh:
            json.dump(doc, fh)
    plain = build_from_graph(edges, measure, n)
    rows = _counting_rows(lambda name, new: monkeypatch.setattr(lenspace.space, name, new))
    if case in ("ulp", "chord"):
        g = build_from_graph(edges, measure, n, kind=kind, params=params)
    else:
        g = load_space(str(tmp_path / "t.json"))
    assert rows == [n]
    assert g.kind == kind and g.params == params
    assert g.dist.tobytes() == plain.dist.tobytes()
    assert g.midpoint_defect == plain.midpoint_defect


@pytest.mark.parametrize("spec", ["circle:64", "circle:257", "torus2d:6:9",
                                  "torus2d:3:5:0.7:2.9"])
def test_orbit_midpoint_defect_is_bitwise_the_full_loop(spec, monkeypatch):
    # only the pairs (0, y) are visited
    import lenspace.space
    blocks = []
    bounds = lenspace.space._midpoint_bounds

    def counted(dist, lo, hi, *edges):
        blocks.append((lo, hi))
        return bounds(dist, lo, hi, *edges)

    monkeypatch.setattr(lenspace.space, "_midpoint_bounds", counted)
    g = _generate(_parse(spec))
    assert g.midpoint_defect == _full_midpoint_defect(g.dist)
    assert blocks == [(0, 1)]


@pytest.mark.parametrize("spec", ["circle:3", "circle:17", "circle:1024", "torus2d:4:4",
                                  "torus2d:7:9", "complete:3", "complete:30"])
def test_orbit_dist_is_filled_on_first_read_bitwise(spec):
    # the build keeps point 0's row; dist is the strided fill of its
    # translates, bitwise every row's own shortest paths and scipy's Dijkstra
    from lenspace.space import shortest_path
    from oracles import csgraph_dist
    g = _generate(_parse(spec))
    shape = g._metric[0]
    assert shape is not None and "dist" not in vars(g)
    src, dst, weight, _, starts = g.edges
    first = g.dist
    assert first is g.dist and not first.flags.writeable
    assert first[0].tobytes() == shortest_path(g.n, src, dst, weight, starts, shape).tobytes()
    assert first.tobytes() == shortest_path(g.n, src, dst, weight, starts).tobytes()
    ref = csgraph_dist(g.n, zip(src.tolist(), dst.tolist(), weight.tolist()))
    assert first.tobytes() == ref.tobytes()
    assert g.edges[3].tobytes() == first[src, dst].tobytes()
    assert g.diameter == float(first.max())
    from dataclasses import replace
    for copy in (replace(g), replace(_generate(_parse("path:9")))):  # the row, or dist, comes along
        assert copy.dist.tobytes() == shortest_path(copy.n, *copy.edges[:3], copy.edges[4]).tobytes()


# the orbit spaces of test_orbit_dist_is_filled_on_first_read_bitwise and a
# non-square torus of several kernel blocks, each keeping point 0's row, and
# three spaces that store dist whole; the chorded ring's chords are longer
# than the arcs they span
_READER_SPECS = ("circle:3", "circle:17", "circle:1024", "torus2d:4:4", "torus2d:7:9",
                 "complete:3", "complete:30", "torus2d:20:24", "gauss:41", "path:40",
                 "chorded")


def _reader_space(spec):
    if spec != "chorded":
        return _generate(_parse(spec))
    edges = [(i, (i + 1) % 12, 1.0 + 0.25 * (i % 3)) for i in range(12)]
    edges += [(0, 3, 9.0), (4, 9, 2.5), (2, 7, 4.0)]
    return build_from_graph(edges, np.ones(12), 12)


@pytest.mark.parametrize("spec", _READER_SPECS)
def test_row_and_cell_readers_are_bitwise_the_full_matrix(spec):
    from lenspace.space import shortest_path
    g = _reader_space(spec)
    n, (src, dst, weight, _, starts) = g.n, g.edges
    full = shortest_path(n, src, dst, weight, starts)
    assert (g._metric[0] is None) == (spec in ("gauss:41", "path:40", "chorded"))
    # blocks of whole grid rows, as the kernel and transport take them, read
    # as they are and squared into a buffer
    for cells in (1, n + 1, 3 * n, n * n):
        rows = g._block_rows(cells)
        for lo in range(0, n, rows):
            want = full[lo:lo + rows]
            assert g._rows(slice(lo, lo + rows)).tobytes() == want.tobytes()
            out = np.empty(want.shape)
            assert g._rows(slice(lo, lo + rows), np.square, out) is out
            assert out.tobytes() == (want * want).tobytes()
    # index arrays with repeats, slices off the grid rows, and cells that
    # broadcast
    rng = np.random.default_rng(7)
    idx = rng.integers(0, n, size=2 * n + 3)
    assert g._rows(idx).tobytes() == full[idx].tobytes()
    assert g._rows(idx, np.square).tobytes() == (full[idx] * full[idx]).tobytes()
    for part in (slice(1, n, 2), slice(n // 2, n + 5), slice(0, 1), slice(n - 1, None)):
        assert g._rows(part).tobytes() == full[part].tobytes()
    i, j = idx[:, None], rng.integers(0, n, size=(1, 5))
    assert g._cells(i, j).tobytes() == full[i, j].tobytes()
    assert g._cells(np.arange(n), 0).tobytes() == full[:, 0].tobytes()
    assert g._cells(idx, idx[::-1]).tobytes() == full[idx, idx[::-1]].tobytes()
    assert g._metric[0] is None or "dist" not in vars(g)  # no reader filled it
    assert g.dist.tobytes() == full.tobytes()


@pytest.mark.parametrize("spec", ["circle:2048", "torus2d:48:48"])
def test_orbit_metric_checks_save_and_transport_never_fill_dist(spec, tmp_path):
    # each peaks below one n x n float array, and dist is never filled
    from lenspace import w2
    from lenspace.generators import save_space
    g = _generate(_parse(spec))
    point = (np.arange(g.n) == 0).astype(float)
    for run in (lambda: validate_metric(g), lambda: g.midpoint_defect,
                lambda: save_space(g, str(tmp_path / "space.json")),
                lambda: w2(g, point, g.measure)):
        peak = _peak_bytes(run)
        assert peak < 8 * g.n * g.n, peak
    assert "dist" not in vars(g)


@pytest.mark.parametrize("spec", ["circle:3", "circle:17", "circle:1024", "torus2d:4:4",
                                  "torus2d:7:9", "complete:3", "complete:30",
                                  "torus2d:20:24", "torus2d:3:5:0.7:2.9"])
def test_orbit_metric_report_is_bitwise_the_stored_report(spec):
    # row 0 alone, against every row of the same metric stored whole; also
    # with a tampered last entry of the row, which breaks all three defects,
    # the symmetry r(u) = r(-u) among them
    from dataclasses import astuple, replace
    g = _generate(_parse(spec))
    shape, row = g._metric
    assert shape is not None
    tampered = row.copy()
    tampered[-1] += 3 * g.mesh_h
    for space in (g, replace(g, _metric=(shape, tampered))):
        orbit = validate_metric(space)
        assert "dist" not in vars(space)
        stored = validate_metric(replace(space, _metric=(None, space.dist)))
        assert [repr(v) for v in astuple(orbit)] == [repr(v) for v in astuple(stored)]
    assert min(orbit.relaxation_defect, orbit.realization_defect, orbit.symmetry_defect) > 0

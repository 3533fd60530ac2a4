import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lenspace import generate, load_space, parse_space_spec, refine, save_space
from lenspace.generators import SpaceSpec, _encode
from oracles import legacy_json


def test_parse_all_generator_forms():
    assert parse_space_spec("circle:256").kind == "circle"
    assert parse_space_spec("circle:256:1.0").length == 1.0
    s = parse_space_spec("gaussian_interval:201:1:4")
    assert (s.n, s.sigma, s.width) == (201, 1.0, 4.0)
    t = parse_space_spec("torus2d:8:16:6.0:3.0")
    assert (t.n, t.m, t.side_x, t.side_y) == (8, 16, 6.0, 3.0)
    assert parse_space_spec("path:10").n == 10
    assert parse_space_spec("complete:5").kind == "complete"


def test_parse_shorthand_aliases():
    assert parse_space_spec("gauss:201:1:4") == parse_space_spec("gaussian_interval:201:1:4")
    assert parse_space_spec("torus:4:4") == parse_space_spec("torus2d:4:4")


def test_parse_file_prefix(tmp_path):
    p = tmp_path / "s.json"
    spec = parse_space_spec(f"file:{p}")
    assert spec.kind == "custom_file" and spec.path == str(p)


def test_parse_existing_path_fallback(tmp_path, circle64):
    p = tmp_path / "saved.json"
    save_space(circle64, str(p))
    spec = parse_space_spec(str(p))
    assert spec.kind == "custom_file"
    assert generate(spec).space_id == circle64.space_id


def test_parse_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown space spec"):
        parse_space_spec("sphere:12")


def test_parse_bad_arity_rejected():
    with pytest.raises(ValueError, match="bad space spec"):
        parse_space_spec("circle:notanumber")


# the spec grammar, written out independently of the parser's table:
# kind -> (required integer fields, optional float fields), in order
_GRAMMAR = {
    "circle": (("n",), ("length",)),
    "gaussian_interval": (("n",), ("sigma", "width")),
    "torus2d": (("n", "m"), ("side_x", "side_y")),
    "path": (("n",), ()),
    "complete": (("n",), ()),
}
_ALIASES = {"gauss": "gaussian_interval", "torus": "torus2d"}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(data=st.data(), head=st.sampled_from(sorted(_GRAMMAR) + sorted(_ALIASES)))
@settings(max_examples=200, deadline=None)
def test_spec_grammar_is_strict(data, head):
    kind = _ALIASES.get(head, head)
    required, optional = _GRAMMAR[kind]
    ints = [data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in required]
    floats = data.draw(st.lists(_FINITE, max_size=len(optional)))
    fields = [str(v) for v in ints] + [repr(v) for v in floats]
    spec = parse_space_spec(":".join([head] + fields))
    assert spec.kind == kind
    for name, value in zip(required + optional, ints + floats):
        assert getattr(spec, name) == value
    for name in optional[len(floats):]:
        assert getattr(spec, name) == getattr(SpaceSpec(kind=kind), name)

    full = fields + ["1.0"] * (len(optional) - len(floats))
    extra = data.draw(st.one_of(st.sampled_from(["", "junk", "2.0"]), _FINITE.map(repr)))
    bad = [full + [extra], fields[:len(required) - 1]]
    if optional:
        at = len(required) + data.draw(st.integers(0, len(optional) - 1))
        nonfinite = data.draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400"]))
        bad.append(full[:at] + [nonfinite] + full[at + 1:])
    for args in bad:
        with pytest.raises(ValueError, match="^bad space spec "):
            parse_space_spec(":".join([head] + args))


def test_circle_geometry(circle64):
    step = 2 * math.pi / 64
    assert circle64.n == 64
    assert circle64.dist[0, 1] == pytest.approx(step, rel=1e-12)
    # wraparound: going left is one step too
    assert circle64.dist[0, 63] == pytest.approx(step, rel=1e-12)
    # antipodal distance is half the circumference
    assert circle64.dist[0, 32] == pytest.approx(math.pi, rel=1e-12)
    assert circle64.kind == "circle"
    assert circle64.params["length"] == pytest.approx(2 * math.pi)


def test_gaussian_weights_and_coords():
    g = generate(parse_space_spec("gaussian_interval:3:1:4"))
    assert list(g.coords.ravel()) == [-4.0, 0.0, 4.0]
    # endpoint weights are e^{-8} relative to the centre
    expected_mid = 1.0 / (1.0 + 2.0 * math.exp(-8.0))
    assert g.measure[1] == pytest.approx(expected_mid, rel=1e-12)
    assert g.measure[0] == g.measure[2]


def test_gaussian_width_guard():
    with pytest.raises(ValueError, match="truncates"):
        generate(SpaceSpec(kind="gaussian_interval", n=11, sigma=2.0, width=3.0))
    with pytest.raises(ValueError, match="sigma"):
        generate(SpaceSpec(kind="gaussian_interval", n=11, sigma=-1.0, width=4.0))


def test_torus_geometry(torus8):
    assert torus8.n == 64
    hx = 2 * math.pi / 8
    assert torus8.dist[0, 8] == pytest.approx(hx, rel=1e-12)   # x neighbour
    assert torus8.dist[0, 1] == pytest.approx(hx, rel=1e-12)   # y neighbour
    # wraparound in both directions
    assert torus8.dist[0, 7] == pytest.approx(hx, rel=1e-12)
    assert torus8.dist[0, 56] == pytest.approx(hx, rel=1e-12)


def test_path_and_complete_distances(path3):
    assert path3.dist[0, 2] == 2.0
    k = generate(parse_space_spec("complete:5"))
    off = k.dist[~np.eye(5, dtype=bool)]
    assert np.all(off == 1.0)


def test_small_n_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        generate(parse_space_spec("circle:1"))


def test_refine_halves_circle_mesh(circle64):
    spec2 = refine(parse_space_spec("circle:64"))
    g2 = generate(spec2)
    assert g2.n == 128
    assert g2.mesh_h == pytest.approx(circle64.mesh_h / 2, rel=1e-12)


def test_refine_gaussian_keeps_grid_points():
    spec = parse_space_spec("gaussian_interval:11:1:4")
    fine = refine(spec)
    assert fine.n == 21
    g, gf = generate(spec), generate(fine)
    assert gf.mesh_h == pytest.approx(g.mesh_h / 2, rel=1e-12)
    # old grid survives inside the new one
    assert set(np.round(g.coords.ravel(), 12)) <= set(np.round(gf.coords.ravel(), 12))


def test_refine_torus_doubles_both_axes():
    spec = refine(parse_space_spec("torus2d:4:6"))
    assert (spec.n, spec.m) == (8, 12)


def test_refine_custom_file_rejected(tmp_path, circle64):
    p = tmp_path / "s.json"
    save_space(circle64, str(p))
    with pytest.raises(ValueError, match="refinement"):
        refine(parse_space_spec(str(p)))


def test_save_load_round_trip(tmp_path, gauss101):
    p = tmp_path / "g.json"
    save_space(gauss101, str(p))
    back = load_space(str(p))
    assert back.space_id == gauss101.space_id
    assert np.array_equal(back.dist, gauss101.dist)
    assert np.array_equal(back.measure, gauss101.measure)
    assert back.kind == gauss101.kind
    assert back.params == gauss101.params
    assert np.array_equal(back.coords, gauss101.coords)


def test_save_is_deterministic(tmp_path, circle64):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_space(circle64, str(p1))
    save_space(circle64, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_missing_file():
    with pytest.raises(ValueError, match="cannot read"):
        load_space("/nonexistent/nowhere.json")


def test_load_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_space(str(p))


def test_load_missing_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "measure": [0.5, 0.5]}))
    with pytest.raises(ValueError, match="edges"):
        load_space(str(p))


def test_load_bad_edge_shape(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "measure": [0.5, 0.5]}))
    with pytest.raises(ValueError, match="edge"):
        load_space(str(p))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(st.integers() | st.floats(), max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@given(st.dictionaries(st.text(max_size=4), _JSON_DOCS, max_size=5))
@settings(max_examples=300, deadline=None)
@example({"a": [1, 2.5, math.nan], "b": {}, "c": [], "d": [[], {}, [1, [-0.0, {"\u00e9\u2603": "\u00fc"}]]],
          "e": True, "f": None, "g": [True, 1, 2.0], "h": [math.inf, -math.inf], "i": (1, 1e-320)})
def test_encoder_is_bytewise_json_dump_of_the_nulled_copy(doc):
    # NaN and infinities, ints, bools, None, nested empty lists and dicts,
    # tuples and non-ASCII strings
    assert _encode(doc) + "\n" == legacy_json(doc)

"""Generators for standard spaces, the space file, and the one JSON writer and reader.

Each generator produces a graph whose shortest-path metric discretizes a
model geometry: a circle of given circumference, an interval with Gaussian
weights, a flat 2-torus, a unit-edge path, or a complete graph.  Specs are
declarative so a space can be regenerated at a finer resolution.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .space import MeasuredSpace, build_from_graph


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative description of a generated space."""

    kind: str
    n: int = 0
    m: int = 0
    length: float = 2 * math.pi
    sigma: float = 1.0
    width: float = 3.0
    side_x: float = 2 * math.pi
    side_y: float = 2 * math.pi
    path: str = ""


def _check_resolution(spec: SpaceSpec):
    if spec.n < 2:
        raise ValueError(f"{spec.kind} needs n >= 2, got n={spec.n}")


def _circle(spec: SpaceSpec) -> MeasuredSpace:
    _check_resolution(spec)
    if spec.length <= 0:
        raise ValueError(f"circle length must be positive, got {spec.length}")
    n, L = spec.n, spec.length
    step = L / n
    edges = [(i, (i + 1) % n, step) for i in range(n)]
    coords = np.arange(n) * step
    return build_from_graph(edges, np.ones(n), n, kind="circle",
                            params={"length": L}, coords=coords)


def _gaussian_interval(spec: SpaceSpec) -> MeasuredSpace:
    _check_resolution(spec)
    # on a space's scales (build_from_graph), 2 sigma^2 and x^2 are finite normal floats
    if not spec.sigma >= 2.0 ** -400:
        raise ValueError(f"sigma must be at least 2^-400, got {spec.sigma}")
    if spec.width < 3 * spec.sigma:
        raise ValueError(
            f"width {spec.width} truncates the Gaussian too early; need >= 3*sigma = {3 * spec.sigma}"
        )
    if not spec.width <= 2.0 ** 400:
        raise ValueError(f"width must be at most 2^400, got {spec.width}")
    n, W = spec.n, spec.width
    x = np.linspace(-W, W, n)
    step = 2 * W / (n - 1)
    edges = [(i, i + 1, step) for i in range(n - 1)]
    with np.errstate(over="ignore"):  # a weight below e^-inf is 0
        weights = np.exp(-(x ** 2) / (2 * spec.sigma ** 2))
    if not weights.any():
        raise ValueError(f"sigma {spec.sigma} is too small for width {W} at n={n}: "
                         "every weight underflows to 0")
    return build_from_graph(edges, weights, n, kind="gaussian_interval",
                            params={"sigma": spec.sigma, "width": W}, coords=x)


def _torus2d(spec: SpaceSpec) -> MeasuredSpace:
    if spec.n < 2 or spec.m < 2:
        raise ValueError(f"torus2d needs n, m >= 2, got {spec.n}, {spec.m}")
    if spec.side_x <= 0 or spec.side_y <= 0:
        raise ValueError("torus side lengths must be positive")
    n, m = spec.n, spec.m
    hx, hy = spec.side_x / n, spec.side_y / m
    edges = []
    for i in range(n):
        for j in range(m):
            k = i * m + j
            edges.append((k, ((i + 1) % n) * m + j, hx))
            edges.append((k, i * m + (j + 1) % m, hy))
    coords = np.array([(i * hx, j * hy) for i in range(n) for j in range(m)])
    return build_from_graph(edges, np.ones(n * m), n * m, kind="torus2d",
                            params={"n": n, "m": m, "side_x": spec.side_x,
                                    "side_y": spec.side_y}, coords=coords)


def _path(spec: SpaceSpec) -> MeasuredSpace:
    _check_resolution(spec)
    edges = [(i, i + 1, 1.0) for i in range(spec.n - 1)]
    coords = np.arange(spec.n, dtype=float)
    return build_from_graph(edges, np.ones(spec.n), spec.n, kind="path",
                            params={"n": spec.n}, coords=coords)


def _complete(spec: SpaceSpec) -> MeasuredSpace:
    _check_resolution(spec)
    edges = [(i, j, 1.0) for i in range(spec.n) for j in range(i + 1, spec.n)]
    return build_from_graph(edges, np.ones(spec.n), spec.n, kind="complete",
                            params={"n": spec.n})


# kind -> (builder, {spec field: type} in order); the integer fields are
# required, a float field left out keeps its SpaceSpec default
_KINDS = {
    "circle": (_circle, {"n": int, "length": float}),
    "gaussian_interval": (_gaussian_interval, {"n": int, "sigma": float, "width": float}),
    "torus2d": (_torus2d, {"n": int, "m": int, "side_x": float, "side_y": float}),
    "path": (_path, {"n": int}),
    "complete": (_complete, {"n": int}),
}


def _parse_fields(bad: str, kind: str, rest: str, fields: dict,
                  required: int | None = None) -> dict:
    """The package's one parser of a colon spec's fields: rest -> {name: value}.

    fields maps each name, in order, to int or float (which must be finite);
    the first required (default all) must be given.  An error is one line:
    bad (naming the spec), then the field at fault or the fields kind takes.
    """
    args = rest.split(":") if rest else []
    required = len(fields) if required is None else required
    if not required <= len(args) <= len(fields):
        raise ValueError(f"{bad}: {kind} takes fields {':'.join(fields)} "
                         f"({required} required), got {len(args)}")
    values = {}
    for (name, cast), arg in zip(fields.items(), args):
        try:
            values[name] = cast(arg)
        except ValueError:
            raise ValueError(f"{bad}: {name} {arg!r} is not "
                             f"{'an integer' if cast is int else 'a number'}") from None
        if cast is float and not math.isfinite(values[name]):
            raise ValueError(f"{bad}: {name} must be finite")
    return values


def parse_space_spec(text: str) -> SpaceSpec:
    """Parse a compact spec string, e.g. 'circle:256:6.2832' or a file path.

    Forms: circle:N[:LENGTH], gaussian_interval:N[:SIGMA[:WIDTH]],
    torus2d:N:M[:SIDE_X[:SIDE_Y]], path:N, complete:N, file:PATH.  'gauss'
    and 'torus' are accepted as shorthands.  Extra fields are an error and
    every float field must be finite.  A string naming an existing file is
    taken as a saved space.
    """
    if text.startswith("file:"):
        return SpaceSpec(kind="custom_file", path=text[5:])
    head, _, rest = text.partition(":")
    kind = {"gauss": "gaussian_interval", "torus": "torus2d"}.get(head, head)
    if kind in _KINDS:
        fields = _KINDS[kind][1]
        return SpaceSpec(kind=kind, **_parse_fields(f"bad space spec {text!r}", kind, rest,
                                                    fields, list(fields.values()).count(int)))
    if os.path.exists(text):
        return SpaceSpec(kind="custom_file", path=text)
    raise ValueError(f"unknown space spec {text!r}; kinds are {', '.join(_KINDS)} "
                     "or file:PATH")


def generate(spec: SpaceSpec) -> MeasuredSpace:
    if spec.kind == "custom_file":
        return load_space(spec.path)
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown space kind {spec.kind!r}; kinds are {', '.join(_KINDS)}")
    return _KINDS[spec.kind][0](spec)


def refine(spec: SpaceSpec) -> SpaceSpec:
    """Spec for the next refinement level of the same geometry.

    Circle, torus, path, and complete double the point count; the Gaussian
    interval goes n -> 2n - 1 so existing grid points survive.  Spaces
    loaded from files carry no generator and cannot be refined.
    """
    if spec.kind == "custom_file":
        raise ValueError("a space loaded from a file has no refinement rule")
    if spec.kind == "gaussian_interval":
        return replace(spec, n=2 * spec.n - 1)
    if spec.kind == "torus2d":
        return replace(spec, n=2 * spec.n, m=2 * spec.m)
    return replace(spec, n=2 * spec.n)


def _encode(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    writes it at indent pad, but a non-finite float as null.  A list that
    holds only ints and floats goes through json's C encoder."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj:
        body = sep.join(json.dumps(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items()))
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= {int, float}:  # json's C encoder: no words but NaN, Infinity
            body = json.dumps(obj, separators=(sep, ": "))[1:-1].replace(
                "-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")
        else:
            body = sep.join(_encode(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, float) and not math.isfinite(obj):  # JSON has no NaN or Infinity
        return "null"
    return json.dumps(obj)


def _write_json(doc: dict, path: str):
    """The package's one JSON writer: strict JSON, sorted keys, a non-finite float as null."""
    with open(path, "w") as fh:
        fh.write(_encode(doc) + "\n")


def _read_json(path: str, what: str) -> dict:
    """The package's one JSON reader: the object in path, or a one-line error naming what."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return doc


def save_space(space: MeasuredSpace, path: str):
    """Write a space to JSON; loading the file reproduces it bit for bit."""
    src, dst, weight, _, _ = space.edges
    up = src < dst  # each undirected edge once, sorted by (row, col)
    doc = {
        "n": space.n,
        "edges": [list(e) for e in zip(src[up].tolist(), dst[up].tolist(), weight[up].tolist())],
        "measure": space.measure.tolist(),
    }
    if space.coords is not None:
        doc["coords"] = space.coords.tolist()
    if space.kind != "custom":
        doc["kind"] = space.kind
    if space.kind != "custom" or space.params:
        doc["params"] = space.params
    _write_json(doc, path)


def load_space(path: str) -> MeasuredSpace:
    """Load a space saved by save_space or written by hand.

    Required keys: n, edges (triples [i, j, length]), measure.  Optional:
    coords, kind, params; null counts as left out.  Any other key (such
    as the labels older files carry) is ignored.
    """
    doc = _read_json(path, "space file")
    for key in ("n", "edges", "measure"):
        if key not in doc:
            raise ValueError(f"space file {path} is missing key {key!r}")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"space file {path} has bad n={n!r}")
    for key, kind in _FILE_TYPES.items():
        value = doc.get(key)
        # an optional key set to null counts as left out
        if (value is not None or key in ("edges", "measure")) and not isinstance(value, kind):
            raise ValueError(f"space file {path}: {key} must be a {kind.__name__}, "
                             f"got {value!r}")
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 3 and _is_int(e[0])
                and _is_int(e[1]) and _is_number(e[2])):
            raise ValueError(f"space file {path}: each edge must be [i, j, length] "
                             f"with integer i, j and a numeric length, got {e!r}")
    if not all(map(_is_number, doc["measure"])):
        raise ValueError(f"space file {path}: measure must hold numbers only")
    coords = doc.get("coords") or []
    if not all(_is_number(c) or isinstance(c, list) and all(map(_is_number, c))
               for c in coords):
        raise ValueError(f"space file {path}: coords must hold numbers or lists of numbers")
    return build_from_graph(
        [(e[0], e[1], e[2]) for e in doc["edges"]],
        doc["measure"],
        n,
        kind="custom" if doc.get("kind") is None else doc["kind"],
        params=doc.get("params"),
        coords=doc.get("coords"),
    )


# the type of each key of a space file but n; load_space checks the
# entries of edges, measure and coords
_FILE_TYPES = {"edges": list, "measure": list, "coords": list, "kind": str,
               "params": dict}


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)

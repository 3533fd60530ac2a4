"""Field constructors: analytic seeds on generator spaces and random fields.

Random fields are white noise smoothed by the evolution operator for the
short time t0 = 10 * mesh_h^2 and scaled to sup norm 1; the smoothing
caps their Lipschitz constant at roughly diam/t0 while keeping them
generic.  Analytic seeds (cosine, coordinate, exponential tilts) are
resolved against the generator metadata carried by the space.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; here at import, not in a command

from .generators import _parse_fields
from .hopflax import apply
from .space import MeasuredSpace, ScalarField, make_field


def _axis(space: MeasuredSpace) -> np.ndarray:
    if space.coords is None or space.coords.shape[1] != 1:
        raise ValueError(f"space kind {space.kind!r} has no 1-d coordinate")
    return space.coords[:, 0]


def coordinate_field(space: MeasuredSpace) -> ScalarField:
    """The 1-d coordinate itself (arc position or interval position)."""
    return make_field(space, _axis(space))


def cosine_field(space: MeasuredSpace) -> ScalarField:
    """cos of the angle coordinate on a circle (or first torus axis)."""
    key = {"circle": "length", "torus2d": "side_x"}.get(space.kind)
    if key is None:
        raise ValueError(f"cosine field needs a circle or torus2d space, not {space.kind!r}")
    period = space.params.get(key)
    # JSON true and false load as bool, a subclass of int
    if isinstance(period, bool) or not isinstance(period, (int, float)) or not 0 < period < np.inf:
        raise ValueError(f"cosine field on a {space.kind} space needs a positive finite "
                         f"params.{key}, got {period!r}")
    if space.coords is None:
        raise ValueError(f"cosine field on a {space.kind} space needs coords")
    x = _axis(space) if space.kind == "circle" else space.coords[:, 0]
    return make_field(space, np.cos(2 * np.pi * x / period))


def tilt_field(space: MeasuredSpace, alpha: float) -> ScalarField:
    """Exponential tilt e^(alpha * x / 2) along the 1-d coordinate."""
    with np.errstate(over="ignore"):  # make_field rejects the inf, one error line
        vals = np.exp(0.5 * float(alpha) * _axis(space))
    return make_field(space, vals)


def random_smoothed_field(space: MeasuredSpace, rng) -> ScalarField:
    """Gaussian noise evolved for time 10 * mesh_h^2, scaled to sup norm 1."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    f = apply(space, make_field(space, rng.standard_normal(space.n)),
              10.0 * space.mesh_h ** 2)
    peak = float(np.abs(f.values).max())
    return make_field(space, f.values / peak) if peak > 0 else f


def resolve_field(space: MeasuredSpace, text: str, seed: int = 0) -> ScalarField:
    """Turn a CLI field spec into a ScalarField.

    Specs: 'cos', 'coordinate', 'tilt:ALPHA', 'random' or 'random:IDX'
    (seeded stream), or a CSV file path (index,value rows).
    """
    if text == "cos":
        return cosine_field(space)
    if text in ("coordinate", "coord"):
        return coordinate_field(space)
    head, colon, rest = text.partition(":")
    bad = f"bad field spec {text!r}"
    if head == "tilt" and colon:
        return tilt_field(space, _parse_fields(bad, head, rest, {"alpha": float})["alpha"])
    if head == "random":
        idx = _parse_fields(bad, head, rest, {"index": int})["index"] if colon else 0
        if idx < 0:  # numpy takes only non-negative seed entries
            raise ValueError(f"{bad}: index must be >= 0, got {idx}")
        return random_smoothed_field(space, np.random.default_rng([seed, idx]))
    if text.endswith(".csv"):
        return load_field_csv(space, text)
    raise ValueError(
        f"unknown field spec {text!r}; use cos, coordinate, tilt:A, random[:i], or a .csv path"
    )


def save_field_csv(f: ScalarField, path: str):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(f.values):
            fh.write(f"{i},{v:.17g}\n")


def load_field_csv(space: MeasuredSpace, path: str) -> ScalarField:
    try:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read field file {path}: {exc}") from None
    if not lines or lines[0].strip() != "index,value":
        raise ValueError(f"field file {path} must start with an index,value header")
    vals = np.full(space.n, np.nan)
    seen = np.zeros(space.n, dtype=bool)
    for line in lines[1:]:
        idx, _, val = line.partition(",")
        try:
            i = int(idx)
            x = float(val)
        except ValueError:
            raise ValueError(f"field file {path}: bad row {line!r}") from None
        if not (0 <= i < space.n):
            raise ValueError(f"field file {path}: index {i} outside 0..{space.n - 1}")
        if seen[i]:
            raise ValueError(f"field file {path}: index {i} repeated")
        seen[i] = True
        vals[i] = x
    if not seen.all():
        missing = int(np.argmin(seen))
        raise ValueError(f"field file {path}: no value for point {missing}")
    return make_field(space, vals)

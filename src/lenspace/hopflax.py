"""Quadratic Hopf-Lax semigroup on a finite metric-measure space.

The evolution of a function f under the quadratic cost is

    (Q_t f)(x) = min_y [ f(y) + d(x, y)^2 / (2t) ],    Q_0 f = f.

On a length space Q_t Q_s = Q_{t+s}; on a finite approximation the
semigroup identity holds up to a defect that shrinks with the mesh, and
Q_t f solves the Hamilton-Jacobi equation  du/dt = -|grad^- u|^2 / 2  in
the same approximate sense.  This module computes the evolution, the
graph gradient and descending-slope norms, and the associated defects
and residuals.  Its one min-plus kernel, ``_minima`` (minimizers and minima),
evaluates a whole time grid in one pass over blocks of rows, as the
trace, the semigroup defect and the psi and phi traces need it: the space's
row reader forms each block (from point 0's squared row on a circle, torus or
complete graph), and small blocks skip the columns that cannot win.  It
also runs the transport certificate: the c-transform for cost d^2 is Q_{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import _BLOCK_CELLS, MeasuredSpace, ScalarField, check_binding, make_field


def _check_time(t: float, *, positive: bool) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0 or (positive and t == 0):
        kind = "finite" if np.isinf(t) else "positive" if positive else "nonnegative"
        raise ValueError(f"time must be {kind}, got {t}")
    return t


def _time_grid(times) -> np.ndarray:
    """A nonempty, strictly increasing grid of positive finite times."""
    grid = np.array([_check_time(t, positive=True) for t in times])
    if grid.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _minima(space: MeasuredSpace, g: np.ndarray, scales):
    """For each scale a of scales and each x, the first y that minimizes
    g(y) + a * d(x, y)^2, and that minimum: (arg, low), one row per scale,
    each minimum read from the block buffer just minimized.

    One pass over blocks of rows serves every scale: each block's squares
    are formed once into one buffer, and each scale scales it into a
    second one (in place when there is one scale), adds g and minimizes,
    so a cell costs the float operations of a pass for that scale alone,
    and there is no n x n temporary.  The space's row reader copies an orbit
    space's blocks, whole grid rows of the first axis, from the translates of
    point 0's squared row: the same floats fl(d * d), and no n x n metric.  A
    cell that overflows is inf, which is exact, and never a row's minimum:
    the row's own cell costs g(x), finite.  An infinite scale (t = 0, or a
    1/2t that overflows) prices every y != x at inf: x is the minimizer,
    g(x) the minimum.  Where a block holds at most an eighth of the rows,
    only the columns y with fl(fl(near(y) a) + g(y)) <= max g over the
    block's rows are minimized, near(y) the block's least d^2 to y, in
    index order: any other column costs more than each row's own cell.
    """
    n = space.n
    arg, low = np.empty((len(scales), n), dtype=np.intp), np.empty((len(scales), n))
    finite = []
    for k, scale in enumerate(scales):
        if scale < np.inf:
            finite.append((k, scale))
        else:
            arg[k], low[k] = np.arange(n), g
    rows = space._block_rows(_BLOCK_CELLS)  # on an orbit space, whole grid rows
    prune = n >= 8 * rows
    square = np.empty((min(rows, n), n))
    buf = np.empty_like(square) if len(finite) > 1 else square  # one scale: in place
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            sq, b = space._rows(slice(lo, hi), np.square, square[:hi - lo]), buf[:hi - lo]
            if prune:
                near, top = sq.min(axis=0), g[lo:hi].max()
            for k, scale in finite:
                if prune:  # the columns that can win, in index order
                    cols = np.flatnonzero(near * scale + g <= top)
                    b = np.take(sq, cols, axis=1)
                np.multiply(b if prune else sq, scale, out=b)
                b += g[cols] if prune else g
                y = b.argmin(axis=1, out=arg[k, lo:hi])
                low[k, lo:hi] = b[np.arange(hi - lo), y]
                if prune:
                    arg[k, lo:hi] = cols[y]
    return arg, low


def _evolve(space: MeasuredSpace, vals: np.ndarray, times) -> np.ndarray:
    """Q_t of the values vals at each time t >= 0 of times, one row each,
    from one kernel pass; 1/(2t) is inf at t = 0 and wherever it overflows,
    and there Q_t f = f."""
    scales = [1.0 / (2.0 * t) if t > 0 else np.inf for t in map(float, times)]
    return _minima(space, vals, scales)[1]


def apply(space: MeasuredSpace, f: ScalarField, t: float) -> ScalarField:
    """Evolve f for time t >= 0 by exact minimization over all points."""
    vals = check_binding(space, f)
    t = _check_time(t, positive=False)
    return make_field(space, _evolve(space, vals, [t])[0])


def grad_norm_field(space: MeasuredSpace, f: ScalarField) -> np.ndarray:
    """Local slope |grad f|(x): max |f(y) - f(x)| / d(x, y) over neighbors y."""
    vals = check_binding(space, f)
    src, dst, _, length, _ = space.edges
    out = np.zeros(space.n)
    np.maximum.at(out, src, np.abs(vals[dst] - vals[src]) / length)
    return out


def subgrad_norm_field(space: MeasuredSpace, f: ScalarField) -> np.ndarray:
    """Descending slope |grad^- f|(x): like |grad f|(x), but only drops count.

    Uses the positive part of f(x) - f(y), so the value is zero at a local
    minimum and never exceeds |grad f|(x).
    """
    vals = check_binding(space, f)
    src, dst, _, length, _ = space.edges
    out = np.zeros(space.n)
    np.maximum.at(out, src, np.maximum(vals[src] - vals[dst], 0.0) / length)
    return out


def lipschitz_constant(space: MeasuredSpace, f: ScalarField) -> float:
    """Global Lipschitz constant max |f(x) - f(y)| / d(x, y) over distinct pairs.

    On a length space the global constant is the supremum of the local
    slope, and a graph's shortest-path metric is one: a geodesic from x to
    y runs along edges whose lengths add up to d(x, y), so the chord
    quotient of (x, y) is at most the largest edge slope on that geodesic.
    Edge pairs are distinct pairs too, so the largest edge slope is the
    constant, and no n x n array is needed.
    """
    return float(grad_norm_field(space, f).max())


def semigroup_defect(space: MeasuredSpace, f: ScalarField, t: float, s: float) -> float:
    """max_x (Q_t Q_s f - Q_{t+s} f)(x); the reverse inequality is exact.

    Q_t Q_s f >= Q_{t+s} f holds on any metric space by the triangle
    inequality, so the defect is nonnegative and measures how far the
    space is from having true midpoints at the relevant scale.
    """
    t = _check_time(t, positive=True)
    s = _check_time(s, positive=True)
    vals = check_binding(space, f)
    q_s, one_step = _evolve(space, vals, [s, _check_time(t + s, positive=True)])
    two_step = _evolve(space, q_s, [t])[0]
    return float((two_step - one_step).max())


def _residual(space: MeasuredSpace, here: ScalarField, there: ScalarField,
              s: float) -> ScalarField:
    """Hamilton-Jacobi residual (Q_{t+s} f - Q_t f) / s + |grad^- Q_t f|^2 / 2
    from here = Q_t f and there = Q_{t+s} f; on a mesh it is small once s
    dominates the mesh scale, and it vanishes as s -> 0 in the continuum.
    """
    slope = subgrad_norm_field(space, here)
    r = (there.values - here.values) / s + 0.5 * slope ** 2
    return make_field(space, r)


@dataclass(frozen=True)
class SemigroupTrace:
    """Evolution of one field across a time grid, with diagnostics.

    fields[i] is Q_{times[i]} f.  residuals[i] is the forward residual at
    times[i] using the gap to the next grid time as the step (the last
    time reuses the preceding gap).  convergence_defect is
    max (f - Q_{t_min} f), bounded by t_min * Lip(f)^2 / 2.
    """

    source: ScalarField
    times: np.ndarray
    fields: list
    lipschitz: np.ndarray
    residuals: list
    steps: np.ndarray
    mean_abs_residual: np.ndarray
    max_abs_residual: np.ndarray
    convergence_defect: float
    convergence_bound: float

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "fields": [fld.values.tolist() for fld in self.fields],
            "lip_constants": self.lipschitz.tolist(),
            "residual_summaries": [
                {"step": float(s), "mean_abs": float(m), "max_abs": float(M)}
                for s, m, M in zip(self.steps, self.mean_abs_residual,
                                   self.max_abs_residual)
            ],
            "convergence_defect": self.convergence_defect,
            "convergence_bound": self.convergence_bound,
            "source": self.source.values.tolist(),
        }


def make_trace(space: MeasuredSpace, f: ScalarField, times) -> SemigroupTrace:
    """Evolve f across a strictly increasing grid of positive times."""
    vals = check_binding(space, f)
    times = _time_grid(times)

    if times.size > 1:
        gaps = np.diff(times)
        steps = np.append(gaps, gaps[-1])
    else:
        steps = np.array([0.5 * times[0]])
    # one kernel pass for the grid and each residual's Q_{t+s} f, every time
    # once: a t + s that lands on the next grid time is that time's field
    ends = [_check_time(t, positive=True) for t in times + steps]
    needed, at = np.unique(np.concatenate([times, ends]), return_inverse=True)
    evolved = [make_field(space, q) for q in _evolve(space, vals, needed)]
    fields = [evolved[k] for k in at[:times.size]]
    lips = np.array([lipschitz_constant(space, fld) for fld in fields])
    residuals = [_residual(space, here, evolved[k], s)
                 for here, k, s in zip(fields, at[times.size:], steps)]
    mean_abs = np.array([
        float(np.abs(r.values) @ space.measure) for r in residuals
    ])
    max_abs = np.array([float(np.abs(r.values).max()) for r in residuals])

    lo, hi = vals.min(), vals.max()
    for fld in fields:
        if fld.values.min() < lo or fld.values.max() > hi:
            raise AssertionError("evolution left the [min f, max f] band")
    for a, b in zip(fields, fields[1:]):
        if (b.values - a.values).max() > 0:
            raise AssertionError("evolution is not monotone in t")

    defect = float((vals - fields[0].values).max())
    with np.errstate(over="ignore"):  # an overflowing bound is inf, written as null
        bound = float(times[0] * np.float64(lipschitz_constant(space, f)) ** 2 / 2.0)
    return SemigroupTrace(
        source=f,
        times=times,
        fields=fields,
        lipschitz=lips,
        residuals=residuals,
        steps=steps,
        mean_abs_residual=mean_abs,
        max_abs_residual=max_abs,
        convergence_defect=defect,
        convergence_bound=bound,
    )

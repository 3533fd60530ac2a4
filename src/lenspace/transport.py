"""Exact order-2 Wasserstein distance between measures on a finite space.

W2(mu0, mu1)^2 is the optimal value of the transportation linear program
with cost d(x, y)^2 over couplings of mu0 and mu1.  w2 solves it by the
shortlist method (Gottschlich & Schuhmacher 2014): the LP restricted to
a small support of cells, grown by the cells that violate dual
feasibility until none does.  The staircase of the two measures in
index order is checked first: on a path numbered along itself it is the
monotone (quantile) coupling, found with no LP.  Otherwise the first
support is the staircase and each row's largest ball of at most 16
cells, ties and all: on a torus the 13 cells within two grid steps.  A
solve keeps one HiGHS model: each round adds its new cells as columns and
re-solves by the primal simplex from the last optimal basis.  When a
restricted solve fails, or a failed check adds no cell, the missing cells
join and the dense LP over all n^2 cells is solved cold.  Every plan, the
identity plan of equal marginals too, passes a reduced-cost check by dual
potentials u, v, d(x, y)^2 - u(x) - v(y) >= 0 on all n^2 cells, so it is
optimal.  Its row minima are Q_{1/2}(-v), which the semigroup's kernel
returns with their minimizers; the check reads them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .hopflax import _minima
from .space import _BLOCK_CELLS, MeasuredSpace


def _check_marginal(space: MeasuredSpace, mu, name: str) -> np.ndarray:
    v = np.array(mu, dtype=float)
    if v.shape != (space.n,):
        raise ValueError(f"{name} has {v.size} entries, space has {space.n} points")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(v < 0):
        bad = int(np.argmin(v))
        raise ValueError(f"{name} has a negative entry at point {bad} ({v[bad]})")
    with np.errstate(over="ignore"):
        total = float(v.sum())
    if total == np.inf:
        raise ValueError(f"{name} sums past the largest float")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {total!r}, off from 1 by {total - 1.0!r}")
    # tiny rescale so the two marginals have exactly equal LP supply
    return v / total


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling between two measures, with its certificate.

    The coupling is stored as its cells: mass[k] sits at (rows[k], cols[k]),
    distinct cells in row-major order, and every other cell is empty.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    source_marginal: np.ndarray
    target_marginal: np.ndarray
    cost: float
    duality_gap: float

    def check(self, space: MeasuredSpace):
        """Raise AssertionError when a plan invariant fails, also under python -O."""
        n, rows, cols, mass = space.n, self.rows, self.cols, self.mass
        if not (rows.shape == cols.shape == mass.shape == (len(mass),)
                and np.all((rows >= 0) & (rows < n) & (cols >= 0) & (cols < n))
                and np.all(np.diff(rows * n + cols) > 0)):
            raise AssertionError("cells are not distinct, in 0..n-1 and in row-major order")
        row = np.abs(np.bincount(rows, mass, n) - self.source_marginal).max()
        col = np.abs(np.bincount(cols, mass, n) - self.target_marginal).max()
        recomputed = float(mass @ space._cells(rows, cols) ** 2)
        for ok, message in (
                (np.all(mass >= 0.0), "coupling has negative mass"),
                (row <= _PLAN_TOL, f"row sums off by {row}"),
                (col <= _PLAN_TOL, f"column sums off by {col}"),
                (abs(recomputed - self.cost) <= _PLAN_TOL * (1.0 + abs(self.cost)),
                 f"stored cost {self.cost} vs recomputed {recomputed}"),
                (self.duality_gap <= _PLAN_TOL * (1.0 + self.cost),
                 f"duality gap {self.duality_gap} too large")):
            if not ok:
                raise AssertionError(message)


# TransportPlan.check's slack on marginals, and on cost and gap relative to 1 + cost
_PLAN_TOL = 1e-9
# most cells of a row's ball in the first shortlist support: the row's
# cells strictly nearer than its (_NEAREST + 1)-th smallest distance, so
# a tie at the edge shrinks the ball instead of growing it
_NEAREST = 16
# HiGHS options of every transport LP: tight feasibility tolerances keep
# clamped marginal defects below 1e-9; skipping presolve took about 40% off
# each solve on torus2d:20:20, restricted or dense (2-vCPU VM)
_LP_OPTIONS = {"output_flag": False, "presolve": "off",
               "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# HiGHS simplex_strategy of cold solves (dual, the default) and of warm ones
# (primal: 1-80 iterations per round after the second on torus2d:20:20,
# where the dual simplex took 300-500)
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4


def w2(space: MeasuredSpace, mu0, mu1):
    """Wasserstein distance and optimal plan.

    Returns (distance, TransportPlan).  Identical marginals give the
    identity plan, with zero potentials; otherwise the shortlist solve
    answers, with no LP on a path numbered along itself and the dense LP
    as its last support.  Every plan passes the reduced-cost check on all
    n^2 cells and carries its duality gap.  Raises RuntimeError when even
    the dense LP gives no certified plan.
    """
    a = _check_marginal(space, mu0, "mu0")
    b = _check_marginal(space, mu1, "mu1")
    if np.array_equal(a, b):
        idx, zero = np.arange(space.n), np.zeros(space.n)
        plan, _ = _certified_plan(space, a, b, idx, idx, a, zero, zero)
    else:
        plan = _shortlist_plan(space, a, b)
    return float(np.sqrt(plan.cost)), plan


def _highs_core():
    """scipy's HiGHS extension module, loaded from its file under its own name.

    The plain import first runs scipy.optimize's __init__, which takes far
    longer than the extension; a later import of scipy.optimize reuses this
    module.  scipy's own directory is found without importing scipy.  Falls
    back to the plain import when no file is found.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(scipy, "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


class _TransportLP:
    """The transportation LP of a to b on a growing list of cells, one HiGHS model.

    Row i of the coupling sums to a[i] and column j to b[j]; each cell is a
    column, in the order the cells were added.
    """

    def __init__(self, space: MeasuredSpace, a, b):
        # HiGHS loads at the first LP, and _Highs is looked up on each model
        core = _highs_core()
        self.space, self.optimal, self.highs = space, core.HighsModelStatus.kOptimal, core._Highs()
        self.scale = _cost_scale(space)
        for key, value in _LP_OPTIONS.items():
            self.highs.setOptionValue(key, value)
        supply = np.concatenate([a, b])
        self.highs.addRows(len(supply), supply, supply, 0, [], [], [])

    def solve(self, src, dst, cold: bool):
        """Add the cells (src[k], dst[k]) as columns and solve again.

        A cold solve clears the solver and runs the dual simplex from no
        basis.  Otherwise the new columns enter nonbasic, so the last
        optimal basis stays primal feasible and the primal simplex goes on
        from it.  Returns (status, x, u, v): HiGHS's model status, and when
        it is optimal the mass per column and the row potentials u, v of d^2.
        """
        n, k, h = self.space.n, len(src), self.highs
        h.addCols(k, self.space._cells(src, dst) ** 2 * self.scale, np.zeros(k), np.full(k, np.inf),
                  2 * k, np.arange(0, 2 * k, 2, dtype=np.int32),
                  np.stack([src, n + dst], axis=1).ravel().astype(np.int32), np.ones(2 * k))
        if cold:
            h.clearSolver()
        h.setOptionValue("simplex_strategy", _DUAL_SIMPLEX if cold else _PRIMAL_SIMPLEX)
        h.run()
        if h.getModelStatus() != self.optimal:
            return h.modelStatusToString(h.getModelStatus()), None, None, None
        solution = h.getSolution()
        duals = np.array(solution.row_dual) / self.scale
        return "Optimal", np.array(solution.col_value), duals[:n], duals[n:]


def _cost_scale(space: MeasuredSpace) -> float:
    """The power of two s, exact on costs and potentials, that HiGHS's costs
    d^2 are multiplied by: 1 for a squared diameter D^2 in [1/2, 2^20), else
    s D^2 in [1/2, 1), as its tolerances are absolute and a cost >= 1e20 infinite."""
    e = int(np.frexp(space.diameter ** 2)[1])
    return 1.0 if 0 <= e <= 20 else float(np.ldexp(1.0, -e))


def _certified_plan(space: MeasuredSpace, a, b, src, dst, mass, u, v):
    """The plan with mass on cells (src, dst), if potentials u, v prove it optimal.

    The proof is dual feasibility on the full LP: every reduced cost
    d(i, j)^2 - u_i - v_j is at least -1e-10 (1/s + max d^2), s the LP's
    _cost_scale (2e-10 to 3e-10 of max d^2 below diameter 1), checked over all
    n^2 cells as the Hopf-Lax kernel's minima on -v, less u.  Returns
    (plan, cells).  When the check fails, plan is None and cells holds
    (rows, cols): the least reduced-cost cell of each failing row, and of
    each failing column by the kernel on -u, as the metric is exactly symmetric.
    """
    idx = np.arange(space.n)
    floor = -1e-10 * (1.0 / _cost_scale(space) + space.diameter ** 2)
    (jmin,), (row_min,) = _minima(space, -v, [1.0])  # row i's least cell is (i, jmin[i])
    bad_rows = row_min - u < floor
    if bad_rows.any():
        (imin,), (col_min,) = _minima(space, -u, [1.0])  # column j's least cell is (imin[j], j)
        bad_cols = col_min - v < floor
        return None, (np.concatenate([idx[bad_rows], imin[bad_cols]]),
                      np.concatenate([jmin[bad_rows], idx[bad_cols]]))
    cost = float(mass @ space._cells(src, dst) ** 2)
    gap = abs(cost - (float(u @ a) + float(v @ b)))
    plan = TransportPlan(rows=src, cols=dst, mass=mass, source_marginal=a,
                         target_marginal=b, cost=cost, duality_gap=gap)
    return plan, None


def _shortlist_plan(space: MeasuredSpace, a, b):
    """The optimal plan by LP solves on a growing support, certified.

    The staircase of the two measures in index order, a feasible spanning
    tree, is the plan when its tree potentials pass the check.  Otherwise
    it seeds the first support, so the first solve has a solution, with
    each row's ball: the cells strictly nearer than the row's
    (_NEAREST + 1)-th smallest distance, every cell when n <= _NEAREST.
    While the certificate fails, the most violated cell of each row and of
    each column joins the support as a column of the one HiGHS model,
    re-solved warm.  When a solve fails, or a failed check adds no new
    cell, every missing cell joins and the dense LP is solved cold.
    Raises RuntimeError when the solve on all n^2 cells fails or is not
    certified.
    """
    n = space.n
    rows, cols, mass = _staircase(a, b)
    plan, _ = _certified_plan(space, a, b, rows, cols, mass,
                              *_tree_potentials(space, rows, cols))
    if plan is not None:
        return plan
    # the support as a mask of the flat cells i * n + j, listed in the order
    # np.nonzero gives an n x n mask; each row's ball, its cells strictly
    # nearer than its (_NEAREST + 1)-th distance, in blocks of rows (every
    # cell when n <= _NEAREST)
    support = np.ones((n, n), dtype=bool)
    block = space._block_rows(_BLOCK_CELLS)
    for lo in range(0, n, block) if n > _NEAREST else ():
        near = space._rows(slice(lo, lo + block))
        np.less(near, np.partition(near, _NEAREST, axis=1)[:, _NEAREST, None],
                out=support[lo:lo + block])
    support[rows, cols] = True
    support = support.ravel()
    cells = np.flatnonzero(support)
    lp, new, cold = _TransportLP(space, a, b), cells, True
    while True:
        status, x, u, v = lp.solve(*np.divmod(new, n), cold)
        solved = x is not None and x.min() >= -1e-9
        grow = cells[:0]
        if solved:
            # the LP's columns follow the order the cells joined in
            order = np.argsort(cells)
            plan, bad = _certified_plan(space, a, b, *np.divmod(cells[order], n),
                                        np.maximum(x[order], 0.0), u, v)
            if plan is not None:
                return plan
            # the violating cells not in the support, sorted and distinct
            grow = np.sort(n * bad[0] + bad[1])
            grow = grow[np.append(True, grow[1:] != grow[:-1])]
            grow = grow[~support[grow]]
        if len(cells) == n * n:
            raise RuntimeError("transport LP on all n^2 cells " + (
                "gave no certified plan" if solved else f"failed: {status}"))
        # no new cell to add: every missing cell joins, and HiGHS starts cold
        cold = not len(grow)
        new = np.flatnonzero(~support) if cold else grow
        support[new] = True
        cells = np.concatenate([cells, new])


def _staircase(a: np.ndarray, b: np.ndarray):
    """Cells of the monotone coupling of two measures taken in index order.

    Merges the two CDFs one row or column step at a time from cell (0, 0)
    to cell (n-1, n-1), so the 2n-1 cells always form a spanning tree of
    the source/target bipartite graph: where both sides run out at the
    same step, the next cell carries zero mass.  Returns (rows, cols,
    mass) in walk order.
    """
    a, b = a.tolist(), b.tolist()
    last = len(a) - 1
    rows, cols, mass = [], [], []
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        m = min(ra, rb)
        rows.append(i)
        cols.append(j)
        mass.append(m)
        if i == last and j == last:
            break
        ra -= m
        rb -= m
        # one of ra, rb is exactly zero now; step past the side that ran out
        if j == last or (ra == 0.0 and i < last):
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]
    return np.array(rows), np.array(cols), np.array(mass)


def _tree_potentials(space: MeasuredSpace, rows, cols):
    """Potentials u, v with u_i + v_j = d(i, j)^2 on the staircase cells."""
    cell_cost = space._cells(rows, cols) ** 2
    u = np.zeros(space.n)
    v = np.zeros(space.n)
    v[cols[0]] = cell_cost[0]
    # each cell after the first adds one new row or column to the tree
    for i, j, c, row_step in zip(rows[1:].tolist(), cols[1:].tolist(),
                                 cell_cost[1:].tolist(), np.diff(rows).tolist()):
        if row_step:
            u[i] = c - v[j]
        else:
            v[j] = c - u[i]
    return u, v

"""Finite metric-measure spaces with a shortest-path metric.

A space is a finite point set carrying the geodesic metric of a weighted
graph and a probability measure.  All distances are realized by paths in
the generating graph, so the metric is a length metric up to the mesh
scale: between any two points there is an approximate midpoint whose
quality is measured by ``midpoint_defect``.

The metric is computed in floats, and exactly so: d(s, v) is the least
left-fold sum fl(...fl(fl(w1 + w2) + w3)... + wk) of the edge weights
over the paths from s to v, taken the smaller of the two directions.
That is what Dijkstra's algorithm computes in floats, since float
addition is monotone and a positive weight never lowers a sum; so
``shortest_path`` gives every distance bit for bit as a float Dijkstra
would, whatever order its search takes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(eq=False)
class MeasuredSpace:
    """Immutable bundle of points, metric, and measure.

    dist[i, j] is the graph shortest-path distance, and the space's only
    n x n array: no d^2 is cached.  measure is a probability vector.
    edges is the generating graph as read-only directed arrays
    (src, dst, weight, length, starts): each edge in both orientations,
    sorted by (src, dst).  weight is the raw edge weight; length is the
    metric distance dist[src, dst], smaller when a shorter path joins the
    endpoints.  The edges out of x are [starts[x], starts[x + 1]); the
    graph is symmetric, so they are also the edges into x with the roles
    swapped.  mesh_h is the largest distance from a point to its nearest
    distinct point.  kind, params and coords describe the generator
    geometry that fields and witness families read.  space_id hashes n, dist, measure,
    edges, kind, params and coords, so equal ids mean equal inputs to
    every computation.  midpoint_defect is

        max_{x,y} min_z | max(d(x,z), d(z,y)) - d(x,y)/2 |

    which vanishes in the continuum limit of a length space.  It is
    computed on first read and cached.  Bounds from shortest paths in the
    graph settle most pairs in O(n m + n^2 log n) work; each other pair
    costs O(n), so the worst case is still O(n^3).
    """

    n: int
    dist: np.ndarray
    measure: np.ndarray
    edges: tuple
    mesh_h: float
    space_id: str
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    coords: np.ndarray | None = None

    @cached_property
    def midpoint_defect(self) -> float:
        return _max_midpoint_defect(self)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function on the points of one specific space."""

    values: np.ndarray
    space_id: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("field values must be a 1-d array")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def make_field(space: MeasuredSpace, values) -> ScalarField:
    """Bind an array of values to a space, validating shape and finiteness."""
    v = np.array(values, dtype=float)
    if v.shape != (space.n,):
        raise ValueError(
            f"field has {v.shape} values, space has {space.n} points"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    return ScalarField(values=v, space_id=space.space_id)


def check_binding(space: MeasuredSpace, f: ScalarField) -> np.ndarray:
    """Return f's values after verifying f belongs to this space."""
    if f.space_id != space.space_id:
        raise ValueError(
            f"field bound to space {f.space_id} used on space {space.space_id}"
        )
    if f.values.shape != (space.n,):
        raise ValueError("field length does not match space size")
    return f.values


# cells per block of rows in the row-blocked kernels here and in hopflax:
# one float64 block of them holds 512 KB
_BLOCK_CELLS = 1 << 16


def _edge_relax(d: np.ndarray, dst, weight, starts):
    """For rows d of dist: cand[:, k] = d(x, dst[k]) + weight[k] per directed
    edge, and through[x, y], the least cand over the edges at y."""
    cand = d[:, dst]
    cand += weight
    return cand, np.minimum.reduceat(cand, starts, axis=1)


def _padded(n: int, src, sel, values, fill) -> np.ndarray:
    """values of the selected edges by source vertex: row x holds those of
    the selected edges out of x, then fill up to the longest row."""
    s = src[sel]  # sorted, as src is
    count = np.bincount(s, minlength=n)
    slot = np.arange(len(s)) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((n, int(count.max(initial=0))), fill, dtype=values.dtype)
    table[s, slot] = values
    return table


def _chain_walks(src, dst, weight, starts, deg):
    """The walks from the edges into degree-2 vertices, as one sequence.

    The walk of an edge e into a degree-2 vertex goes on through degree-2
    vertices until it takes in a vertex of another degree, or until it has
    seen the other k - 1 vertices of a cycle of k degree-2 vertices.  It is
    the stretch of the sequence from pos[e]: vertex seq_v[p] is reached by
    an edge of weight seq_w[p].  A path of degree-2 vertices is stored once
    per direction, and every walk along it is a tail of that stretch; a
    cycle is stored once per direction, its first k - 2 entries repeated.
    Each stretch is followed by an infinite weight.  The walk from entry p
    has size[p] vertices; along a path its last is of another degree, at
    hop end[p], and along a cycle end[p] = -1.  Returns (pos, seq_v, seq_w,
    size, end) as arrays.
    """
    S, D, W = src.tolist(), dst.tolist(), weight.tolist()
    first, dg = starts.tolist(), deg.tolist()
    pos = [-1] * len(S)
    seq_v, seq_w, size, end = [], [], [], []

    def onward(e):  # the edge out of e's degree-2 head that does not turn back
        f = first[D[e]]
        return f + 1 if D[f] == S[e] else f

    for e in range(len(S)):
        if dg[D[e]] == 2 and dg[S[e]] != 2:  # a path, from its end at S[e]
            start = len(seq_v)
            while True:
                pos[e] = len(seq_v)
                seq_v.append(D[e])
                seq_w.append(W[e])
                if dg[D[e]] != 2:
                    break
                e = onward(e)
            count = len(seq_v) - start
            size += range(count, -1, -1)  # the last, 0, is the gap's
            end += range(count - 1, -2, -1)
            seq_v.append(0)
            seq_w.append(np.inf)
    for e in range(len(S)):
        if dg[D[e]] == 2 and pos[e] < 0:  # on a cycle of degree-2 vertices only
            cycle = [e]
            while (f := onward(cycle[-1])) != e:
                cycle.append(f)
            for j, f in enumerate(cycle):
                pos[f] = len(seq_v) + j
            stored = cycle + cycle[:len(cycle) - 2]
            seq_v += [D[f] for f in stored] + [0]
            seq_w += [W[f] for f in stored] + [np.inf]
            size += [len(cycle) - 1] * len(stored) + [0]
            end += [-1] * (len(stored) + 1)
    return (np.array(pos, dtype=np.intp), np.array(seq_v, dtype=np.intp), np.array(seq_w),
            np.array(size, dtype=np.intp), np.array(end, dtype=np.intp))


def _relax_edges(label, pair, mask, step, plain_w):
    """Relax the edges into vertices of degree other than 2 out of the
    pairs (keys into label); returns the keys whose label fell."""
    take = np.take
    u = pair & mask
    keys = take(step, u, axis=1)
    keys += pair
    cand = take(plain_w, u, axis=1)
    cand += take(label, pair)
    keys, cand = keys.ravel(), cand.ravel()
    lower = np.flatnonzero(cand < take(label, keys))
    keys = take(keys, lower)
    np.minimum.at(label, keys, take(cand, lower))
    return keys


def _relax_walks(label, pair, mask, first, last, walk_v, walk_w):
    """Relax the walks of one class (shortest_path) out of the pairs;
    returns the keys at the walks' ends of another degree whose label fell."""
    take = np.take
    u = pair & mask
    at = take(first, u, axis=0)
    cand = walk_w[at]
    cand[:, :, 0] += take(label, pair)[:, None]
    np.cumsum(cand, axis=2, out=cand)
    keys = walk_v[at]
    keys += (pair - u)[:, None, None]
    # the walks' ends at a vertex of another degree, as flat indices into
    # cand, read before the labels fall
    hop = take(last, u, axis=0).ravel()
    ends = np.flatnonzero(hop >= 0)
    ends = ends * cand.shape[2] + take(hop, ends)
    end_keys = take(keys, ends)
    fell = take(end_keys, np.flatnonzero(take(cand, ends) < take(label, end_keys)))
    np.minimum.at(label, keys.ravel(), cand.ravel())
    return fell


def shortest_path(n: int, src, dst, weight, starts) -> np.ndarray:
    """All-pairs shortest-path distances, min(d, d.T), of the graph held as
    directed edge arrays (src, dst, weight, starts) as in MeasuredSpace.edges.

    A label-correcting search from all sources at once, in blocks of
    sources: each round, every (source, vertex) pair whose label fell in
    the last round relaxes its edges, until no label falls.  Every label is
    the left-fold sum fl(d(s, u) + w(u, v)) along some path, and at the end
    no edge lowers a label, so each row is the least fold sum: bit for bit
    what float Dijkstra gives (see the module docstring).  Pairs are keys
    row * 2^b + vertex; np.minimum.at lowers the labels, and a key that
    falls twice is kept once by writing each key's position and keeping
    the key where it reads back its own.

    An edge into a degree-2 vertex relaxes its whole walk (_chain_walks)
    at once, by one row-wise cumsum, which folds left.  Sums only grow
    along a walk, so a vertex inside it has both its edges relaxed, and
    only a vertex of another degree, reached by an edge or at the end of a
    walk, goes on to the next round.  A circle takes one round, a path
    two.  Walks are relaxed in classes, each padded to its longest walk:
    those from degree-2 vertices, and those from other vertices by size in
    (2^(c-1), 2^c]; every class and the plain edges in chunks of about as
    many candidates as a block has labels.  The two directions are then
    merged by min(d, d.T) in tiles.
    """
    shift = max(1, (n - 1).bit_length())
    mask = (1 << shift) - 1
    rows = max(1, _BLOCK_CELLS // n)
    budget = rows << shift  # labels per block
    deg = np.bincount(src, minlength=n)
    chain = deg[dst] == 2
    # (vertices that have the group's edges or None for all, candidates one
    # pair makes, relax) per group
    groups = []
    if not chain.all():
        # edges into other vertices: key offsets and weights, one slot a row
        step = _padded(n, src, ~chain, (dst - src)[~chain], 0).T.copy()
        plain_w = _padded(n, src, ~chain, weight[~chain], np.inf).T.copy()
        groups.append((None, len(step), partial(
            _relax_edges, mask=mask, step=step, plain_w=plain_w)))
    if chain.any():
        pos, seq_v, seq_w, size, end = _chain_walks(src, dst, weight, starts, deg)
        pad = len(seq_v)  # where the trailing infinite weights start
        longest = int(size.max())
        # row p of each view: the longest walk's worth of entries from p
        seq_v = sliding_window_view(np.concatenate([seq_v, np.zeros(longest, dtype=np.intp)]),
                                    longest)
        seq_w = sliding_window_view(np.concatenate([seq_w, np.full(longest, np.inf)]), longest)
        # a walk from a degree-2 vertex runs once, in its source's first
        # round; one from a vertex of another degree may run each round
        walk_class = np.where(deg[src] == 2, -1, np.frexp(size[pos] - 1)[1])
        for c in sorted(set(walk_class[chain].tolist())):
            sel = chain & (walk_class == c)
            length = int(size[pos[sel]].max())
            # walk k of vertex x starts at entry first[x, k] and reaches a
            # vertex of another degree at hop last[x, k], if any; where x has
            # fewer walks, the trailing infinite weights
            first = _padded(n, src, sel, pos[sel], pad)
            has = (first < pad).any(axis=1)
            groups.append((None if has.all() else has, first.shape[1] * length, partial(
                _relax_walks, mask=mask, first=first,
                last=_padded(n, src, sel, end[pos[sel]], -1),
                walk_v=seq_v[:, :length], walk_w=seq_w[:, :length])))
    stamp = np.empty(budget, dtype=np.intp)
    dist = np.empty((n, n))
    take = np.take
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        work = np.full((hi - lo, mask + 1), np.inf)
        label = work.reshape(-1)
        front = (np.arange(hi - lo) << shift) + np.arange(lo, hi)
        label[front] = 0.0
        while len(front):
            fell = [front[:0]]  # keys of the next round
            for has, cells, relax in groups:
                pairs = front if has is None else take(front, np.flatnonzero(take(has, front & mask)))
                chunk = max(1, budget // cells)
                for part in range(0, len(pairs), chunk):
                    fell.append(relax(label, pairs[part:part + chunk]))
            fell = np.concatenate(fell)
            order = np.arange(len(fell))
            stamp[fell] = order
            front = take(fell, np.flatnonzero(take(stamp, fell) == order))
        dist[lo:hi] = work[:, :n]
    # the smaller of the two directions, in square tiles of a quarter block
    tile = max(1, math.isqrt(_BLOCK_CELLS // 4))
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            low = np.minimum(dist[i:i + tile, j:j + tile], dist[j:j + tile, i:i + tile].T)
            dist[i:i + tile, j:j + tile] = low
            dist[j:j + tile, i:i + tile] = low.T
    return dist


def _max_midpoint_defect(space: MeasuredSpace) -> float:
    """max over pairs y >= x of min_z |max(d(x,z), d(z,y)) - d(x,y)/2|.

    dist is exactly symmetric, so the pairs y < x repeat earlier ones.  A
    pair's value at any one z bounds its minimum from above, so a pair
    whose bound is at most the running max cannot raise it; only the
    other pairs are minimized over all z, largest bound first.  Each
    bound takes the two points of a shortest path from x to y on either
    side of its middle (_midpoint_bounds).  Each value is the same float
    expression the full loop evaluates, so the result is bitwise the full
    loop's.
    """
    dist, n = space.dist, space.n
    if n < 2:
        return 0.0
    src, dst, weight, _, starts = space.edges
    # a row takes its 2m edge cells and n per binary-lifting level
    rows = max(1, _BLOCK_CELLS // (len(src) + n * (n - 1).bit_length()))
    chunk = max(1, _BLOCK_CELLS // n)  # pairs minimized at once
    worst = 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        bound = _midpoint_bounds(dist, lo, hi, src, dst, weight, starts)
        # pair (x, y) sits at bound[x - lo, y - lo]; drop y < x
        bound = np.triu(bound).ravel()
        top = np.flatnonzero(bound > worst)
        top = top[np.argsort(-bound[top], kind="stable")]
        for k in range(0, len(top), chunk):
            part = top[k:k + chunk]
            part = part[bound[part] > worst]
            if not len(part):  # the rest have smaller bounds
                break
            xs, ys = np.divmod(part, n - lo)
            xs += lo
            ys += lo
            gap = dist[xs]
            np.maximum(gap, dist[ys], out=gap)
            gap -= dist[xs, ys][:, None] / 2.0
            worst = max(worst, float(np.abs(gap, out=gap).min(axis=1).max()))
    return worst


def _midpoint_bounds(dist, lo, hi, src, dst, weight, starts):
    """Upper bounds on the midpoint defect of the pairs x in [lo, hi),
    y >= lo, as a (hi - lo) x (n - lo) array.

    pred[x, y] is the least neighbour s of y whose edge realizes d(x, y),
    and pred[x, x] = x.  Along pred from y, d(x, .) falls toward x; binary
    lifting finds the last z1 with d(x, z1) > d(x, y)/2 and its
    predecessor z0, and the bound is the pair's value at the better of
    the two.
    """
    d = dist[lo:hi]
    b, n = d.shape
    cand, through = _edge_relax(d, dst, weight, starts)
    pred = np.minimum.reduceat(np.where(cand == through[:, src], dst, n), starts, axis=1)
    x = np.arange(lo, lo + b)
    pred[np.arange(b), x] = x
    # points as flat indices into d, so that each step is one np.take
    base = n * np.arange(b)[:, None]
    pred += base
    dflat = d.ravel()
    # jump[k] holds each point's 2^k-th predecessor; n - 1 steps reach x
    jump = [pred]
    while len(jump) < (n - 1).bit_length():
        nxt = np.take(jump[-1], jump[-1])
        if np.array_equal(nxt, jump[-1]):
            break
        jump.append(nxt)
    half = d[:, lo:] / 2.0
    z1 = base + np.arange(lo, n)
    for step in reversed(jump):
        z = np.take(step, z1)
        np.copyto(z1, z, where=np.take(dflat, z) > half)
    y = np.arange(lo, n)[None, :]
    bound = None
    for z in (z1, np.take(pred, z1)):
        gap = np.abs(np.maximum(np.take(dflat, z), dist[y, z - base]) - half)
        bound = gap if bound is None else np.minimum(bound, gap, out=bound)
    return bound


def build_from_graph(edges, measure, n: int, *, kind: str = "custom",
                     params: dict | None = None, coords=None) -> MeasuredSpace:
    """Construct a space from an undirected weighted graph.

    edges is an iterable of (i, j, length) with 0 <= i, j < n, i != j and
    length > 0; parallel edges collapse to the shortest.  measure is a
    nonnegative weight vector with positive total, normalized here.  The
    graph must connect all points.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    w = np.array(measure, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"measure has {w.size} entries, expected n={n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("measure weights must be finite")
    if np.any(w < 0):
        bad = int(np.argmin(w))
        raise ValueError(f"measure weight at point {bad} is negative ({w[bad]})")
    total = w.sum()
    if total <= 0:
        raise ValueError("measure weights sum to zero")
    if abs(total - 1.0) > 1e-12:
        # skip the divide for already-normalized input so that saving and
        # reloading a space reproduces the measure bit for bit
        w = w / total

    shortest_edge = {}
    for i, j, length in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) references a point outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"self-loop at point {i}")
        length = float(length)
        if not (length > 0) or not np.isfinite(length):
            raise ValueError(f"edge ({i}, {j}) has nonpositive length {length}")
        key = (min(i, j), max(i, j))
        if key not in shortest_edge or length < shortest_edge[key]:
            shortest_edge[key] = length

    keys = sorted(shortest_edge)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    vals = np.array([shortest_edge[k] for k in keys], dtype=float)
    # the stored graph: both orientations of each edge, sorted by (src, dst)
    src, dst = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], np.concatenate([vals, vals])[order]
    starts = np.searchsorted(src, np.arange(n))
    dist = shortest_path(n, src, dst, weight, starts)
    if np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ValueError(f"graph is disconnected: points {i} and {j} are not connected")

    dist.flags.writeable = False
    table = (src, dst, weight, dist[src, dst], starts)
    for arr in table:
        arr.flags.writeable = False
    # a nearest distinct point is a graph neighbour: a shortest path into x
    # ends with an edge, and float Dijkstra sums only grow along a path
    mesh_h = float(np.minimum.reduceat(table[3], table[4]).max()) if n > 1 else 0.0

    w.flags.writeable = False
    if coords is not None:
        coords = np.atleast_2d(np.array(coords, dtype=float))
        if coords.shape[0] != n:
            coords = coords.T
        if coords.shape[0] != n:
            raise ValueError(f"coords have {coords.shape} entries, expected n={n}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        coords.flags.writeable = False
    params = dict(params or {})

    digest = hashlib.sha256()
    digest.update(np.int64(n).tobytes())
    digest.update(np.ascontiguousarray(dist))
    digest.update(np.ascontiguousarray(w))
    # the edges too: gradients and slopes read the graph, not just the metric
    for arr in (rows, cols, vals):
        digest.update(arr.tobytes())
    # and kind, params and coords: witness families and the cos, coordinate
    # and tilt fields read them
    digest.update(kind.encode() + b"\0")
    digest.update(json.dumps(params, sort_keys=True).encode() + b"\0")
    if coords is None:
        digest.update(b"no coords")
    else:
        digest.update(np.array(coords.shape, dtype=np.int64).tobytes())
        digest.update(coords.tobytes())

    return MeasuredSpace(
        n=n,
        dist=dist,
        measure=w,
        edges=table,
        mesh_h=mesh_h,
        space_id=digest.hexdigest()[:16],
        kind=kind,
        params=params,
        coords=coords,
    )


@dataclass(frozen=True)
class MetricReport:
    """Worst-case defects of the shortest-path metric and measure axioms."""

    relaxation_defect: float
    realization_defect: float
    symmetry_defect: float
    measure_sum_defect: float
    tol: float
    passed: bool


# validate_metric's slack on each defect
_METRIC_TOL = 1e-9


def validate_metric(space: MeasuredSpace) -> MetricReport:
    """Measure how far dist is from the shortest-path metric of the edges,
    and measure from a probability.

    Let through(x, y) be the least d(x, s) + w(s, y) over the directed
    edges (s, y), w the raw edge weights.  relaxation_defect is the largest
    d(x, y) - through(x, y), floored at 0: every edge relaxes every row.
    realization_defect is the largest |through(x, y) - d(x, y)| over
    y != x, and |d(x, x)|: some edge realizes each distance.  Both at 0
    make each row d(x, .) the fixed point of one Bellman-Ford step from
    x, so with positive weights dist is the shortest-path metric of the
    edges, which satisfies the triangle inequality.  O(n m) work, in
    blocks of rows.
    """
    d, n = space.dist, space.n
    _, dst, weight, _, starts = space.edges
    rows = max(1, _BLOCK_CELLS // max(1, len(dst)))
    relax = real = sym = 0.0
    for lo in range(0, n, rows):
        block = d[lo:lo + rows]
        if len(dst):
            through = _edge_relax(block, dst, weight, starts)[1]
        else:  # one point: no edge, and no y != x
            through = np.full(block.shape, np.inf)
        through -= block
        relax = max(relax, float(-through.min()))
        # the empty path realizes d(x, x) = 0
        through[np.arange(len(block)), np.arange(lo, lo + len(block))] = -block.diagonal(lo)
        real = max(real, float(np.abs(through, out=through).max()))
        sym = max(sym, float(np.abs(block - d[:, lo:lo + rows].T).max()))
    msum = float(abs(space.measure.sum() - 1.0))
    passed = all(v <= _METRIC_TOL for v in (relax, real, sym, msum))
    return MetricReport(
        relaxation_defect=relax,
        realization_defect=real,
        symmetry_defect=sym,
        measure_sum_defect=msum,
        tol=_METRIC_TOL,
        passed=passed,
    )


def _check_sweep(r_min: float, r_max: float, r_steps: int):
    if not (0 < r_min <= r_max < np.inf):  # NaN fails every comparison
        raise ValueError(f"need 0 < r_min <= r_max < inf, got {r_min}, {r_max}")
    if r_steps < 1:
        raise ValueError("r_steps must be at least 1")


def _check_scales(radius: float, dilation: float):
    if not (0 < radius < np.inf):  # NaN fails every comparison
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not (dilation >= 1):
        raise ValueError(f"dilation must be >= 1, got {dilation}")


def doubling_constant(space: MeasuredSpace, r_min: float, r_max: float,
                      r_steps: int = 16) -> float:
    """Empirical doubling constant over a radius sweep.

    Returns max over centers x and radii r in [r_min, r_max] of
    measure(B(x, 2r)) / measure(B(x, r)).  Every sampled ball must carry
    positive measure.
    """
    _check_sweep(r_min, r_max, r_steps)
    radii = np.linspace(r_min, r_max, r_steps)
    worst = 1.0
    for r in radii:
        inner = (space.dist <= r) @ space.measure
        if np.any(inner <= 0):
            x = int(np.argmin(inner))
            raise ValueError(f"ball of radius {r} around point {x} has zero measure")
        outer = (space.dist <= 2 * r) @ space.measure
        worst = max(worst, float((outer / inner).max()))
    return worst


def local_poincare_constant(space: MeasuredSpace, f: ScalarField,
                            radius: float, dilation: float = 2.0) -> float:
    """Smallest C with a (1,1) Poincare inequality at scale `radius` for f.

    For each center, the mean oscillation of f on B(x, r) is compared to
    r times the mean of |grad f| on the dilated ball B(x, dilation*r),
    both means weighted by the measure.  Returns the largest ratio over
    centers; 0/0 counts as 0 and a positive numerator over a zero
    gradient mass gives inf.
    """
    from .hopflax import grad_norm_field

    vals = check_binding(space, f)
    _check_scales(radius, dilation)
    grad = grad_norm_field(space, f)
    worst = 0.0
    for x in range(space.n):
        near = space.dist[x] <= radius
        mass = space.measure[near].sum()
        if mass <= 0:
            raise ValueError(f"ball of radius {radius} around point {x} has zero measure")
        mean_f = (vals[near] * space.measure[near]).sum() / mass
        osc = (np.abs(vals[near] - mean_f) * space.measure[near]).sum() / mass
        wide = space.dist[x] <= dilation * radius
        wmass = space.measure[wide].sum()
        grad_mean = (grad[wide] * space.measure[wide]).sum() / wmass
        denom = radius * grad_mean
        if osc <= 0:
            continue
        worst = max(worst, osc / denom) if denom > 0 else np.inf
    return float(worst)

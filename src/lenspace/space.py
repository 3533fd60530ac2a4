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
would, on either of its routes: two cumsums a row along one path or one
cycle, a search in any order on every other graph.  A circle, torus or
complete graph whose unit translations map its edges onto themselves
(_orbit_shape) has one row per orbit: a weight-preserving automorphism
maps the paths from s to v onto the paths from its images with the same
weights, so the least fold sums, and d(s, v) = d(0, v - s), are the same
floats.  Only point 0's row is computed there, and the space's two
readers translate it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(eq=False)
class MeasuredSpace:
    """Immutable bundle of points, metric, and measure.

    dist[i, j] is the graph shortest-path distance, kept whole or, with one
    row per orbit (see the module docstring), as point 0's row.  Only the
    readers _rows and _cells know which; the row fills dist only when a
    caller reads it, and nothing in the package does.
    measure is a probability vector.
    edges is the generating graph as read-only directed arrays
    (src, dst, weight, length, starts): each edge in both orientations,
    sorted by (src, dst).  weight is the raw edge weight; length is the
    metric distance dist[src, dst], smaller when a shorter path joins the
    endpoints.  The edges out of x are [starts[x], starts[x + 1]); the
    graph is symmetric, so they are also the edges into x with the roles
    swapped.  mesh_h is the largest distance from a point to its nearest
    distinct point.  kind, params and coords describe the generator
    geometry that fields and witness families read.  space_id hashes n,
    measure, the collapsed edge table (each pair i < j once, sorted, with its
    shortest weight), kind, params and coords.  n and the edges fix dist bit
    for bit, so equal ids mean equal inputs to every computation.
    midpoint_defect is

        max_{x,y} min_z | max(d(x,z), d(z,y)) - d(x,y)/2 |

    which vanishes in the continuum limit of a length space.  It is
    computed on first read and cached.  diameter is the max of dist, taken
    by the build's one scan of it or of the row, and cached.  Bounds from
    shortest paths in the graph settle most pairs in O(n m + n^2 log n)
    work; each other pair costs O(n), so the worst case is still O(n^3).  A
    space with one row per orbit (see the module docstring) visits only the
    pairs (0, y), in O(m + n log n) and at worst O(n^2).
    """

    n: int
    measure: np.ndarray
    edges: tuple
    mesh_h: float
    space_id: str
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    coords: np.ndarray | None = None
    # (grid shape, point 0's row) with one row per orbit, else (None, dist)
    _metric: tuple = field(default=(None, None), repr=False)

    @cached_property
    def dist(self) -> np.ndarray:
        dist = np.ascontiguousarray(self._rows(slice(None)))
        dist.flags.writeable = False
        return dist

    @cached_property
    def midpoint_defect(self) -> float:
        return _max_midpoint_defect(self)

    @cached_property
    def diameter(self) -> float:
        k = self._block_rows(_BLOCK_CELLS)
        return max(float(self._rows(slice(lo, lo + k)).max()) for lo in range(0, self.n, k))

    def _block_rows(self, cells: int) -> int:
        """Rows in a block of about `cells` cells: on an orbit space, whole grid rows."""
        per = self.n // (self._metric[0] or (self.n,))[0]
        return max(1, cells // self.n // per) * per

    def _rows(self, rows, f=None, out=None) -> np.ndarray:
        """f(dist[rows]), f a ufunc (None: dist[rows], a stored dist's view for a
        slice), into a C-contiguous out if given with f, for rows a slice or an index
        array.  An orbit space tiles f(row) once per f, copies whole grid rows as they are."""
        shape, d = self._metric
        if shape is None:
            return d[rows] if f is None else f(d[rows], out=out)
        tiles = self.__dict__.setdefault("_tiles", {})
        if f not in tiles:  # r(v - s) at grid indices [s, v]: wrapped[a - s + v] on each axis
            wrapped = np.tile((d if f is None else f(d)).reshape(shape), (2,) * len(shape))
            tiles[f] = sliding_window_view(wrapped, shape)[tuple(slice(k, 0, -1) for k in shape)]
        per = self.n // shape[0]
        lo, hi, step = rows.indices(self.n) if isinstance(rows, slice) else (0, 0, 0)
        whole = step == 1 and not (lo % per or hi % per)  # whole grid rows of the first axis
        view = tiles[f][slice(lo // per, hi // per) if whole
                        else np.unravel_index(np.arange(self.n)[rows], shape)]
        if out is None:
            return view.reshape(-1, self.n)
        out.reshape(view.shape)[...] = view
        return out

    def _cells(self, i, j) -> np.ndarray:
        """dist[i, j] for index arrays that broadcast; from point 0's row r,
        r[((j//m - i//m) mod n/m) m + (j - i) mod m], m the last grid axis."""
        shape, d = self._metric
        m = shape[-1] if shape else None
        return d[i, j] if m is None else d[(j // m - i // m) % (self.n // m) * m + (j - i) % m]


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


def _line_order(n: int, dst, weight, starts):
    """The graph as one path or one cycle through all n points, if it is
    one: the points in walk order, from an end of the path or from point 0
    around the cycle, and the weight of the edge from each point to the
    next, inf after the last point of a path.  None for any other graph.
    """
    deg = np.diff(starts, append=len(dst))
    if n < 2 or deg.min() < 1 or deg.max() > 2 or len(dst) < 2 * n - 2:
        return None
    ring = len(dst) == 2 * n  # else two points of degree 1
    D, W = dst.tolist(), weight.tolist()
    # each point's first and last edge, the same one at an end of a path
    first, last = starts.tolist(), (starts + deg - 1).tolist()
    x, back = 0 if ring else int(np.argmin(deg)), -1
    order, step = [x], []
    for _ in range(n - 1 + ring):  # around a cycle, back to its first point
        e = first[x] if D[first[x]] != back else last[x]
        back, x = x, D[e]
        order.append(x)
        step.append(W[e])
    if len(set(order[:n])) < n:  # a shorter path or cycle: not connected
        return None
    return np.array(order[:n]), np.array(step if ring else step + [np.inf])


def _line(n: int, order, step, count: int) -> np.ndarray:
    """Shortest-path distances along one path or cycle (_line_order), in
    blocks of sources: the rows of the walk's first count points, which
    must be points 0..count - 1 (count = n, or 1 when the walk starts at 0).

    From the point at walk position i the walk goes on forward through
    weights step[i], step[i + 1], ... and back through step[i - 1],
    step[i - 2], ..., indices mod n; on a path the infinite weight stops
    both.  Each direction's distances are one row-wise cumsum over the
    doubled weight sequence, which folds left as float Dijkstra does, and
    d(i, .) is the smaller of the two.
    """
    twice = np.concatenate([step, step])
    ahead = sliding_window_view(twice, n - 1)
    behind = sliding_window_view(twice[::-1], n - 1)  # row n - i: back from i
    at = np.empty(n, dtype=np.intp)  # each point's walk position
    at[order] = np.arange(n)
    rows = max(1, _BLOCK_CELLS // n)
    dist = np.empty((count, n))
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        # near[r, k] = near[r, n + k]: the distance from position i = lo + r
        # to position i + k mod n
        near = np.zeros((hi - lo, 2 * n))
        np.cumsum(ahead[lo:hi], axis=1, out=near[:, 1:n])
        back = behind[n - np.arange(lo, hi)]
        np.cumsum(back, axis=1, out=back)
        np.minimum(near[:, 1:n], back[:, ::-1], out=near[:, 1:n])
        near[:, n:] = near[:, :n]
        # d(i, v) at near[r, n + at[v] - i], flat index r (2n - 1) + n - lo + at[v]
        flat = (n - lo + (2 * n - 1) * np.arange(hi - lo))[:, None] + at
        dist[order[lo:hi]] = np.take(near, flat)
    return dist


def _search(n: int, src, dst, weight, starts, count: int) -> np.ndarray:
    """Shortest-path distances of any graph by a label-correcting search
    from sources 0..count - 1 at once, in blocks of sources.

    Each round, every (source, vertex) pair whose label fell in the last
    round relaxes its edges, in chunks of about as many candidates as a
    block has labels, until no label falls: a chain of k degree-2 points
    takes k rounds.  Every label is the left-fold sum fl(d(s, u) + w(u, v))
    along some path, and at the end no edge lowers a label, so each row is
    the least fold sum.  Pairs are keys row * 2^b + vertex; a key that
    falls twice is kept once, where it reads back its own position.
    """
    shift = max(1, (n - 1).bit_length())
    mask = (1 << shift) - 1
    rows = max(1, _BLOCK_CELLS // n)
    budget = rows << shift  # labels per block
    # the edges out of each point as key offsets and weights, one slot a
    # row; an empty slot adds an infinite weight to the point's own key
    slot = np.arange(len(src)) - starts[src]
    step = np.zeros((int(slot.max(initial=-1)) + 1, n), dtype=np.intp)
    out_w = np.full(step.shape, np.inf)
    step[slot, src] = dst - src
    out_w[slot, src] = weight
    chunk = max(1, budget // max(1, len(step)))
    stamp = np.empty(budget, dtype=np.intp)
    dist = np.empty((count, n))
    take = np.take
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        work = np.full((hi - lo, mask + 1), np.inf)
        label = work.reshape(-1)
        front = (np.arange(hi - lo) << shift) + np.arange(lo, hi)
        label[front] = 0.0
        while len(front):
            fell = []  # the keys whose label fell, for the next round
            for k in range(0, len(front), chunk):
                pair = front[k:k + chunk]
                u = pair & mask
                keys = take(step, u, axis=1)
                keys += pair
                cand = take(out_w, u, axis=1)
                cand += take(label, pair)
                keys, cand = keys.ravel(), cand.ravel()
                lower = np.flatnonzero(cand < take(label, keys))
                fell.append(take(keys, lower))
                np.minimum.at(label, fell[-1], take(cand, lower))
            fell = np.concatenate(fell)
            order = np.arange(len(fell))
            stamp[fell] = order
            front = take(fell, np.flatnonzero(take(stamp, fell) == order))
        dist[lo:hi] = work[:, :n]
    return dist


def _orbit_shape(n: int, kind: str, params: dict, src, dst, weight):
    """The grid shape, points numbered row-major over it, of a circle or
    complete graph, (n,), or a torus, (params n, params m), whose unit
    translation along each axis maps the edge table onto itself; else None.

    The translations then act on the points transitively and preserve the
    weights, so every row of dist is a translate of point 0's row (see the
    module docstring).  The kind and params only name the candidate: a
    shape of ints whose product is not n, or an edge table that any unit
    translation moves, gives None.  O(m log m) work.
    """
    shape = {"circle": (n,), "complete": (n,),
             "torus2d": (params.get("n"), params.get("m"))}.get(kind)
    if shape is None or not all(type(k) is int for k in shape) or math.prod(shape) != n:
        return None
    grid = np.arange(n).reshape(shape)
    for axis in range(len(shape)):
        move = np.roll(grid, -1, axis=axis).ravel()  # each point's translate
        key = move[src] * n + move[dst]
        order = np.argsort(key)
        # the table is sorted by (src, dst): its keys src * n + dst ascend
        if not (np.array_equal(key[order], src * n + dst)
                and np.array_equal(weight[order], weight)):
            return None
    return shape


def shortest_path(n: int, src, dst, weight, starts, shape=None) -> np.ndarray:
    """All-pairs shortest-path distances, min(d, d.T), of the graph held as
    directed edge arrays (src, dst, weight, starts) as in MeasuredSpace.edges.

    A graph that is one path or one cycle (_line_order) takes the line route
    (_line): two cumsums a row.  Every other graph takes the search route
    (_search).  Each row is then the least left-fold sum over the paths
    from its source, bit for bit what float Dijkstra gives (see the module
    docstring), and the two directions are merged by min(d, d.T) in tiles.
    Given the grid shape of _orbit_shape, the route computes point 0's row
    r alone, and returns min(r(u), r(-u)) at u: d(s, v) is that at v - s.
    """
    line = _line_order(n, dst, weight, starts)
    # a graph with a translation grid that is a path or cycle is a cycle, or
    # a path of two points: either walk starts at point 0
    count = n if shape is None else 1
    dist = (_search(n, src, dst, weight, starts, count) if line is None
            else _line(n, *line, count))
    if shape is not None:
        row = dist[0].reshape(shape)
        axes = tuple(range(len(shape)))
        return np.minimum(row, np.roll(np.flip(row), 1, axis=axes)).ravel()  # r(-u) at u
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
    side of its middle (_midpoint_bounds).  With one row per orbit
    (_orbit_shape) the pair (x, y) has the value of (0, y - x), so only
    x = 0 is visited.  Each value is the same float expression the full
    loop evaluates, so the result is bitwise the full loop's.
    """
    n = space.n
    if n < 2:
        return 0.0
    count = n if space._metric[0] is None else 1
    # a row takes its 2m edge cells and n per binary-lifting level
    rows = max(1, _BLOCK_CELLS // (len(space.edges[0]) + n * (n - 1).bit_length()))
    chunk = max(1, _BLOCK_CELLS // n)  # pairs minimized at once
    worst = 0.0
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        bound = _midpoint_bounds(space, lo, hi)
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
            gap = space._rows(xs)
            np.maximum(gap, space._rows(ys), out=gap)
            gap -= space._cells(xs, ys)[:, None] / 2.0
            worst = max(worst, float(np.abs(gap, out=gap).min(axis=1).max()))
    return worst


def _midpoint_bounds(space, lo, hi):
    """Upper bounds on the midpoint defect of the pairs x in [lo, hi),
    y >= lo, as a (hi - lo) x (n - lo) array.

    pred[x, y] is the least neighbour s of y whose edge realizes d(x, y),
    and pred[x, x] = x.  Along pred from y, d(x, .) falls toward x; binary
    lifting finds the last z1 with d(x, z1) > d(x, y)/2 and its
    predecessor z0, and the bound is the pair's value at the better of
    the two.
    """
    src, dst, weight, _, starts = space.edges
    d = space._rows(slice(lo, hi))
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
        gap = np.abs(np.maximum(np.take(dflat, z), space._cells(y, z - base)) - half)
        bound = gap if bound is None else np.minimum(bound, gap, out=bound)
    return bound


def _collapse_edges(edges, n: int):
    """The undirected graph as (rows, cols, vals): each pair i < j joined by
    an edge once, sorted, with the shortest of its parallel lengths.

    The first bad edge in input order raises for the first rule it breaks:
    endpoints in 0..n - 1 (read as int() reads them), distinct, 0 < length < inf.
    """
    edges = list(edges)
    try:
        table = np.array(edges, dtype=float).reshape(len(edges), 3)
    except OverflowError:  # an endpoint beyond the floats is outside 0..n - 1, clamped too
        table = np.array([(min(max(int(i), -1), n), min(max(int(j), -1), n), float(length))
                          for i, j, length in edges]).reshape(len(edges), 3)
    ends, length = np.trunc(table[:, :2]), table[:, 2]
    outside = ~((ends >= 0) & (ends < n)).all(axis=1)  # NaN too
    loop = ends[:, 0] == ends[:, 1]
    bad = outside | loop | ~((length > 0) & (length < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        i, j, w = edges[k]
        i, j = int(i), int(j)
        if outside[k]:
            raise ValueError(f"edge ({i}, {j}) references a point outside 0..{n - 1}")
        if loop[k]:
            raise ValueError(f"self-loop at point {i}")
        raise ValueError(f"edge ({i}, {j}) has nonpositive length {float(w)}")
    ends = ends.astype(np.int64)
    key = ends.min(axis=1) * n + ends.max(axis=1)
    # each pair's run of parallel edges, shortest first
    order = np.lexsort((length, key))
    key, length = key[order], length[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    rows, cols = np.divmod(key[first], n)
    return rows, cols, length[first]


def build_from_graph(edges, measure, n: int, *, kind: str = "custom",
                     params: dict | None = None, coords=None) -> MeasuredSpace:
    """Construct a space from an undirected weighted graph.

    edges is an iterable of (i, j, length) with 0 <= i, j < n, i != j and
    length > 0; parallel edges collapse to the shortest.  measure is a
    nonnegative weight vector with positive, finite total, normalized here.  The
    graph must connect all points.  With two or more points, the shortest
    edge must be at least 2^-400 and the diameter at most 2^400: the
    package squares distances everywhere, and on these scales their
    squares, inverse squares and n-fold sums stay finite normal floats.
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
    with np.errstate(over="ignore"):
        total = w.sum()
    if total <= 0:
        raise ValueError("measure weights sum to zero")
    if total == math.inf:
        raise ValueError("measure weights sum past the largest float")
    if abs(total - 1.0) > 1e-12:
        # skip the divide for already-normalized input so that saving and
        # reloading a space reproduces the measure bit for bit
        w = w / total

    rows, cols, vals = _collapse_edges(edges, n)
    # the stored graph: both orientations of each edge, sorted by (src, dst)
    src, dst = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], np.concatenate([vals, vals])[order]
    starts = np.searchsorted(src, np.arange(n))
    params = dict(params or {})
    shape = _orbit_shape(n, kind, params, src, dst, weight)
    with np.errstate(over="ignore"):  # an overflowed sum is inf, as the scale check says
        dist = shortest_path(n, src, dst, weight, starts, shape)  # with a shape, point 0's row
    length = MeasuredSpace(n, w, (), 0.0, "", _metric=(shape, dist))._cells(src, dst)
    diameter = float(dist.max())  # the build's one scan of dist, or of the row: dist's entries
    if diameter == math.inf:
        # a missing path or an overflowed sum: the edges from point 0 tell which
        reached = np.arange(n) == 0
        while (grow := reached[src] & ~reached[dst]).any():
            reached[dst[grow]] = True
        if not reached.all():
            j = int(np.argmin(reached))
            raise ValueError(f"graph is disconnected: points 0 and {j} are not connected")

    dist.flags.writeable = False
    table = (src, dst, weight, length, starts)
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

    # the graph, which gradients and slopes read, and not its n^2 distances:
    # n and the collapsed edge table fix dist bit for bit (shortest_path)
    digest = hashlib.sha256()
    digest.update(np.int64(n).tobytes())
    digest.update(np.ascontiguousarray(w))
    for arr in (rows, cols, vals):
        digest.update(arr.tobytes())
    # and kind, params and coords: witness families and the cos, coordinate
    # and tilt fields read them
    digest.update(kind.encode() + b"\0")
    try:  # a NaN or an infinity would be saved as null, and reload with another id
        digest.update(json.dumps(params, sort_keys=True, allow_nan=False).encode() + b"\0")
    except ValueError:
        raise ValueError(f"params must hold finite numbers only, got {params!r}") from None
    if coords is None:
        digest.update(b"no coords")
    else:
        digest.update(np.array(coords.shape, dtype=np.int64).tobytes())
        digest.update(coords.tobytes())

    space = MeasuredSpace(
        n=n,
        measure=w,
        edges=table,
        mesh_h=mesh_h,
        space_id=digest.hexdigest()[:16],
        kind=kind,
        params=params,
        coords=coords,
        _metric=(shape, dist),
    )
    space.__dict__["diameter"] = diameter  # the cached property's value, scanned once above
    # the scales of the docstring: squared distances stay finite normal floats
    if not vals.min(initial=np.inf) >= 2.0 ** -400:
        raise ValueError(f"shortest edge {vals.min():g} is below 2^-400: squares would underflow")
    if not diameter <= 2.0 ** 400:
        raise ValueError(f"diameter {diameter:g} is above 2^400: squares would overflow")
    return space


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
    blocks of rows.  With one row per orbit the edge table is translation
    invariant (_orbit_shape), so each row's values of the three defects are
    a permutation of row 0's, which is read alone: O(m) work, the same floats.
    """
    n, stored = space.n, space._metric[0] is None
    _, dst, weight, _, starts = space.edges
    rows = max(1, _BLOCK_CELLS // max(1, len(dst)))
    relax = real = sym = 0.0
    for lo in range(0, n if stored else 1, rows):
        block = space._rows(slice(lo, lo + rows if stored else 1))
        if len(dst):
            through = _edge_relax(block, dst, weight, starts)[1]
        else:  # one point: no edge, and no y != x
            through = np.full(block.shape, np.inf)
        through -= block
        relax = max(relax, float(-through.min()))
        # the empty path realizes d(x, x) = 0
        through[np.arange(len(block)), np.arange(lo, lo + len(block))] = -block.diagonal(lo)
        real = max(real, float(np.abs(through, out=through).max()))
        # d(y, x) at [x - lo, y], on an orbit space r(-u) at u
        mirror = (space._rows(slice(None))[:, lo:lo + rows].T if stored
                  else space._cells(np.arange(n), 0))
        sym = max(sym, float(np.abs(block - mirror).max()))
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
    with np.errstate(over="ignore"):  # a ball of radius inf holds every point
        doubled = 2 * radii
    worst, rows = 1.0, space._block_rows(_BLOCK_CELLS)
    for lo in range(0, space.n, rows):
        d = space._rows(slice(lo, lo + rows))
        for r, r2 in zip(radii, doubled):
            inner = (d <= r) @ space.measure
            if np.any(inner <= 0):
                x = lo + int(np.argmin(inner))
                raise ValueError(f"ball of radius {r} around point {x} has zero measure")
            outer = (d <= r2) @ space.measure
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
    worst, rows = 0.0, space._block_rows(_BLOCK_CELLS)
    for lo in range(0, space.n, rows):
        for x, d in enumerate(space._rows(slice(lo, lo + rows)), lo):
            near = d <= radius
            mass = space.measure[near].sum()
            if mass <= 0:
                raise ValueError(f"ball of radius {radius} around point {x} has zero measure")
            mean_f = (vals[near] * space.measure[near]).sum() / mass
            osc = (np.abs(vals[near] - mean_f) * space.measure[near]).sum() / mass
            wide = d <= dilation * radius
            wmass = space.measure[wide].sum()
            grad_mean = (grad[wide] * space.measure[wide]).sum() / wmass
            denom = radius * grad_mean
            if osc <= 0:
                continue
            worst = max(worst, osc / denom) if denom > 0 else np.inf
    return float(worst)

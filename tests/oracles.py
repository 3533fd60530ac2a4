"""Slow independent references that the tests check the package against.

None of these shares code with the routes it checks: the edge table is
collapsed by a loop over the edges with a dict, the space ids are hashed
here from the documented fields, the all-pairs
distances come from scipy's Dijkstra, the generalized eigenproblem from
scipy's eigh, the dense Hopf-Lax
minimum, the dense Lipschitz quotient, the nearest-distinct-point mesh
and the full triangle check run over all pairs, the dense Hopf-Lax minimizers
take scipy's distances into one n x n cost array per scale, the JSON
writer is json.dump's own indent path, the slopes loop over the
raw edge list, the 1-d oracle merges two CDFs on point positions given
by the test's own construction of a path, the dense W2 builds its own LP
over all n^2 cells, and the brute force enumerates every vertex of the
coupling polytope.
"""

import hashlib
import json
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


def csgraph_dist(n: int, edges) -> np.ndarray:
    """All-pairs distances of the graph with edges (i, j, length) by scipy's
    float Dijkstra from every source: parallel edges collapsed to the
    shortest, and of the two directions of a pair the smaller."""
    best = {}
    for i, j, length in edges:
        key = (min(i, j), max(i, j))
        best[key] = min(best.get(key, np.inf), float(length))
    keys = sorted(best)
    graph = csr_matrix(([best[k] for k in keys],
                        ([k[0] for k in keys], [k[1] for k in keys])), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False)
    # Dijkstra per source can round the two directions differently
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def collapse_edges_loop(edges, n: int):
    """(rows, cols, vals) of an edge list: each pair i < j once, sorted, with
    its shortest length, by a loop that keeps a dict of the best length per
    pair; the first bad edge raises build_from_graph's message for it."""
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
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([shortest_edge[k] for k in keys], dtype=float))


def _space_digest(space, dist) -> str:
    """sha256 over n, dist if given, the measure, the i < j half of the edge
    table (endpoints as int64, raw weights), kind, params and coords."""
    src, dst, weight = space.edges[:3]
    half = src < dst
    digest = hashlib.sha256()
    digest.update(np.int64(space.n).tobytes())
    if dist is not None:
        digest.update(np.ascontiguousarray(dist))
    digest.update(np.ascontiguousarray(space.measure))
    for arr in (src[half].astype(np.int64), dst[half].astype(np.int64),
                weight[half].astype(float)):
        digest.update(arr.tobytes())
    digest.update(space.kind.encode() + b"\0")
    digest.update(json.dumps(space.params, sort_keys=True).encode() + b"\0")
    if space.coords is None:
        digest.update(b"no coords")
    else:
        digest.update(np.array(space.coords.shape, dtype=np.int64).tobytes())
        digest.update(space.coords.tobytes())
    return digest.hexdigest()[:16]


def graph_space_id(space) -> str:
    """The documented space id: the graph, measure and geometry, no dist."""
    return _space_digest(space, None)


def legacy_space_id(space) -> str:
    """The space id as it was once computed, with all n^2 bytes of dist
    hashed after n: equal to an old pin exactly when the metric, the
    measure, the edges and the geometry are bitwise the old ones."""
    return _space_digest(space, space.dist)


def laplacian_pencil(space):
    """(L, B): the measure-weighted graph Laplacian of the eigenfields, with
    conductance (nu_i + nu_j) / (2 d_ij^2) per edge, built by a loop over
    the edge list, and diag(nu) floored at 1e-15 max nu."""
    n, nu = space.n, space.measure
    lap = np.zeros((n, n))
    src, dst = space.edges[0], space.edges[1]
    for i, j in zip(src[src < dst].tolist(), dst[src < dst].tolist()):
        c = (nu[i] + nu[j]) / (2.0 * float(space.dist[i, j]) ** 2)
        lap[i, j] -= c
        lap[j, i] -= c
        lap[i, i] += c
        lap[j, j] += c
    return lap, np.diag(np.maximum(nu, 1e-15 * nu.max()))


def scipy_eigenpairs(space):
    """Eigenvalues (ascending) and B-orthonormal eigenvectors of L v = lam B v
    by scipy.linalg.eigh on laplacian_pencil."""
    return eigh(*laplacian_pencil(space))


def dense_hopf_lax(space, f, t) -> np.ndarray:
    """(Q_t f)(x) = min_y [f(y) + d(x, y)^2 / (2t)] over one n x n array."""
    return (f.values[None, :] + space.dist ** 2 * (1.0 / (2.0 * t))).min(axis=1)


def dense_minima(space, g, scales):
    """(arg, low) of the Hopf-Lax kernel: per scale a and point x, the first y
    that minimizes fl(fl(fl(d(x, y) d(x, y)) a) + g(y)) over one n x n cost
    array of scipy's distances, and that minimum.  An infinite scale prices
    every y != x at inf, so x is the minimizer and g(x) the minimum."""
    src, dst, weight = space.edges[:3]
    sq = csgraph_dist(space.n, zip(src.tolist(), dst.tolist(), weight.tolist())) ** 2
    arg, low = [], []
    for a in scales:
        if a == np.inf:
            cost = np.where(np.eye(space.n, dtype=bool), g[None, :], np.inf)
        else:
            with np.errstate(over="ignore"):
                cost = sq * a + g[None, :]
        arg.append(cost.argmin(axis=1))
        low.append(cost[np.arange(space.n), arg[-1]])
    return np.array(arg), np.array(low)


def legacy_json(doc) -> str:
    """A document as json.dump wrote it once: every non-finite float replaced
    by None in a copy, then indent 2, sorted keys, strict JSON, a newline."""
    def jsonable(obj):
        if isinstance(obj, float):
            return obj if np.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [jsonable(x) for x in obj]
        return obj
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def dense_mesh_h(dist) -> float:
    """Largest distance from a point to its nearest distinct point."""
    if dist.shape[0] < 2:
        return 0.0
    return float((dist + np.where(np.eye(dist.shape[0], dtype=bool), np.inf, 0.0))
                 .min(axis=1).max())


def dense_lipschitz(space, f) -> float:
    """max |f(x) - f(y)| / d(x, y) over all distinct pairs."""
    if space.n < 2:
        return 0.0
    diff = np.abs(f.values[:, None] - f.values[None, :])
    off = ~np.eye(space.n, dtype=bool)
    return float((diff[off] / space.dist[off]).max())


def dense_slopes(space, f):
    """(|grad f|, |grad^- f|) per point, by a loop over the src < dst half
    of the edge table: each edge counts both ways, at the metric distance
    of its endpoints."""
    vals = f.values.tolist()
    grad, sub = np.zeros(space.n), np.zeros(space.n)
    src, dst = space.edges[0], space.edges[1]
    for i, j in zip(src[src < dst].tolist(), dst[src < dst].tolist()):
        length = float(space.dist[i, j])
        for x, y in ((i, j), (j, i)):
            grad[x] = max(grad[x], abs(vals[y] - vals[x]) / length)
            sub[x] = max(sub[x], max(vals[x] - vals[y], 0.0) / length)
    return grad, sub


def full_triangle_violation(dist) -> float:
    """max over all (x, y, z) of d(x,y) - d(x,z) - d(z,y), no symmetry assumed."""
    viol = -np.inf
    for x in range(dist.shape[0]):
        through = (dist[x][:, None] + dist).min(axis=0)
        viol = max(viol, float((dist[x] - through).max()))
    return viol


def w2_oracle_1d(pos, mu0, mu1) -> float:
    """W2 between two measures on points of a line at increasing positions.

    On a line the quadratic cost is minimized by the quantile coupling, so
    W2^2 is the integral over u in (0, 1) of |F^-1(u) - G^-1(u)|^2, and
    the two quantile functions are constant between the merged CDF steps.
    """
    pos = np.asarray(pos, dtype=float)
    ca = np.cumsum(np.asarray(mu0, dtype=float))
    cb = np.cumsum(np.asarray(mu1, dtype=float))
    ca /= ca[-1]
    cb /= cb[-1]
    ca[-1] = cb[-1] = 1.0
    hi = np.union1d(ca, cb)
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)
    last = len(pos) - 1
    ia = np.minimum(np.searchsorted(ca, mid), last)
    ib = np.minimum(np.searchsorted(cb, mid), last)
    return float(np.sqrt(((pos[ia] - pos[ib]) ** 2 * (hi - lo)).sum()))


def dense_w2(space, mu0, mu1):
    """(W2, W2^2) by one LP over all n^2 cells, built here from scratch.

    Its constraint matrix and costs come from space.dist and it reads no
    potential, so it shares no code with the package's transport; only
    the LP solver is common.
    """
    n = space.n
    a = np.asarray(mu0, dtype=float)
    b = np.asarray(mu1, dtype=float)
    k = np.arange(n * n)
    # cell k = (k // n, k % n); its row sums to a, its column to b
    A = csr_matrix((np.ones(2 * n * n), (np.concatenate([k // n, n + k % n]),
                                         np.concatenate([k, k]))),
                   shape=(2 * n, n * n))
    res = linprog((space.dist ** 2).ravel(), A_eq=A,
                  b_eq=np.concatenate([a / a.sum(), b / b.sum()]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    cost = max(float(res.fun), 0.0)
    return float(np.sqrt(cost)), cost


@lru_cache(maxsize=4)
def coupling_vertices(n: int):
    """Spanning trees of the bipartite source/sink graph with flow solvers.

    Every vertex of the coupling polytope is the flow of some spanning
    tree of K_{n,n} (basic feasible solutions of the transportation LP),
    and tree flows are linear in the marginals.  Returns (cells, solve):
    cells[t] lists the 2n-1 coupling entries used by tree t, and
    solve[t] maps concat(mu0, mu1) to the flows on those entries.
    """
    nodes = 2 * n
    all_cells, all_solve = [], []
    for cells in combinations(range(n * n), nodes - 1):
        parent = list(range(nodes))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        merges = 0
        for cell in cells:
            ru, rv = find(cell // n), find(n + cell % n)
            if ru != rv:
                parent[ru] = rv
                merges += 1
        if merges != nodes - 1:
            continue
        incident = [[] for _ in range(nodes)]
        for pos, cell in enumerate(cells):
            incident[cell // n].append((pos, n + cell % n))
            incident[n + cell % n].append((pos, cell // n))
        remaining = np.eye(nodes)
        degree = [len(lst) for lst in incident]
        used = [False] * (nodes - 1)
        solve = np.zeros((nodes - 1, nodes))
        leaves = [u for u in range(nodes) if degree[u] == 1]
        while leaves:
            u = leaves.pop()
            if degree[u] != 1:
                continue
            pos, v = next(e for e in incident[u] if not used[e[0]])
            used[pos] = True
            solve[pos] = remaining[u]
            remaining[v] -= remaining[u]
            degree[u] = 0
            degree[v] -= 1
            if degree[v] == 1:
                leaves.append(v)
        all_cells.append(cells)
        all_solve.append(solve)
    return np.array(all_cells), np.stack(all_solve)


def brute_force_w2(space, mu0, mu1) -> float:
    """W2 by exhaustive search over coupling-polytope vertices; n <= 4 only."""
    if space.n > 4:
        raise ValueError(f"exhaustive vertex search supports n <= 4, got n={space.n}")
    if space.n == 1:
        return 0.0
    a = np.asarray(mu0, dtype=float)
    b = np.asarray(mu1, dtype=float)
    cells, solve = coupling_vertices(space.n)
    flows = solve @ np.concatenate([a / a.sum(), b / b.sum()])
    feasible = flows.min(axis=1) >= -1e-12
    costs = (flows * (space.dist ** 2).ravel()[cells]).sum(axis=1)
    best = float(costs[feasible].min())
    return float(np.sqrt(max(best, 0.0)))

"""Log-Sobolev, Talagrand, and Poincare functionals with witness search.

Each inequality is evaluated as a ratio whose value is the largest
constant K the given witness function is compatible with:

    LSI:  2 * (integral of |grad^- f|^2) / entropy(f^2)     (f normalized)
    T:    2 * entropy(F^2) / W2(F^2 nu, nu)^2
    P:    (integral of |grad^- h|^2) / variance(h)

The best constant of the space is the infimum over all functions, so
the minimum over any family is an upper bound; estimates are reported
with their minimizing witness.  The implication chain LSI => T => P is
checked witness-wise, and the exponential trace functionals

    psi(t) = integral of exp(K t Q_t h) dnu   (h centered)
    phi(t) = log(integral of exp(K t Q_t g) dnu) / (K t)

monitor the two implications along the evolution: T(K) forces psi <= 1
and LSI(K) forces phi nonincreasing, with phi(t) -> mean of g as t -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import random_smoothed_field, tilt_field
from .hopflax import _evolve, _time_grid, apply, subgrad_norm_field
from .space import MeasuredSpace, ScalarField, check_binding, make_field
from .transport import w2


class DegenerateWitnessError(ValueError):
    """The witness carries no information for the requested ratio."""


_WHICH = {"t": "talagrand", "p": "poincare"}  # aliases of _RATIOS keys


def _canon(which: str) -> str:
    key = str(which).lower()
    key = _WHICH.get(key, key)
    if key not in _RATIOS:
        raise ValueError(f"unknown inequality {which!r}; use one of {', '.join(_RATIOS)}")
    return key


def entropy_functional(space: MeasuredSpace, F: ScalarField) -> float:
    """Entropy of F^2 dnu after normalizing the mass of F^2 to one.

    Returns the integral of p log p dnu for p = F^2 / (integral F^2 dnu),
    with 0 log 0 = 0.  Nonnegative by Jensen; zero iff |F| is constant
    nu-almost everywhere.
    """
    vals = check_binding(space, F)
    mass = float(vals ** 2 @ space.measure)
    if mass <= 0:
        raise DegenerateWitnessError("witness carries no information: F vanishes nu-a.e.")
    p = vals ** 2 / mass
    pos = p > 0
    return float((p[pos] * np.log(p[pos])) @ space.measure[pos])


def _entropy_and_mass(space: MeasuredSpace, F: ScalarField) -> tuple:
    # |F| constant up to rounding is refused: exact transport then returns a
    # rounding-level distance (~1e-8), no more informative than the entropy
    ent = entropy_functional(space, F)
    if ent <= 1e-12:
        raise DegenerateWitnessError("witness carries no information: entropy of F^2 vanishes")
    return ent, float(F.values ** 2 @ space.measure)


def _unit_scale(space: MeasuredSpace, f: ScalarField) -> ScalarField:
    # times the power of two that puts max |f| in [0.5, 1): exact, so no ratio
    # of an ordinary field changes, while tiny fields' squares stop
    # underflowing and the degeneracy floors become relative to |f|
    vals = check_binding(space, f)
    _, exp = np.frexp(np.abs(vals).max())
    return ScalarField(values=np.ldexp(vals, -exp), space_id=f.space_id)


def lsi_ratio(space: MeasuredSpace, f: ScalarField) -> float:
    """Largest K for which f satisfies the log-Sobolev inequality."""
    f = _unit_scale(space, f)
    ent, mass = _entropy_and_mass(space, f)
    slope = subgrad_norm_field(space, f)
    dirichlet = float(slope ** 2 @ space.measure) / mass
    return 2.0 * dirichlet / ent


def talagrand_ratio(space: MeasuredSpace, F: ScalarField) -> float:
    """Largest K for which F satisfies the Talagrand inequality."""
    F = _unit_scale(space, F)
    ent, mass = _entropy_and_mass(space, F)
    target = F.values ** 2 * space.measure / mass
    distance, _ = w2(space, target, space.measure)
    if distance <= 1e-12 * space.diameter:
        raise DegenerateWitnessError(
            "witness carries no information: zero transport distance"
        )
    return 2.0 * ent / distance ** 2


def poincare_ratio(space: MeasuredSpace, h: ScalarField) -> float:
    """Largest K for which h satisfies the Poincare inequality."""
    h = _unit_scale(space, h)
    vals = h.values
    centered = vals - float(vals @ space.measure)
    var = float(centered ** 2 @ space.measure)
    if var <= 1e-12:
        raise DegenerateWitnessError("witness carries no information: variance vanishes")
    slope = subgrad_norm_field(space, h)
    return float(slope ** 2 @ space.measure) / var


# the one list of inequalities, in chain order; read at call time by _score
_RATIOS = {"lsi": lsi_ratio, "talagrand": talagrand_ratio, "poincare": poincare_ratio}


def _score(space: MeasuredSpace, which: str, f: ScalarField) -> float | None:
    """The ratio of inequality which at witness f; None when f is degenerate for it."""
    try:
        return float(_RATIOS[which](space, f))
    except DegenerateWitnessError:
        return None


def laplacian_eigenfields(space: MeasuredSpace, k: int = 3) -> list:
    """Low nontrivial eigenfields of the measure-weighted graph Laplacian.

    Edge conductances (nu_i + nu_j) / (2 d_ij^2) make the quadratic form
    a symmetric surrogate for the subgradient Dirichlet energy, so the
    low generalized eigenvectors approximate Poincare extremals.

    L v = lam B v with B = diag(nu) is solved as the symmetric problem
    R L R y = lam y, v = R y, for R = B^(-1/2).  R L R is formed entry by
    entry as LAPACK's sygst forms it for a diagonal B, so the eigenpairs
    are those scipy.linalg.eigh(L, B) computes by sygst and syevd.
    """
    src, dst, _, length, _ = space.edges
    weight = (space.measure[src] + space.measure[dst]) / (2.0 * length ** 2)
    lap = np.zeros((space.n, space.n))
    np.add.at(lap, (src, dst), -weight)
    diag = np.zeros(space.n)
    np.add.at(diag, src, weight)
    root = np.sqrt(np.maximum(space.measure, 1e-15 * space.measure.max()))
    inv = 1.0 / root
    lap *= inv  # column j by R_jj, then row i divided by root_i
    lap /= root[:, None]
    lap[np.diag_indices(space.n)] = diag / (root * root)
    _, vecs = np.linalg.eigh(lap)
    vecs *= inv[:, None]
    out = []
    for col in range(1, min(k + 1, space.n)):
        v = vecs[:, col]
        peak = np.abs(v).max()
        out.append(make_field(space, v / peak if peak > 0 else v))
    return out


def default_witness_family(space: MeasuredSpace, seed: int = 0,
                           n_random: int = 6) -> list:
    """Labeled witness fields: tilts, eigenfields, random smoothed noise.

    Exponential tilts are only meaningful on non-periodic 1-d spaces
    (they realize the Gaussian extremals), and a tilt that overflows is
    left out; eigenfields and random fields work everywhere.
    """
    _check_count("n_random", n_random, 0)
    family = []
    if (space.coords is not None and space.coords.shape[1] == 1
            and space.kind not in ("circle", "torus2d")):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            try:
                family.append((f"tilt:{alpha}", tilt_field(space, alpha)))
            except ValueError:  # the tilt overflows on a long enough space
                pass
    for i, f in enumerate(laplacian_eigenfields(space, k=3)):
        family.append((f"eigen:{i + 1}", f))
    for i in range(n_random):
        f = random_smoothed_field(space, np.random.default_rng([seed, 1000 + i]))
        family.append((f"random:{i}", f))
    return family


def _ratios(space: MeasuredSpace, which: str, family) -> list:
    """(label, field, ratio) per family member; ratio None when degenerate."""
    out = [(str(label), f, _score(space, which, f)) for label, f in family]
    if not out:
        raise ValueError("witness family is empty")
    return out


def _check_K(K: float) -> float:
    K = float(K)
    if not (0 < K < np.inf):  # NaN fails every comparison
        raise ValueError(f"K must be positive and finite, got {K}")
    return K


def _check_count(name: str, count: int, least: int) -> int:
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (0 < tau < 1):  # NaN fails every comparison
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return tau


@dataclass(frozen=True)
class ConstantEstimate:
    """Family-restricted upper bound on a best constant, with its witness."""

    which: str
    value: float
    witness: ScalarField
    witness_label: str
    evaluations: tuple  # (label, ratio-or-None) per family member


def _refine_witness(space, which, f, value, budget, rng):
    # single-coordinate random descent; keeps the value an upper bound
    vals = f.values.copy()
    scale = max(float(vals.max() - vals.min()), 1e-6)
    for k in range(budget):
        i = int(rng.integers(space.n))
        step = 0.2 * scale * (0.9 ** k) * float(rng.standard_normal())
        cand = vals.copy()
        cand[i] += step
        r = _score(space, which, make_field(space, cand))
        if r is not None and r < value:
            value = r
            vals = cand
    return make_field(space, vals), value


# default refinement budgets; talagrand evaluations each solve a transport LP
DEFAULT_BUDGETS = {"lsi": 20, "talagrand": 6, "poincare": 20}


def estimate_constant(space: MeasuredSpace, which: str, family=None,
                      budget: int | None = None, seed: int = 0) -> ConstantEstimate:
    """Smallest ratio over a witness family, after local refinement.

    The result is an upper bound on the space's best constant (the true
    constant is an infimum over all functions).  Every witness gets its
    own refinement stream keyed by (seed, index), so extending the family
    never changes earlier evaluations and never increases the estimate.
    budget=None picks DEFAULT_BUDGETS[which].
    """
    which = _canon(which)
    budget = _check_count("budget", DEFAULT_BUDGETS[which] if budget is None else budget, 1)
    family = default_witness_family(space, seed) if family is None else family
    best = None
    evaluations = []
    for idx, (label, f, r0) in enumerate(_ratios(space, which, family)):
        if r0 is None:
            evaluations.append((label, None))
            continue
        f1, r1 = _refine_witness(space, which, f, r0, budget,
                                 np.random.default_rng([seed, idx]))
        evaluations.append((label, r1))
        if best is None or r1 < best[2]:
            best = (label, f1, r1)
    if best is None:
        raise DegenerateWitnessError(
            f"every witness in the family is degenerate for {which} on this space"
        )
    return ConstantEstimate(which=which, value=best[2], witness=best[1],
                            witness_label=best[0], evaluations=tuple(evaluations))


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log of sum b exp(a) for 1-d a and weights b >= 0, bitwise as scipy 1.17's.

    A numpy port of scipy.special.logsumexp, which is slow to import.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        top = shifted.max()
        at_top = shifted == top
        m = np.sum(b * at_top)
        shifted[at_top] = -np.inf
        s = np.sum(b * np.exp(shifted - top))
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + top
        if not np.isfinite(out):  # as scipy's wrapper: the direct sum decides
            out = np.log(np.sum(b * np.exp(a)))
    return float(out)


def dual_talagrand_defect(space: MeasuredSpace, g: ScalarField, K: float) -> float:
    """log of integral exp(K Q_1 g) dnu, minus K times the mean of g.

    Nonpositive for every g exactly when the dual form of T(K) holds.
    """
    vals = check_binding(space, g)
    K = _check_K(K)
    return _dual_defect(space, vals, apply(space, g, 1.0).values, K)


def _dual_defect(space: MeasuredSpace, vals: np.ndarray, q1: np.ndarray, K: float) -> float:
    """dual_talagrand_defect of the field with values vals, given Q_1 of them."""
    return _logsumexp(K * q1, space.measure) - K * float(vals @ space.measure)


@dataclass(frozen=True)
class PsiTrace:
    """psi(t) = integral exp(K t Q_t h) dnu on a time grid, h centered."""

    K: float
    times: np.ndarray
    values: np.ndarray
    max_excess: float  # max psi - 1; nonpositive when T(K) holds


@dataclass(frozen=True)
class PhiTrace:
    """phi(t) = log(integral exp(K t Q_t g) dnu) / (K t) on a time grid."""

    K: float
    times: np.ndarray
    values: np.ndarray
    max_upward_step: float    # > 0 contradicts LSI(K) (phi nonincreasing)
    small_t_defect: float     # |phi(t_min) - mean g|; -> 0 as t_min -> 0
    mean_g: float
    endpoint_identity_gap: float  # |K (phi(1) - mean g) - dual defect|


def psi_trace(space: MeasuredSpace, h: ScalarField, K: float, times) -> PsiTrace:
    vals = check_binding(space, h)
    K = _check_K(K)
    grid = _time_grid(times)
    centered = make_field(space, vals - float(vals @ space.measure))
    evolved = _evolve(space, centered.values, grid)
    with np.errstate(over="ignore"):  # psi saturates to inf for absurd K
        out = np.array([float(np.exp(K * t * q) @ space.measure)
                        for t, q in zip(grid, evolved)])
    return PsiTrace(K=K, times=grid, values=out,
                    max_excess=float(out.max() - 1.0))


def phi_trace(space: MeasuredSpace, g: ScalarField, K: float, times) -> PhiTrace:
    vals = check_binding(space, g)
    K = _check_K(K)
    grid = _time_grid(times)
    mean_g = float(vals @ space.measure)
    # one kernel pass for the grid and Q_1 g, which the endpoint identity reads
    ts = grid if 1.0 in grid else np.append(grid, 1.0)
    evolved = _evolve(space, vals, ts)
    phi = np.array([_logsumexp(K * t * q, space.measure) / (K * t)
                    for t, q in zip(ts, evolved)])
    one = int(np.flatnonzero(ts == 1.0)[0])
    out = phi[:grid.size]
    steps = np.diff(out)
    max_up = float(steps.max()) if steps.size else 0.0
    gap = abs(K * (phi[one] - mean_g) - _dual_defect(space, vals, evolved[one], K))
    return PhiTrace(K=K, times=grid, values=out,
                    max_upward_step=max(max_up, 0.0),
                    small_t_defect=abs(float(out[0]) - mean_g),
                    mean_g=mean_g, endpoint_identity_gap=float(gap))


@dataclass(frozen=True)
class ChainCheck:
    stage: str          # lsi | talagrand | poincare
    witness_label: str
    ratio: float | None  # None when the witness is degenerate for the stage
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    """Witness-wise verdict on the implication chain at constant K.

    The LSI stage tests the hypothesis itself: failures there refute
    LSI(K) on this space and leave the implications untested.  Failures
    at the Talagrand or Poincare stage contradict an implication (at the
    stated tolerance) and are flagged as counterexamples, pointing at
    mesh error.
    """

    K: float
    tau: float
    checks: tuple
    hypothesis_refuted: bool
    counterexample: ChainCheck | None
    consistent: bool
    verdict: str


def verify_chain(space: MeasuredSpace, K: float, family, tau: float) -> ChainReport:
    """Check LSI => T => P witness-wise with (1 - tau) slack per stage.

    family is an iterable of (label, field) pairs.  Stage k of lsi,
    talagrand, poincare tests every member against K (1 - tau)^k (a
    degenerate member passes); the walk stops at the first failing stage.
    """
    K = _check_K(K)
    tau = _check_tau(tau)
    family = list(family)  # every stage reads it

    checks = []
    for k, stage in enumerate(_RATIOS, start=1):
        threshold = K * (1 - tau) ** k
        for label, _, r in _ratios(space, stage, family):
            checks.append(ChainCheck(stage, label, r, threshold, r is None or r >= threshold))
        failed = next((c for c in checks if not c.passed), None)
        if failed is not None:
            break
    hypothesis_ok = failed is None or failed.stage != "lsi"
    counterexample = failed if hypothesis_ok else None
    consistent = counterexample is None
    if not hypothesis_ok:
        verdict = f"hypothesis LSI({K:g}) fails on this space; implications untested"
    elif consistent:
        verdict = f"chain consistent at (K={K:g}, tau={tau:g})"
    else:
        verdict = (f"counterexample at stage {counterexample.stage}: witness "
                   f"{counterexample.witness_label} has ratio {counterexample.ratio:.6g} "
                   f"below {counterexample.threshold:.6g}; rerun on a finer mesh")
    return ChainReport(K=K, tau=tau, checks=tuple(checks),
                       hypothesis_refuted=not hypothesis_ok,
                       counterexample=counterexample,
                       consistent=consistent, verdict=verdict)

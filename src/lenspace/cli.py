"""Command-line front end: space generation, semigroup diagnostics,
constant estimation, chain verification, transport, and plot-data export.

Every run writes its artifacts plus a run.json manifest (config echo,
version, exit code, wall time) into the output directory.  A command
returns its JSON document and the side files it wrote; run() writes the
document to --out, then the manifest.  Artifacts are
byte-deterministic given the same config, seed included; the manifest is
not (it records wall time).  Exit codes: 0 all checks pass, 1 a mathematical
check failed (invariant violation, chain counterexample, refuted
hypothesis, trace above tolerance), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse imports it, through gettext, when main() builds the parser
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .fields import coordinate_field, load_field_csv, random_smoothed_field, \
    resolve_field, save_field_csv
from .generators import _parse_fields, _read_json, _write_json, generate, parse_space_spec, \
    refine, save_space
from .hopflax import _check_time, _evolve, _residual, _time_grid, make_trace, \
    semigroup_defect
from .inequalities import _RATIOS, _canon, _check_count, _check_K, _check_tau, _score, \
    default_witness_family, estimate_constant, phi_trace, psi_trace, verify_chain
from .space import _check_scales, _check_sweep, doubling_constant, local_poincare_constant, \
    make_field, validate_metric
from .transport import w2


def _parse_times(text: str) -> np.ndarray:
    """A checked time grid from geo:MIN:MAX:COUNT, lin:MIN:MAX:COUNT or a comma list."""
    bad = f"bad time grid {text!r}"
    head, _, rest = text.partition(":")
    if head in ("geo", "lin"):
        lo, hi, count = _parse_fields(bad, head, rest,
                                      {"min": float, "max": float, "count": int}).values()
        if count < 1 or not 0 < lo <= hi:  # geomspace takes neither
            raise ValueError(f"{bad}: need count >= 1 and 0 < min <= max")
        return _time_grid((np.geomspace if head == "geo" else np.linspace)(lo, hi, count))
    try:
        times = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(bad) from None
    return _time_grid(times)


def _space_summary(space) -> dict:
    return {"id": space.space_id, "kind": space.kind, "n": space.n,
            "mesh_h": space.mesh_h, "diameter": space.diameter}


def _resolve_marginal(space, text: str) -> np.ndarray:
    if text == "nu":
        return space.measure.copy()
    if text == "uniform":
        return np.full(space.n, 1.0 / space.n)
    head, colon, rest = text.partition(":")
    bad = f"bad marginal spec {text!r}"
    if head == "point" and colon:
        i = _parse_fields(bad, head, rest, {"index": int})["index"]
        if not (0 <= i < space.n):
            raise ValueError(f"{bad}: index {i} outside 0..{space.n - 1}")
        return (np.arange(space.n) == i).astype(float)
    if head == "tilt" and colon:  # e^(alpha x) nu / sum, from alpha x minus its max
        alpha = _parse_fields(bad, head, rest, {"alpha": float})["alpha"]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: w2 refuses it
            ax = alpha * coordinate_field(space).values
            dens = np.exp(ax - ax.max()) * space.measure
            return dens / dens.sum()
    if text.endswith(".csv"):
        w = load_field_csv(space, text).values
        with np.errstate(over="ignore"):
            total = w.sum()
        if np.any(w < 0) or total <= 0:
            raise ValueError(f"marginal weights in {text} must be nonnegative with positive sum")
        if total == math.inf:
            raise ValueError(f"marginal weights in {text} sum past the largest float")
        return w / total
    raise ValueError(
        f"unknown marginal spec {text!r}; use nu, uniform, point:I, tilt:A, or a .csv path"
    )


def _cmd_gen(args: argparse.Namespace, out: str):
    space = generate(parse_space_spec(args.spec))
    save_space(space, out)
    return (0 if validate_metric(space).passed else 1), None, []


def _cmd_semigroup(args: argparse.Namespace, out: str):
    _check_count("--refinements", args.refinements, 0)
    for flag, t in (("--defect-t", args.defect_t), ("--defect-s", args.defect_s)):
        if not 0 < t < math.inf:  # written so NaN fails
            raise ValueError(f"{flag} must be positive and finite, got {t}")
    longest = args.defect_t + args.defect_s  # the defect study's Q_{t+s}
    if not longest < math.inf:
        raise ValueError(f"--defect-t + --defect-s must be finite, got {longest}")
    spec = parse_space_spec(args.space)
    times = _parse_times(args.times)
    study = args.residual_study
    if study:
        bad = f"bad --residual-study {study!r}"
        t0, s_max, levels = _parse_fields(bad, "a study", study,
                                          {"t": float, "s_max": float, "levels": int}).values()
        if t0 <= 0 or levels < 1 or not math.ldexp(s_max, 1 - levels) > 0:
            raise ValueError(f"{bad}: need t > 0, levels >= 1 and s_max / 2^(levels - 1) > 0")
    if args.refinements > 0 and spec.kind == "custom_file":
        raise ValueError("defect study needs a generator space spec, not a file")
    if args.refinements > 0 and args.field.endswith(".csv"):
        raise ValueError("defect study needs a named field spec, not a CSV file")
    space = generate(spec)
    f = resolve_field(space, args.field, args.seed)
    trace = make_trace(space, f, times)

    failed = []
    for t, lip in zip(trace.times, trace.lipschitz):
        with np.errstate(over="ignore"):  # an infinite bound fails no check
            bound = space.diameter / t
        if lip > bound + 1e-12 * (1.0 + bound):
            failed.append(f"Lip(Q_t f) = {lip} above diam/t = {bound} at t = {t}")

    if not study:
        mid = len(times) // 2
        t0 = float(times[mid])
        s_max = min(t0 / 2.0, float(trace.steps[mid]))
        levels = 3
    # every level shares Q_{t0} f, the trace's middle field by default; each
    # step s needs only Q_{t0+s} f, and one kernel pass gives them all
    steps = [_check_time(math.ldexp(s_max, -j), positive=True) for j in range(levels)]
    ends = [_check_time(t0 + s, positive=True) for s in steps]
    base = [t0] if study else []
    evolved = [make_field(space, q) for q in _evolve(space, f.values, base + ends)]
    here = evolved.pop(0) if study else trace.fields[mid]
    rows = []
    for s, there in zip(steps, evolved):
        r = _residual(space, here, there, s)
        rows.append((s, float(np.abs(r.values) @ space.measure)))

    defect_rows = None
    if args.refinements > 0:
        dt, ds = args.defect_t, args.defect_s
        defect_rows = [(space.mesh_h, semigroup_defect(space, f, dt, ds))]
        level_spec = spec
        for _ in range(args.refinements):
            level_spec = refine(level_spec)
            level_space = generate(level_spec)
            level_field = resolve_field(level_space, args.field, args.seed)
            defect_rows.append((level_space.mesh_h,
                                semigroup_defect(level_space, level_field, dt, ds)))

    field_csv = os.path.splitext(out)[0] + "_source.csv"
    save_field_csv(f, field_csv)
    doc = {
        "space": _space_summary(space),
        "field": args.field,
        "trace": trace.to_json_dict(),
        "residual_vs_s": [list(r) for r in rows],
        "defect_vs_mesh": [list(r) for r in defect_rows] if defect_rows else None,
        "checks": {"lipschitz_bound_failures": failed},
    }
    return (1 if failed else 0), doc, [field_csv]


# relative tolerance when a witness's ratio is recomputed from the saved field
_REPRODUCIBILITY = 1e-9


def _cmd_constants(args: argparse.Namespace, out: str):
    names = tuple(_RATIOS) if args.which == "all" else \
        tuple(dict.fromkeys(_canon(w.strip()) for w in args.which.split(",")))
    K = None if args.K is None else _check_K(args.K)
    _check_tau(args.tau)
    if args.budget is not None:
        _check_count("budget", args.budget, 1)
    space = generate(parse_space_spec(args.space))
    family = default_witness_family(space, args.seed)
    # without --K the chain runs at the estimated LSI constant
    estimated = set(names) | ({"lsi"} if K is None else set())
    estimates = {name: estimate_constant(space, name, family=family,
                                         budget=args.budget, seed=args.seed)
                 for name in sorted(estimated)}
    chain = verify_chain(space, estimates["lsi"].value if K is None else K,
                         family, args.tau)

    artifacts, witnesses, failures = [], [], []
    for name in names:
        est = estimates[name]
        ref = os.path.join(args.out_dir, f"witness_{name}.csv")
        save_field_csv(est.witness, ref)
        artifacts.append(ref)
        again = _score(space, name, load_field_csv(space, ref))
        if again is None or abs(again - est.value) > _REPRODUCIBILITY * (1.0 + abs(est.value)):
            failures.append(f"{name} witness ratio {est.value} not reproducible ({again})")
        witnesses.append({"which": name, "label": est.witness_label,
                          "ratio": est.value, "field_ref": os.path.basename(ref),
                          "evaluations": [[lab, r] for lab, r in est.evaluations]})
    doc = {
        "space": _space_summary(space),
        "K_estimates": {name: est.value for name, est in estimates.items()},
        "witnesses": witnesses,
        "chain": [asdict(c) for c in chain.checks],
        "chain_verdict": chain.verdict,
        "tolerances": {"tau": args.tau, "ratio_reproducibility": _REPRODUCIBILITY},
        "checks": {"reproducibility_failures": failures},
    }
    return (1 if failures else 0), doc, artifacts


def _cmd_chain(args: argparse.Namespace, out: str):
    _check_count("--trace-fields", args.trace_fields, 1)
    for flag, tol in (("--psi-tol", args.psi_tol), ("--phi-tol", args.phi_tol)):
        if not 0 <= tol < math.inf:  # written so NaN fails
            raise ValueError(f"{flag} must be finite and >= 0, got {tol}")
    _check_K(args.K)
    _check_tau(args.tau)
    _check_count("n_random", args.n_random, 0)
    psi_grid = _parse_times(args.psi_times)
    phi_grid = _parse_times(args.phi_times)
    if not args.K * phi_grid[0] > 0:  # phi(t) divides by K t
        raise ValueError(f"--K {args.K} times the first --phi-times {phi_grid[0]} underflows to 0")
    space = generate(parse_space_spec(args.space))
    family = default_witness_family(space, args.seed, args.n_random)
    report = verify_chain(space, args.K, family, args.tau)

    psi_rows, phi_rows = [], []
    psi_excess, phi_step, endpoint_gap = -np.inf, 0.0, 0.0
    for i in range(args.trace_fields):
        h = random_smoothed_field(space, np.random.default_rng([args.seed, 2000 + i]))
        ps = psi_trace(space, h, args.K, psi_grid)
        ph = phi_trace(space, h, args.K, phi_grid)
        psi_excess = max(psi_excess, ps.max_excess)
        phi_step = max(phi_step, ph.max_upward_step)
        endpoint_gap = max(endpoint_gap, ph.endpoint_identity_gap)
        psi_rows.extend((float(t), float(v), i) for t, v in zip(ps.times, ps.values))
        phi_rows.extend((float(t), float(v), i) for t, v in zip(ph.times, ph.values))

    dual_ok = psi_excess <= args.psi_tol and phi_step <= args.phi_tol
    code = 0 if (report.consistent and not report.hypothesis_refuted and dual_ok) else 1
    doc = {
        "space": _space_summary(space),
        "K": args.K,
        "tau": args.tau,
        "chain": [asdict(c) for c in report.checks],
        "verdict": report.verdict,
        "hypothesis_refuted": report.hypothesis_refuted,
        "consistent": report.consistent,
        "traces": {
            "psi": {"rows": [list(r) for r in psi_rows], "max_excess": psi_excess,
                    "tolerance": args.psi_tol},
            "phi": {"rows": [list(r) for r in phi_rows], "max_upward_step": phi_step,
                    "endpoint_identity_gap": endpoint_gap,
                    "tolerance": args.phi_tol},
        },
    }
    return code, doc, []


def _cmd_transport(args: argparse.Namespace, out: str):
    space = generate(parse_space_spec(args.space))
    mu0 = _resolve_marginal(space, args.mu0)
    mu1 = _resolve_marginal(space, args.mu1)
    distance, plan = w2(space, mu0, mu1)
    plan.check(space)
    keep = plan.mass > 1e-15
    triplets = [[int(i), int(j), float(m)] for i, j, m in
                zip(plan.rows[keep], plan.cols[keep], plan.mass[keep])]
    doc = {
        "space": _space_summary(space),
        "distance": distance,
        "cost": plan.cost,
        "duality_gap": plan.duality_gap,
        "coupling": triplets,
        "mu0": args.mu0,
        "mu1": args.mu1,
    }
    return 0, doc, []


def _cmd_doubling(args: argparse.Namespace, out: str):
    _check_sweep(args.r_min, args.r_max, args.r_steps)
    if args.field:  # the local Poincare scales, read only with a field
        _check_scales(args.radius, args.dilation)
    space = generate(parse_space_spec(args.space))
    f = resolve_field(space, args.field, args.seed) if args.field else None
    value = doubling_constant(space, args.r_min, args.r_max, args.r_steps)
    metric = validate_metric(space)
    local = None if f is None else local_poincare_constant(space, f, args.radius, args.dilation)
    doc = {
        "space": dict(_space_summary(space), midpoint_defect=space.midpoint_defect),
        "doubling_constant": value,
        "r_min": args.r_min, "r_max": args.r_max, "r_steps": args.r_steps,
        "metric_check": asdict(metric),
        "local_poincare": local,
    }
    return (0 if metric.passed else 1), doc, []


# plot kind -> CSV header; a chain report keeps psi and phi under "traces"
_PLOTS = {"psi": "t,psi,series", "phi": "t,phi,series",
          "residual_vs_s": "s,mean_abs_residual", "defect_vs_mesh": "mesh_h,defect"}


def _cmd_plot_data(args: argparse.Namespace, out: str):
    kind = args.kind
    rows = _read_json(args.report, "report")
    for key in ("traces", kind, "rows") if kind in ("psi", "phi") else (kind,):
        rows = rows.get(key) if isinstance(rows, dict) else None
    if not rows:
        raise ValueError(f"report has no {kind} data")
    width = _PLOTS[kind].count(",") + 1
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width
            and all(type(x) in (int, float, type(None)) for x in row) for row in rows):
        raise ValueError(f"report's {kind} data must be a list of rows of {width} numbers")
    with open(out, "w") as fh:
        fh.write(_PLOTS[kind] + "\n")
        for row in rows:
            # a report stores a non-finite value as null; a CSV cell says nan
            fh.write(",".join("nan" if x is None else f"{x:.17g}" if isinstance(x, float)
                              else str(x) for x in row) + "\n")
    return 0, None, []


# each command takes (args, out) and returns (exit code, its JSON document,
# or None when it wrote out itself, the other files it wrote)
_COMMANDS = {
    "gen": _cmd_gen,
    "semigroup": _cmd_semigroup,
    "constants": _cmd_constants,
    "chain": _cmd_chain,
    "transport": _cmd_transport,
    "doubling": _cmd_doubling,
    "plot-data": _cmd_plot_data,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, write its JSON document (gen and plot-data
    write their own file to out), then the run manifest."""
    os.makedirs(args.out_dir, exist_ok=True)
    start = time.monotonic()
    out = os.path.join(args.out_dir, args.out)  # an absolute --out stands as given
    code, doc, extra = _COMMANDS[args.command](args, out)
    if doc is not None:
        _write_json(doc, out)
    manifest = {
        "command": args.command,
        "config": vars(args),
        "version": __version__,
        "exit_code": code,
        "wall_time_s": time.monotonic() - start,
        "artifacts": [os.path.basename(a) for a in [out, *extra]],
    }
    _write_json(manifest, os.path.join(args.out_dir, "run.json"))
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, as every input error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _seed(text: str) -> int:
    """argparse type of --seed: numpy takes only non-negative integer seeds."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lenspace",
        description="Hopf-Lax semigroup and functional-inequality toolkit "
                    "on finite metric-measure spaces",
    )
    parser.add_argument("--out-dir", default=os.environ.get("LENSPACE_OUT", "."),
                        help="output directory (env LENSPACE_OUT)")
    sub = parser.add_subparsers(dest="command", required=True)
    # SUPPRESS keeps a subcommand-level --out-dir from clobbering the global one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="output directory (overrides the global flag)")

    p = sub.add_parser("gen", parents=[common],
                       help="generate a space and save it as JSON")
    p.add_argument("--spec", required=True,
                   help="compact space spec, e.g. circle:256:6.2832")
    p.add_argument("--out", default="space.json")

    p = sub.add_parser("semigroup", parents=[common], help="evolve a field and check the semigroup laws")
    p.add_argument("--space", required=True)
    p.add_argument("--field", default="cos")
    p.add_argument("--times", default="geo:0.01:1:8")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--residual-study", help="T:S_MAX:LEVELS residual sweep")
    p.add_argument("--refinements", type=int, default=0,
                   help="defect-vs-mesh study depth (generator spaces only)")
    p.add_argument("--defect-t", type=float, default=0.5)
    p.add_argument("--defect-s", type=float, default=0.5)
    p.add_argument("--out", default="semigroup.json")

    p = sub.add_parser("constants", parents=[common], help="estimate LSI/Talagrand/Poincare constants")
    p.add_argument("--space", required=True)
    p.add_argument("--which", default="all")
    p.add_argument("--budget", type=int, default=None,
                   help="refinement proposals per witness (default: per-inequality)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--K", type=float, default=None,
                   help="chain-check constant (default: estimated LSI)")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--out", default="constants.json")

    p = sub.add_parser("chain", parents=[common], help="verify the LSI => T => P chain witness-wise")
    p.add_argument("--space", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n-random", type=int, default=6)
    p.add_argument("--trace-fields", type=int, default=20)
    p.add_argument("--psi-times", default="geo:0.01:2:12")
    p.add_argument("--phi-times", default="geo:0.01:1:12")
    p.add_argument("--psi-tol", type=float, default=0.02)
    p.add_argument("--phi-tol", type=float, default=0.01)
    p.add_argument("--out", default="chain.json")

    p = sub.add_parser("transport", parents=[common], help="optimal transport between two marginals")
    p.add_argument("--space", required=True)
    p.add_argument("--mu0", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--out", default="transport.json")

    p = sub.add_parser("doubling", parents=[common], help="doubling constant and regularity report")
    p.add_argument("--space", required=True)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--r-steps", type=int, default=16)
    p.add_argument("--field", help="also certify a local Poincare inequality for this field")
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--dilation", type=float, default=2.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="doubling.json")

    p = sub.add_parser("plot-data", parents=[common], help="extract a two/three-column CSV from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=list(_PLOTS))
    p.add_argument("--out", default="plot.csv")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return run(args)
    except AssertionError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

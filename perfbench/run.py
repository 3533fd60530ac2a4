"""Benchmark the lenspace CLI on one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the program is run from the
sources under ``src/`` and writes its artifacts under ``.perfbench/``.
Each command of the workload runs in a fresh interpreter (perfbench/launch.py).

--trace 0 repeats the workload's command list while another repetition
fits in S seconds (at least once) and reports the end-to-end metrics:
the median job wall time, the median time inside ``main()`` per job, the
fastest import over all launches, and the peak RSS of any command.
--trace 1 runs the list once plainly and once with spans recorded around
every lenspace layer, checks that both runs wrote byte-identical
artifacts, and reports the per-layer metrics and the tracing overhead.
Every command's artifacts are checked against references computed in
perfbench/workloads.py.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(HERE, "launch.py")

DEADLINE_S = 150.0   # last launch start; checks and the result line follow within 180 s
SETUP_LAUNCHES = 5   # import-only launches per run, besides the commands'

END_TO_END = {"job_s": "s", "main_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

COMMANDS = ("gen", "semigroup", "constants", "chain", "transport", "doubling")
RATIOS = ("lsi", "talagrand", "poincare")

PER_LAYER = {
    "space.build_calls": "count", "space.build_s": "s", "space.dijkstra_s": "s",
    "space.validate_metric_s": "s", "space.doubling_s": "s",
    "space.local_poincare_s": "s",
    "generators.generate_calls": "count",
    "hopflax.apply_calls": "count", "hopflax.apply_s": "s",
    "hopflax.apply_cells": "count", "hopflax.apply_ns_per_cell": "ns",
    "hopflax.lipschitz_calls": "count", "hopflax.lipschitz_s": "s",
    "hopflax.slope_s": "s",
    "transport.w2_calls": "count", "transport.w2_s": "s",
    "transport.w2_p50_ms": "ms", "transport.w2_p90_ms": "ms",
    "transport.w2_max_gap": "cost",
    "fields.random_field_calls": "count",
    **{f"inequalities.{r}_ratio_calls": "count" for r in RATIOS},
    "inequalities.degenerate_frac": "share",
    **{f"inequalities.estimate_{r}_s": "s" for r in RATIOS},
    "inequalities.verify_chain_s": "s", "inequalities.trace_s": "s",
    "inequalities.eigenfields_s": "s",
    "cli.artifact_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "share" for layer in LAYERS + ("process",)},
    "process.setup_s": "s", "process.exit_s": "s",
    **{f"{cmd}_s": "s" for cmd in COMMANDS},
    "fail_frac": "share",
    "trace.job_s": "s", "trace.untraced_job_s": "s", "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class Launcher:
    """Starts launch.py processes one at a time and collects their reports."""

    def __init__(self, meta_dir: str, deadline: float):
        self.meta_dir = meta_dir
        self.deadline = deadline
        self.count = 0
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))

    def launch(self, mode: str, argv: list) -> dict:
        self.count += 1
        base = os.path.join(self.meta_dir, f"{self.count:03d}")
        report = {"argv": argv, "log": base + ".log"}
        start = time.monotonic()
        try:
            with open(report["log"], "w") as log:
                proc = subprocess.run(
                    [sys.executable, LAUNCH, base + ".json", mode, *argv],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=max(self.deadline - start, 0.1))
            report["exit"] = proc.returncode
        except subprocess.TimeoutExpired:
            report["exit"] = "timeout"
        report["reaped"] = time.monotonic()
        if os.path.exists(base + ".json"):
            with open(base + ".json") as fh:
                report.update(json.load(fh))
            report["setup_s"] = report["imported"] - start
        return report

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _tail(path: str) -> str:
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def artifacts(out_dir: str) -> dict:
    """Artifact name -> bytes, leaving out run.json (it records wall time)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "run.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def run_job(launcher: Launcher, commands: list, job_dir: str, mode: str) -> dict:
    """Run the command list once; check the artifacts after the clock stops."""
    out_dirs = [os.path.join(job_dir, f"{k}-{cmd.name}") for k, cmd in enumerate(commands)]
    reports = []
    start = time.monotonic()
    for cmd, out in zip(commands, out_dirs):
        if launcher.expired():
            break
        reports.append(launcher.launch(mode, ["--out-dir", out, *cmd.args]))
    wall = time.monotonic() - start
    failures = []
    for k, cmd in enumerate(commands):
        if k >= len(reports):
            failures.append(["not started before the deadline"])
            continue
        rep = reports[k]
        if rep["exit"] != 0:
            failures.append([f"exit {rep['exit']}: {_tail(rep['log'])}"])
            continue
        try:
            failures.append(cmd.check(out_dirs[k]))
        except (OSError, LookupError, TypeError, ValueError, RuntimeError) as exc:
            failures.append([f"artifacts unreadable or wrong: {exc!r}"])
    return {"wall": wall, "reports": reports, "out_dirs": out_dirs, "failures": failures}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(jobs: list, setup_samples: list) -> dict:
    reports = [r for job in jobs for r in job["reports"] if "main_s" in r]
    return {
        "job_s": _median([job["wall"] for job in jobs]),
        "main_s": _median([sum(r.get("main_s", 0.0) for r in job["reports"])
                           for job in jobs]),
        # the fastest launch: a slow spell of the machine only adds time
        "setup_s": min(setup_samples, default=0.0),
        "peak_rss_mb": max((r["rss_kb"] for r in reports), default=0) / 1024.0,
    }


def _merge_spans(reports: list) -> dict:
    merged = {}
    for rep in reports:
        for name, entry in rep.get("spans", {}).items():
            into = merged.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                            "errors": {}, "info": []})
            for key in ("calls", "incl_s", "self_s"):
                into[key] += entry[key]
            for err, count in entry["errors"].items():
                into["errors"][err] = into["errors"].get(err, 0) + count
            into["info"].extend(entry["info"])
    return merged


def layer_metrics(commands: list, traced: dict, plain: dict, attempted: int,
                  failed: int) -> dict:
    """Per-layer metrics from the traced job's spans; command times and the
    tracing overhead against the plain job."""
    spans = _merge_spans(traced["reports"])

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(*names):
        return sum(spans[n]["incl_s"] for n in names if n in spans)

    def info(name, key):
        return [i[key] for i in spans.get(name, {}).get("info", [])]

    m = {}
    m["space.build_calls"] = calls("space.build_from_graph")
    m["space.build_s"] = incl("space.build_from_graph")
    m["space.dijkstra_s"] = incl("space.shortest_path")
    m["space.validate_metric_s"] = incl("space.validate_metric")
    m["space.doubling_s"] = incl("space.doubling_constant")
    m["space.local_poincare_s"] = incl("space.local_poincare_constant")
    m["generators.generate_calls"] = calls("generators.generate")

    m["hopflax.apply_calls"] = calls("hopflax.apply")
    m["hopflax.apply_s"] = incl("hopflax.apply")
    m["hopflax.apply_cells"] = sum(info("hopflax.apply", "cells"))
    m["hopflax.apply_ns_per_cell"] = (1e9 * m["hopflax.apply_s"] / m["hopflax.apply_cells"]
                                      if m["hopflax.apply_cells"] else 0.0)
    m["hopflax.lipschitz_calls"] = calls("hopflax.lipschitz_constant")
    m["hopflax.lipschitz_s"] = incl("hopflax.lipschitz_constant")
    m["hopflax.slope_s"] = incl("hopflax.grad_norm_field", "hopflax.subgrad_norm_field")

    w2_ms = [1e3 * d for d in info("transport.w2", "dur_s")]
    m["transport.w2_calls"] = calls("transport.w2")
    m["transport.w2_s"] = incl("transport.w2")
    m["transport.w2_p50_ms"] = _median(w2_ms)
    # a 90th percentile needs ten samples above it; 0 marks "too few calls"
    m["transport.w2_p90_ms"] = statistics.quantiles(w2_ms, n=10)[8] if len(w2_ms) >= 100 else 0.0
    m["transport.w2_max_gap"] = max(info("transport.w2", "gap"), default=0.0)

    m["fields.random_field_calls"] = calls("fields.random_smoothed_field")
    ratio_calls = degenerate = 0
    for r in RATIOS:
        name = f"inequalities.{r}_ratio"
        m[f"{name}_calls"] = calls(name)
        ratio_calls += calls(name)
        degenerate += spans.get(name, {}).get("errors", {}).get("DegenerateWitnessError", 0)
        m[f"inequalities.estimate_{r}_s"] = incl(f"inequalities.estimate_constant:{r}")
    m["inequalities.degenerate_frac"] = degenerate / ratio_calls if ratio_calls else 0.0
    m["inequalities.verify_chain_s"] = incl("inequalities.verify_chain")
    m["inequalities.trace_s"] = incl("inequalities.psi_trace", "inequalities.phi_trace")
    m["inequalities.eigenfields_s"] = incl("inequalities.laplacian_eigenfields")

    m["cli.artifact_bytes"] = sum(len(b) for out in traced["out_dirs"] if os.path.isdir(out)
                                  for b in artifacts(out).values())
    job_s = traced["wall"]
    self_total = 0.0
    for layer in LAYERS:
        s = sum(e["self_s"] for n, e in spans.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = s
        m[f"{layer}.self_share"] = s / job_s
        self_total += s
    done = [r for r in traced["reports"] if "ended" in r]
    m["process.setup_s"] = sum(r["setup_s"] for r in done)
    m["process.exit_s"] = sum(r["reaped"] - r["ended"] for r in done)
    m["process.self_share"] = (m["process.setup_s"] + m["process.exit_s"]) / job_s

    for cmd in COMMANDS:
        m[f"{cmd}_s"] = sum(r.get("main_s", 0.0) for c, r in
                            zip(commands, plain["reports"]) if c.name == cmd)
    m["fail_frac"] = failed / attempted
    m["trace.job_s"] = job_s
    m["trace.untraced_job_s"] = plain["wall"]
    m["trace.overhead_s"] = job_s - plain["wall"]
    m["trace.unaccounted_s"] = (job_s - self_total - m["process.setup_s"]
                                - m["process.exit_s"])
    return m


def compare_artifacts(plain: dict, traced: dict) -> list:
    """Per command, the reasons the traced artifacts differ from the plain ones."""
    out = []
    for a, b in zip(plain["out_dirs"], traced["out_dirs"]):
        if not (os.path.isdir(a) and os.path.isdir(b)):
            out.append(["artifacts missing"])
            continue
        x, y = artifacts(a), artifacts(b)
        diff = sorted(k for k in set(x) | set(y) if x.get(k) != y.get(k))
        out.append([f"traced artifacts differ: {diff}"] if diff else [])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lenspace", "cli.py")):
        print(f"error: no lenspace sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.monotonic()
    run_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir, meta_dir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "meta")
    os.makedirs(inputs_dir)
    os.makedirs(meta_dir)
    commands = WORKLOADS[args.workload](args.seed, inputs_dir)
    launcher = Launcher(meta_dir, started + DEADLINE_S)

    launcher.launch("import", [])  # compiles bytecode and warms the file cache

    if args.trace:
        plain = run_job(launcher, commands, os.path.join(run_dir, "plain"), "0")
        traced = run_job(launcher, commands, os.path.join(run_dir, "traced"), "1")
        traced["failures"] = [f + d for f, d in
                              zip(traced["failures"], compare_artifacts(plain, traced))]
        jobs = [plain, traced]
    else:
        setup = [launcher.launch("import", []) for _ in range(SETUP_LAUNCHES)]
        jobs = []
        measure_start = time.monotonic()
        while True:
            jobs.append(run_job(launcher, commands,
                                os.path.join(run_dir, f"job{len(jobs)}"), "0"))
            spent = time.monotonic() - measure_start
            if launcher.expired() or spent + _median([j["wall"] for j in jobs]) > args.seconds:
                break

    outcomes = [(cmd, msgs) for job in jobs for cmd, msgs in zip(commands, job["failures"])]
    attempted, failed = len(outcomes), sum(1 for _, msgs in outcomes if msgs)
    for cmd, msgs in outcomes:
        for msg in msgs:
            print(f"FAIL {' '.join(cmd.args)}: {msg}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(commands, traced, plain, attempted, failed)
        units = PER_LAYER
    else:
        launches = setup + [r for job in jobs for r in job["reports"]]
        samples = [r["setup_s"] for r in launches if "setup_s" in r]
        values, units = end_to_end_metrics(jobs, samples), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

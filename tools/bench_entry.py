"""Record parent-vs-change benchmark pairs and write a BENCH_*.json entry.

    python3 tools/bench_entry.py record --parent DIR --change DIR \\
        --workload transport-torus --seeds 11-20 --runs runs.jsonl [--trace 0|1]
    python3 tools/bench_entry.py summarize --runs runs.jsonl --out BENCH_N.json \\
        [--extra extra.json]

``record`` runs ``perfbench/run.py`` once per seed in each of two
checkouts (DIR is a repository root holding ``src/`` and ``perfbench/``),
one run at a time, alternating which side runs first, and appends one
JSON line per run to the runs file: side, workload, seed, trace, position
in the pair, the line count of that checkout's ``src/lenspace/*.py``, and
run.py's result line.  Several calls may append to one runs file.  The
run length is BENCHMARK.json's ``run_seconds`` for ``--trace 0`` and 1
second for ``--trace 1``.

``summarize`` turns a runs file into one entry.  A pair is the two
sides' runs of one seed of one workload at one trace setting; a
(side, workload, seed, trace) that occurs twice is an error.  For each
workload and each end-to-end metric it gives both sides' median,
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
values, the seeds, the pair count and the pairs the change won; for
traced runs, each side's per-layer values; and each side's
``src/lenspace/`` line count under ``"src_lines"``.  ``--extra`` merges
a JSON object of hand-measured figures under ``"extra"``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# per-layer counts a traced run's progress line shows; it has no end-to-end metric
TRACED_SHOWN = ("transport.w2_calls", "hopflax.apply_calls", "hopflax.apply_ns_per_cell",
                "space.build_calls")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def _src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "lenspace")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _progress(workload: str, seed: int, side: str, trace: int, result) -> str:
    """One stderr line per run: correct, then the end-to-end metrics or,
    for a traced run, the TRACED_SHOWN counts."""
    metrics = result["metrics"] if result else {}
    names = list(metrics) if trace == 0 else [k for k in TRACED_SHOWN if k in metrics]
    shown = [f"correct={bool(result and result['correct'])}"]
    shown += [f"{k}={metrics[k]['value']:.4g}" for k in names]
    return f"{workload} seed {seed} {side}: " + " ".join(shown)


def record(args) -> int:
    seconds = _bench()["run_seconds"] if args.trace == 0 else 1
    roots = {"parent": args.parent, "change": args.change}
    src_lines = {side: _src_lines(root) for side, root in roots.items()}
    for index, seed in enumerate(_seeds(args.seeds)):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=roots[side], capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{side} {args.workload} seed {seed}: failed\n{proc.stderr}",
                      file=sys.stderr)
            line = {"side": side, "workload": args.workload, "seed": seed,
                    "trace": args.trace, "position": position,
                    "src_lines": src_lines[side], "result": result}
            with open(args.runs, "a") as fh:
                fh.write(json.dumps(line) + "\n")
            print(_progress(args.workload, seed, side, args.trace, result),
                  file=sys.stderr, flush=True)
    return 0


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(args) -> int:
    with open(args.runs) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    seen = set()
    for r in runs:
        key = (r["side"], r["workload"], r["seed"], r["trace"])
        if key in seen:
            raise SystemExit(f"{args.runs}: {r['side']} {r['workload']} seed {r['seed']} "
                             f"trace {r['trace']} occurs twice")
        seen.add(key)
    better = {m["name"]: m["better"] for m in _bench()["end_to_end"]}
    lines = {s: {r["src_lines"] for r in runs if r["side"] == s} for s in SIDES}
    if any(len(v) != 1 for v in lines.values()):
        raise ValueError(f"the runs disagree on the src/lenspace line counts: {lines}")
    entry = {"src_lines": {s: v.pop() for s, v in lines.items()}, "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        out = {}
        plain = [r for r in mine if r["trace"] == 0]
        if plain:
            by = {(r["side"], r["seed"]): r["result"] for r in plain}
            pairs = sorted({r["seed"] for r in plain})
            out["seeds"] = pairs
            out["pairs"] = len(pairs)
            out["all_correct"] = all(r["result"] and r["result"]["correct"] for r in plain)
            out["metrics"] = {}
            for name, direction in better.items():
                vals = {s: [by[(s, p)]["metrics"][name]["value"] for p in pairs] for s in SIDES}
                sign = 1 if direction == "lower" else -1
                wins = sum(1 for x, y in zip(vals["parent"], vals["change"])
                           if sign * (y - x) < 0)
                out["metrics"][name] = {"parent": _spread(vals["parent"]),
                                        "change": _spread(vals["change"]),
                                        "change_wins": wins}
        traced = [r for r in mine if r["trace"] == 1]
        if traced:
            out["traced"] = {s: [{"seed": r["seed"], "correct": r["result"]["correct"],
                                  "metrics": {k: v["value"] for k, v in
                                              r["result"]["metrics"].items()}}
                                 for r in traced if r["side"] == s] for s in SIDES}
        entry["workloads"][workload] = out
    if args.extra:
        with open(args.extra) as fh:
            entry["extra"] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--parent", required=True)
    rec.add_argument("--change", required=True)
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seeds", required=True, help="A-B or a comma list")
    rec.add_argument("--runs", required=True)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summ = sub.add_parser("summarize")
    summ.add_argument("--runs", required=True)
    summ.add_argument("--out", required=True)
    summ.add_argument("--extra")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())

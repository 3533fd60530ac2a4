"""Run a fixed list of CLI commands in two checkouts and compare the artifacts.

    python3 tools/artifact_diff.py PARENT_ROOT CHANGE_ROOT [--work DIR]

Each ROOT is a repository root holding ``src/lenspace``.  Every command of
``CASES`` runs in a fresh interpreter with ``PYTHONPATH=<ROOT>/src``, from
the side's own work directory, so that relative paths (and the saved space
and marginal files the later commands read) are the same on both sides.
Each command writes into its own output directory, named after the case.

Every artifact is compared byte for byte.  ``run.json`` is compared as
JSON without ``wall_time_s`` and the ``out_dir`` echo.  JSON values are
compared type for type: ``true`` is not ``1`` and ``1.0`` is not ``1``.  A JSON file that
differs only in its ``space.id`` value is marked as such, and so is one
of the same structure whose every differing float is within 1e-12
relative ("differs by rounding").  One line is
printed per file that is not identical, then a summary.  The exit code is
0 when every file is identical (and every command exits with the same
code on both sides), else 1.  The work directory is a temporary one that
is removed at the end, unless ``--work`` names one to keep.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

SIDES = ("parent", "change")
# a Gamma(1) marginal on torus2d:8:8 (64 points), written by prepare() on
# both sides with the same bytes
TORUS_MARGINAL = "mu_torus8.csv"
# a hand-written ring of 12 points with chords, also written by prepare():
# the chord 0-3 (weight 9) is longer than d(0, 3) = 3.75, so its raw weight
# and its metric length differ, which they never do on generator spaces
CHORDED = "chorded.json"
# a ring and a path of 40 points, also written by prepare(), their points
# numbered in shuffled order, so that neither runs in index order
RING, PATH = "ring40.json", "path40.json"
# the largest relative move of a float that counts as rounding
ROUNDING = 1e-12
# how main() names each verdict but "identical"
SHOWN = {"space.id": "differs only in space.id", "rounding": "differs by rounding"}

# (name, argv); a name is also the case's output directory
CASES = [
    ("gen-circle", ["gen", "--spec", "circle:256:6.2832"]),
    ("gen-gauss", ["gen", "--spec", "gauss:81:1:4"]),
    ("gen-torus", ["gen", "--spec", "torus2d:24:24"]),
    ("gen-path", ["gen", "--spec", "path:64"]),
    ("gen-complete", ["gen", "--spec", "complete:9"]),
    ("gen-torus-file", ["gen", "--spec", "gen-torus/space.json"]),
    ("semigroup-circle1024", ["semigroup", "--space", "circle:1024", "--field", "cos"]),
    ("semigroup-refine", ["semigroup", "--space", "circle:128", "--refinements", "3"]),
    ("semigroup-residual", ["semigroup", "--space", "circle:64", "--field", "random",
                            "--residual-study", "0.3:0.1:4", "--refinements", "1"]),
    ("semigroup-gauss", ["semigroup", "--space", "gauss:41:1:4", "--field", "coordinate",
                         "--refinements", "2", "--seed", "3"]),
    ("constants", ["constants", "--space", "gauss:81:1:4"]),
    ("constants-which", ["constants", "--space", "gauss:81:1:4", "--which", "lsi,poincare"]),
    ("chain", ["chain", "--space", "gauss:81:1:4", "--K", "0.9"]),
    ("transport-gauss", ["transport", "--space", "gauss:81:1:4", "--mu0", "tilt:1",
                         "--mu1", "nu"]),
    ("transport-path", ["transport", "--space", "path:64", "--mu0", "point:0", "--mu1", "nu"]),
    ("transport-circle", ["transport", "--space", "circle:64", "--mu0", "point:0",
                          "--mu1", "nu"]),
    ("transport-identity", ["transport", "--space", "circle:64", "--mu0", "nu",
                            "--mu1", "nu"]),
    ("transport-complete", ["transport", "--space", "complete:9", "--mu0", "point:0",
                            "--mu1", "nu"]),
    ("transport-torus", ["transport", "--space", "torus2d:8:8", "--mu0", TORUS_MARGINAL,
                         "--mu1", "nu"]),
    ("transport-torus-file", ["transport", "--space", "gen-torus/space.json",
                              "--mu0", "point:0", "--mu1", "nu"]),
    ("doubling", ["doubling", "--space", "torus2d:12:12", "--r-min", "0.4", "--r-max", "1.0",
                  "--field", "cos", "--radius", "0.6"]),
    ("plot-psi", ["plot-data", "--report", "chain/chain.json", "--kind", "psi"]),
    ("plot-defect", ["plot-data", "--report", "semigroup-refine/semigroup.json",
                     "--kind", "defect_vs_mesh"]),
    ("constants-chorded", ["constants", "--space", CHORDED, "--which", "lsi,poincare"]),
    ("doubling-chorded", ["doubling", "--space", CHORDED, "--r-min", "0.5", "--r-max", "2.0",
                          "--field", "random", "--radius", "1.0"]),
    # a tilt marginal whose square overflows a float, and a witness family
    # whose tilt:1.0 itself overflows
    ("transport-path711", ["transport", "--space", "path:711", "--mu0", "tilt:1",
                           "--mu1", "nu"]),
    ("constants-path1421", ["constants", "--space", "path:1421", "--which", "poincare",
                            "--budget", "1"]),
    # a tilt marginal whose tilt field itself overflows
    ("transport-path1421", ["transport", "--space", "path:1421", "--mu0", "tilt:1",
                            "--mu1", "nu"]),
    # a chain whose LSI hypothesis is refuted (exit 1), the t and p aliases, and
    # a Talagrand estimate solved by LPs at a given --K
    ("chain-refuted", ["chain", "--space", "gauss:41:1:4", "--K", "1.5",
                       "--trace-fields", "2"]),
    ("constants-alias", ["constants", "--space", "gauss:81:1:4", "--which", "t,p"]),
    ("constants-circle-K", ["constants", "--space", "circle:32", "--which", "talagrand",
                            "--K", "0.5", "--budget", "1"]),
    # a Talagrand estimate at its default budget on a space whose W2 takes LPs
    ("constants-torus-talagrand", ["constants", "--space", "torus2d:6:6",
                                   "--which", "talagrand"]),
    # every form of each colon-spec parser on valid input: a lin: grid, an
    # indexed random field and a residual study; a tilt field; a geo: and a
    # comma-list grid
    ("semigroup-lin-random", ["semigroup", "--space", "circle:64", "--times", "lin:0.1:1:5",
                              "--field", "random:3", "--residual-study", "0.3:0.1:2"]),
    ("semigroup-tilt", ["semigroup", "--space", "gauss:41:1:4", "--field", "tilt:0.5"]),
    ("chain-grids", ["chain", "--space", "gauss:41:1:4", "--K", "0.9", "--trace-fields", "2",
                     "--psi-times", "geo:0.02:1:6", "--phi-times", "0.1,0.5,1"]),
    ("doubling-ring", ["doubling", "--space", RING, "--r-min", "0.5", "--r-max", "3.0",
                       "--field", "random", "--radius", "1.0"]),
    ("doubling-path", ["doubling", "--space", PATH, "--r-min", "0.5", "--r-max", "3.0",
                       "--field", "random", "--radius", "1.0"]),
    ("semigroup-ring", ["semigroup", "--space", RING, "--field", "random"]),
    ("semigroup-path", ["semigroup", "--space", PATH, "--field", "random"]),
    # spaces with one distance row per orbit, read through the row and cell
    # readers: a non-square grid's cells, several whole-grid-row kernel
    # blocks, row-0 metric checks on a non-square grid, a complete graph's
    # ball beyond 16 cells and its kernel in two blocks, and the smallest circle
    ("transport-torus7x9", ["transport", "--space", "torus2d:7:9", "--mu0", "point:0",
                            "--mu1", "nu"]),
    ("semigroup-torus20x24", ["semigroup", "--space", "torus2d:20:24", "--field", "random"]),
    ("doubling-torus9x7", ["doubling", "--space", "torus2d:9:7", "--r-min", "0.5",
                           "--r-max", "2", "--field", "random", "--radius", "0.9"]),
    ("gen-torus9x7", ["gen", "--spec", "torus2d:9:7"]),
    ("transport-complete40", ["transport", "--space", "complete:40", "--mu0", "point:0",
                              "--mu1", "nu"]),
    ("semigroup-complete300", ["semigroup", "--space", "complete:300", "--field", "random"]),
    ("transport-circle3", ["transport", "--space", "circle:3", "--mu0", "point:0",
                           "--mu1", "nu"]),
    # doubling with a local Poincare field on spaces where ball masses summed
    # a block of rows at a time can round differently from the whole product:
    # an orbit circle, a complete graph, a non-square torus, a stored interval
    ("doubling-circle1000", ["doubling", "--space", "circle:1000", "--r-min", "0.01",
                             "--r-max", "1.5", "--field", "cos", "--radius", "0.2"]),
    ("doubling-complete50", ["doubling", "--space", "complete:50", "--r-min", "0.5",
                             "--r-max", "2", "--field", "random", "--radius", "1.0"]),
    ("doubling-torus7x9", ["doubling", "--space", "torus2d:7:9", "--r-min", "0.5",
                           "--r-max", "3", "--field", "random", "--radius", "0.9"]),
    ("doubling-gauss201", ["doubling", "--space", "gauss:201", "--r-min", "0.05",
                           "--r-max", "3", "--field", "coordinate", "--radius", "0.3"]),
]


def prepare(work: str):
    weights = np.random.default_rng(8).gamma(1.0, size=64)
    with open(os.path.join(work, TORUS_MARGINAL), "w") as fh:
        fh.write("index,value\n")
        for i, w in enumerate(weights):
            fh.write(f"{i},{w:.17g}\n")
    ring = [[i, (i + 1) % 12, 1.0 + 0.25 * (i % 3)] for i in range(12)]
    doc = {"n": 12, "edges": ring + [[0, 3, 9.0], [4, 9, 2.5], [2, 7, 4.0]],
           "measure": [1 + i % 4 for i in range(12)]}
    with open(os.path.join(work, CHORDED), "w") as fh:
        json.dump(doc, fh)
    label = np.random.default_rng(9).permutation(40).tolist()
    for name, count in ((RING, 40), (PATH, 39)):
        edges = [[label[i], label[(i + 1) % 40], 0.5 + 0.25 * (i % 3)] for i in range(count)]
        with open(os.path.join(work, name), "w") as fh:
            json.dump({"n": 40, "edges": edges, "measure": [1 + i % 5 for i in range(40)]}, fh)


def run_cases(root: str, work: str) -> dict:
    """Run every case from work with root's package; returns name -> exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    codes = {}
    for name, argv in CASES:
        proc = subprocess.run([sys.executable, "-m", "lenspace.cli", "--out-dir", name, *argv],
                              cwd=work, env=env, capture_output=True, text=True, timeout=600)
        codes[name] = proc.returncode
        if proc.returncode not in (0, 1):
            print(f"{root}: {name} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
    return codes


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _match(x, y, tol: float = 0.0) -> bool:
    """Whether two JSON values have one structure, with every pair of
    floats within tol relative and everything else equal, type for type:
    true is not 1 and 1.0 is not 1."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_match(x[k], y[k], tol) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(_match(a, b, tol) for a, b in zip(x, y))
    if isinstance(x, float) and isinstance(y, float):
        return x == y or abs(x - y) <= tol * max(abs(x), abs(y))
    return type(x) is type(y) and x == y


def compare_file(a: str, b: str) -> str:
    """'identical', 'rounding' (a JSON file whose floats moved by rounding),
    'space.id' (a JSON file that differs only there) or 'differs'."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    if not a.endswith(".json"):
        return "differs"
    da, db = _load(a), _load(b)
    if os.path.basename(a) == "run.json":
        for doc in (da, db):
            doc.pop("wall_time_s", None)
            doc.get("config", {}).pop("out_dir", None)
        if _match(da, db):
            return "identical"
    if not _match(da, db) and _match(da, db, ROUNDING):
        return "rounding"
    for doc in (da, db):
        if isinstance(doc.get("space"), dict):
            doc["space"].pop("id", None)
    return "space.id" if _match(da, db) else "differs"


def compare(parent_work: str, change_work: str) -> dict:
    """Relative path -> verdict, for every artifact on either side."""
    verdicts = {}
    for name, _ in CASES:
        found = set()
        for work in (parent_work, change_work):
            out = os.path.join(work, name)
            if os.path.isdir(out):
                found |= {os.path.join(name, f) for f in os.listdir(out)}
        for rel in sorted(found):
            a, b = os.path.join(parent_work, rel), os.path.join(change_work, rel)
            if not (os.path.exists(a) and os.path.exists(b)):
                verdicts[rel] = "only in " + ("parent" if os.path.exists(a) else "change")
            else:
                verdicts[rel] = compare_file(a, b)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--work", help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="artifact_diff_")
    try:
        codes = {}
        for side, root in zip(SIDES, (args.parent_root, args.change_root)):
            os.makedirs(os.path.join(work, side), exist_ok=True)
            prepare(os.path.join(work, side))
            codes[side] = run_cases(root, os.path.join(work, side))
        verdicts = compare(os.path.join(work, "parent"), os.path.join(work, "change"))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    bad = 0
    for name, _ in CASES:
        if codes["parent"][name] != codes["change"][name]:
            bad += 1
            print(f"{name}: exit code {codes['parent'][name]} -> {codes['change'][name]}")
    for rel, verdict in verdicts.items():
        if verdict != "identical":
            bad += 1
            print(f"{rel}: {SHOWN.get(verdict, verdict)}")
    count = {v: sum(w == v for w in verdicts.values()) for v in ("identical", *SHOWN)}
    print(f"{len(CASES)} commands, {len(verdicts)} files: {count['identical']} identical, "
          f"{count['space.id']} differ only in space.id, {count['rounding']} differ by "
          f"rounding, {len(verdicts) - sum(count.values())} differ otherwise")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

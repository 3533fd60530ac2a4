import argparse
import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_entry", os.path.join(_ROOT, "tools", "bench_entry.py"))
bench_entry = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_entry)
_spec = importlib.util.spec_from_file_location(
    "artifact_diff", os.path.join(_ROOT, "tools", "artifact_diff.py"))
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)

_METRICS = ("job_s", "main_s", "setup_s", "peak_rss_mb")


def _line(side, seed, value, workload="ineq-gauss"):
    # one runs-file line as record writes it
    return {"side": side, "workload": workload, "seed": seed, "trace": 0,
            "position": 0 if side == "parent" else 1,
            "src_lines": 2094 if side == "parent" else 2065,
            "result": {"correct": True,
                       "metrics": {m: {"value": value} for m in _METRICS}}}


def _summarize(tmp_path, lines):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "bench.json"
    bench_entry.summarize(argparse.Namespace(runs=str(runs), out=str(out), extra=None))
    return json.loads(out.read_text())


def _batch(seeds):
    return [_line(side, seed, float(seed) + (0.5 if side == "parent" else 0.0))
            for seed in seeds for side in ("parent", "change")]


def test_two_record_batches_give_every_pair(tmp_path):
    # a second record call into the same runs file used to overwrite the
    # first call's pairs, because both numbered their pairs from 0
    entry = _summarize(tmp_path, _batch(range(41, 47)) + _batch(range(47, 51)))
    out = entry["workloads"]["ineq-gauss"]
    assert out["pairs"] == 10
    assert out["seeds"] == list(range(41, 51))
    job = out["metrics"]["job_s"]
    assert job["parent"]["values"] == [s + 0.5 for s in range(41, 51)]
    assert job["change"]["values"] == [float(s) for s in range(41, 51)]
    assert job["change_wins"] == 10
    assert entry["src_lines"] == {"parent": 2094, "change": 2065}


def test_duplicated_run_line_is_an_error(tmp_path):
    lines = _batch(range(41, 47)) + _batch(range(45, 47))
    with pytest.raises(SystemExit, match="parent ineq-gauss seed 45 trace 0 occurs twice"):
        _summarize(tmp_path, lines)


def test_same_seed_in_another_workload_is_its_own_pair(tmp_path):
    lines = _batch([41]) + [_line(side, 41, 1.0, "semigroup-circle")
                            for side in ("parent", "change")]
    entry = _summarize(tmp_path, lines)
    assert {w: v["pairs"] for w, v in entry["workloads"].items()} == {
        "ineq-gauss": 1, "semigroup-circle": 1}


def test_traced_progress_line_shows_correct_and_layer_counts():
    # a traced result carries no end-to-end metric, so its progress line used
    # to end after the side
    metrics = {"transport.w2_calls": {"value": 4}, "hopflax.apply_ns_per_cell": {"value": 2.75},
               "space.self_s": {"value": 0.1}}
    line = bench_entry._progress("transport-torus", 3, "change", 1,
                                 {"correct": True, "metrics": metrics})
    assert line == ("transport-torus seed 3 change: correct=True "
                    "transport.w2_calls=4 hopflax.apply_ns_per_cell=2.75")
    plain = bench_entry._progress("ineq-gauss", 5, "parent", 0, _line("parent", 5, 1.5)["result"])
    assert plain == ("ineq-gauss seed 5 parent: correct=True "
                     "job_s=1.5 main_s=1.5 setup_s=1.5 peak_rss_mb=1.5")
    assert bench_entry._progress("ineq-gauss", 5, "parent", 1, None) == \
        "ineq-gauss seed 5 parent: correct=False"



_TRANSPORT = {"space": {"id": "0123456789abcdef", "n": 3}, "distance": 0.5,
              "plan": {"rows": [0, 1], "cols": [1, 2], "mass": [0.25, 0.75]},
              "method": "shortlist"}


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("keys, value, verdict", [
    (("distance",), 0.5, "identical"),
    (("distance",), 0.5 * (1 + 3e-13), "rounding"),
    (("plan", "mass", 1), 0.75 * (1 - 1e-12), "rounding"),
    (("distance",), 0.5 * (1 + 2e-12), "differs"),
    (("space", "id"), "fedcba9876543210", "space.id"),
    (("plan", "rows", 1), 2, "differs"),  # another cell, not a rounding
    (("plan", "mass"), [0.25, 0.5, 0.25], "differs"),  # another structure
    (("method",), "dense", "differs"),
])
def test_artifact_diff_tells_rounding_from_other_moves(tmp_path, keys, value, verdict):
    doc = json.loads(json.dumps(_TRANSPORT))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    parent = _write(tmp_path / "parent.json", _TRANSPORT)
    assert artifact_diff.compare_file(parent, _write(tmp_path / "change.json", doc)) == verdict


@pytest.mark.parametrize("name", ["report.json", "run.json"])
@pytest.mark.parametrize("key, value", [("ok", 1), ("ok", 1.0), ("x", 1), ("x", True),
                                        ("count", 3.0)])
def test_artifact_diff_compares_json_types_strictly(tmp_path, name, key, value):
    # Python's True == 1 == 1.0: neither the identical verdict (run.json) nor
    # the space.id one may take a bool or an int for another type
    doc = {"space": {"id": "0123456789abcdef"}, "ok": True, "x": 1.0, "count": 3}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    parent = _write(tmp_path / "a" / name, doc)
    for space_id in ("0123456789abcdef", "fedcba9876543210"):
        change = dict(doc, space={"id": space_id}, **{key: value})
        assert artifact_diff.compare_file(parent, _write(tmp_path / "b" / name, change)) == \
            "differs"


def test_artifact_diff_rounding_needs_the_same_space_id(tmp_path):
    doc = dict(_TRANSPORT, space={"id": "fedcba9876543210", "n": 3}, distance=0.5 * (1 + 1e-13))
    parent = _write(tmp_path / "parent.json", _TRANSPORT)
    assert artifact_diff.compare_file(parent, _write(tmp_path / "change.json", doc)) == "differs"

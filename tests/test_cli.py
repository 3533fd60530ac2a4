import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lenspace import generate, load_space, parse_space_spec
from lenspace.cli import _build_parser, main
from conftest import kernel_scales, scales_of


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_spec_form(tmp_path):
    code = main(["--out-dir", str(tmp_path), "gen", "--spec", "circle:32"])
    assert code == 0
    doc = _read(tmp_path / "space.json")
    assert doc["kind"] == "circle"
    assert doc["n"] == 32
    assert len(doc["measure"]) == 32
    manifest = _read(tmp_path / "run.json")
    assert manifest["command"] == "gen"
    assert manifest["exit_code"] == 0
    assert "space.json" in manifest["artifacts"]
    space = load_space(str(tmp_path / "space.json"))
    assert space.n == 32


def test_manifest_seed_only_in_config_of_seeded_commands(tmp_path):
    # gen takes no seed, so its manifest names none; semigroup's config does
    assert main(["--out-dir", str(tmp_path / "gen"), "gen", "--spec", "circle:16"]) == 0
    manifest = _read(tmp_path / "gen" / "run.json")
    assert "seed" not in manifest and "seed" not in manifest["config"]
    assert main(["--out-dir", str(tmp_path / "sg"), "semigroup", "--space", "circle:16",
                 "--times", "0.5", "--seed", "4"]) == 0
    manifest = _read(tmp_path / "sg" / "run.json")
    assert "seed" not in manifest and manifest["config"]["seed"] == 4


def test_gen_out_dir_after_subcommand(tmp_path):
    assert main(["gen", "--spec", "circle:16", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "space.json").exists()


def test_manifest_config_lists_the_command_flags(tmp_path):
    assert main(["--out-dir", str(tmp_path), "gen", "--spec", "circle:16"]) == 0
    assert _read(tmp_path / "run.json")["config"] == {
        "command": "gen", "out_dir": str(tmp_path), "spec": "circle:16",
        "out": "space.json"}


@pytest.mark.parametrize("spec, words", [
    ("path:64:2.0", "path takes fields n (1 required), got 2"),
    ("circle:16:6.28:junk", "circle takes fields n:length (1 required), got 3"),
    ("torus2d:4", "torus2d takes fields n:m:side_x:side_y (2 required), got 1"),
    ("circle:16:inf", "length must be finite"),
    ("gauss:11:nan:4", "sigma must be finite"),
], ids=["path-extra", "circle-extra", "torus-missing", "circle-inf", "gauss-nan"])
def test_strict_space_spec_exit2(tmp_path, capsys, spec, words):
    # each of these used to be accepted or to fail with a misleading message
    for argv in (["gen", "--spec", spec], ["semigroup", "--space", spec]):
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        assert capsys.readouterr().err == f"error: bad space spec {spec!r}: {words}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec, line", [
    ("circle:8:-1", "circle length must be positive, got -1.0"),
    ("torus2d:4:4:-1", "torus side lengths must be positive"),
])
def test_nonpositive_space_length_exit2(tmp_path, capsys, spec, line):
    assert main(["--out-dir", str(tmp_path), "gen", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


def test_space_file_holding_a_list_exit2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "gen", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == f"error: space file {path} must hold a JSON object\n"
    assert not list(out.iterdir())


def test_gen_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["--out-dir", str(d), "gen", "--spec",
                     "gaussian_interval:33:1:4"]) == 0
    assert (a / "space.json").read_bytes() == (b / "space.json").read_bytes()


def test_gen_bad_spec_exit2(tmp_path):
    assert main(["--out-dir", str(tmp_path), "gen", "--spec", "klein:7"]) == 2


def test_saved_space_usable_as_space_argument(tmp_path):
    assert main(["--out-dir", str(tmp_path), "gen", "--spec", "circle:32"]) == 0
    code = main(["--out-dir", str(tmp_path), "semigroup",
                 "--space", str(tmp_path / "space.json"),
                 "--field", "cos", "--times", "0.5"])
    assert code == 0


_GOOD_FILE = {"n": 2, "edges": [[0, 1, 1.0]], "measure": [0.5, 0.5]}


@pytest.mark.parametrize("change, words", [
    ({"n": True}, "bad n=True"),
    ({"measure": {"a": 1}}, "measure must be a list"),
    ({"edges": 5}, "edges must be a list"),
    ({"params": [1]}, "params must be a dict"),
    ({"kind": 5}, "kind must be a str"),
    ({"edges": [[0, 1, None]]}, "each edge must be [i, j, length]"),
    ({"edges": [[0.7, 1, 1.0]]}, "each edge must be [i, j, length]"),
    ({"edges": [[0, 1, True]]}, "each edge must be [i, j, length]"),
    ({"measure": [{}, 1]}, "measure must hold numbers only"),
    ({"coords": [{}, {}]}, "coords must hold numbers or lists of numbers"),
], ids=["n-bool", "measure-object", "edges-int", "params-list",
        "kind-int", "length-null", "index-float", "length-bool", "measure-entry",
        "coords-entry"])
def test_malformed_space_file_exit2(tmp_path, capsys, change, words):
    # each of these used to crash with a traceback and exit 1, or to load
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(_GOOD_FILE, **change)))
    out = tmp_path / "out"
    for argv in (["gen", "--spec", str(path)], ["semigroup", "--space", str(path)]):
        assert main(["--out-dir", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert words in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_field_csv_with_repeated_index_exit2(tmp_path, capsys):
    # this used to exit 0, evolving the repeated index's last value
    path = tmp_path / "f.csv"
    path.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n0,5.0\n")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "semigroup", "--space", "path:3",
                 "--field", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: field file {path}: index 0 repeated\n"
    assert not out.exists() or not list(out.iterdir())


def test_field_csv_with_nan_value_exit2(tmp_path, capsys):
    # this used to report the nan row's point as missing
    path = tmp_path / "f.csv"
    path.write_text("index,value\n0,nan\n1,2.0\n2,3.0\n")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "semigroup", "--space", "path:3",
                 "--field", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: field values must be finite\n"
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("doc, words", [
    (dict(_GOOD_FILE, kind="circle", coords=[0.0, 1.0]), "params.length, got None"),
    (dict(_GOOD_FILE, kind="circle", coords=[0.0, 1.0], params={"length": -2.0}),
     "params.length, got -2.0"),
    (dict(_GOOD_FILE, kind="torus2d", coords=[[0.0, 0.0], [1.0, 0.0]],
          params={"side_x": "a"}), "params.side_x, got 'a'"),
    (dict(_GOOD_FILE, kind="torus2d", params={"side_x": 2.0}), "needs coords"),
], ids=["circle-no-params", "circle-negative", "torus-string", "torus-no-coords"])
def test_cos_field_without_usable_params_exit2(tmp_path, capsys, doc, words):
    # each of these used to crash in the cos field with a traceback and exit 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "semigroup", "--space", str(path),
                 "--field", "cos"]) == 2
    err = capsys.readouterr().err
    assert words in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_semigroup_report_and_residual_rows(tmp_path):
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:64",
                 "--field", "cos", "--times", "geo:0.1:1:4"])
    assert code == 0
    doc = _read(tmp_path / "semigroup.json")
    assert doc["checks"]["lipschitz_bound_failures"] == []
    assert len(doc["trace"]["times"]) == 4
    assert len(doc["residual_vs_s"]) == 3
    assert (tmp_path / "semigroup_source.csv").exists()


def test_semigroup_defect_study_decreases(tmp_path):
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:32",
                 "--field", "cos", "--times", "0.5", "--refinements", "2"])
    assert code == 0
    rows = _read(tmp_path / "semigroup.json")["defect_vs_mesh"]
    assert len(rows) == 3
    meshes = [r[0] for r in rows]
    defects = [r[1] for r in rows]
    assert meshes[0] > meshes[1] > meshes[2]
    assert defects[0] > defects[1] > defects[2] >= 0


def test_plot_data_from_semigroup(tmp_path):
    main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:32",
          "--field", "cos", "--times", "0.5", "--refinements", "1"])
    for kind, header in (("residual_vs_s", "s,mean_abs_residual"),
                         ("defect_vs_mesh", "mesh_h,defect")):
        out = tmp_path / f"{kind}.csv"
        code = main(["--out-dir", str(tmp_path), "plot-data",
                     "--report", str(tmp_path / "semigroup.json"),
                     "--kind", kind, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == header
        assert len(lines) >= 2


def test_constants_artifacts_and_estimates(tmp_path):
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--budget", "2", "--seed", "1"])
    assert code == 0
    doc = _read(tmp_path / "constants.json")
    assert set(doc["K_estimates"]) == {"lsi", "talagrand", "poincare"}
    assert all(v > 0 for v in doc["K_estimates"].values())
    assert doc["checks"]["reproducibility_failures"] == []
    for name in ("lsi", "talagrand", "poincare"):
        assert (tmp_path / f"witness_{name}.csv").exists()
    assert "verdict" not in doc or doc["chain_verdict"]


def test_constants_which_subset(tmp_path):
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "poincare", "--budget", "1"])
    assert code == 0
    assert (tmp_path / "witness_poincare.csv").exists()
    assert not (tmp_path / "witness_lsi.csv").exists()


def test_constants_which_alias(tmp_path):
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "t", "--budget", "1"])
    assert code == 0
    doc = _read(tmp_path / "constants.json")
    assert [w["which"] for w in doc["witnesses"]] == ["talagrand"]
    assert (tmp_path / "witness_talagrand.csv").exists()


@pytest.mark.parametrize("which, names", [
    ("lsi,lsi", ["lsi"]), ("t,talagrand", ["talagrand"]),
    ("poincare,lsi,p", ["poincare", "lsi"])])
def test_constants_which_repeats_listed_once(tmp_path, which, names):
    # a repeated name used to be estimated, listed and written once per mention
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:8",
                 "--which", which, "--budget", "1"])
    assert code == 0
    assert [w["which"] for w in _read(tmp_path / "constants.json")["witnesses"]] == names
    assert _read(tmp_path / "run.json")["artifacts"] == ["constants.json"] + [
        f"witness_{name}.csv" for name in names]


def test_constants_unknown_which_exit2(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "lsi,foo"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown inequality 'foo'" in err
    assert len(err.strip().splitlines()) == 1


def test_constants_chain_runs_at_estimated_lsi(tmp_path, monkeypatch):
    import lenspace.cli
    asked = []
    real = lenspace.cli.estimate_constant
    monkeypatch.setattr(lenspace.cli, "estimate_constant",
                        lambda space, which, **kw: asked.append(which) or
                        real(space, which, **kw))
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "poincare", "--budget", "1"])
    assert code == 0
    doc = _read(tmp_path / "constants.json")
    # without --K the chain needs the LSI estimate; Talagrand is never estimated
    assert sorted(asked) == ["lsi", "poincare"]
    assert set(doc["K_estimates"]) == {"lsi", "poincare"}
    assert [w["which"] for w in doc["witnesses"]] == ["poincare"]
    assert doc["tolerances"] == {"tau": 0.05, "ratio_reproducibility": 1e-9}
    K = doc["K_estimates"]["lsi"]
    assert K > 0
    lsi_checks = [c for c in doc["chain"] if c["stage"] == "lsi"]
    assert lsi_checks and all(c["threshold"] == K * (1 - 0.05) for c in lsi_checks)

    asked.clear()
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "poincare", "--budget", "1", "--K", "0.001"])
    assert code == 0
    doc = _read(tmp_path / "constants.json")
    assert asked == ["poincare"]
    assert set(doc["K_estimates"]) == {"poincare"}
    assert all(c["threshold"] == 0.001 * (1 - 0.05)
               for c in doc["chain"] if c["stage"] == "lsi")


_CHAIN8 = ["chain", "--space", "path:8", "--K", "0.001", "--trace-fields", "1"]


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("argv, words", [
    (["chain", "--space", "path:8", "--K", "nan"], "K must be positive"),
    (["chain", "--space", "path:8", "--K", "inf"], "K must be positive"),
    (["constants", "--space", "path:8", "--K", "nan", "--budget", "1"],
     "K must be positive"),
    (["chain", "--space", "path:8", "--K", "0.001", "--trace-fields", "0"],
     "--trace-fields must be >= 1"),
    (["chain", "--space", "path:8", "--K", "0.001", "--trace-fields", "-1"],
     "--trace-fields must be >= 1"),
    (["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "1",
      "--field", "cos", "--radius", "0.5", "--dilation", "nan"], "dilation must be >= 1"),
    (["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "inf"],
     "r_max < inf"),
    (_CHAIN8 + ["--psi-tol", "nan"], "--psi-tol must be finite and >= 0"),
    (_CHAIN8 + ["--phi-tol", "inf"], "--phi-tol must be finite and >= 0"),
    (_CHAIN8 + ["--phi-tol", "-1"], "--phi-tol must be finite and >= 0"),
], ids=["chain-K-nan", "chain-K-inf", "constants-K-nan", "trace-fields-0",
        "trace-fields-negative", "dilation-nan", "r-max-inf", "psi-tol-nan",
        "phi-tol-inf", "phi-tol-negative"])
def test_nonfinite_inputs_exit2(tmp_path, capsys, argv, words):
    # each of these used to exit 0 or 1, some writing NaN or Infinity tokens
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert words in err
    assert len(err.strip().splitlines()) == 1
    assert not any(p.suffix == ".json" for p in tmp_path.iterdir())


_SEMI8 = ["semigroup", "--space", "circle:8", "--times", "0.5"]


@pytest.mark.parametrize("argv, words", [
    (_SEMI8 + ["--refinements", "-3"], "--refinements must be >= 0, got -3"),
    (_CHAIN8 + ["--n-random", "-5"], "n_random must be >= 0, got -5"),
    (_SEMI8 + ["--defect-t", "-1"], "--defect-t must be positive and finite"),
    (_SEMI8 + ["--defect-s", "nan"], "--defect-s must be positive and finite"),
    (_SEMI8 + ["--defect-t", "inf", "--refinements", "1"],
     "--defect-t must be positive and finite"),
], ids=["refinements-negative", "n-random-negative", "defect-t-negative",
        "defect-s-nan", "defect-t-inf"])
def test_bad_counts_and_defect_times_exit2(tmp_path, capsys, argv, words):
    # each of these used to exit 0: a negative count ran as zero, and the
    # defect times went unread without refinements
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert words in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["semigroup", "--space", "circle:16", "--field", "cos"],
    ["constants", "--space", "circle:8"],
    ["chain", "--space", "circle:8", "--K", "0.5"],
    ["doubling", "--space", "circle:8", "--r-min", "0.1", "--r-max", "1", "--field", "random"],
], ids=lambda a: a[0])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_negative_seed_exit2_one_line(tmp_path, capsys, argv, seed):
    # constants, chain and doubling used to exit 2 with numpy's message, which
    # names no flag; semigroup with a cos field used to exit 0
    assert main(["--out-dir", str(tmp_path)] + argv + ["--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"error: argument --seed: must be a non-negative integer, got {seed}\n"
    assert not list(tmp_path.iterdir())


def test_transport_has_no_seed_flag(tmp_path, capsys):
    # transport reads no randomness, so it takes no --seed
    assert main(["--out-dir", str(tmp_path), "transport", "--space", "path:8",
                 "--mu0", "nu", "--mu1", "nu", "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_huge_K_refutes_with_strict_json(tmp_path):
    # psi overflows to inf; the artifact writes it as null, not Infinity
    argv = ["--out-dir", str(tmp_path), "chain", "--space", "path:8", "--K", "1e308",
            "--trace-fields", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv) == 1
    doc = _strict_json(tmp_path / "chain.json")
    assert doc["hypothesis_refuted"] is True
    assert None in [row[1] for row in doc["traces"]["psi"]["rows"]]
    assert main(["--out-dir", str(tmp_path), "plot-data", "--report",
                 str(tmp_path / "chain.json"), "--kind", "psi"]) == 0
    cells = [line.split(",")[1] for line in
             (tmp_path / "plot.csv").read_text().splitlines()[1:]]
    assert "nan" in cells and "None" not in cells


def test_readme_cli_block_parses():
    # every documented command line parses, and its space spec too
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().replace("\\\n", " ")
    lines = [shlex.split(line) for line in text.splitlines()
             if line.startswith("lenspace ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for words in lines:
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(words)}")
        for flag in ("space", "spec"):
            if hasattr(args, flag):
                parse_space_spec(getattr(args, flag))


def test_defect_ladder_starts_from_the_built_space(tmp_path, monkeypatch):
    # level 0 of the defect study is the space the command already built
    import lenspace.cli
    built = []
    real = lenspace.cli.generate
    monkeypatch.setattr(lenspace.cli, "generate",
                        lambda spec: built.append(spec.n) or real(spec))
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:32",
                 "--times", "0.5", "--refinements", "2"])
    assert code == 0
    assert built == [32, 64, 128]
    rows = _read(tmp_path / "semigroup.json")["defect_vs_mesh"]
    assert [h for h, _ in rows] == pytest.approx([2 * math.pi / n for n in built])


def test_default_residual_study_reuses_the_trace_field(tmp_path):
    # Q_{t0} f is the trace's middle field; only each Q_{t0+s} f is new, and
    # the levels take one kernel pass after the trace's
    with kernel_scales() as calls:
        code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:32",
                     "--field", "cos", "--times", "0.2,0.4,0.8"])
    assert code == 0
    assert calls == [scales_of([0.2, 0.4, 0.8, 0.8 + 0.4]),
                     scales_of([0.4 + 0.2 / 2 ** j for j in range(3)])]


def test_residual_study_computes_base_field_once(tmp_path):
    from lenspace import apply
    from lenspace.fields import cosine_field
    from lenspace.hopflax import _residual
    with kernel_scales() as calls:
        code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:32",
                     "--field", "cos", "--times", "0.5", "--residual-study", "0.3:0.1:4"])
    assert code == 0
    # the trace's pass, then one pass for Q_{t0} f and every Q_{t0+s} f
    assert calls == [scales_of([0.5, 0.75]),
                     scales_of([0.3] + [0.3 + 0.1 / 2 ** j for j in range(4)])]
    space = generate(parse_space_spec("circle:32"))
    f = cosine_field(space)
    rows = _read(tmp_path / "semigroup.json")["residual_vs_s"]
    for j, (s, mean_abs) in enumerate(rows):
        step = 0.1 / 2 ** j
        r = _residual(space, apply(space, f, 0.3), apply(space, f, 0.3 + step), step)
        assert s == step
        assert mean_abs == float(np.abs(r.values) @ space.measure)


def test_chain_consistent_exit0(tmp_path):
    code = main(["--out-dir", str(tmp_path), "chain", "--space", "path:16",
                 "--K", "0.001", "--tau", "0.05", "--seed", "7",
                 "--trace-fields", "2"])
    assert code == 0
    doc = _read(tmp_path / "chain.json")
    assert doc["consistent"] is True
    assert doc["hypothesis_refuted"] is False
    assert "consistent" in doc["verdict"]
    stages = {c["stage"] for c in doc["chain"]}
    assert stages == {"lsi", "talagrand", "poincare"}
    assert doc["traces"]["psi"]["max_excess"] <= 0.02
    assert doc["traces"]["phi"]["max_upward_step"] <= 0.01


def test_chain_refuted_exit1(tmp_path):
    code = main(["--out-dir", str(tmp_path), "chain", "--space", "path:16",
                 "--K", "1000", "--trace-fields", "1"])
    assert code == 1
    doc = _read(tmp_path / "chain.json")
    assert doc["hypothesis_refuted"] is True
    assert "fails on this space" in doc["verdict"]


def test_chain_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["--out-dir", str(d), "chain", "--space", "path:12",
                     "--K", "0.001", "--seed", "3", "--trace-fields", "2"]) == 0
    assert (a / "chain.json").read_bytes() == (b / "chain.json").read_bytes()


def test_chain_plot_kinds(tmp_path):
    main(["--out-dir", str(tmp_path), "chain", "--space", "path:12",
          "--K", "0.001", "--trace-fields", "2"])
    for kind in ("psi", "phi"):
        out = tmp_path / f"{kind}.csv"
        code = main(["--out-dir", str(tmp_path), "plot-data",
                     "--report", str(tmp_path / "chain.json"),
                     "--kind", kind, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == f"t,{kind},series"
        assert len(lines) == 1 + 2 * 12


def test_plot_data_missing_trace_exit2(tmp_path, capsys):
    main(["--out-dir", str(tmp_path), "chain", "--space", "path:12",
          "--K", "0.001", "--trace-fields", "1"])
    code = main(["--out-dir", str(tmp_path), "plot-data",
                 "--report", str(tmp_path / "chain.json"),
                 "--kind", "residual_vs_s"])
    assert code == 2


def test_plot_data_missing_file_exit2(tmp_path):
    code = main(["--out-dir", str(tmp_path), "plot-data",
                 "--report", str(tmp_path / "nope.json"), "--kind", "psi"])
    assert code == 2


def test_transport_point_masses(tmp_path):
    code = main(["--out-dir", str(tmp_path), "transport", "--space", "path:8",
                 "--mu0", "point:0", "--mu1", "point:7"])
    assert code == 0
    doc = _read(tmp_path / "transport.json")
    assert doc["distance"] == pytest.approx(doc["space"]["diameter"], rel=1e-12)
    assert doc["coupling"] == [[0, 7, pytest.approx(1.0)]]
    assert doc["duality_gap"] <= 1e-9 * (1 + doc["cost"])


def test_transport_identical_marginals_zero(tmp_path):
    code = main(["--out-dir", str(tmp_path), "transport", "--space", "circle:16",
                 "--mu0", "nu", "--mu1", "nu"])
    assert code == 0
    assert _read(tmp_path / "transport.json")["distance"] == 0.0


def test_transport_uniform_to_nu(tmp_path):
    # the uniform marginal against the space's own measure, which is not
    # uniform on a Gaussian interval: the coupling's sums are the two
    code = main(["--out-dir", str(tmp_path), "transport", "--space", "gauss:21:1:4",
                 "--mu0", "uniform", "--mu1", "nu"])
    assert code == 0
    doc = _read(tmp_path / "transport.json")
    assert (doc["mu0"], doc["mu1"]) == ("uniform", "nu")
    space = generate(parse_space_spec("gauss:21:1:4"))
    rows, cols, mass = np.array(doc["coupling"]).T
    assert np.abs(np.bincount(rows.astype(int), mass, 21) - 1.0 / 21).max() <= 1e-9
    assert np.abs(np.bincount(cols.astype(int), mass, 21) - space.measure).max() <= 1e-9
    assert doc["distance"] > 0.0


def test_transport_lp_failure_exit2(tmp_path, capsys, monkeypatch):
    # an LP that always fails, even over all n^2 cells, is an error: exit 2,
    # one stderr line, no report
    from lenspace import transport
    monkeypatch.setattr(transport._TransportLP, "solve", lambda *args: (
        "Numerical difficulties encountered.", None, None, None))
    code = main(["--out-dir", str(tmp_path), "transport", "--space", "circle:16",
                 "--mu0", "point:0", "--mu1", "nu"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: transport LP on all n^2 cells failed: "
                   "Numerical difficulties encountered.\n")
    assert not (tmp_path / "transport.json").exists()


def test_transport_bad_point_exit2(tmp_path):
    assert main(["--out-dir", str(tmp_path), "transport", "--space", "path:8",
                 "--mu0", "point:99", "--mu1", "nu"]) == 2


def test_transport_unknown_marginal_exit2(tmp_path):
    assert main(["--out-dir", str(tmp_path), "transport", "--space", "path:8",
                 "--mu0", "blob", "--mu1", "nu"]) == 2


def test_tilt_marginal_on_long_path_matches_quantile_oracle(tmp_path):
    # the normalized density never overflows, though e^(x / 2) squared does
    # at x = 710 (the marginal was non-finite, with two warnings) and e^(x / 2)
    # itself at x = 1420 (the tilt field was refused)
    from oracles import w2_oracle_1d
    for spec in ("path:711", "path:1421"):
        out = tmp_path / spec.replace(":", "")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--out-dir", str(out), "transport", "--space", spec,
                         "--mu0", "tilt:1", "--mu1", "nu"])
        assert code == 0
        space = generate(parse_space_spec(spec))
        x = space.coords[:, 0]
        mu0 = np.exp(x - x.max()) * space.measure
        expected = w2_oracle_1d(x, mu0 / mu0.sum(), space.measure)
        assert abs(_read(out / "transport.json")["distance"] - expected) <= 1e-8


def test_witness_family_leaves_out_an_overflowing_tilt(tmp_path):
    # tilt:1.0 reaches e^710 = inf on path:1421; the command used to exit 2
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:1421",
                 "--which", "poincare", "--budget", "1"])
    assert code == 0
    labels = [lab for lab, _ in _read(tmp_path / "constants.json")["witnesses"][0]
              ["evaluations"]]
    assert "tilt:0.75" in labels and "tilt:1.0" not in labels


def _run_cli(out, *argv):
    # a fresh interpreter, so that stderr holds every warning and traceback
    import lenspace
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lenspace.__file__)))
    return subprocess.run([sys.executable, "-m", "lenspace.cli", "--out-dir", str(out), *argv],
                          env=env, capture_output=True, text=True)


def test_overflowing_tilt_field_exit2_one_line():
    # the overflow is an input error with its one-line message, no warning;
    # so is a tilt marginal whose exponent alpha x itself overflows
    with tempfile.TemporaryDirectory() as out:
        proc = _run_cli(out, "semigroup", "--space", "path:1421", "--field", "tilt:1")
        marginal = _run_cli(out, "transport", "--space", "path:8", "--mu0", "tilt:1e308",
                            "--mu1", "nu")
    assert proc.returncode == 2
    assert proc.stderr == "error: field values must be finite\n"
    assert marginal.returncode == 2
    assert marginal.stderr == "error: mu0 has non-finite entries\n"


def test_overflowing_convergence_bound_is_null(tmp_path):
    # t_min Lip(f)^2 / 2 overflows though f is finite; it used to raise
    # OverflowError, a traceback and exit 1
    proc = _run_cli(tmp_path, "semigroup", "--space", "path:1000", "--field", "tilt:1.4")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert _read(tmp_path / "semigroup.json")["trace"]["convergence_bound"] is None


def _evolve_then(change):
    """hopflax._evolve with change applied to the rows it returns."""
    from lenspace import hopflax
    real = hopflax._evolve
    return lambda space, vals, times: change(real(space, vals, times))


@pytest.mark.parametrize("change, line", [
    (lambda rows: rows + 1.0, "evolution left the [min f, max f] band"),
    # Q_t f in the band at every t, but the latest time's field first
    (lambda rows: rows[::-1], "evolution is not monotone in t"),
], ids=["band", "monotone"])
def test_semigroup_invariant_violation_exit1(tmp_path, capsys, monkeypatch, change, line):
    from lenspace import hopflax
    monkeypatch.setattr(hopflax, "_evolve", _evolve_then(change))
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                 "--times", "0.1,0.5"])
    assert code == 1
    assert capsys.readouterr().err == f"invariant violated: {line}\n"
    assert not list(tmp_path.iterdir())


def test_semigroup_lipschitz_bound_failure_exit1(tmp_path, monkeypatch):
    # a slope above diam/t at every time is a failed check, listed per time
    from lenspace import hopflax
    monkeypatch.setattr(hopflax, "lipschitz_constant", lambda space, f: 100.0)
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                 "--times", "0.5,2"])
    assert code == 1
    diameter = generate(parse_space_spec("circle:16")).diameter
    assert _read(tmp_path / "semigroup.json")["checks"]["lipschitz_bound_failures"] == [
        f"Lip(Q_t f) = 100.0 above diam/t = {diameter / t} at t = {t}" for t in (0.5, 2.0)]
    assert _read(tmp_path / "run.json")["exit_code"] == 1


def test_constants_recomputes_witness_ratio_from_saved_csv(tmp_path, monkeypatch):
    # a witness CSV that does not hold the witness is a failed check
    import lenspace.cli
    from lenspace.space import ScalarField
    real = lenspace.cli.save_field_csv

    def corrupt(f, path):
        vals = f.values.copy()
        vals[0] += 1.0 + abs(vals[0])
        real(ScalarField(values=vals, space_id=f.space_id), path)

    monkeypatch.setattr(lenspace.cli, "save_field_csv", corrupt)
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "path:16",
                 "--which", "lsi,poincare", "--budget", "1"])
    assert code == 1
    failures = _read(tmp_path / "constants.json")["checks"]["reproducibility_failures"]
    assert [f.split()[0] for f in failures] == ["lsi", "poincare"]


def test_degenerate_reloaded_witness_is_a_reproducibility_failure(tmp_path, monkeypatch):
    # a constant witness CSV informs no lsi ratio: a failed check (exit 1),
    # where it used to escape as an input error (exit 2)
    import lenspace.cli
    from lenspace.space import ScalarField
    real = lenspace.cli.save_field_csv
    monkeypatch.setattr(lenspace.cli, "save_field_csv", lambda f, path: real(
        ScalarField(values=np.ones_like(f.values), space_id=f.space_id), path))
    code = main(["--out-dir", str(tmp_path), "constants", "--space", "gauss:21:1:4",
                 "--which", "lsi", "--budget", "1"])
    assert code == 1
    failures = _read(tmp_path / "constants.json")["checks"]["reproducibility_failures"]
    assert len(failures) == 1
    assert failures[0].startswith("lsi witness ratio ") and failures[0].endswith("(None)")


def test_every_ratio_is_looked_up_in_the_registry_at_call_time(tmp_path, monkeypatch):
    # a tracer counts ratio calls by rebinding the registry's values: every
    # evaluation must go through them, none through a module-level name
    import lenspace.cli
    from lenspace import inequalities
    calls = dict.fromkeys(inequalities._RATIOS, 0)
    for name, fn in list(inequalities._RATIOS.items()):
        def counted(space, f, name=name, fn=fn):
            calls[name] += 1
            return fn(space, f)
        monkeypatch.setitem(inequalities._RATIOS, name, counted)

    def stale(space, f):
        raise AssertionError("ratio called by its module-level name")
    for module in (lenspace.cli, inequalities):
        for attr in ("lsi_ratio", "talagrand_ratio", "poincare_ratio"):
            monkeypatch.setattr(module, attr, stale, raising=False)

    budget = 2
    code = main(["--out-dir", str(tmp_path / "c"), "constants", "--space", "gauss:9:1:4",
                 "--budget", str(budget)])
    assert code == 0
    doc = _read(tmp_path / "c" / "constants.json")
    assert [w["which"] for w in doc["witnesses"]] == list(calls)
    for w in doc["witnesses"]:
        name, evaluations = w["which"], w["evaluations"]
        refined = sum(r is not None for _, r in evaluations)
        # the family once, budget proposals per informative witness and the
        # reloaded witness once; a chain stage reuses the family's scores
        assert calls[name] == len(evaluations) + budget * refined + 1
    assert sum(c["stage"] == "lsi" for c in doc["chain"]) > 0

    calls.update(dict.fromkeys(calls, 0))
    code = main(["--out-dir", str(tmp_path / "k"), "chain", "--space", "gauss:9:1:4",
                 "--K", "0.1", "--trace-fields", "1"])
    assert code == 0
    chain = _read(tmp_path / "k" / "chain.json")["chain"]
    assert calls == {name: sum(c["stage"] == name for c in chain) for name in calls}
    assert all(calls.values())


def test_doubling_circle(tmp_path):
    code = main(["--out-dir", str(tmp_path), "doubling", "--space", "circle:64",
                 "--r-min", "0.4", "--r-max", "1.0"])
    assert code == 0
    doc = _read(tmp_path / "doubling.json")
    assert 1.5 <= doc["doubling_constant"] <= 2.5
    assert doc["metric_check"]["passed"] is True
    assert doc["local_poincare"] is None


def test_doubling_reports_exact_torus_midpoint_defect(tmp_path):
    code = main(["--out-dir", str(tmp_path), "doubling", "--space", "torus2d:8:8",
                 "--r-min", "0.8", "--r-max", "2.0"])
    assert code == 0
    space = _read(tmp_path / "doubling.json")["space"]
    # on an equal-sided grid the worst midpoint is between neighbours: h / 2
    h = 2 * math.pi / 8
    assert abs(space["midpoint_defect"] - h / 2) <= 1e-12
    assert space["mesh_h"] == pytest.approx(h, rel=1e-12)


_NO_DEFECT_RUNS = [
    ["gen", "--spec", "circle:16"],
    ["semigroup", "--space", "circle:16", "--field", "cos", "--times", "0.5",
     "--refinements", "2"],
    ["transport", "--space", "circle:8", "--mu0", "point:0", "--mu1", "nu"],
    ["constants", "--space", "path:8", "--budget", "1"],
    ["chain", "--space", "path:8", "--K", "0.001", "--trace-fields", "1"],
]


@pytest.mark.parametrize("argv", _NO_DEFECT_RUNS, ids=lambda a: a[0])
def test_commands_never_compute_midpoint_defect(tmp_path, monkeypatch, argv):
    import lenspace.space

    def refuse(*args):
        raise AssertionError("midpoint defect computed")

    monkeypatch.setattr(lenspace.space, "_max_midpoint_defect", refuse)
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    for name in ("semigroup.json", "transport.json", "constants.json", "chain.json"):
        if (tmp_path / name).exists():
            assert "midpoint_defect" not in _read(tmp_path / name)["space"]


def test_cli_import_skips_scipy_optimize():
    # importing the package loads no scipy module at all: the transport LP
    # loads only HiGHS's extension module, at its first solve, logsumexp is
    # ported to numpy, the metric is the package's own shortest-path search
    # and the eigenfields use numpy's eigh
    import lenspace
    src = os.path.dirname(os.path.dirname(lenspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lenspace.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# one command of each shape the benchmark runs, on small spaces
_SHAPES = [
    ["constants", "--space", "gauss:21:1:4", "--budget", "1"],
    ["chain", "--space", "gauss:21:1:4", "--K", "0.5", "--trace-fields", "1"],
    ["transport", "--space", "torus2d:6:6", "--mu0", "point:0", "--mu1", "nu"],
    ["semigroup", "--space", "circle:32", "--refinements", "1"],
    ["gen", "--spec", "torus2d:6:6"],
    ["doubling", "--space", "torus2d:6:6", "--r-min", "0.5", "--r-max", "1",
     "--field", "random", "--radius", "0.7"],
]


@pytest.mark.parametrize("argv", _SHAPES, ids=lambda a: a[0])
def test_main_imports_only_highs_and_locale(tmp_path, argv):
    # a module first imported inside main() is timed as the command's work:
    # the only ones are HiGHS's extension (at the first LP) and the locale
    # module argparse reads
    import lenspace
    src = os.path.dirname(os.path.dirname(lenspace.__file__))
    code = ("import json, sys, lenspace.cli\n"
            "before = set(sys.modules)\n"
            f"code = lenspace.cli.main({['--out-dir', str(tmp_path)] + argv!r})\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    code, loaded = json.loads(out)
    assert code == 0
    assert [m for m in loaded if not (m in ("locale", "_locale")
                                      or m.startswith("scipy.optimize._highspy._core"))] == []


def test_doubling_with_local_poincare(tmp_path):
    code = main(["--out-dir", str(tmp_path), "doubling", "--space", "circle:64",
                 "--r-min", "0.4", "--r-max", "1.0",
                 "--field", "cos", "--radius", "0.5"])
    assert code == 0
    doc = _read(tmp_path / "doubling.json")
    assert doc["local_poincare"] is not None
    assert doc["local_poincare"] > 0


def test_usage_error_exit2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["gen"]) == 2  # gen takes only --spec, and needs it
    assert main(["gen", "--kind", "circle", "--n", "8"]) == 2


def test_help_exit0():
    assert main(["--help"]) == 0
    assert main(["gen", "--help"]) == 0


def test_bad_time_grid_exit2(tmp_path):
    assert main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                 "--times", "geo:0:1:4"]) == 2
    assert main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                 "--times", "abc"]) == 2


@pytest.mark.parametrize("study", ["0.5", "0.5:0.1", "a:0.1:3", "0.5:0.1:x",
                                   "0.5:0.1:0", "0.5:0.1:3:4"])
def test_bad_residual_study_exit2(tmp_path, capsys, study):
    code = main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                 "--field", "cos", "--times", "0.5", "--residual-study", study])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad --residual-study" in err
    assert len(err.strip().splitlines()) == 1


def test_empty_space_spec_exit2(tmp_path, capsys):
    # "" used to fall through to "no space given" and crash with a traceback
    for argv in (["semigroup", "--space", ""], ["doubling", "--space", "",
                                                "--r-min", "1", "--r-max", "2"],
                 ["gen", "--spec", ""]):
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert "unknown space spec ''" in err
        assert len(err.strip().splitlines()) == 1


# argv fuzz for every command on small spaces (generator n <= 16)
_NUM = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-310", "5e-324", "1e308",
                     "0.5", "2", "abc", ""]),
    st.floats(-10, 10).map(repr))
_N = st.one_of(st.integers(-2, 16).map(str), st.sampled_from(["x", "", "1.5"]))
_SIDE = st.integers(-2, 4).map(str)
_KIND = st.sampled_from(["circle", "gaussian_interval", "gauss", "torus2d", "path",
                         "complete", "klein", ""])


@st.composite
def _spec(draw):
    kind = draw(_KIND)
    if kind.startswith("torus"):
        args = [draw(_SIDE), draw(_SIDE)] + draw(st.lists(_NUM, max_size=3))
    else:
        args = draw(st.lists(st.one_of(_N, _NUM), max_size=4))
    return ":".join([kind] + args)


_FIELD = st.one_of(st.sampled_from(["cos", "coordinate", "random", "random:3", "sin",
                                    "", "x.csv"]),
                   _NUM.map("tilt:".__add__), _N.map("random:".__add__))
_TIMES = st.one_of(
    st.builds("{}:{}:{}:{}".format, st.sampled_from(["geo", "lin"]), _NUM, _NUM,
              st.integers(-1, 12)),
    st.lists(_NUM, max_size=4).map(",".join))
# valid small spaces reach the commands' own checks, fuzzed specs the parser
_SPACE = st.one_of(st.sampled_from(["path:8", "circle:16", "gaussian_interval:9:1:4",
                                    "torus2d:3:3", "complete:5"]), _spec())
_SMALL = st.sampled_from(["-1", "0", "1", "2", "x", ""])
_WHICH = st.sampled_from(["all", "lsi", "t", "p", "lsi,poincare", "talagrand,lsi",
                          "lsi,lsi", "foo", ""])
_MARGINAL = st.one_of(st.sampled_from(["nu", "uniform", "point:0", "point:15",
                                       "point:99", "point:-1", "point:x", "blob",
                                       "", "x.csv"]),
                      _NUM.map("tilt:".__add__))
# reports live in the fuzz output directory, which the test substitutes for OUT
_REPORT = st.sampled_from(["OUT/chain.json", "OUT/semigroup.json",
                           "OUT/constants.json", "OUT/nope.json", ""])
_OPTIONS = {
    "gen": {"--spec": _SPACE, "--out": st.sampled_from(["space.json", "gen.json"])},
    "semigroup": {"--space": _SPACE, "--field": _FIELD, "--times": _TIMES,
                  "--seed": _N, "--refinements": st.sampled_from(["-1", "0", "1", "x"]),
                  "--residual-study": st.builds("{}:{}:{}".format, _NUM, _NUM,
                                                st.integers(-1, 3)),
                  "--defect-t": _NUM, "--defect-s": _NUM},
    "doubling": {"--space": _SPACE, "--r-min": _NUM, "--r-max": _NUM,
                 "--r-steps": _N, "--field": _FIELD, "--radius": _NUM,
                 "--dilation": _NUM, "--seed": _N},
    "constants": {"--space": _SPACE, "--which": _WHICH, "--budget": _SMALL,
                  "--seed": _N, "--K": _NUM, "--tau": _NUM},
    "chain": {"--space": _SPACE, "--K": _NUM, "--tau": _NUM, "--seed": _N,
              "--n-random": _SMALL, "--trace-fields": _SMALL,
              "--psi-times": _TIMES, "--phi-times": _TIMES,
              "--psi-tol": _NUM, "--phi-tol": _NUM},
    "transport": {"--space": _SPACE, "--mu0": _MARGINAL, "--mu1": _MARGINAL},
    "plot-data": {"--report": _REPORT, "--kind": st.sampled_from(
        ["psi", "phi", "residual_vs_s", "defect_vs_mesh", "x"])},
}


_REQUIRED = {"gen": ["--spec"], "semigroup": ["--space"], "constants": ["--space"],
             "chain": ["--space", "--K"], "transport": ["--space", "--mu0", "--mu1"],
             "doubling": ["--space", "--r-min", "--r-max"],
             "plot-data": ["--report", "--kind"]}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    flags = draw(st.lists(st.sampled_from(sorted(_OPTIONS[command])), unique=True))
    if draw(st.booleans()):  # half the examples get past argparse's required flags
        required = _REQUIRED.get(command, [])
        flags = required + [f for f in flags if f not in required]
    argv = [command]
    for flag in flags:
        argv += [flag, draw(_OPTIONS[command][flag])]
    return argv


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fuzz"))
    # reports for plot-data to read
    for argv in (["chain", "--space", "path:8", "--K", "0.001", "--trace-fields", "1"],
                 ["semigroup", "--space", "circle:8", "--times", "0.5",
                  "--refinements", "1"]):
        assert main(["--out-dir", out] + argv) == 0
    return out


@given(argv=_argv())
@example(argv=["semigroup", "--space", ""])
@example(argv=["chain", "--space", "path:8", "--K", "nan"])
@example(argv=["chain", "--space", "path:8", "--K", "inf"])
@example(argv=["constants", "--space", "path:8", "--K", "nan", "--budget", "1"])
@example(argv=["chain", "--space", "path:8", "--trace-fields", "0"])
@example(argv=["chain", "--space", "path:8", "--trace-fields", "-1"])
@example(argv=["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "1",
               "--field", "cos", "--radius", "0.5", "--dilation", "nan"])
@example(argv=["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "inf"])
@example(argv=_CHAIN8 + ["--psi-tol", "nan"])
@example(argv=_CHAIN8 + ["--phi-tol", "inf"])
@example(argv=_CHAIN8 + ["--phi-tol", "-1"])
@example(argv=["chain", "--space", "path:8", "--K", "1e308", "--trace-fields", "1"])
@example(argv=["gen", "--spec", "path:64:2.0"])
@example(argv=["transport", "--space", "path:8", "--mu0", "nu", "--mu1", "nu",
               "--seed", "1"])
@example(argv=["transport", "--space", "circle:8:1e200", "--mu0", "point:0", "--mu1", "point:3"])
@example(argv=["constants", "--space", "circle:8:1e200", "--which", "p"])
@example(argv=["chain", "--space", "circle:8:1e200", "--K", "1", "--trace-fields", "1"])
@example(argv=["semigroup", "--space", "circle:8:1e200"])
@example(argv=["constants", "--space", "circle:8:1e-160", "--which", "t"])
@example(argv=["gen", "--spec", "gauss:3:1e-200:1"])
@example(argv=["gen", "--spec", "gauss:2:1:1e200"])
@example(argv=["gen", "--spec", "gauss:3:1:1e308"])
@example(argv=["semigroup", "--space", "circle:16", "--times", "1e-308"])
@example(argv=["semigroup", "--space", "circle:16", "--defect-t", "1e308",
               "--defect-s", "1e308", "--refinements", "1"])
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exit_codes(fuzz_out, argv):
    # a RuntimeWarning is an error: no numpy warning may leak from a command
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--out-dir", fuzz_out]
                    + [a.replace("OUT/", fuzz_out + os.sep) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:  # whatever the command wrote is strict JSON
        for name in os.listdir(fuzz_out):
            if name.endswith(".json"):
                _strict_json(os.path.join(fuzz_out, name))


_TOO_LARGE = ("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
              "and data type float64")


@pytest.mark.parametrize("argv, line", [
    (["transport", "--space", "circle:8:1e200", "--mu0", "point:0", "--mu1", "point:3"],
     "diameter 5e+199 is above 2^400: squares would overflow"),
    (["constants", "--space", "circle:8:1e200", "--which", "p"],
     "diameter 5e+199 is above 2^400: squares would overflow"),
    (["chain", "--space", "circle:8:1e200", "--K", "1", "--trace-fields", "1"],
     "diameter 5e+199 is above 2^400: squares would overflow"),
    (["semigroup", "--space", "circle:8:1e200"],
     "diameter 5e+199 is above 2^400: squares would overflow"),
    (["doubling", "--space", "circle:8:1e200", "--r-min", "1", "--r-max", "2"],
     "diameter 5e+199 is above 2^400: squares would overflow"),
    (["constants", "--space", "circle:8:1e-160", "--which", "t"],
     "shortest edge 1.25e-161 is below 2^-400: squares would underflow"),
    (["gen", "--spec", "gauss:3:1e-200:1"], "sigma must be at least 2^-400, got 1e-200"),
    (["gen", "--spec", "gauss:2:1:1e200"], "width must be at most 2^400, got 1e+200"),
    (["gen", "--spec", "gauss:3:1:1e308"], "width must be at most 2^400, got 1e+308"),
    (["gen", "--spec", "gauss:2:1:100"],
     "sigma 1.0 is too small for width 100.0 at n=2: every weight underflows to 0"),
    (["doubling", "--space", "circle:16", "--r-min", "0.1", "--r-max", "1",
      "--r-steps", str(10 ** 15)], _TOO_LARGE),
    (["semigroup", "--space", "circle:16", "--times", f"geo:0.01:1:{10 ** 15}"], _TOO_LARGE),
    (["chain", "--space", "circle:16", "--K", "0.5", "--psi-times", f"geo:0.01:1:{10 ** 15}"],
     _TOO_LARGE),
], ids=["transport-huge", "constants-huge", "chain-huge", "semigroup-huge", "doubling-huge",
        "constants-tiny", "gauss-sigma-tiny", "gauss-width-huge", "gauss-width-max",
        "gauss-weights-underflow", "doubling-radii", "semigroup-times", "chain-times"])
def test_out_of_scale_spaces_exit2_in_one_line(tmp_path, capsys, argv, line):
    # these used to print numpy RuntimeWarnings, then end in an OverflowError
    # traceback, a misleading message, or a run where every Q_t f equals f;
    # the grids of 10^15 points ended in numpy's MemoryError traceback with
    # exit 1, the code of a failed check (beyond any address space, numpy
    # refuses them before it allocates)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


def test_tiny_time_runs_silently(tmp_path, capsys):
    # 1/(2t) overflows each cell but a row's own, and diam/t overflows: both
    # infinities are exact, so no RuntimeWarning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--out-dir", str(tmp_path), "semigroup", "--space", "circle:16",
                     "--times", "1e-308"]) == 0
    assert capsys.readouterr().err == ""
    doc = _read(tmp_path / "semigroup.json")
    assert doc["trace"]["fields"] == [doc["trace"]["source"]]
    assert doc["checks"]["lipschitz_bound_failures"] == []


@pytest.mark.parametrize("argv, line", [
    (["semigroup", "--space", "circle:16", "--field", "random:-1"],
     "bad field spec 'random:-1': index must be >= 0, got -1"),
    (["semigroup", "--space", "circle:16", "--field", "random:x"],
     "bad field spec 'random:x': index 'x' is not an integer"),
    (["semigroup", "--space", "circle:16", "--field", "tilt:abc"],
     "bad field spec 'tilt:abc': alpha 'abc' is not a number"),
    (["transport", "--space", "path:8", "--mu0", "point:1e3", "--mu1", "nu"],
     "bad marginal spec 'point:1e3': index '1e3' is not an integer"),
    (["transport", "--space", "path:8", "--mu0", "tilt:abc", "--mu1", "nu"],
     "bad marginal spec 'tilt:abc': alpha 'abc' is not a number"),
    (["semigroup", "--space", "circle:16", "--times", "geo:0.1:1:x"],
     "bad time grid 'geo:0.1:1:x': count 'x' is not an integer"),
    (["semigroup", "--space", "circle:16", "--times", "lin:0.1:1"],
     "bad time grid 'lin:0.1:1': lin takes fields min:max:count (3 required), got 2"),
    (["semigroup", "--space", "circle:16", "--times", "0.5", "--residual-study", "0.5:x:3"],
     "bad --residual-study '0.5:x:3': s_max 'x' is not a number"),
    (["semigroup", "--space", "circle:16", "--field", "random:1:2"],
     "bad field spec 'random:1:2': random takes fields index (1 required), got 2"),
], ids=["random-negative", "random-word", "tilt-word", "point-float", "tilt-marginal-word",
        "geo-count-word", "lin-short", "study-word", "random-extra"])
def test_colon_spec_error_names_spec_and_field(tmp_path, capsys, argv, line):
    # each of these used to print Python's or numpy's own text, such as
    # "invalid literal for int()" or "expected non-negative integer"
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


def test_time_grid_forms():
    from lenspace.cli import _parse_times
    assert np.array_equal(_parse_times("geo:0.01:1:8"), np.geomspace(0.01, 1, 8))
    assert np.array_equal(_parse_times("lin:0.1:1:5"), np.linspace(0.1, 1, 5))
    assert np.array_equal(_parse_times("0.1,0.5,1"), [0.1, 0.5, 1.0])
    assert np.array_equal(_parse_times("geo:0.5:0.5:1"), [0.5])
    for text in ("geo:0:1:4", "geo:1:0.5:3", "lin:0.1:1:0", "geo:0.5:0.5:2", "0.5,0.1", ""):
        with pytest.raises(ValueError):
            _parse_times(text)


@pytest.fixture
def no_work(monkeypatch):
    """Make the CLI's expensive entry points record a call and raise."""
    import lenspace.cli as cli
    calls = []

    def refuse(name):
        def fn(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the inputs were checked")
        return fn
    for name in ("estimate_constant", "verify_chain", "make_trace", "doubling_constant"):
        monkeypatch.setattr(cli, name, refuse(name))
    return calls


def _saved_circle(tmp_path):
    path = tmp_path / "space" / "space.json"
    assert main(["--out-dir", str(path.parent), "gen", "--spec", "circle:16"]) == 0
    return str(path)


def test_inputs_are_checked_before_any_work(tmp_path, capsys, no_work):
    saved = _saved_circle(tmp_path)
    field = tmp_path / "f.csv"
    field.write_text("index,value\n" + "".join(f"{i},{i % 3}\n" for i in range(16)))
    cases = [
        (["constants", "--space", "path:8", "--tau", "1.5"], "tau must be in (0, 1), got 1.5"),
        (_CHAIN8 + ["--psi-times", "x"], "bad time grid 'x'"),
        (_CHAIN8 + ["--phi-times", "0.5,0.1"], "time grid must be strictly increasing"),
        (_SEMI8 + ["--residual-study", "0.5:x:3"],
         "bad --residual-study '0.5:x:3': s_max 'x' is not a number"),
        (["semigroup", "--space", saved, "--times", "0.5", "--refinements", "1"],
         "defect study needs a generator space spec, not a file"),
        (["semigroup", "--space", "circle:16", "--times", "0.5", "--field", str(field),
          "--refinements", "1"], "defect study needs a named field spec, not a CSV file"),
        (["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "1",
          "--field", "random:x"], "bad field spec 'random:x': index 'x' is not an integer"),
        (["semigroup", "--space", "circle:16", "--defect-t", "1e308", "--defect-s", "1e308",
          "--refinements", "1"], "--defect-t + --defect-s must be finite, got inf"),
    ]
    capsys.readouterr()
    for k, (argv, line) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert main(["--out-dir", str(out)] + argv) == 2, argv
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not list(out.iterdir())
    assert no_work == []


def test_chain_tau_and_K_checked_before_the_family(tmp_path, capsys, monkeypatch):
    # chain used to build the witness family before verify_chain read K and tau
    import lenspace.cli as cli
    monkeypatch.setattr(cli, "default_witness_family", None)
    for flags, line in ((["--tau", "0"], "tau must be in (0, 1), got 0.0"),
                        (["--K", "nan"], "K must be positive and finite, got nan")):
        assert main(["--out-dir", str(tmp_path)] + _CHAIN8 + flags) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


def test_constants_budget_checked_before_the_family(tmp_path, capsys, monkeypatch):
    # constants used to build the whole witness family before
    # estimate_constant read --budget
    import lenspace.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("witness family built before --budget was checked")
    monkeypatch.setattr(cli, "default_witness_family", refuse)
    for budget in ("-1", "-3"):
        out = tmp_path / f"budget{budget}"
        argv = ["--out-dir", str(out), "constants", "--space", "circle:16", "--budget", budget]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: budget must be >= 0, got {budget}\n"
        assert not list(out.iterdir())


@pytest.mark.parametrize("flags, line", [
    (["--field", "cos", "--dilation", "0.5"], "dilation must be >= 1, got 0.5"),
    (["--field", "cos", "--radius", "0"], "radius must be positive and finite, got 0.0"),
    (["--field", "random", "--radius", "nan"], "radius must be positive and finite, got nan"),
    (["--r-min", "2"], "need 0 < r_min <= r_max < inf, got 2.0, 1.0"),
    (["--r-steps", "0"], "r_steps must be at least 1"),
])
def test_doubling_scales_checked_before_any_work(tmp_path, capsys, monkeypatch, flags, line):
    # doubling used to read --radius and --dilation only after the doubling
    # sweep and the metric check had run
    import lenspace.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("doubling sweep ran before the flags were checked")
    monkeypatch.setattr(cli, "doubling_constant", refuse)
    argv = ["doubling", "--space", "circle:16", "--r-min", "0.3", "--r-max", "1"] + flags
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, line", [
    (["semigroup", "--field", "random", "--times", "geo:1:0.1:3"],
     "bad time grid 'geo:1:0.1:3': need count >= 1 and 0 < min <= max"),
    (["semigroup", "--residual-study", "0:0.1:2"],
     "bad --residual-study '0:0.1:2': need t > 0, levels >= 1 and s_max / 2^(levels - 1) > 0"),
    (["chain", "--K", "0.5", "--n-random", "-1"], "n_random must be >= 0, got -1"),
])
def test_semigroup_and_chain_flags_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                                           argv, line):
    # semigroup used to read --times and --residual-study, and chain --n-random,
    # only after the space was built
    import lenspace.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("space built before the flags were checked")
    monkeypatch.setattr(cli, "generate", refuse)
    argv = argv[:1] + ["--space", "circle:2048"] + argv[1:]
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, doc, line", [
    ("residual_vs_s", {"residual_vs_s": 5}, "must be a list of rows of 2 numbers"),
    ("residual_vs_s", {"residual_vs_s": [5, 6]}, "must be a list of rows of 2 numbers"),
    ("residual_vs_s", {"residual_vs_s": "abc"}, "must be a list of rows of 2 numbers"),
    ("defect_vs_mesh", {"defect_vs_mesh": [[0.1, "x"]]}, "must be a list of rows of 2 numbers"),
    ("defect_vs_mesh", {"defect_vs_mesh": [[0.1, 2.0, 3.0]]},
     "must be a list of rows of 2 numbers"),
    ("psi", {"traces": {"psi": {"rows": [[0.1, 1.0]]}}}, "must be a list of rows of 3 numbers"),
    ("psi", {"traces": [1]}, "no psi data"),
    ("phi", {"traces": {"phi": [1]}}, "no phi data"),
], ids=["number", "flat-list", "string", "text-cell", "wide-row", "narrow-row",
        "traces-list", "trace-list"])
def test_plot_data_malformed_rows_exit2(tmp_path, capsys, kind, doc, line):
    # the first three and the lists under traces used to end in a traceback
    # (exit 1), and rows "abc" wrote a CSV of single characters (exit 0)
    report = tmp_path / "r.json"
    report.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "plot-data", "--report", str(report),
                 "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report") and err.endswith(f"{line}\n") and err.count("\n") == 1
    assert not list(out.iterdir())


def _marginal_csv(path, weights):
    rows = "".join(f"{i},{float(w)!r}\n" for i, w in enumerate(weights))
    path.write_text("index,value\n" + rows)
    return str(path)


def test_csv_marginal_is_the_normalized_weights(tmp_path, monkeypatch):
    import lenspace.cli as cli
    plans = []

    def recording_w2(space, mu0, mu1):
        plans.append((mu0, *cli_w2(space, mu0, mu1)))
        return plans[-1][1:]
    cli_w2 = cli.w2
    monkeypatch.setattr(cli, "w2", recording_w2)
    weights = np.random.default_rng(3).gamma(1.0, size=16)
    mu0 = _marginal_csv(tmp_path / "mu.csv", weights)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "transport", "--space", "circle:16",
                 "--mu0", mu0, "--mu1", "nu"]) == 0
    (given, _, plan), = plans
    assert np.array_equal(given, weights / weights.sum())
    np.testing.assert_allclose(plan.source_marginal, weights / weights.sum(), rtol=1e-14, atol=0)
    doc = _read(out / "transport.json")
    rows = np.zeros(16)
    for i, _, m in doc["coupling"]:
        rows[i] += m
    np.testing.assert_allclose(rows, weights / weights.sum(), rtol=0, atol=1e-9)


@pytest.mark.parametrize("weights", [[1.0, -0.5] + [1.0] * 14, [0.0] * 16],
                         ids=["negative", "all-zero"])
def test_bad_csv_marginal_exit2_one_line(tmp_path, weights):
    mu0 = _marginal_csv(tmp_path / "mu.csv", weights)
    out = tmp_path / "out"
    proc = _run_cli(out, "transport", "--space", "circle:16", "--mu0", mu0, "--mu1", "nu")
    assert proc.returncode == 2
    assert proc.stderr == (f"error: marginal weights in {mu0} must be nonnegative "
                           "with positive sum\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_coords_exit2_one_line(tmp_path, capsys, bad):
    # a NaN coordinate used to pass: constants exited 0 with every tilt
    # witness silently left out, and the coordinate field blamed the field
    doc = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "measure": [1, 1, 1],
           "coords": [[bad], [1.0], [2.0]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens, as Python writes them
    for argv in (["constants", "--space", str(path), "--budget", "1"],
                 ["semigroup", "--space", str(path), "--field", "coordinate"]):
        out = tmp_path / argv[0]
        assert main(["--out-dir", str(out)] + argv) == 2
        assert capsys.readouterr().err == "error: coords must be finite\n"
        assert not list(out.iterdir())
    # finite coords load as before: the same metric and fields as when the
    # id hashed dist (its old value), and the id of the documented fields
    from oracles import graph_space_id, legacy_space_id
    doc["coords"][0] = [0.0]
    path.write_text(json.dumps(doc))
    space = load_space(str(path))
    assert legacy_space_id(space) == "68c91905d91c21b3"
    assert space.space_id == graph_space_id(space) == "cfb4c172bc6f2a10"


@pytest.mark.parametrize("text", ["[1]", "3", "null"], ids=["list", "number", "null"])
def test_plot_data_report_not_an_object_exit2(tmp_path, capsys, text):
    # each of these used to end in an AttributeError traceback, exit 1
    report = tmp_path / "r.json"
    report.write_text(text)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "plot-data", "--report", str(report),
                 "--kind", "psi"]) == 2
    assert capsys.readouterr().err == f"error: report {report} must hold a JSON object\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("text, line", [
    (None, "cannot read report {report}: [Errno 2] No such file or directory: '{report}'"),
    ("{not json", "report {report} is not valid JSON: "
                  "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["missing", "not-json"])
def test_plot_data_unreadable_report_exit2_one_line(tmp_path, capsys, text, line):
    # the report is read as a space file is, and names itself the same way
    report = tmp_path / "r.json"
    if text is not None:
        report.write_text(text)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "plot-data", "--report", str(report),
                 "--kind", "psi"]) == 2
    assert capsys.readouterr().err == "error: " + line.format(report=report) + "\n"
    assert not list(out.iterdir())


def _every_document_kind(tmp_path) -> dict:
    """One run of each command, its name -> argv: every kind of JSON file the
    package writes; the chain's psi overflows, the tilt's convergence bound
    overflows, and doubling echoes an unread --radius nan."""
    return {
        "gen": ["gen", "--spec", "torus2d:4:5"],
        "gen-file": ["gen", "--spec", str(tmp_path / "gen" / "space.json")],
        "semigroup": ["semigroup", "--space", "circle:16", "--refinements", "1"],
        "bound": ["semigroup", "--space", "path:1421", "--field", "tilt:0.9"],
        "constants": ["constants", "--space", "circle:16", "--budget", "1"],
        "chain": ["chain", "--space", "path:8", "--K", "1e308", "--trace-fields", "1"],
        "transport": ["transport", "--space", "path:8", "--mu0", "uniform", "--mu1", "point:3"],
        "doubling": ["doubling", "--space", "circle:16", "--r-min", "0.5", "--r-max", "1",
                     "--radius", "nan"],
        "plot-data": ["plot-data", "--report", str(tmp_path / "chain" / "chain.json"),
                      "--kind", "psi"],
    }


def test_every_written_json_file_is_strict(tmp_path):
    # documents, run.json and space files share one writer, which stores a
    # non-finite float as null
    def refuse(token):
        raise AssertionError(f"{token} token in a written file")

    runs = _every_document_kind(tmp_path)
    for name, argv in runs.items():
        assert main(["--out-dir", str(tmp_path / name)] + argv) == (name == "chain")
    docs = {path.relative_to(tmp_path).as_posix(): json.loads(path.read_text(),
                                                              parse_constant=refuse)
            for path in tmp_path.glob("*/*.json")}
    # a run.json per run, and a document per run but plot-data's CSV
    assert len(docs) == 2 * len(runs) - 1
    assert docs["gen-file/space.json"] == docs["gen/space.json"]
    assert docs["chain/chain.json"]["traces"]["psi"]["max_excess"] is None
    assert docs["bound/semigroup.json"]["trace"]["convergence_bound"] is None
    assert docs["doubling/run.json"]["config"]["radius"] is None


def test_writer_is_bytewise_json_dump_of_the_nulled_copy(tmp_path, monkeypatch):
    # every file the package writes is what json.dump once wrote from a copy
    # with each non-finite float replaced by None
    from lenspace import cli, generators
    from oracles import legacy_json
    written, real = [], generators._write_json

    def recorded(doc, path):
        written.append((doc, path))
        real(doc, path)

    monkeypatch.setattr(cli, "_write_json", recorded)
    monkeypatch.setattr(generators, "_write_json", recorded)
    runs = _every_document_kind(tmp_path)
    for name, argv in runs.items():
        assert main(["--out-dir", str(tmp_path / name)] + argv) == (name == "chain")
    assert len(written) == 2 * len(runs) - 1
    for doc, path in written:
        with open(path) as fh:
            assert fh.read() == legacy_json(doc), path


def test_semigroup_on_an_orbit_space_allocates_no_square_array(tmp_path):
    # the build keeps point 0's row and the kernel copies its translates
    n = 2048
    argv = ["--out-dir", str(tmp_path), "semigroup", "--space", f"circle:{n}"]
    assert main(argv) == 0  # imports and first calls, outside the count
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, peak


def test_nonfinite_space_params_exit2_one_line(tmp_path, capsys):
    # Python's JSON reader takes NaN and Infinity tokens; gen used to write
    # them back into space.json, which a strict reader refuses
    path = tmp_path / "s.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "measure": [1, 1, 1], '
                    '"params": {"length": NaN, "x": Infinity}}')
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "gen", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == ("error: params must hold finite numbers only, "
                                       "got {'length': nan, 'x': inf}\n")
    assert not list(out.iterdir())


def test_overflowing_weight_totals_exit2_one_line(tmp_path):
    # each total used to overflow with a numpy warning: the space's measure
    # became all zero, and the CSV marginal was blamed for summing to 0
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                                "measure": [1e308, 1e308, 1]}))
    for argv in (["doubling", "--space", str(path), "--r-min", "0.5", "--r-max", "1"],
                 ["constants", "--space", str(path), "--budget", "1"]):
        proc = _run_cli(tmp_path / argv[0], *argv)
        assert proc.returncode == 2
        assert proc.stderr == "error: measure weights sum past the largest float\n"
    mu0 = _marginal_csv(tmp_path / "big.csv", [1e308, 1e308, 1])
    proc = _run_cli(tmp_path / "transport", "transport", "--space", "path:3", "--mu0", mu0,
                    "--mu1", "nu")
    assert proc.returncode == 2
    assert proc.stderr == f"error: marginal weights in {mu0} sum past the largest float\n"
    assert not any(list((tmp_path / name).iterdir())
                   for name in ("doubling", "constants", "transport"))

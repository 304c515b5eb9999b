"""Command-line smoke tests: exit codes, JSON plumbing, determinism."""

import json
import math

import numpy as np
import pytest

from dimlab import Cover, SampledSpace, order_of, result_from_json_bytes, verify_result
from dimlab.cli import cli_main

from conftest import brute_force_order, line_space, space_json_dict


@pytest.fixture
def workdir(tmp_path):
    space = line_space(4)
    cover = Cover(np.array([[1.0, 1.0, 0.6, 0.0], [0.0, 0.6, 1.0, 1.0]]))
    space_path = tmp_path / "space.json"
    cover_path = tmp_path / "cover.json"
    space_path.write_text(json.dumps(space_json_dict(space)))
    cover_path.write_text(json.dumps(cover.to_json_dict()))
    return tmp_path, space, cover


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("dimlab ")


def test_unknown_flag_exits_2(workdir):
    tmp, _, _ = workdir
    with pytest.raises(SystemExit) as exc:
        cli_main(["cover", "order", "--space", str(tmp / "space.json"), "--no-such-flag"])
    assert exc.value.code == 2
    # verify has no --membership: every report's equation-margin is the stricter check
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--result", "R", "--space", "S", "--n", "1", "--membership"])
    assert exc.value.code == 2


def test_cover_order(workdir, capsys):
    tmp, _, cover = workdir
    code = cli_main(
        ["cover", "order", "--space", str(tmp / "space.json"), "--cover", str(tmp / "cover.json")]
    )
    assert code == 0
    assert capsys.readouterr().out == f"{order_of(cover)}\n"


def test_cover_shrink_writes_file(workdir):
    tmp, space, _ = workdir
    out = tmp / "shrunk.json"
    code = cli_main(
        [
            "cover",
            "shrink",
            "--space",
            str(tmp / "space.json"),
            "--cover",
            str(tmp / "cover.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    shrunk = Cover.from_json_dict(doc["open_shrink"], space.size)
    assert shrunk.size == 2
    assert doc["closed_shrink"] == [[0, 1], [1, 2, 3]]


def test_reduce_order_map_oracle(workdir, capsys):
    tmp, space, cover = workdir
    # boundary map for the one swept pair: 0 on F_0 = {0,1}, 1 off U_0 = {3}
    (tmp / "g.json").write_text(json.dumps({"g": [[0.0], [0.0], [1.0], [1.0]]}))
    code = cli_main(
        [
            "cover",
            "reduce-order",
            "--space",
            str(tmp / "space.json"),
            "--cover",
            str(tmp / "cover.json"),
            "--n",
            "0",
            "--oracle",
            f"map:{tmp / 'g.json'}",
        ]
    )
    assert code == 0
    out = Cover.from_json_dict(json.loads(capsys.readouterr().out), space.size)
    assert out.uncovered_point() is None
    assert brute_force_order(out) == 0


def test_reduce_order_map_oracle_not_zero_on_a_exits_2(workdir, capsys):
    tmp, _, _ = workdir
    # point 0 lies in F_0 = {0,1}, where a boundary map must be 0
    (tmp / "g.json").write_text(json.dumps({"g": [[1.0], [0.0], [1.0], [1.0]]}))
    code = cli_main(
        ["cover", "reduce-order", "--space", str(tmp / "space.json"), "--cover",
         str(tmp / "cover.json"), "--n", "0", "--oracle", f"map:{tmp / 'g.json'}"]
    )
    assert code == 2
    assert capsys.readouterr().err == "input error: map is not 0 on A at point 0, coordinate 0\n"


def test_reduce_order_short_map_exits_2(workdir, capsys):
    tmp, _, _ = workdir
    # three rows for a four-point sample: the pair masks are one point wider
    (tmp / "g.json").write_text(json.dumps({"g": [[0.0], [0.0], [1.0]]}))
    code = cli_main(
        ["cover", "reduce-order", "--space", str(tmp / "space.json"), "--cover",
         str(tmp / "cover.json"), "--n", "0", "--oracle", f"map:{tmp / 'g.json'}"]
    )
    assert code == 2
    assert capsys.readouterr().err == "input error: pair masks have width 4, sample has 3 points\n"


def test_reduce_order_unknown_oracle(workdir, capsys):
    tmp, _, _ = workdir
    code = cli_main(
        [
            "cover",
            "reduce-order",
            "--space",
            str(tmp / "space.json"),
            "--cover",
            str(tmp / "cover.json"),
            "--n",
            "0",
            "--oracle",
            "psychic",
        ]
    )
    assert code == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_nerve_export(workdir, capsys):
    tmp, _, _ = workdir
    code = cli_main(
        ["nerve", "--space", str(tmp / "space.json"), "--cover", str(tmp / "cover.json")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 2
    assert [0, 1] in doc["simplices"]


def test_genpos(workdir, capsys):
    tmp, _, _ = workdir
    (tmp / "targets.json").write_text(json.dumps({"targets": [[0.5, 0.5], [0.5, 0.5]]}))
    code = cli_main(
        ["genpos", "--targets", str(tmp / "targets.json"), "--eps", "0.01", "--seed", "3"]
    )
    assert code == 0
    pts = np.array(json.loads(capsys.readouterr().out)["points"])
    assert np.linalg.norm(pts[0] - pts[1]) > 1e-9


def test_embed_verify_roundtrip(workdir, capsys):
    tmp, _, _ = workdir
    result_path = tmp / "result.json"
    code = cli_main(
        [
            "embed",
            "--space",
            str(tmp / "space.json"),
            "--n",
            "0",
            "--stages",
            "2",
            "--seed",
            "0",
            "--out",
            str(result_path),
        ]
    )
    assert code == 0
    code = cli_main(
        [
            "verify",
            "--result",
            str(result_path),
            "--space",
            str(tmp / "space.json"),
            "--n",
            "0",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    assert any(c["name"] == "equation-margin" for c in report["checks"])


def test_verify_rejects_tampered_result(workdir, capsys):
    tmp, _, _ = workdir
    result_path = tmp / "result.json"
    assert (
        cli_main(
            [
                "embed",
                "--space",
                str(tmp / "space.json"),
                "--n",
                "0",
                "--stages",
                "2",
                "--out",
                str(result_path),
            ]
        )
        == 0
    )
    doc = json.loads(result_path.read_text())
    doc["stages"][1]["delta"] = doc["stages"][1]["delta"] * 8.0
    result_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main(
        ["verify", "--result", str(result_path), "--space", str(tmp / "space.json"), "--n", "0"]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["overall"] is False


@pytest.mark.parametrize(
    "code", [[999, 0], [0, 1, 2], [-1, 0]], ids=["past-the-end", "three", "negative"]
)
def test_verify_rejects_malformed_pair_code(workdir, capsys, code):
    tmp, _, _ = workdir
    result_path = tmp / "result.json"
    space = ["--space", str(tmp / "space.json"), "--n", "0"]
    assert cli_main(["embed", *space, "--stages", "2", "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text())
    doc["stages"][1]["pair_code"] = code
    result_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(result_path), *space]) == 2
    assert "pair_code" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where,field,value,message",
    [
        ("stage", "t", 1.5, "t must be an integer"),
        ("stage", "t", 999, "stage 999 outside"),
        ("result", "radii_depth", 50, "radii_depth 50"),
        ("result", "radii_depth", 1.5, "radii_depth must be an integer"),
    ],
    ids=["t-float", "t-past-the-end", "depth-off-schedule", "depth-float"],
)
def test_verify_rejects_bad_integer_field(workdir, capsys, where, field, value, message):
    tmp, _, _ = workdir
    result_path = tmp / "result.json"
    space = ["--space", str(tmp / "space.json"), "--n", "0"]
    assert cli_main(["embed", *space, "--stages", "2", "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text())
    (doc["stages"][1] if where == "stage" else doc)[field] = value
    result_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(result_path), *space]) == 2
    assert message in capsys.readouterr().err


def test_embed_merge_exits_1(tmp_path, capsys):
    # six points with spacing below the stage-0 merge threshold collapse
    space = line_space(6)
    (tmp_path / "space.json").write_text(json.dumps(space_json_dict(space)))
    code = cli_main(
        ["embed", "--space", str(tmp_path / "space.json"), "--n", "1", "--stages", "2"]
    )
    assert code == 1
    assert "merges sample points" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "space.json"
    bad.write_text("{not json")
    code = cli_main(["cover", "order", "--space", str(bad), "--cover", str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"points": None, "distance_matrix": [[0, 1], [1]], "mesh": 0.5},
         "distance matrix must be a rectangular array of numbers"),
        ({"points": [[0.0], ["x"]], "distance_matrix": None, "mesh": 0.5},
         "points must be a rectangular array of numbers"),
        ({"points": [[0.0], [1.0]], "distance_matrix": None, "mesh": True},
         "mesh must be a positive real"),
        ({"points": [[0.0], [1.0]], "distance_matrix": None, "mesh": 1.0, "mesh_typo": 1},
         "not a space document: unknown keys ['mesh_typo']"),
    ],
    ids=["ragged-matrix", "string-point", "bool-mesh", "unknown-key"],
)
def test_embed_malformed_space_exits_2(tmp_path, capsys, doc, message):
    (tmp_path / "space.json").write_text(json.dumps(doc))
    code = cli_main(["embed", "--space", str(tmp_path / "space.json"), "--n", "0", "--stages", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"targets": [[0.5, 0.5], [0.5]]}, "targets must be a rectangular array of numbers"),
        (5, "targets file must contain a targets list"),
        ({"targets": [[0.5, "x"]]}, "targets must be a rectangular array of numbers"),
    ],
    ids=["ragged", "not-an-object", "string-target"],
)
def test_genpos_malformed_targets_exits_2(tmp_path, capsys, doc, message):
    (tmp_path / "targets.json").write_text(json.dumps(doc))
    code = cli_main(["genpos", "--targets", str(tmp_path / "targets.json"), "--eps", "1e-6"])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "command, field",
    [("verify", "f"), ("verify", "vertices"), ("genpos", "targets")],
    ids=["verify-stage-f", "verify-vertices", "genpos-targets"],
)
def test_nan_literal_exits_2(workdir, capsys, command, field):
    # json.loads reads NaN, which no dimlab writer emits
    tmp, _, _ = workdir
    path = tmp / "doc.json"
    space = ["--space", str(tmp / "space.json"), "--n", "0"]
    if command == "genpos":
        path.write_text(json.dumps({"targets": [[math.nan, 0.2], [0.7, 0.2], [0.45, 0.2]]}))
        argv = ["genpos", "--targets", str(path), "--eps", "0.01"]
    else:
        assert cli_main(["embed", *space, "--stages", "2", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["stages"][1][field][0][0] = math.nan
        path.write_text(json.dumps(doc))
        argv = ["verify", "--result", str(path), *space]
    capsys.readouterr()
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "input error: non-finite number NaN in JSON input\n"


@pytest.mark.parametrize("leaf", ["string", "bool", "null", "object"])
@pytest.mark.parametrize(
    "field, what",
    [("points", "points"), ("distance_matrix", "distance matrix"), ("targets", "targets"),
     ("g", "map oracle g"), ("f", "f"), ("stage-f", "f"), ("vertices", "vertices"),
     ("anchors", "anchors"), ("f_next", "f_next")],
)
def test_array_leaf_must_be_a_number(workdir, capsys, field, what, leaf):
    """numpy reads "0.5", true and null as numbers; a document array holds JSON numbers only."""
    tmp, space, _ = workdir
    path = tmp / "doc.json"
    space_args = ["--space", str(tmp / "space.json")]
    if field in ("points", "distance_matrix"):
        if field == "distance_matrix":
            space = SampledSpace.from_distance_matrix(space.dist, space.mesh)
        doc = space_json_dict(space)
        rows = doc[field]
        argv = ["embed", "--space", str(path), "--n", "0", "--stages", "2"]
    elif field == "targets":
        doc = {"targets": [[0.2, 0.2], [0.7, 0.2], [0.45, 0.2]]}
        rows = doc["targets"]
        argv = ["genpos", "--targets", str(path), "--eps", "0.01"]
    elif field == "g":
        doc = {"g": [[0.0], [0.0], [1.0], [1.0]]}
        rows = doc["g"]
        argv = ["cover", "reduce-order", *space_args, "--cover", str(tmp / "cover.json"),
                "--n", "0", "--oracle", f"map:{path}"]
    else:
        embed = ["embed", *space_args, "--n", "0", "--stages", "2", "--out", str(path)]
        assert cli_main(embed) == 0
        doc = json.loads(path.read_text())
        rows = doc["f"] if field == "f" else doc["stages"][1][field.removeprefix("stage-")]
        what = what if field == "f" else f"stage 1: {what}"
        argv = ["verify", "--result", str(path), *space_args, "--n", "0"]
    rows[0][-1] = {"string": repr(rows[0][-1]), "bool": True, "null": None,
                   "object": {"x": rows[0][-1]}}[leaf]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(argv) == 2
    message = f"{what} must be a rectangular array of numbers"
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "where, message",
    [("result", "not a result document: unknown keys ['format_versoin']"),
     ("stage", "stage 0: not a stage document: unknown keys ['format_versoin']"),
     ("avoided", "avoided 0: not an avoided-plane document: unknown keys ['format_versoin']"),
     ("hyperplane", "stage 0: not a hyperplane document: unknown keys ['format_versoin']"),
     ("cover_u", "stage 0: not a cover document: unknown keys ['format_versoin']")],
)
def test_verify_refuses_unknown_key(workdir, capsys, where, message):
    """A misspelt key would otherwise read as absent, and the result would verify."""
    tmp, _, _ = workdir
    path = tmp / "result.json"
    args = ["--space", str(tmp / "space.json"), "--n", "0"]
    assert cli_main(["embed", *args, "--stages", "2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    {"result": doc, "stage": doc["stages"][0], "avoided": doc["avoided"][0],
     "hyperplane": doc["stages"][0]["hyperplane"], "cover_u": doc["stages"][0]["cover_u"]}[where][
        "format_versoin"] = 2
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(path), *args]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_verify_reports_uncovered_point(tmp_path, capsys):
    """A cover missing a point fails covering and both kappa checks (exit 1); nothing raises."""
    space = line_space(8)
    (tmp_path / "space.json").write_text(json.dumps(space_json_dict(space)))
    path = tmp_path / "result.json"
    args = ["--space", str(tmp_path / "space.json"), "--n", "1"]
    assert cli_main(["embed", *args, "--stages", "4", "--seed", "0", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    for member in doc["stages"][0]["cover_u"]["members"]:
        member["values"].pop("7", None)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(path), *args]) == 1
    failed = [(c["name"], c["margin"], c["location"])
              for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert ("covering", -1.0, "stage 0, point 7") in failed
    assert ("kappa-values", -1.0, "stage 0") in failed
    assert ("kappa-weights", -1.0, "stage 0") in failed


def test_reduce_order_ragged_map_exits_2(workdir, capsys):
    tmp, _, _ = workdir
    (tmp / "g.json").write_text(json.dumps({"g": [[0.0], [0.0, 1.0], [1.0], [1.0]]}))
    code = cli_main(
        ["cover", "reduce-order", "--space", str(tmp / "space.json"), "--cover",
         str(tmp / "cover.json"), "--n", "0", "--oracle", f"map:{tmp / 'g.json'}"]
    )
    assert code == 2
    message = "map oracle g must be a rectangular array of numbers"
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"members": 5}, "cover document must be an object with a members list"),
        ({"members": [{"values": [1.0, 1.0, 1.0, 1.0]}]},
         "cover values must be an object of point index: value"),
        ({"members": [{"values": {"0": "x"}}]}, "bad value 'x' at point 0 in cover values"),
        ({"members": [{"values": {"0": True}}]}, "bad value True at point 0 in cover values"),
        ({"members": [{"values": {"0": 1.0}, "valeus": {"1": 1.0}}]},
         "not a cover member: unknown keys ['valeus']"),
    ],
    ids=["members-number", "values-list", "string-value", "bool-value", "unknown-member-key"],
)
def test_malformed_cover_exits_2(workdir, capsys, doc, message):
    tmp, _, _ = workdir
    (tmp / "bad.json").write_text(json.dumps(doc))
    code = cli_main(
        ["cover", "order", "--space", str(tmp / "space.json"), "--cover", str(tmp / "bad.json")]
    )
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_embed_deterministic_and_env_seed(workdir, capsys, monkeypatch):
    tmp, _, _ = workdir
    argv = ["embed", "--space", str(tmp / "space.json"), "--n", "0", "--stages", "2"]
    assert cli_main(argv + ["--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert cli_main(argv + ["--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    monkeypatch.setenv("DIMLAB_SEED", "7")
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_prints_library_report(workdir, capsys):
    tmp, space, _ = workdir
    result_path = tmp / "result.json"
    argv = ["embed", "--space", str(tmp / "space.json"), "--n", "0", "--stages", "2"]
    assert cli_main(argv + ["--out", str(result_path)]) == 0
    result = result_from_json_bytes(result_path.read_bytes())
    verify = ["verify", "--result", str(result_path), "--space", str(tmp / "space.json")]
    capsys.readouterr()
    assert cli_main(verify + ["--n", "0"]) == 0
    report = verify_result(result, space, 0)
    canonical = json.dumps(report.to_json_dict(), separators=(",", ":"), allow_nan=False)
    assert capsys.readouterr().out == canonical + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "order", "--space", "S", "--cover", "C", "--tolerance", "1e-6"],
        ["cover", "order", "--space", "S", "--cover", "C", "--seed", "3"],
        ["nerve", "--space", "S", "--cover", "C", "--seed", "3"],
        ["embed", "--space", "S", "--n", "1", "--stages", "2", "--tolerance", "1e-6"],
        ["verify", "--result", "R", "--space", "S", "--n", "1", "--seed", "3"],
    ],
)
def test_seed_and_tolerance_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2


def test_genpos_tolerance_is_read(workdir, capsys):
    tmp, _, _ = workdir
    # two points 1e-4 apart are independent at the default tolerance, not at 1e-3
    (tmp / "targets.json").write_text(json.dumps({"targets": [[0.5, 0.5], [0.5, 0.5001]]}))
    argv = ["genpos", "--targets", str(tmp / "targets.json"), "--eps", "1e-6", "--seed", "3"]
    assert cli_main(argv) == 0
    assert cli_main(argv + ["--tolerance", "1e-3"]) == 1
    assert "general-position" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_genpos_bad_tolerance_exits_2(workdir, capsys, tolerance):
    # three collinear targets, which a NaN or negative tolerance used to pass unmoved
    tmp, _, _ = workdir
    (tmp / "targets.json").write_text(json.dumps({"targets": [[0.2, 0.2], [0.7, 0.2], [0.45, 0.2]]}))
    argv = ["genpos", "--targets", str(tmp / "targets.json"), "--eps", "1e-6"]
    assert cli_main(argv + ["--tolerance", tolerance]) == 2
    assert capsys.readouterr().err == (
        f"input error: rank tolerance must be finite and nonnegative, got {float(tolerance)!r}\n")


def test_bad_env_seed_exits_2(workdir, capsys, monkeypatch):
    tmp, _, _ = workdir
    argv = ["embed", "--space", str(tmp / "space.json"), "--n", "0", "--stages", "2"]
    monkeypatch.setenv("DIMLAB_SEED", "seven")
    assert cli_main(argv) == 2
    assert "DIMLAB_SEED must be an integer" in capsys.readouterr().err
    assert cli_main(argv + ["--seed", "7"]) == 0


@pytest.mark.parametrize("command", ["embed", "genpos"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_exits_2(workdir, capsys, monkeypatch, command, source):
    # a negative seed is bad input, whether from --seed or from DIMLAB_SEED
    tmp, _, _ = workdir
    (tmp / "targets.json").write_text(json.dumps({"targets": [[0.2, 0.2], [0.7, 0.2]]}))
    argv = {"embed": ["embed", "--space", str(tmp / "space.json"), "--n", "1", "--stages", "2"],
            "genpos": ["genpos", "--targets", str(tmp / "targets.json"), "--eps", "0.01"]}[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("DIMLAB_SEED", "-3")
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: seed must be a non-negative integer") and err.count("\n") == 1


def test_genpos_infinite_eps_exits_2(workdir, capsys):
    # every perturbed round of collinear targets would be inf
    tmp, _, _ = workdir
    (tmp / "targets.json").write_text(json.dumps({"targets": [[0.2, 0.2], [0.7, 0.2], [0.45, 0.2]]}))
    argv = ["genpos", "--targets", str(tmp / "targets.json"), "--eps", "inf"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == (
        "input error: perturbation budget must be positive and finite, got inf\n")


def test_one_point_embed_verifies(tmp_path, capsys):
    """One point has no disjoint spans: eta is inf when built and when rechecked, -0.0 apart."""
    (tmp_path / "space.json").write_text(json.dumps({"points": [[0.0]], "mesh": 0.5}))
    args = ["--space", str(tmp_path / "space.json"), "--n", "1"]
    path = tmp_path / "result.json"
    assert cli_main(["embed", *args, "--stages", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(path), *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    [margin] = [c["margin"] for c in report["checks"] if c["name"] == "eta"]
    assert margin == 0.0 and math.copysign(1.0, margin) == -1.0


def test_genpos_overflowing_targets_exit_1(tmp_path, capsys):
    """Differences past the float range make sigma NaN, which fails general position."""
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"targets": [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]}))
    assert cli_main(["genpos", "--targets", str(path), "--eps", "0.01"]) == 1
    assert "last violating subset: (0, 1, 2)" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
def test_verify_reports_overflowing_vertices(tmp_path, capsys):
    """Stage-1 vertices at +-1e308 fail general position and both etas; no margin is NaN."""
    (tmp_path / "space.json").write_text(json.dumps(space_json_dict(line_space(4))))
    args = ["--space", str(tmp_path / "space.json"), "--n", "1"]
    path = tmp_path / "result.json"
    assert cli_main(["embed", *args, "--stages", "2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    vertices = doc["stages"][1]["vertices"]
    vertices[0], vertices[1] = [1e308] * 3, [-1e308] * 3
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(path), *args]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {(c["name"], c["location"].split(",")[0]): c["margin"]
              for c in checks if not c["passed"]}
    assert failed[("eta", "stage 1")] == failed[("eta-prime", "stage 1")] == -1.0
    assert failed[("general-position", "stage 1")] is None  # -inf: NaN sigma
    assert all(c["margin"] is None or math.isfinite(c["margin"]) for c in checks)


def test_genpos_refuses_numbers_past_float_range(tmp_path, capsys):
    """json reads 1e309 as inf, and inf - inf is NaN: the number is bad input, not a crash."""
    path = tmp_path / "targets.json"
    path.write_text('{"targets": [[1e309, 0], [1e309, 1], [0, 1]]}')
    assert cli_main(["genpos", "--targets", str(path), "--eps", "0.01"]) == 2
    assert capsys.readouterr().err == "input error: targets must be a rectangular array of numbers\n"
    path.write_text('{"targets": [[-1e309, 0], [0.5, 1], [0, 1]]}')
    assert cli_main(["genpos", "--targets", str(path), "--eps", "0.01"]) == 2


@pytest.mark.parametrize(
    "field, message",
    [("vertices", "stage 1: vertices must be a rectangular array of numbers"),
     ("delta", "stage 1: not a stage document: delta must be a number, got inf")],
)
def test_verify_refuses_numbers_past_float_range(tmp_path, capsys, field, message):
    """A 1e309 in a result reads as inf, which no writer puts there (inf travels as null)."""
    (tmp_path / "space.json").write_text(json.dumps(space_json_dict(line_space(4))))
    args = ["--space", str(tmp_path / "space.json"), "--n", "1"]
    path = tmp_path / "result.json"
    assert cli_main(["embed", *args, "--stages", "2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    if field == "vertices":
        doc["stages"][1]["vertices"][0][0] = 12345.5
    else:
        doc["stages"][1]["delta"] = 12345.5
    text = json.dumps(doc)
    assert text.count("12345.5") == 1
    path.write_text(text.replace("12345.5", "1e309"))
    capsys.readouterr()
    assert cli_main(["verify", "--result", str(path), *args]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"

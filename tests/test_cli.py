import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gammapick
from gammapick import cli, hardy
from gammapick.cli import run
from gammapick.domains import E311, mu, pi_coordinates
from gammapick.nevanlinna import DEFAULT_Z_GRID, gamma_curve_from_entries
from gammapick.realization import random_schur, realization_to_rational
from gammapick.serialize import (
    cmatrix_to_json,
    complex_to_json,
    curve_to_json,
    gamma_nodes_to_json,
)
from gammapick.nevanlinna import GammaNodes
from gammapick.domains import GammaPoint


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _function_payload(seed=0, m=4, k=3, max_sigma=0.999999):
    return {"function": random_schur(k, m, seed=seed, max_sigma=max_sigma).to_json()}


def _nodes_payload(scale=1.0, variant="gamma7"):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a *= 0.8 / mu(a, E311)
    nodes = (0.2, -0.35 + 0.1j, 0.45j)
    points = tuple(
        GammaPoint(variant, tuple(scale * np.asarray(pi_coordinates(l * a, variant).entries)))
        for l in nodes
    )
    return gamma_nodes_to_json(GammaNodes(variant, nodes, points))


def test_mu_diagonal(tmp_path, capsys):
    path = _write(
        tmp_path,
        "mu.json",
        {"matrix": cmatrix_to_json(np.diag([0.5, 0.25, 0.2])), "structure": "E(3;3;1,1,1)"},
    )
    code, report = _run(capsys, ["mu", "--in", path])
    assert code == 0
    assert report["command"] == "mu"
    assert report["mu"] == pytest.approx(0.5, abs=1e-9)


def test_mu_unknown_structure_is_input_error(tmp_path, capsys):
    path = _write(
        tmp_path, "mu.json", {"matrix": cmatrix_to_json(np.eye(3)), "structure": "E(9)"}
    )
    code = run(["mu", "--in", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "structure" in captured.err


def test_mu_shape_structure_mismatch_is_input_error(tmp_path, capsys):
    path = _write(
        tmp_path,
        "mu.json",
        {"matrix": cmatrix_to_json(np.eye(3)), "structure": "E(2;2;1,1)"},
    )
    code = run(["mu", "--in", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "does not fit" in captured.err


def test_gamma_check_member_and_nonmember(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a *= 0.9 / mu(a, E311)
    member = _write(
        tmp_path, "m.json", {"matrix": cmatrix_to_json(a), "structure": "E(3;3;1,1,1)"}
    )
    code, report = _run(capsys, ["gamma-check", "--in", member])
    assert code == 0 and report["member"] is True
    non = _write(
        tmp_path, "n.json", {"matrix": cmatrix_to_json(3 * a), "structure": "E(3;3;1,1,1)"}
    )
    code, report = _run(capsys, ["gamma-check", "--in", non])
    assert code == 2 and report["member"] is False


def test_gamma_check_tetrablock_point(tmp_path, capsys):
    path = _write(tmp_path, "t.json", {"point": [[0.3, 0.0], [0.2, 0.0], [0.05, 0.0]]})
    code, report = _run(capsys, ["gamma-check", "--in", path])
    assert code == 0 and report["member"] is True


def test_se_command(tmp_path, capsys):
    payload = _function_payload(seed=2)
    payload["points"] = [
        [complex_to_json(0.3), complex_to_json(0.2), complex_to_json(-0.4)],
        [complex_to_json(-0.1j), complex_to_json(0.5j), complex_to_json(0.0)],
    ]
    path = _write(tmp_path, "se.json", payload)
    code, report = _run(capsys, ["se", "--in", path])
    assert code == 0
    assert report["sup_modulus"] <= 1.0 + 1e-9
    assert len(report["values"]) == 2


def test_upper_e_membership(tmp_path, capsys):
    path = _write(tmp_path, "ue.json", _function_payload(seed=3, m=2))
    code, report = _run(capsys, ["upper-e", "--in", path])
    assert code == 0
    assert report["member"] is True
    assert report["ranks"]["k"] == 1
    assert all(report["psd"].values())


def test_uw_roundtrip_command(tmp_path, capsys):
    path = _write(tmp_path, "uw.json", _function_payload(seed=4, m=2, max_sigma=0.9))
    code, report = _run(capsys, ["uw", "--in", path])
    assert code == 0
    assert report["passed"] is True
    assert report["verify_residual"] <= 1e-8
    assert report["torus_fit_residual"] <= 1e-7


def test_right_s_command(tmp_path, capsys):
    path = _write(tmp_path, "rs.json", _function_payload(seed=5, m=2))
    code, report = _run(capsys, ["right-s", "--in", path])
    assert code == 0
    assert report["modulus_match"] <= 1e-9


def test_np_solvable_and_schwarz_violation(tmp_path, capsys):
    good = _write(
        tmp_path,
        "np0.json",
        {
            "nodes": [complex_to_json(0.0), complex_to_json(0.5)],
            "targets": [cmatrix_to_json(np.zeros((1, 1))), cmatrix_to_json(0.3 * np.eye(1))],
        },
    )
    code, report = _run(capsys, ["np", "--in", good])
    assert code == 0
    assert report["solvable"] is True
    assert report["target_residual"] <= 1e-9
    bad = _write(
        tmp_path,
        "np1.json",
        {
            "nodes": [complex_to_json(0.0), complex_to_json(0.5)],
            "targets": [cmatrix_to_json(np.zeros((1, 1))), cmatrix_to_json(0.6 * np.eye(1))],
        },
    )
    code, report = _run(capsys, ["np", "--in", bad])
    assert code == 2
    assert report["solvable"] is False
    assert report["min_eig"] < 0


def test_reduce_node_instance(tmp_path, capsys):
    path = _write(tmp_path, "red.json", _nodes_payload())
    code, report = _run(capsys, ["reduce", "--in", path, "--z2-grid", "0.3,-0.2j"])
    assert code == 0
    assert report["variant"] == "gamma7"
    assert len(report["problems"]) == 2
    assert all("pick" in p for p in report["problems"])


def test_certify_gamma7_nodes_solvable_and_scaled(tmp_path, capsys):
    path = _write(tmp_path, "c0.json", _nodes_payload())
    code, report = _run(capsys, ["certify", "--in", path])
    assert code == 0
    assert report["certified"] is True
    scaled = _write(tmp_path, "c1.json", _nodes_payload(scale=3.0))
    code, report = _run(capsys, ["certify", "--in", scaled])
    assert code == 2
    assert report["certified"] is False


def test_certify_gamma5_reports_both_denominators(tmp_path, capsys):
    path = _write(tmp_path, "c5.json", _nodes_payload(variant="gamma5"))
    code, report = _run(capsys, ["certify", "--in", path])
    assert code == 0
    assert set(report["by_denominator"]) == {"corrected", "printed"}
    assert report["options"]["det_denominator"] == "corrected"


def test_certify_curve_instance_runs_slice_checks(tmp_path, capsys):
    f = random_schur(3, 1, seed=6, max_sigma=0.9)
    curve = gamma_curve_from_entries(realization_to_rational(f), "gamma7")
    payload = {
        "curve": curve_to_json(curve),
        "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)],
    }
    path = _write(tmp_path, "curve.json", payload)
    code, report = _run(capsys, ["certify", "--in", path, "--z2-grid", "0.3,0.5j"])
    assert code == 0
    assert all(row["ok"] for row in report["slice_checks"])


def test_verify_identities_passes_and_is_deterministic(tmp_path, capsys):
    code = run(["verify-identities", "--seed", "7", "--grid", "16"])
    first = capsys.readouterr().out
    assert code == 0
    assert run(["verify-identities", "--seed", "7", "--grid", "16"]) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["passed"] is True
    assert all(row["residual"] <= row["threshold"] for row in report["rows"])


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = run(["mu", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "malformed JSON" in captured.err


def test_missing_field_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", {})
    code = run(["se", "--in", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_out_file_and_text_mode(tmp_path, capsys):
    path = _write(
        tmp_path,
        "mu.json",
        {"matrix": cmatrix_to_json(np.diag([0.5, 0.25, 0.2])), "structure": "E(3;3;1,1,1)"},
    )
    out = tmp_path / "report.json"
    code = run(["mu", "--in", path, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(stdout)
    code = run(["mu", "--in", path, "--text"])
    text = capsys.readouterr().out
    assert code == 0
    assert "mu" in text
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


_E311_DIAG = {"matrix": cmatrix_to_json(np.diag([0.5, 0.25, 0.2])), "structure": "E(3;3;1,1,1)"}
_CURVE = {
    "curve": curve_to_json(
        gamma_curve_from_entries(
            realization_to_rational(random_schur(3, 1, seed=6, max_sigma=0.9)), "gamma7"
        )
    ),
    "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)],
}


def _with_grid(grid):
    return {**_function_payload(seed=3, m=2), "grid": grid}


_NAN = float("nan")


def _with_se_points(points):
    return {**_function_payload(seed=2), "points": points}


def _with_nodes(payload, nodes):
    return {**payload, "nodes": nodes}


def _with_first_entry(payload, value):
    points = [list(p) for p in payload["points"]]
    points[0][0] = value
    return {**payload, "points": points}


def _with_first_denominator(payload, den):
    comps = [dict(c) for c in payload["curve"]["components"]]
    comps[0]["denominator"] = den
    return {**payload, "curve": {**payload["curve"], "components": comps}}


_PICK = {
    "nodes": [[0.2, 0.0], [-0.3, 0.1]],
    "targets": [[[[0.1, 0.0]]], [[[0.2, 0.0]]]],
}
_NODES = _nodes_payload()


@pytest.mark.parametrize(
    "command, payload, extra",
    [
        pytest.param("mu", _E311_DIAG, ["--grid", "2"], id="mu-grid-2"),
        pytest.param("gamma-check", _E311_DIAG, ["--grid", "3"], id="gamma-check-grid-3"),
        pytest.param("upper-e", _with_grid({"n_lambda": 2.5}), [], id="n_lambda-float"),
        pytest.param("upper-e", _with_grid({"n_lambda": "four"}), [], id="n_lambda-string"),
        pytest.param("uw", _with_grid({"n_z": 0}), [], id="n_z-zero"),
        pytest.param("right-s", _with_grid({"n_lambda": -2}), [], id="n_lambda-negative"),
        pytest.param("upper-e", _with_grid({"radius": 1.2}), [], id="radius-above"),
        pytest.param("uw", _with_grid({"radius": 0.2}), [], id="radius-below"),
        pytest.param("upper-e", _with_grid({"radius": "0.7"}), [], id="radius-string"),
        pytest.param("uw", _with_grid({"radius": True}), [], id="radius-bool"),
        pytest.param("upper-e", _with_grid({"diagonal": "false"}), [], id="diagonal-string"),
        pytest.param("right-s", _with_grid({"diagonal": 1}), [], id="diagonal-int"),
        pytest.param(
            "upper-e",
            _with_grid({"points": [[0.1, 0.1, 0.1]], "diagonal": "false"}),
            [],
            id="points-diagonal-string",
        ),
        pytest.param(
            "right-s", _with_grid({"points": [[0.1, 0.2, 1.5]]}), [], id="point-outside"
        ),
        pytest.param(
            "upper-e",
            _with_grid({"points": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]}),
            [],
            id="points-repeated",
        ),
        pytest.param(
            "gamma-check", {"point": [[0.3, 0.0], [0.2, 0.0]]}, [], id="point-length"
        ),
        pytest.param(
            "gamma-check",
            {"point": [0.3, 0.2, 0.05], "variant": "gamma9"},
            [],
            id="point-variant",
        ),
        pytest.param("gamma-check", _E311_DIAG, ["--tol", "nan"], id="gamma-check-tol-nan"),
        pytest.param("certify", _CURVE, ["--tol", "inf"], id="certify-tol-inf"),
        pytest.param("verify-identities", {}, ["--tol=-inf"], id="verify-identities-tol-inf"),
        pytest.param("verify-identities", {}, ["--seed", "-1"], id="verify-identities-seed"),
        pytest.param("certify", _CURVE, ["--n-boundary", "0"], id="certify-n-boundary-0"),
        pytest.param(
            "se",
            _with_se_points([[[1.5, 0], [0.1, 0], [0.2, 0]]]),
            [],
            id="se-point-outside",
        ),
        pytest.param(
            "se", _with_se_points([[[_NAN, 0], [0.1, 0], [0.2, 0]]]), [], id="se-point-nan"
        ),
        pytest.param("np", _with_nodes(_PICK, [[_NAN, 0.0], [0.3, 0.0]]), [], id="np-node-nan"),
        pytest.param(
            "uw", _with_grid({"points": [[0.1, 0.2, 0.3], [_NAN, 0.2, 0.3]]}), [], id="uw-point-nan"
        ),
        pytest.param(
            "certify", _with_nodes(_CURVE, [[0.2, 0.0], [_NAN, 0.0]]), [], id="certify-node-nan"
        ),
        pytest.param(
            "certify", _with_first_entry(_NODES, [_NAN, 0.0]), [], id="certify-point-nan"
        ),
        pytest.param(
            "reduce", _with_nodes(_NODES, [[_NAN, 0.0], [0.1, 0.0], [0.2, 0.0]]), [],
            id="reduce-node-nan",
        ),
        pytest.param(
            "gamma-check", {"point": [[_NAN, 0.0], [0.2, 0.0], [0.05, 0.0]]}, [],
            id="gamma-check-point-nan",
        ),
        pytest.param("np", _with_nodes(_PICK, [["0.2", 0.0], [0.3, 0.0]]), [], id="np-node-string"),
        pytest.param(
            "certify", _with_nodes(_CURVE, [[0.2, 0.0], [False, 0.0]]), [], id="certify-node-bool"
        ),
        pytest.param(
            "certify", _with_first_denominator(_CURVE, [[0.0, 0.0]]), [], id="certify-zero-den"
        ),
        pytest.param(
            "reduce", _with_first_denominator(_CURVE, [1.0, -2.0]), [], id="reduce-pole-inside"
        ),
        # command lines argparse rejects
        pytest.param("gamma-check", _E311_DIAG, ["--tol", "abc"], id="gamma-check-tol-abc"),
        pytest.param("gamma-check", _E311_DIAG, ["--grid", "4.5"], id="gamma-check-grid-float"),
        pytest.param("gamma-check", _E311_DIAG, ["--split", "nope"], id="gamma-check-split-nope"),
        pytest.param("gamma-check", _E311_DIAG, ["--bogus"], id="gamma-check-unknown-option"),
        pytest.param("nope", _E311_DIAG, [], id="unknown-subcommand"),
        pytest.param("reduce", _NODES, ["--z2-grid", "nan"], id="reduce-z2-grid-nan"),
        pytest.param("certify", _NODES, ["--z2-grid", "0,inf"], id="certify-z2-grid-inf"),
        # slice parameters on or outside the unit circle
        *(
            pytest.param(command, _CURVE, [f"--z2-grid={z}"], id=f"{command}-z2-grid-{z}")
            for command in ("reduce", "certify")
            for z in ("1.5", "1", "-1j")
        ),
    ],
)
def test_malformed_input_is_one_line_error(tmp_path, capsys, command, payload, extra):
    path = _write(tmp_path, "bad.json", payload)
    code = run([command, "--in", path, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_out_of_disc_slice_parameter_names_the_entry(tmp_path, capsys):
    path = _write(tmp_path, "curve.json", _CURVE)
    assert run(["certify", "--in", path, "--z2-grid", "0.3,1.5"]) == 1
    assert capsys.readouterr().err == (
        "error: --z2-grid entries must lie in the open unit disc, got '1.5'\n"
    )


# se points: one array decode for [re, im] triples, entry by entry otherwise
_SE_PAIRS = [
    [[0.3, 0.0], [0.2, 0.0], [-0.4, 0.0]],
    [[0.0, -0.1], [0.0, 0.5], [0.0, 0.0]],
    [[0.0, 0.0], [0.25, 0.0], [0.0, 1e-3]],
]


def _se_stdout(tmp_path, capsys, points, text=False):
    path = _write(tmp_path, "se.json", _with_se_points(points))
    code = run(["se", "--in", path, *(["--text"] if text else [])])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


@pytest.mark.parametrize(
    "points",
    [
        pytest.param([[0.3, 0.2, -0.4], [[0, -0.1], [0, 0.5], 0], [0, 0.25, [0, 1e-3]]], id="scalar-real"),
        pytest.param([[[0.3, 0], [0.2, 0], [-0.4, 0]], *_SE_PAIRS[1:]], id="int-parts"),
        pytest.param([[[0.3, 0.0], 0.2, -0.4], *_SE_PAIRS[1:]], id="mixed"),
        pytest.param(
            [_SE_PAIRS[0], [[0, -0.1], [0, 0.5], [0, 0]], _SE_PAIRS[2]], id="int-zeros"
        ),
    ],
)
@pytest.mark.parametrize("text", [False, True])
def test_se_points_decode_the_same_in_any_form(tmp_path, capsys, points, text):
    want = _se_stdout(tmp_path, capsys, _SE_PAIRS, text)
    assert want[0] == 0
    assert _se_stdout(tmp_path, capsys, points, text) == want


_SE_TRIPLES = "error: points must be [lam, z1, z2] triples: "


@pytest.mark.parametrize(
    "points, message",
    [
        pytest.param(
            [["0.5", [0.1, 0], [0.2, 0]]], "expected [re, im] pair, got '0.5'", id="string-entry"
        ),
        pytest.param([[None, [0.1, 0], [0.2, 0]]], "expected [re, im] pair, got None", id="null-entry"),
        pytest.param(
            [[[None, 0], [0.1, 0], [0.2, 0]]],
            "float() argument must be a string or a real number, not 'NoneType'",
            id="null-part",
        ),
        pytest.param(None, "'NoneType' object is not iterable", id="null-points"),
        pytest.param([[[0.1, 0], [0.2, 0]]], "list index out of range", id="two-entries"),
        pytest.param(
            [_SE_PAIRS[0], [[0.1, 0], [0.2, 0], [0.3]]],
            "expected [re, im] pair, got [0.3]",
            id="ragged",
        ),
        pytest.param(
            [[[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]]],
            "expected [re, im] pair, got [0.1, 0, 0]",
            id="triple-parts",
        ),
        pytest.param(5, "'int' object is not iterable", id="points-number"),
        pytest.param("abc", "expected [re, im] pair, got 'a'", id="points-string"),
    ],
)
def test_malformed_se_points_keep_their_message(tmp_path, capsys, points, message):
    path = _write(tmp_path, "bad.json", _with_se_points(points))
    assert run(["se", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{_SE_TRIPLES}{message}\n"


@pytest.mark.parametrize(
    "points, message",
    [
        pytest.param(
            [[["0.5", 0], [0.1, 0], [0.2, 0]]],
            "expected [re, im] pair of numbers, got ['0.5', 0]",
            id="string-part",
        ),
        pytest.param(
            [[[False, False], [False, False], [False, False]]],
            "expected [re, im] pair of numbers, got [False, False]",
            id="bool-parts",
        ),
        pytest.param([[True, 0.1, 0.2]], "expected [re, im] pair, got True", id="bool-entry"),
        # booleans among numbers, which one array decode would read as 0 and 1
        pytest.param(
            [[[False, 0], [0.1, 0], [0.2, 0]]],
            "expected [re, im] pair of numbers, got [False, 0]",
            id="false-part-among-numbers",
        ),
        pytest.param(
            [_SE_PAIRS[0], [[0.1, 0.0], [True, 0.0], [0.2, 0.0]]],
            "expected [re, im] pair of numbers, got [True, 0.0]",
            id="true-part-among-numbers",
        ),
        pytest.param(
            [[[0.1, 0], [0.2, 0], [False, False]]],
            "expected [re, im] pair of numbers, got [False, False]",
            id="bool-pair-among-numbers",
        ),
        pytest.param(
            [[[0.1, 0], [0.2, 0], [0.3, 0], [0.4, 0]]], "point 0 has 4 entries", id="four-pairs"
        ),
        pytest.param(
            [_SE_PAIRS[0], [0.1, 0.2, 0.3, 0.4]], "point 1 has 4 entries", id="four-entries"
        ),
    ],
)
def test_se_points_are_number_triples(tmp_path, capsys, points, message):
    path = _write(tmp_path, "bad.json", _with_se_points(points))
    assert run(["se", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{_SE_TRIPLES}{message}\n"


def test_se_point_object_is_one_line_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", _with_se_points([{"lam": [0.1, 0]}]))
    assert run(["se", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: points must be [lam, z1, z2] triples, got an object\n"


# the report renderer against json.dumps(sort_keys=True, indent=2, allow_nan=False)
class _Float(float):
    def __repr__(self):  # json writes float.__repr__, not the subclass's
        return "not a float"


_EDGE_FLOATS = st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, _Float(0.1), _Float(-2.5)]
)


def _values(floats):
    scalars = st.none() | st.booleans() | st.integers() | st.text() | floats
    pairs = st.lists(st.lists(floats | st.integers(-2, 2), min_size=2, max_size=2), min_size=1)
    return st.recursive(
        scalars | pairs,
        lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
        max_leaves=40,
    )


def _json(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_values(st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS))
@example({"values": [[0.1, -0.0], [1e308, 5e-324]], "é\n\"\\\u2028": []})
@example([[[_Float(0.5), 1.0]], {}, [], "\x00\U0001f600"])
def test_render_json_matches_json_dumps(value):
    assert cli._render_json(value) == _json(value)


@settings(max_examples=200, deadline=None)
@given(_values(st.floats()))
@example({"values": [[0.1, 0.2], [float("nan"), 0.0]]})
@example([[1e308, float("inf")]])
@example({"a": [[0.1, 0.2]], "b": -float("inf")})
def test_render_json_refuses_non_finite_floats_where_json_does(value):
    try:
        expected = _json(value)
    except ValueError:
        with pytest.raises(ValueError, match="Out of range float values"):
            cli._render_json(value)
    else:
        assert cli._render_json(value) == expected


def test_mu_reports_certified_bracket(tmp_path, capsys):
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for label in ("E(3;3;1,1,1)", "E(3;2;1,2)"):
        path = _write(tmp_path, "mu.json", {"matrix": cmatrix_to_json(a), "structure": label})
        for command in ("mu", "gamma-check"):
            code, report = _run(capsys, [command, "--in", path])
            lower, upper = report["mu_bracket"]
            assert lower <= report["mu"] == upper
            assert upper - lower <= 1e-9 * upper
            if command == "gamma-check":
                assert report["member"] == (report["mu"] <= 1.0 + 1e-9)
                assert code == (0 if report["member"] else 2)
    assert run(["mu", "--in", path, "--text"]) == 0
    text = capsys.readouterr().out
    assert "mu_bracket:" in text
    assert f"[1] {upper}" in text


@pytest.mark.parametrize("command", ["mu", "gamma-check"])
def test_mu_nonfinite_matrix_is_one_line_error(tmp_path, capsys, command):
    matrix = cmatrix_to_json(np.eye(3))
    matrix[0][0] = [float("nan"), 0.0]
    path = _write(tmp_path, "nan.json", {"matrix": matrix, "structure": "E(3;3;1,1,1)"})
    code = run([command, "--in", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: matrix entries must be finite\n"


# the bracket closes on the seed-13 matrix and stays open on the seed-5 one
@pytest.mark.parametrize("seed", [5, 13])
def test_mu_outside_exact_structures_is_certified_or_one_line_error(tmp_path, capsys, seed):
    # for 2S + F > 3 the D-scaling bound can exceed mu, so a value is
    # reported only when the bracket closes
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = _write(
        tmp_path, "mu4.json", {"matrix": cmatrix_to_json(a), "structure": "E(4;4;1,1,1,1)"}
    )
    code = run(["mu", "--in", path])
    captured = capsys.readouterr()
    if code == 0:
        report = json.loads(captured.out)
        lower, upper = report["mu_bracket"]
        assert report["mu"] == upper
        assert upper - lower <= 1e-9 * upper
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["upper-e", "uw", "right-s"])
def test_singular_fractional_map_is_declined(tmp_path, capsys, command):
    # constant F with F22 = 1 + 5e-11 (inside the 1e-10 contraction slack):
    # 1 - F22 z1 vanishes at the grid point z1 = 1 / F22, z2 = 0
    f22 = 1.0 + 5e-11
    p = np.diag([0.0, f22, 0.0])
    function = {
        "k": 3,
        "m": 0,
        "p": cmatrix_to_json(p),
        "q": [[], [], []],
        "r": [],
        "s": [],
    }
    points = [[complex_to_json(0.1), complex_to_json(1.0 / f22), complex_to_json(0.0)]]
    path = _write(tmp_path, "sing.json", {"function": function, "grid": {"points": points}})
    code, report = _run(capsys, [command, "--in", path])
    assert code == 2
    assert "resolvent determinant" in report["error"]
    assert report["options"]["grid"] == {"points": 1, "diagonal": False}


def test_parser_reuse_matches_lone_calls(tmp_path, capsys):
    path = _write(tmp_path, "mu.json", _E311_DIAG)
    sequence = [
        ["gamma-check", "--in", path, "--text"],
        ["gamma-check", "--in", path],
        ["gamma-check", "--in", path, "--tol", "0.25"],
        ["gamma-check", "--in", path],
    ]
    lone = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        lone.append((run(argv), capsys.readouterr().out))
    cli._build_parser.cache_clear()
    together = []
    for argv in sequence:
        together.append((run(argv), capsys.readouterr().out))
        # a rejected command line is malformed input, and leaves the shared
        # parser as it was
        assert run(["gamma-check", "--split", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert together == lone
    assert lone[0][1] != lone[1][1] and lone[2][1] != lone[3][1]
    assert cli._build_parser.cache_info().misses == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gammapick")


def _winding_checks(argv, on_given_values=None) -> int:
    """Number of 4096-point winding checks one ``run(argv)`` computes, on
    circle values it evaluates or is given; with ``on_given_values`` True or
    False, only those on given or on evaluated values."""
    count = 0
    original = hardy._boundary_winding

    def counted(den, values=None):
        nonlocal count
        if on_given_values is None or on_given_values == (values is not None):
            count += 1
        return original(den, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "_boundary_winding", counted)
        run(argv)
    return count


def _rational_curve_file(tmp_path, seed, variant="gamma7"):
    f = random_schur(3, 2, seed=seed, max_sigma=0.9)
    curve = gamma_curve_from_entries(realization_to_rational(f), variant)
    payload = {
        "curve": curve_to_json(curve),
        "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)],
    }
    return _write(tmp_path, f"curve{seed}-{variant}.json", payload)


# DEFAULT_Z_GRID with z = 0, its first entry, moved last
_ZERO_LAST = ",".join(repr(complex(z)).strip("()") for z in (*DEFAULT_Z_GRID[1:], 0.0))


def test_certify_checks_each_denominator_once(tmp_path, capsys):
    path = _rational_curve_file(tmp_path, 4)
    argv = ["certify", "--in", path]
    # one for the curve's shared denominator and, per slice parameter, one for
    # the slice denominator and one for its square, wherever z = 0 sits
    assert _winding_checks(argv) == 1 + 2 * len(DEFAULT_Z_GRID)
    report = json.loads(capsys.readouterr().out)
    assert all(row["ok"] for row in report["slice_checks"])
    assert _winding_checks([*argv, "--z2-grid", _ZERO_LAST]) == 1 + 2 * len(DEFAULT_Z_GRID)
    report = json.loads(capsys.readouterr().out)
    assert report["slice_checks"][-1]["z"] == [0.0, 0.0]
    assert all(row["ok"] for row in report["slice_checks"])
    # only the curve's own check evaluates its denominator; the slices' run on
    # values read from the curve's coordinate rows
    assert _winding_checks(argv, on_given_values=False) == 1
    capsys.readouterr()


def test_printed_certify_evaluates_one_winding_check(tmp_path, capsys):
    path = _rational_curve_file(tmp_path, 4, "gamma5")
    argv = ["certify", "--in", path, "--det-denominator", "printed"]
    # f11 f22 - det goes over den**2 * det_den at once, checked on values
    assert _winding_checks(argv, on_given_values=False) == 1
    rows = json.loads(capsys.readouterr().out)["slice_checks"]
    # the printed convention breaks contractivity at the outer real and
    # imaginary parameters
    failed = [complex(*row["z"]) for row in rows if not row["ok"]]
    assert failed == [0.6, -0.6, 0.6j]
    assert all("not contractive" in row["error"] for row in rows if not row["ok"])


def test_certify_repeats_its_winding_work(tmp_path, capsys):
    a, b = _rational_curve_file(tmp_path, 4), _rational_curve_file(tmp_path, 5)
    counts = [_winding_checks(["certify", "--in", p]) for p in (a, b, a)]
    capsys.readouterr()
    # nothing certified for curve a carries over to its second op
    assert counts[0] == counts[2] > 0


def test_runtime_imports_only_numpy_and_the_standard_library():
    # modules loaded before the import (site hooks of the interpreter) are
    # not the package's
    probe = (
        "import sys; before = set(sys.modules); import gammapick, gammapick.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = str(Path(gammapick.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert "gammapick" in out
    assert {m for m in out if m not in sys.stdlib_module_names} <= {"numpy", "gammapick"}

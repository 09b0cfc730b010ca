import argparse
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
from gammapick import _poly, cli, hardy, lurking, nevanlinna, tolerances
from gammapick.cli import run
from gammapick.domains import E311, mu, pi_coordinates
from gammapick.kernels import tensor_grid, upper_e
from gammapick.nevanlinna import DEFAULT_Z_GRID, gamma_curve_from_entries
from gammapick.realization import RealizedSchurFunction, random_schur, realization_to_rational
from gammapick.serialize import (
    cmatrix_to_json,
    complex_to_json,
    curve_to_json,
    gamma_nodes_to_json,
)
from gammapick.nevanlinna import GammaNodes
from gammapick.domains import GammaPoint
from test_hardy import root_certificates


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


def test_mu_on_one_block_reports_the_spectral_radius(tmp_path, capsys):
    a = np.diag([0.5, 0.2, 0.1]).astype(complex)
    a[0, 1] = 0.3
    path = _write(tmp_path, "mu.json", {"matrix": cmatrix_to_json(a), "structure": "E(3;1;3)"})
    code, report = _run(capsys, ["mu", "--in", path])
    assert code == 0
    assert report["mu"] == 0.5 and report["mu_bracket"] == [0.5, 0.5]
    assert report["structure"] == "E(3;1;3)"


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


def test_mu_of_a_subnormal_matrix(tmp_path, capsys):
    path = _write(tmp_path, "sub.json", {
        "matrix": cmatrix_to_json(np.full((3, 3), 1e-320)), "structure": "E(3;3;1,1,1)"
    })
    for command in ("mu", "gamma-check"):
        code = run([command, "--in", path])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["mu"] == pytest.approx(3e-320, rel=1e-3)
        if command == "gamma-check":
            assert report["member"] is True


@pytest.mark.parametrize("command", ["mu", "gamma-check"])
def test_mu_above_the_largest_float_is_one_line_error(tmp_path, capsys, command):
    # every entry 1e308 has mu 3e308, above the largest float; 1e307 still answers
    for entry, mu_value in ((1e308, None), (1e307, 3e307)):
        path = _write(tmp_path, "big.json", {
            "matrix": cmatrix_to_json(np.full((3, 3), entry)), "structure": "E(3;3;1,1,1)"
        })
        code = run([command, "--in", path])
        captured = capsys.readouterr()
        if mu_value is None:
            assert code == 1 and captured.out == ""
            assert captured.err == "error: mu overflows: its bracket [inf, inf] is not finite\n"
        else:
            assert code == (0 if command == "mu" else 2) and captured.err == ""
            assert json.loads(captured.out)["mu"] == pytest.approx(mu_value, rel=1e-12)


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


def test_uw_command_evaluates_each_function_once(tmp_path, capsys, monkeypatch):
    # F for its triple, Xi for its triple: verify_uw and torus_fit read those values
    evaluated = []
    original = RealizedSchurFunction.evaluate_many

    def counted(self, lam):
        evaluated.append(self)
        return original(self, lam)

    monkeypatch.setattr(RealizedSchurFunction, "evaluate_many", counted)
    path = _write(tmp_path, "uw.json", _function_payload(seed=4, m=2, max_sigma=0.9))
    code, report = _run(capsys, ["uw", "--in", path])
    assert code == 0 and report["passed"] is True
    assert len(evaluated) == 2 and evaluated[0] is not evaluated[1]


@pytest.mark.parametrize("tol", ["1e-3", "1e-12"])
def test_uw_tol_does_not_move_the_rank_decisions(tmp_path, capsys, monkeypatch, tol):
    # uw_construct decides the rank conditions and the rank-one factors at
    # KERNEL_TOL: --tol moves only its Gram and fit tests and uw's own checks
    seen = []
    for name in ("membership", "rank1_factor"):
        original = getattr(lurking, name)

        def spied(*args, _original=original):
            seen.append(args[-1])
            return _original(*args)

        monkeypatch.setattr(lurking, name, spied)
    path = _write(tmp_path, "uw.json", _function_payload(seed=4, m=2, max_sigma=0.9))
    code, report = _run(capsys, ["uw", "--in", path, "--tol", tol])
    assert code == 0 and report["options"]["tol"] == float(tol)
    assert seen == [tolerances.KERNEL_TOL] * 4


def test_uw_declines_a_function_whose_first_column_vanishes(tmp_path, capsys):
    # F's (1,1) entry is zero everywhere, so torus_fit has no phase to anchor,
    # though the instance is well-formed and uw_construct succeeds on it
    v = random_schur(3, 2, seed=5).colligation.copy()
    v[0, 0], v[0, 3:] = 0.0, 0.0
    f = RealizedSchurFunction.from_colligation(0.99 * v / np.linalg.norm(v, 2), 3, 2)
    grid = {"n_lambda": 4, "n_z": 4, "radius": 0.9, "seed": 3}
    path = _write(tmp_path, "uw.json", {"function": f.to_json(), "grid": grid})
    code = run(["uw", "--in", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["error"] == "column-one entry (1,1) too small to anchor a phase"


def test_right_s_command(tmp_path, capsys):
    path = _write(tmp_path, "rs.json", _function_payload(seed=5, m=2))
    code, report = _run(capsys, ["right-s", "--in", path])
    assert code == 0
    assert report["modulus_match"] <= 1e-9


def _zero_and_small_functions():
    zero = RealizedSchurFunction(
        3, 0, np.zeros((3, 3)), np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((0, 0))
    )
    f = random_schur(3, 2, seed=1)
    small = RealizedSchurFunction(3, 2, 1e-6 * f.p, 1e-3 * f.q, 1e-3 * f.r, f.s)
    return {"zero": zero, "small": small}


@pytest.mark.parametrize("name", ["zero", "small"])
def test_a_vanishing_combined_kernel_is_a_member_of_rank_zero(tmp_path, capsys, name):
    # rounding noise far below the floor tol * max(1, top) of is_psd is not
    # indefiniteness, and counts no rank
    f = _zero_and_small_functions()[name]
    # K is rounding noise: for small, min -9.4e-16 and top 7.4e-12 (x86-64, OpenBLAS)
    spec = upper_e(f, tensor_grid()).combined.spectrum
    assert -1e-14 < spec.min <= spec.top < 1e-11
    path = _write(tmp_path, "f.json", {"function": f.to_json()})
    code, report = _run(capsys, ["upper-e", "--in", path])
    assert code == 0 and report["member"] is True
    assert report["psd"]["k"] is True and report["ranks"]["k"] == 0
    code, report = _run(capsys, ["right-s", "--in", path])
    assert code == 0
    assert report["max_modulus"] == 0.0
    assert all(v == [0.0, 0.0] for v in report["values"])


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


@pytest.mark.parametrize(
    "variant, options, triangular_at_zero",
    [
        ("gamma5", ["--det-denominator", "printed"], False),
        ("gamma7", [], True),
    ],
)
def test_certify_slice_checks_off_the_default_path(
    tmp_path, capsys, variant, options, triangular_at_zero
):
    # the first map of acceptance criterion 7: every slice passes, gamma5's
    # by the printed determinant slice; gamma7's slice at z = 0 is diagonal
    a = ((0.5, 0.2, 0.0), (0.0, 0.4, 0.1), (0.1, 0.0, 0.3))
    entries = [[hardy.RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    payload = {
        "curve": curve_to_json(gamma_curve_from_entries(entries, variant)),
        "nodes": [complex_to_json(v) for v in (0.2, -0.35 + 0.1j, 0.45j)],
    }
    path = _write(tmp_path, "curve.json", payload)
    code, report = _run(capsys, ["certify", "--in", path, *options])
    assert code == 0
    assert report["slice_checks"] == [
        {"z": complex_to_json(z), "ok": True, "triangular": triangular_at_zero and z == 0}
        for z in DEFAULT_Z_GRID
    ]


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


def _with_grid(grid, k=3):
    return {**_function_payload(seed=3, m=2, k=k), "grid": grid}


_NAN = float("nan")
_INF = float("inf")


def _with_se_points(points):
    return {**_function_payload(seed=2), "points": points}


def _with_size(m):
    """An ``se`` instance whose function of size 2 gives its size ``m`` as ``m``."""
    payload = {**_function_payload(seed=2, m=2), "points": [[[0.1, 0], [0.2, 0], [0.3, 0]]]}
    return {**payload, "function": {**payload["function"], "m": m}}


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
        pytest.param("verify-identities", None, ["--tol=-inf"], id="verify-identities-tol-inf"),
        pytest.param("verify-identities", None, ["--seed", "-1"], id="verify-identities-seed"),
        *(
            pytest.param("verify-identities", None, ["--grid", g], id=f"verify-identities-grid-{g}")
            for g in ("3", "0", "-5")
        ),
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
        pytest.param("np", {"nodes": [[0.2, 0.0]], "targets": [[]]}, [], id="np-target-0x0"),
        *(
            pytest.param(command, {"variant": "gamma7", "nodes": [], "points": []}, [],
                         id=f"{command}-no-nodes")
            for command in ("reduce", "certify")
        ),
        pytest.param("certify", _with_nodes(_CURVE, []), [], id="certify-curve-no-nodes"),
        *(
            pytest.param(command, {**_E311_DIAG, "structure": structure}, [],
                         id=f"{command}-structure-{type(structure).__name__}")
            for command in ("mu", "gamma-check")
            for structure in (5, None, ["E(3;3;1,1,1)"], {"n": 3}, True)
        ),
        *(
            pytest.param(command, _with_grid({}, k=k), [], id=f"{command}-k{k}")
            for command in ("upper-e", "uw", "right-s")
            for k in (1, 2)
        ),
        *(
            pytest.param(command, _with_grid({"points": []}), [], id=f"{command}-no-points")
            for command in ("upper-e", "uw", "right-s")
        ),
        # JSON numbers too large for a float parse as inf
        *(
            pytest.param(
                command,
                {**payload, "function": {**payload["function"], size: _INF}},
                [],
                id=f"{command}-{size}-inf",
            )
            for command, payload in (
                ("se", _with_se_points([[[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]])),
                *((command, _with_grid({})) for command in ("upper-e", "uw", "right-s")),
            )
            for size in ("k", "m")
        ),
        # command lines argparse rejects; mu and gamma-check take no --grid
        pytest.param("gamma-check", _E311_DIAG, ["--tol", "abc"], id="gamma-check-tol-abc"),
        pytest.param("mu", _E311_DIAG, ["--grid", "2"], id="mu-grid-2"),
        pytest.param("gamma-check", _E311_DIAG, ["--grid", "3"], id="gamma-check-grid-3"),
        pytest.param("gamma-check", _E311_DIAG, ["--grid", "4.5"], id="gamma-check-grid-float"),
        pytest.param("gamma-check", _E311_DIAG, ["--split", "nope"], id="gamma-check-split-nope"),
        pytest.param("reduce", _NODES, ["--split", "nope"], id="reduce-split-nope"),
        pytest.param("gamma-check", _E311_DIAG, ["--bogus"], id="gamma-check-unknown-option"),
        pytest.param("mu", None, [], id="mu-no-in"),
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
    infile = [] if payload is None else ["--in", _write(tmp_path, "bad.json", payload)]
    code = run([command, *infile, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _constant_curve(variant: str, component: dict, nodes: list) -> dict:
    size = {"gamma7": 7, "gamma5": 5}[variant]
    return {"curve": {"variant": variant, "components": [component] * size}, "nodes": nodes}


@pytest.mark.parametrize(
    "payload, code",
    [
        # a computed root on a point of the certificate's circle: q = 0
        pytest.param(
            _constant_curve("gamma7", {"numerator": [0.1], "denominator": [1, -1]}, [0.1, 0.2]),
            1,
            id="pole-on-the-circle",
        ),
        # the values overflow over a subnormal denominator
        pytest.param(
            _constant_curve("gamma5", {"numerator": [0.1], "denominator": [1e-320]}, [0.1]),
            1,
            id="subnormal-denominators",
        ),
        # the slices, their norms and the determinant check overflow
        pytest.param(
            _constant_curve("gamma7", {"numerator": [1e300, 1e300], "denominator": [1]}, [0.1]),
            2,
            id="huge-numerators",
        ),
    ],
)
def test_numpy_warnings_do_not_reach_stderr(tmp_path, payload, code):
    # capsys does not see Python warnings: the CLI runs in a subprocess
    src = str(Path(gammapick.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "gammapick.cli", "certify", "--in", _write(tmp_path, "in.json", payload)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code
    if code == 1:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize(
    "command, payload, message",
    [
        pytest.param("mu", {**_E311_DIAG, "structure": 5},
                     "bad matrix instance: cannot parse structure label 5", id="mu-structure"),
        pytest.param("gamma-check", {**_E311_DIAG, "structure": None},
                     "bad matrix instance: cannot parse structure label None",
                     id="gamma-check-structure"),
        pytest.param("uw", _with_grid({}, k=2),
                     "the fractional map needs a 3x3 matrix Schur function", id="uw-k2"),
        pytest.param("certify", _with_first_denominator(_CURVE, [[1.0, 0.0], [_NAN, 0.0]]),
                     "bad gamma curve data: curve coefficients must be finite",
                     id="certify-denominator-nan"),
        pytest.param("reduce", _with_first_denominator(_CURVE, [[1.0, 0.0], [-_INF, 0.0]]),
                     "bad gamma curve data: curve coefficients must be finite",
                     id="reduce-denominator-inf"),
        # a size that is not a JSON integer; int() would read 2.5 and "2" as
        # the function's true size 2, and true as 1
        *(
            pytest.param("se", _with_size(m),
                         f"bad realization data: m must be an integer, got {m!r}",
                         id=f"se-m-{type(m).__name__}")
            for m in (2.5, "2", True)
        ),
    ],
)
def test_malformed_input_names_the_problem(tmp_path, capsys, command, payload, message):
    path = _write(tmp_path, "bad.json", payload)
    assert run([command, "--in", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_overflowing_pick_problems_are_unsolvable(tmp_path, capsys):
    # |w|**2 overflows: a target of norm above 1 makes the problem unsolvable
    path = _write(tmp_path, "pick.json", {"nodes": [0.1, 0.2], "targets": [[[1e308]], [[-1e308]]]})
    assert run(["np", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert set(report) == {"command", "error", "options"}
    assert report["error"].startswith("Pick matrix overflows")
    # gamma5 node data whose first point holds 1e300: every Pick matrix overflows
    payload = _nodes_payload(variant="gamma5")
    payload["points"][0] = [[1e300, 0.0]] + payload["points"][0][1:]
    path = _write(tmp_path, "nodes.json", payload)
    code, report = _run(capsys, ["certify", "--in", path])
    assert code == 2
    for table in report["by_denominator"].values():
        for row in table["rows"]:
            assert not row["solvable"] and row["min_eig"] is None
            assert row["note"].startswith("Pick matrix overflows") and "\n" not in row["note"]


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


@pytest.mark.parametrize(
    "command, option, value, echoed",
    [
        ("gamma-check", "--tol", "-1e-9", -1e-9),
        ("reduce", "--z2-grid", "-0.3,0.3", [[-0.3, 0.0], [0.3, 0.0]]),
        ("reduce", "--z2-grid", "-0.3j", [[0.0, -0.3]]),
    ],
)
def test_an_option_value_may_start_with_a_minus(tmp_path, capsys, command, option, value, echoed):
    # argparse alone takes a separate token that starts with "-" for a value
    # only when it looks like a plain negative number: an exponent, a comma
    # or a "j" made it an unknown option
    payload = _E311_DIAG if command == "gamma-check" else _nodes_payload()
    path = _write(tmp_path, "in.json", payload)
    apart = run([command, "--in", path, option, value]), capsys.readouterr()
    joined = run([command, "--in", path, f"{option}={value}"]), capsys.readouterr()
    assert apart == joined
    assert apart[0] == 0 and apart[1].err == ""
    assert json.loads(apart[1].out)["options"][option[2:].replace("-", "_")] == echoed


@pytest.mark.parametrize(
    "command, prefix, value, key, echoed",
    [
        pytest.param("gamma-check", "--to", "-1e-9", "tol", -1e-9, id="to"),
        pytest.param(
            "certify", "--z2", "-0.3,0.3", "z2_grid", [[-0.3, 0.0], [0.3, 0.0]], id="z2"
        ),
    ],
)
def test_an_abbreviated_option_value_may_start_with_a_minus(
    tmp_path, capsys, command, prefix, value, key, echoed
):
    # argparse reads a prefix of one option alone as that option
    payload = _E311_DIAG if command == "gamma-check" else _NODES
    path = _write(tmp_path, "in.json", payload)
    apart = run([command, "--in", path, prefix, value]), capsys.readouterr()
    joined = run([command, "--in", path, f"{prefix}={value}"]), capsys.readouterr()
    assert apart == joined
    assert apart[0] in (0, 2) and apart[1].err == ""
    assert json.loads(apart[1].out)["options"][key] == echoed


def test_an_ambiguous_abbreviation_is_refused(tmp_path, capsys):
    # --t starts both --tol and --text on gamma-check
    path = _write(tmp_path, "in.json", _E311_DIAG)
    assert run(["gamma-check", "--in", path, "--t", "-1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ambiguous option: --t could match --tol, --text\n"


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        pytest.param(
            "se",
            {"function": _without(_function_payload()["function"], "s"), "points": []},
            "bad realization data: missing the 's' field",
            id="realization",
        ),
        pytest.param(
            "np", _without(_PICK, "targets"), "bad Pick data: missing the 'targets' field",
            id="pick",
        ),
        pytest.param(
            "reduce", _without(_NODES, "points"), "bad gamma node data: missing the 'points' field",
            id="gamma-nodes",
        ),
        pytest.param(
            "certify",
            {**_CURVE, "curve": _without(_CURVE["curve"], "components")},
            "bad gamma curve data: missing the 'components' field",
            id="gamma-curve",
        ),
    ],
)
def test_a_missing_nested_field_is_named(tmp_path, capsys, command, payload, message):
    assert run([command, "--in", _write(tmp_path, "in.json", payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reduce_gamma5_nodes_echoes_the_determinant_denominator(tmp_path, capsys):
    # pi_coordinates(lam A, "gamma5") has x4 = lam tr(A22): 2 - z x4 vanishes
    # at the first node for z = 2 / x4, which the grid puts in the disc
    a = np.diag([0.5, 1.0, 1.5]).astype(complex)
    nodes = (0.9, -0.3j)
    points = tuple(pi_coordinates(lam * a, "gamma5") for lam in nodes)
    path = _write(tmp_path, "g5.json", gamma_nodes_to_json(GammaNodes("gamma5", nodes, points)))
    zero = 2.0 / points[0].entries[3]
    assert abs(zero) < 1.0
    for det_denominator in ("corrected", "printed"):
        code, report = _run(capsys, [
            "reduce", "--in", path, "--z2-grid", f"0.3,{zero.real!r}",
            "--det-denominator", det_denominator,
        ])
        assert code == 0 and report["variant"] == "gamma5"
        assert report["options"]["det_denominator"] == det_denominator
        first, second = report["problems"]
        assert "pick" in first and "error" not in first
        assert second["error"] == f"slice denominator 2 - z*x4 vanishes at z={complex(zero)}"


def test_certify_reports_a_row_whose_reduction_fails(tmp_path, capsys):
    # x2 = 10/3 makes the slice denominator 1 - z x2 vanish at z = 0.3
    point = GammaPoint("gamma7", (0.0, 10 / 3, 0.0, 0.0, 0.0, 0.0, 0.0))
    path = _write(tmp_path, "g7.json", gamma_nodes_to_json(GammaNodes("gamma7", (0.2,), (point,))))
    code, report = _run(capsys, ["certify", "--in", path, "--z2-grid", "0.3,0"])
    assert code == 2
    row = next(row for row in report["rows"] if row["z"] == [0.3, 0.0])
    assert row["solvable"] is False
    assert row["min_eig"] is None and row["target_residual"] is None
    assert row["note"] == "slice denominator 1 - z*x2 vanishes at z=(0.3+0j)"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gammapick")


# the options each subcommand reads besides --out and --text, and for each
# option a command-line value and what it parses to
_READS = {
    "mu": ("--in",),
    "gamma-check": ("--in", "--tol"),
    "se": ("--in",),
    "upper-e": ("--in", "--tol"),
    "uw": ("--in", "--tol"),
    "right-s": ("--in", "--tol"),
    "np": ("--in", "--tol"),
    "reduce": ("--in", "--z2-grid", "--split", "--det-denominator"),
    "certify": ("--in", "--z2-grid", "--split", "--det-denominator", "--tol"),
    "verify-identities": ("--seed", "--grid", "--tol"),
}
_VALUES = {
    "--in": (["x.json"], "x.json"),
    "--out": (["y.json"], "y.json"),
    "--text": ([], True),
    "--tol": (["0.5"], 0.5),
    "--grid": (["8"], 8),
    "--seed": (["3"], 3),
    "--z2-grid": (["0.1,0.2j"], (0.1, 0.2j)),
    "--split": (["left-one"], "left-one"),
    "--det-denominator": (["printed"], "printed"),
}


def test_parser_has_44_settable_values():
    (sub,) = (a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {f for a in p._actions for f in a.option_strings if f not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert flags == {name: {*reads, "--out", "--text"} for name, reads in _READS.items()}
    assert sum(map(len, flags.values())) == 44


@pytest.mark.parametrize("command", list(_READS))
def test_subcommand_parses_exactly_the_options_it_reads(tmp_path, capsys, command):
    reads = {*_READS[command], "--out", "--text"}
    infile = ["--in", _write(tmp_path, "x.json", {})] if "--in" in reads else []
    for flag, (tokens, value) in _VALUES.items():
        if flag in reads:
            args = cli._build_parser().parse_args(
                [command, *(infile if flag != "--in" else []), flag, *tokens]
            )
            dest = {"--in": "infile", "--out": "outfile"}.get(flag, flag[2:].replace("-", "_"))
            assert getattr(args, dest) == value, flag
        else:
            assert run([command, *infile, flag, *tokens]) == 1, flag
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: unrecognized arguments: ")
            assert captured.err.count("\n") == 1


def _root_certificates(argv) -> int:
    """Number of root certificates one ``run(argv)`` computes."""
    return root_certificates(lambda: run(argv))


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
    # the slice denominator, wherever z = 0 sits; its square is certified by
    # its factor, with no certificate of its own
    assert _root_certificates(argv) == 1 + len(DEFAULT_Z_GRID)
    report = json.loads(capsys.readouterr().out)
    assert all(row["ok"] for row in report["slice_checks"])
    assert _root_certificates([*argv, "--z2-grid", _ZERO_LAST]) == 1 + len(DEFAULT_Z_GRID)
    report = json.loads(capsys.readouterr().out)
    assert report["slice_checks"][-1]["z"] == [0.0, 0.0]
    assert all(row["ok"] for row in report["slice_checks"])
    # every companion matrix solved is a certificate's or, for the pairs, one
    # for the numerator of f11 f22 - det: the poles are the certified roots.
    # They go in three stacked eigvals calls, one per stack of one length:
    # the curve's denominator, the nine slice denominators and the nine
    # numerators; the nine pairs come from one pass
    stacks, eigvals_calls, pair_passes = [], [], []
    roots, eigvals, many = _poly.roots, np.linalg.eigvals, nevanlinna._inner_outer_many

    def counted_roots(stack):
        stacks.append(len(stack))
        return roots(stack)

    def counted_eigvals(a):
        eigvals_calls.append(a.shape)
        return eigvals(a)

    def counted_many(fs, *args):
        pair_passes.append(len(fs))
        return many(fs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_poly, "roots", counted_roots)
        mp.setattr(np.linalg, "eigvals", counted_eigvals)
        mp.setattr(nevanlinna, "_inner_outer_many", counted_many)
        run(argv)
    assert sum(stacks) == 1 + 2 * len(DEFAULT_Z_GRID)
    assert stacks == [1, len(DEFAULT_Z_GRID), len(DEFAULT_Z_GRID)]
    assert [shape[0] for shape in eigvals_calls] == stacks
    assert pair_passes == [len(DEFAULT_Z_GRID)]
    capsys.readouterr()


def _polynomial_curve_file(tmp_path, seed=7, variant="gamma7"):
    """``lam -> lam A0`` with ``||A0|| < 1``, the benchmark's median curve."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a *= rng.uniform(0.5, 0.95) / np.linalg.norm(a, 2)
    entries = [[hardy.RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    curve = gamma_curve_from_entries(entries, variant)
    payload = {"curve": curve_to_json(curve), "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)]}
    return _write(tmp_path, f"polynomial-{variant}-{seed}.json", payload)


@pytest.mark.parametrize("variant", ["gamma7", "gamma5"])
def test_certify_checks_a_polynomial_curve_per_stack(tmp_path, capsys, variant):
    # the slice pass trims and pair-checks its slices as stacks: the slices
    # of a polynomial curve have two denominator lengths (a constant one at
    # z = 0) and two pair signatures, so the nine slices of the default grid
    # make as many calls as three of them do.  Checked slice by slice, the
    # nine made 54 trims and 9 pair checks in the pass
    path = _polynomial_curve_file(tmp_path, variant=variant)
    counted = {}
    slice_checks = cli._slice_checks

    def pass_only(curve, *args):
        curve.rows  # the curve's shared denominator, built outside the pass
        counted.clear()
        return slice_checks(curve, *args)

    def counts(argv):
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in ((hardy, "trims"), (hardy, "_pair_errors")):
                original = getattr(owner, name)

                def wrapped(*args, _original=original, _name=name):
                    counted[_name] = counted.get(_name, 0) + 1
                    return _original(*args)

                mp.setattr(owner, name, wrapped)
            mp.setattr(cli, "_slice_checks", pass_only)
            run(argv)
        report = json.loads(capsys.readouterr().out)
        assert all(row["ok"] for row in report["slice_checks"])
        return dict(counted)

    nine = counts(["certify", "--in", path])
    assert counts(["certify", "--in", path, "--z2-grid", "0,0.3,-0.6j"]) == nine
    # one pair check per signature, and four trims: the slice denominators,
    # their numerators, the squares of the denominators and the numerators
    # of f11 f22 - det
    assert nine == {"trims": 4, "_pair_errors": 2}


def test_printed_certify_evaluates_one_winding_check(tmp_path, capsys):
    # the name is older than the root certificates, which replaced the
    # winding checks: one for the curve and, per slice parameter, one for the
    # slice denominator and one for the printed determinant denominator, a
    # different polynomial even at z = 0; f11 f22 - det goes over den**2 *
    # det_den at once, certified by those factors
    path = _rational_curve_file(tmp_path, 4, "gamma5")
    argv = ["certify", "--in", path, "--det-denominator", "printed"]
    assert _root_certificates(argv) == 1 + 2 * len(DEFAULT_Z_GRID)
    rows = json.loads(capsys.readouterr().out)["slice_checks"]
    # the printed convention breaks contractivity at the outer real and
    # imaginary parameters
    failed = [complex(*row["z"]) for row in rows if not row["ok"]]
    assert failed == [0.6, -0.6, 0.6j]
    assert all("not contractive" in row["error"] for row in rows if not row["ok"])


def test_certify_repeats_its_winding_work(tmp_path, capsys):
    a, b = _rational_curve_file(tmp_path, 4), _rational_curve_file(tmp_path, 5)
    counts = [_root_certificates(["certify", "--in", p]) for p in (a, b, a)]
    capsys.readouterr()
    # nothing certified for curve a carries over to its second op
    assert counts[0] == counts[2] > 0


def test_certify_refuses_a_curve_with_a_pole_just_inside_the_disc(tmp_path, capsys):
    # every component over 1 - lam/r, |r| = 1 - 1e-9: the curve is bad data,
    # and no slice is ever built from it
    r = (1.0 - 1e-9) * np.exp(0.3j)
    den = [[1.0, 0.0], [(-1.0 / r).real, (-1.0 / r).imag]]
    comps = [{"numerator": [[0.05 * (i + 1), 0.0]], "denominator": den} for i in range(7)]
    payload = {
        "curve": {"variant": "gamma7", "components": comps},
        "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)],
    }
    assert run(["certify", "--in", _write(tmp_path, "inside.json", payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad gamma curve data: denominator has 1 root(s) inside the unit disc\n"
    )


@pytest.mark.parametrize("den, code", [((1e-310, 1e-311), 0), ((1e-310, 1e-310), 1)])
def test_reduce_a_curve_over_subnormal_coefficients(tmp_path, capsys, den, code):
    # 1e-310 + 1e-311 lam has its root at -10, and 1e-310 + 1e-310 lam at -1
    comps = [
        {"numerator": [[1e-311 * 0.1 * i, 0.0]], "denominator": [[d, 0.0] for d in den]}
        for i in range(7)
    ]
    payload = {
        "curve": {"variant": "gamma7", "components": comps},
        "nodes": [complex_to_json(v) for v in (0.1, 0.2 + 0.1j)],
    }
    assert run(["reduce", "--in", _write(tmp_path, "sub.json", payload)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert all("pick" in entry for entry in json.loads(captured.out)["problems"])
    else:
        assert captured.out == ""
        assert captured.err == (
            "error: bad gamma curve data: denominator nearly vanishes on the unit circle: "
            "roots not certified\n"
        )


# run in a fresh interpreter: the gammapick subcommand given as arguments; with
# the one argument __all__, the resolution of cli and of every public name; with
# none, the import of gammapick.  It prints the modules that loaded, not
# counting those of the interpreter's site hooks
_LOADS_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import gammapick
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    if sys.argv[1:] == ["__all__"]:
        from gammapick import cli
        for name in gammapick.__all__:
            getattr(gammapick, name)
    elif sys.argv[1:]:
        from gammapick import cli
        cli.run(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
"""


def test_runtime_imports_only_numpy_and_the_standard_library(tmp_path):
    src = str(Path(gammapick.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def loads(*argv):
        """The gammapick submodules that a fresh run of ``argv`` loads."""
        done = subprocess.run(
            [sys.executable, "-c", _LOADS_PROBE, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stderr == ""
        loaded = done.stdout.split()
        tops = {m.split(".")[0] for m in loaded}
        assert "gammapick" in tops
        # numpy.random's Cython-compiled extensions register the shims
        # cython_runtime and _cython_<version>, which ship in no package
        others = {m for m in tops if m not in sys.stdlib_module_names}
        others -= {m for m in others if m == "cython_runtime" or m.startswith("_cython_")}
        assert others <= {"numpy", "gammapick"}
        return {m.removeprefix("gammapick.") for m in loaded if m.startswith("gammapick.")}

    assert loads() == set()
    modules = {p.stem for p in Path(gammapick.__file__).parent.glob("*.py")} - {"__init__"}
    assert loads("__all__") == modules
    assert loads("--help").isdisjoint({"hardy", "kernels", "lurking", "nevanlinna"})
    # every subcommand, so that each handler's own imports run too
    grid = _with_grid({})
    inputs = {
        "mu": _E311_DIAG, "gamma-check": _E311_DIAG,
        "se": _with_se_points([[[0.1, 0], [0.2, 0], [0.3, 0]]]),
        "upper-e": grid, "uw": grid, "right-s": grid,
        "np": _PICK, "reduce": _NODES, "certify": _CURVE,
    }
    loaded = {
        command: loads(command, "--in", _write(tmp_path, f"{command}.json", payload))
        for command, payload in inputs.items()
    }
    loaded["verify-identities"] = loads("verify-identities", "--grid", "4")
    assert set(loaded) == set(cli._COMMANDS)
    assert loaded["gamma-check"] == {"cli", "domains", "linalg", "serialize", "tolerances"}
    assert loaded["se"].isdisjoint({"hardy", "nevanlinna"})
    assert loaded["certify"].isdisjoint({"fractional", "kernels", "lurking"})
    assert {"kernels", "lurking"} <= loaded["verify-identities"]

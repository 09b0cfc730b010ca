"""``certify`` output pinned byte for byte.

Each instance is built here, run through the CLI, and its stdout and exit
code compared against a SHA-256 digest of the output of the one-slice-at-a-
time implementation that the stacked slice pass replaced (the two random
polynomial curves: of the slice pass that still checked each slice on its
own, before its per-slice checks ran as stacks).  A change that
moves any printed bit of a ``certify`` report, a slice check, a Pick row or a
float's last digit, fails here.  The digests hold for the machine they were
recorded on (x86-64, numpy 2.4.6 with its OpenBLAS); another BLAS or CPU may
round differently.
"""

import hashlib
import json

import numpy as np
import pytest

from gammapick import hardy
from gammapick.cli import run
from gammapick.domains import E311, GammaPoint, mu, pi_coordinates
from gammapick.nevanlinna import GammaNodes, gamma_curve_from_entries
from gammapick.realization import random_schur, realization_to_rational
from gammapick.serialize import complex_to_json, curve_to_json, gamma_nodes_to_json

# the first map of acceptance criterion 7 and its nodes
_MAP = ((0.5, 0.2, 0.0), (0.0, 0.4, 0.1), (0.1, 0.0, 0.3))
_NODES = (0.2, -0.35 + 0.1j, 0.45j)


def _rational(variant):
    f = random_schur(3, 2, seed=4, max_sigma=0.9)
    curve = gamma_curve_from_entries(realization_to_rational(f), variant)
    return {"curve": curve_to_json(curve), "nodes": [complex_to_json(v) for v in (0.2, -0.3j, 0.4)]}


def _criterion7():
    entries = [[hardy.RationalFunction([0.0, _MAP[i][j]]) for j in range(3)] for i in range(3)]
    curve = gamma_curve_from_entries(entries, "gamma7")
    return {"curve": curve_to_json(curve), "nodes": [complex_to_json(v) for v in _NODES]}


def _polynomial(variant, seed):
    """``lam -> lam A0`` with ``||A0|| < 1`` and 3 nodes in the disc of radius
    0.6, drawn as the benchmark's polynomial slot draws them: the median
    ``certify`` op of both of its pools."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
    a *= rng.uniform(0.5, 0.95) / np.linalg.norm(a, 2)
    entries = [[hardy.RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    curve = gamma_curve_from_entries(entries, variant)
    nodes = 0.6 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    return {"curve": curve_to_json(curve), "nodes": [complex_to_json(v) for v in nodes]}


def _node_only(scale=1.0):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a *= 0.8 / mu(a, E311)
    points = tuple(
        GammaPoint("gamma7", tuple(scale * np.asarray(pi_coordinates(l * a, "gamma7").entries)))
        for l in _NODES
    )
    return gamma_nodes_to_json(GammaNodes("gamma7", _NODES, points))


# name: (payload, extra argv, exit code, SHA-256 of stdout)
_PINNED = {
    "rational-gamma7": (
        lambda: _rational("gamma7"),
        [],
        0,
        "f6cdeb7c33c1816fb2fb276722f773d7093de571ad9bb85d15faa53199d10f4d",
    ),
    "rational-gamma5-corrected": (
        lambda: _rational("gamma5"),
        [],
        0,
        "b9a29f2832739db689a917f484eaf98189efd68ba54434d705bfa947c33f46ee",
    ),
    # three of its slices fail as "not contractive"
    "rational-gamma5-printed": (
        lambda: _rational("gamma5"),
        ["--det-denominator", "printed"],
        0,
        "d3b9949b685447ec94c110212e85de1057d40e1a17ca7fe418900bbd20c7e856",
    ),
    # triangular at z = 0
    "criterion7-gamma7": (
        _criterion7,
        [],
        0,
        "d2717daa5a1f88034df5e195412b3aa67f9e2918b38e4df71a99e491f0632a9a",
    ),
    "polynomial-gamma7": (
        lambda: _polynomial("gamma7", 7),
        [],
        0,
        "8b295f9c1d593d3054d275e6177d283755ff2ef3975b0a18ecba9694b0eae799",
    ),
    # every slice passes, but the balanced split is not solvable at every z
    "polynomial-gamma5": (
        lambda: _polynomial("gamma5", 5),
        [],
        2,
        "bf8d6d4f2dc4fb3abf62a37dc8550e9585521fc59b01dd78799fa1e6005040e8",
    ),
    "nodes-gamma7": (
        _node_only,
        [],
        0,
        "91058974a95b67089662ce194f8ab1b55dcf0dd822226eb7f32a9d3c9ef4d833",
    ),
    # scaled by 3, the node data certify for no split
    "nodes-gamma7-scaled": (
        lambda: _node_only(3.0),
        [],
        2,
        "5c86f826eda0759b9cb4ae5d3bfafc9c59cc2f2970b2476e0ca5fe25b3824e6e",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_certify_output_is_pinned(tmp_path, capsys, name):
    build, options, code, digest = _PINNED[name]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(build()))
    assert run(["certify", "--in", str(path), *options]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

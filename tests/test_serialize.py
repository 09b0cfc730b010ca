import json

import numpy as np
import pytest

from gammapick import hardy
from gammapick.domains import pi_coordinates
from gammapick.hardy import RationalFunction
from gammapick.kernels import SampleGrid
from gammapick.nevanlinna import GammaNodes, PickData, gamma_curve_from_entries
from gammapick.realization import random_schur, realization_to_rational
from gammapick.serialize import (
    cmatrix_from_json,
    cmatrix_to_json,
    complex_from_json,
    complex_to_json,
    curve_from_json,
    curve_to_json,
    cvector_from_json,
    cvector_to_json,
    gamma_nodes_from_json,
    gamma_nodes_to_json,
    grid_from_json,
    pick_data_from_json,
    pick_data_to_json,
    rational_from_json,
    rational_to_json,
)


def _json_clean(payload):
    # everything must survive a strict JSON encode/decode cycle
    return json.loads(json.dumps(payload, allow_nan=False))


def test_complex_roundtrip_and_errors():
    z = 1.25 - 0.5j
    assert complex_to_json(z) == [1.25, -0.5]
    assert complex_from_json([1.25, -0.5]) == z
    with pytest.raises(ValueError):
        complex_from_json([1.0])
    with pytest.raises(ValueError):
        complex_from_json("1+2j")


@pytest.mark.parametrize(
    "data, message",
    [
        (["0.5", 0], "expected [re, im] pair of numbers, got ['0.5', 0]"),
        ([0.5, "0"], "expected [re, im] pair of numbers, got [0.5, '0']"),
        ([True, 0], "expected [re, im] pair of numbers, got [True, 0]"),
        ([0.1, False], "expected [re, im] pair of numbers, got [0.1, False]"),
        (True, "expected [re, im] pair, got True"),
        ("0.5", "expected [re, im] pair, got '0.5'"),
    ],
)
def test_complex_from_json_takes_numbers_only(data, message):
    with pytest.raises(ValueError) as info:
        complex_from_json(data)
    assert str(info.value) == message


def test_complex_from_json_takes_ints_and_floats():
    assert complex_from_json([1, -2]) == 1 - 2j
    assert complex_from_json(3) == 3 + 0j
    assert complex_from_json((0.5, 1e-300)) == complex(0.5, 1e-300)
    assert complex_from_json(np.float64(0.25)) == 0.25


def test_cvector_to_json_writes_the_pairs_of_complex_to_json():
    v = np.array([complex(0.1, -0.0), complex(-0.0, 1e-300), complex(1e308, -5e-324), 3.0])
    got = cvector_to_json(v)
    assert got == [complex_to_json(x) for x in v]
    assert {type(x) for pair in got for x in pair} == {float}
    assert json.dumps(got) == json.dumps([complex_to_json(x) for x in v])
    assert cvector_to_json([]) == []


def test_vector_and_matrix_roundtrip():
    v = np.array([1.0, -2j, 0.5 + 0.5j])
    np.testing.assert_array_equal(cvector_from_json(_json_clean(cvector_to_json(v))), v)
    m = np.array([[0.0, 1.0], [2j, -1.0]])
    np.testing.assert_array_equal(cmatrix_from_json(_json_clean(cmatrix_to_json(m))), m)
    with pytest.raises(ValueError):
        cmatrix_from_json(cmatrix_to_json(m), shape=(3, 3))


def test_grid_roundtrip_preserves_diagonal_flag():
    payload = {
        "points": [[[0.1, 0.2], [0.3, 0.0], [0.3, 0.0]], [[-0.4, 0.0], [0.0, -0.5], [0.0, -0.5]]],
        "diagonal": True,
    }
    back = grid_from_json(payload)
    assert back == SampleGrid(((0.1 + 0.2j, 0.3, 0.3), (-0.4, -0.5j, -0.5j)), diagonal=True)
    assert back.diagonal


def test_pick_data_roundtrip():
    data = PickData((0.1, -0.2j), (0.3 * np.eye(2), 0.1j * np.eye(2)))
    back = pick_data_from_json(_json_clean(pick_data_to_json(data)))
    assert back.nodes == data.nodes
    np.testing.assert_array_equal(back.targets[1], data.targets[1])


def test_gamma_nodes_roundtrip():
    points = tuple(
        pi_coordinates(lam * 0.4 * np.eye(3), "gamma5") for lam in (0.3, 0.6)
    )
    data = GammaNodes("gamma5", (0.3, 0.6), points)
    back = gamma_nodes_from_json(_json_clean(gamma_nodes_to_json(data)))
    assert back.variant == "gamma5"
    np.testing.assert_allclose(back.points[1].entries, points[1].entries, atol=0)


def test_rational_roundtrip():
    f = RationalFunction([1.0, 2j], [1.0, 0.0, 0.2])
    back = rational_from_json(_json_clean(rational_to_json(f)))
    np.testing.assert_array_equal(back.numerator, f.numerator)
    np.testing.assert_array_equal(back.denominator, f.denominator)


def test_curve_roundtrip_evaluates_identically():
    f = random_schur(3, 1, seed=2, max_sigma=0.9)
    curve = gamma_curve_from_entries(realization_to_rational(f), "gamma7")
    back = curve_from_json(_json_clean(curve_to_json(curve)))
    assert back.variant == curve.variant
    lam = 0.37j
    np.testing.assert_allclose(
        back.point_at(lam).entries, curve.point_at(lam).entries, atol=1e-15
    )


def test_curve_from_json_checks_each_distinct_denominator_once():
    dens = ([1.0, 0.1], [1.0, -0.2, 0.05])
    comps = [
        rational_to_json(RationalFunction([0.1 * i, 0.2], dens[i % 2])) for i in range(7)
    ]
    payload = _json_clean({"variant": "gamma7", "components": comps})
    checked = []
    original = hardy._certified

    def counted(dens):
        checked.extend([dens.shape[1]] * len(dens))
        return original(dens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "_certified", counted)
        curve = curve_from_json(payload)
    # one root certificate per distinct denominator
    assert sorted(checked) == [2, 3]
    for comp, data in zip(curve.components, comps):
        back = rational_from_json(data)
        assert comp.numerator.tobytes() == back.numerator.tobytes()
        assert comp.denominator.tobytes() == back.denominator.tobytes()


def test_from_json_rejects_malformed_payloads():
    with pytest.raises((ValueError, KeyError, TypeError)):
        grid_from_json({"points": "nope"})
    with pytest.raises(ValueError, match="diagonal"):
        grid_from_json({"points": [[[0.1, 0], [0.2, 0], [0.2, 0]]], "diagonal": "false"})
    with pytest.raises((ValueError, KeyError, TypeError)):
        pick_data_from_json({"nodes": [[0.1, 0.0]]})
    with pytest.raises((ValueError, KeyError, TypeError)):
        curve_from_json({"variant": "gamma7", "components": []})
    nan_num = {"numerator": [[0.1, 0.0], [float("nan"), 0.0]], "denominator": [[1.0, 0.0]]}
    with pytest.raises(ValueError, match="curve coefficients must be finite"):
        curve_from_json({"variant": "gamma7", "components": [nan_num] * 7})
    with pytest.raises(ValueError, match="coefficients must be finite"):
        rational_from_json(nan_num)
    with pytest.raises(ValueError, match="at least one point"):
        grid_from_json({"points": []})

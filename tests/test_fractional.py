import numpy as np
import pytest

from gammapick.fractional import SingularFractionError, se_eval, se_values
from gammapick.realization import RealizedSchurFunction, random_schur


def test_se_eval_matches_block_solve():
    f = random_schur(3, 4, seed=0)
    lam, z1, z2 = 0.3 - 0.2j, 0.5j, -0.4
    fv = f.evaluate(lam)
    b = fv[1:, 1:]
    z = np.diag([z1, z2])
    expected = fv[0, 0] + fv[0, 1:] @ z @ np.linalg.solve(np.eye(2) - b @ z, fv[1:, 0])
    out = se_eval(f, lam, z1, z2)
    assert out.value == pytest.approx(expected, abs=1e-13)
    assert out.se_value == pytest.approx(-expected, abs=1e-13)


def test_se_gamma_closed_forms():
    f = random_schur(3, 2, seed=1)
    lam, z1, z2 = -0.25, 0.3 + 0.3j, 0.6j
    fv = f.evaluate(lam)
    det_c = (1 - fv[1, 1] * z1) * (1 - fv[2, 2] * z2) - fv[1, 2] * fv[2, 1] * z1 * z2
    g1 = ((1 - fv[2, 2] * z2) * fv[1, 0] + z2 * fv[1, 2] * fv[2, 0]) / det_c
    g2 = ((1 - fv[1, 1] * z1) * fv[2, 0] + z1 * fv[2, 1] * fv[1, 0]) / det_c
    out = se_eval(f, lam, z1, z2)
    assert out.det_c == pytest.approx(det_c, abs=1e-13)
    assert out.gamma[0] == pytest.approx(g1, abs=1e-12)
    assert out.gamma[1] == pytest.approx(g2, abs=1e-12)
    assert out.eta == pytest.approx((1.0, z1 * g1, z2 * g2), abs=1e-12)


def test_se_values_batch_matches_scalar():
    f = random_schur(3, 3, seed=2)
    lam = np.array([0.1, -0.4j, 0.5 + 0.2j])
    z1 = np.array([0.2, 0.3, -0.1j])
    z2 = np.array([-0.5, 0.25j, 0.6])
    g, gamma, eta, det_c, fv = se_values(f, lam, z1, z2)
    for i in range(3):
        out = se_eval(f, lam[i], z1[i], z2[i])
        assert g[i] == pytest.approx(out.value, abs=1e-13)
    assert fv.shape == (3, 3, 3)
    assert gamma.shape == (3, 2) and eta.shape == (3, 3) and det_c.shape == (3,)


def test_se_is_schur_bounded_on_interior():
    f = random_schur(3, 4, seed=3)
    # the first six points of a 12-point golden-angle spiral in the disc of radius 0.9
    j = np.arange(6)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    pts = 0.9 * np.sqrt((j + 0.5) / 12) * np.exp(2j * np.pi * ((j * golden) % 1.0))
    lam, z1, z2 = np.meshgrid(pts, pts, pts, indexing="ij")
    g, *_ = se_values(f, lam.ravel(), z1.ravel(), z2.ravel())
    assert np.abs(g).max() <= 1.0 + 1e-10


def test_se_rejects_boundary_arguments():
    f = random_schur(3, 2, seed=5)
    with pytest.raises(ValueError):
        se_eval(f, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        se_values(f, [1.0], [0.0], [0.0])


def test_se_values_shape_mismatch():
    f = random_schur(3, 2, seed=6)
    with pytest.raises(ValueError):
        se_values(f, [0.1, 0.2], [0.1], [0.1, 0.2])


def test_se_requires_3x3():
    f = random_schur(2, 2, seed=7)
    with pytest.raises(ValueError):
        se_eval(f, 0.0, 0.0, 0.0)


def test_singular_fraction_raises():
    # constant function with B = I makes I - B Z singular at z1 -> 1
    p = np.zeros((3, 3), dtype=complex)
    p[1, 1] = p[2, 2] = 1.0
    f = RealizedSchurFunction(3, 0, p, np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((0, 0)))
    with pytest.raises(SingularFractionError):
        se_eval(f, 0.0, 1 - 1e-14, 0.0)

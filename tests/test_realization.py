import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammapick import realization
from gammapick.linalg import extend_isometry, operator_norm
from gammapick.nevanlinna import PickData, PickInterpolant, np_solve
from gammapick.realization import RealizedSchurFunction, random_schur, realization_to_rational
from gammapick.tolerances import NORM_SLACK, SIGMA_GAP


def test_random_schur_is_contractive_and_deterministic():
    f = random_schur(3, 4, seed=0)
    g = random_schur(3, 4, seed=0)
    np.testing.assert_array_equal(f.colligation, g.colligation)
    assert RealizedSchurFunction.check_colligations(f.colligation[None]) == [None]


def test_random_schur_distinct_seeds_differ():
    f = random_schur(3, 2, seed=1)
    g = random_schur(3, 2, seed=2)
    assert not np.allclose(f.colligation, g.colligation)


def test_evaluate_matches_block_formula():
    f = random_schur(3, 4, seed=3)
    lam = 0.37 - 0.21j
    expected = f.p + lam * f.q @ np.linalg.solve(
        np.eye(4) - lam * f.s, f.r
    )
    np.testing.assert_allclose(f.evaluate(lam), expected, atol=1e-13)


def test_evaluate_many_matches_pointwise():
    f = random_schur(2, 3, seed=4)
    lam = np.array([0.0, 0.5, -0.3j, 0.2 + 0.6j])
    batch = f.evaluate_many(lam)
    for i, point in enumerate(lam):
        np.testing.assert_allclose(batch[i], f.evaluate(point), atol=1e-14)


def test_evaluate_rejects_boundary_points():
    f = random_schur(2, 2, seed=5)
    with pytest.raises(ValueError):
        f.evaluate(1.0)
    with pytest.raises(ValueError):
        f.evaluate_many([0.1, 1.0 + 0.0j])


def test_constant_function_with_zero_state():
    p = 0.5 * np.eye(2)
    f = RealizedSchurFunction(2, 0, p, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
    np.testing.assert_allclose(f.evaluate(0.3), p)
    # and at more points than the modal path needs
    vals = f.evaluate_many(_disc_points(4000, 0.999))
    assert vals.shape == (4000, 2, 2) and (vals == p).all()


def test_expansive_colligation_rejected():
    with pytest.raises(ValueError, match="colligation norm"):
        RealizedSchurFunction.from_colligation(1.2 * np.eye(4), 2, 2)


def test_from_colligation_roundtrip():
    f = random_schur(3, 2, seed=6)
    g = RealizedSchurFunction.from_colligation(f.colligation, 3, 2)
    np.testing.assert_array_equal(g.colligation, f.colligation)


def test_json_roundtrip():
    f = random_schur(3, 4, seed=7)
    g = RealizedSchurFunction.from_json(f.to_json())
    np.testing.assert_allclose(g.colligation, f.colligation, atol=0)


def test_realization_to_rational_matches_evaluate():
    f = random_schur(3, 3, seed=8)
    entries = realization_to_rational(f)
    lam = 0.55 * np.exp(2j * np.pi * np.linspace(0, 1, 17, endpoint=False))
    vals = f.evaluate_many(lam)
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(entries[i][j](lam), vals[:, i, j], atol=1e-11)


def test_realization_to_rational_shares_denominator():
    f = random_schur(3, 2, seed=9)
    entries = realization_to_rational(f)
    base = entries[0][0].denominator
    for row in entries:
        for entry in row:
            np.testing.assert_allclose(entry.denominator, base, atol=0)


# ---------------------------------------------------------------------------
# a PickInterpolant's colligation is certified by its Gram defect first


def _accepts(cls, v, k: int) -> bool:
    try:
        cls.from_colligation(v, k, v.shape[0] - k)
    except ValueError as exc:
        assert re.fullmatch(r"colligation norm \d\.\d{12} exceeds 1 \+ 1e-10", str(exc))
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 3),
    m=st.integers(0, 8),
    c=st.sampled_from([1.0, 1.0 + 5e-11, 1.0 + 2e-10, 1.0 + 1e-9]),
)
def test_gram_certificate_accepts_the_set_the_norm_check_accepts(seed, k, m, c):
    rng = np.random.default_rng(seed)
    n = k + m
    right, left = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    unitary = extend_isometry(right, left)
    for v in (c * unitary, c * random_schur(k, m, seed=seed).colligation):
        expected = float(np.linalg.svd(v, compute_uv=False)[0]) <= 1.0 + 1e-10
        assert _accepts(PickInterpolant, v, k) == expected
        assert _accepts(RealizedSchurFunction, v, k) == expected


def test_np_solve_certifies_its_colligation_without_a_norm_check():
    nodes = (0.1, -0.4j, 0.5)
    data = PickData(nodes, tuple(random_schur(2, 2, seed=4, max_sigma=0.9).evaluate_many(nodes)))

    def no_norm(v):
        raise AssertionError("norm check ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realization, "operator_norm", no_norm)
        f = np_solve(data)
        # a unitary colligation is certified by its Gram defect in any class
        RealizedSchurFunction.from_colligation(f.colligation, f.k, f.m)
        # and a strict contraction fails that test and goes on to the norm
        with pytest.raises(AssertionError, match="norm check ran"):
            random_schur(2, 2, seed=4, max_sigma=0.9)
    assert float(np.linalg.svd(f.colligation, compute_uv=False)[0]) <= 1.0 + 1e-10


def test_colligation_check_decides_as_the_norm_bound():
    rng = np.random.default_rng(11)
    eps = (1e-12, 1e-11, 5e-11, 2e-10, 1e-9, 1e-8)
    tops = (1.0, 0.9, *(1.0 + e for e in eps), *(1.0 - e for e in eps))
    for d in (1, 3, 6):
        vs = []
        for _ in range(20):
            u, _, vh = np.linalg.svd(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for top in tops:
                # the rest of the spectrum unitary, or a strict contraction
                for rest in (np.ones(d - 1), rng.uniform(0.1, 0.99, d - 1)):
                    vs.append((u * np.concatenate([[top], rest])) @ vh)
        errors = RealizedSchurFunction.check_colligations(np.array(vs))
        assert [e is None for e in errors] == [operator_norm(v) <= 1.0 + 1e-10 for v in vs]
        # all but the tops 1 + 2e-10, 1 + 1e-9 and 1 + 1e-8 pass
        assert sum(e is None for e in errors) == 20 * 2 * (len(tops) - 3)


# ---------------------------------------------------------------------------
# the two evaluation paths: LU solves per point, or the modal form


def _lu_reference(f, lam):
    """``p + lam q inv(I - lam s) r`` one point at a time."""
    return np.array([f.p + x * f.q @ np.linalg.inv(np.eye(f.m) - x * f.s) @ f.r for x in lam])


def _disc_points(n, radius, seed=0):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _takes_modal_path(f: RealizedSchurFunction) -> np.ndarray:
    """The mask :func:`realization._modal_forms` gives ``f`` alone, of shape ``(1,)``."""
    return realization._modal_forms(f.q[None], f.r[None], f.s[None])[0]


def _jordan(k: int, m: int, eps: float) -> RealizedSchurFunction:
    """A contractive colligation whose ``s`` is a nilpotent Jordan block, with
    ``eps`` added in its bottom-left corner."""
    s = 0.5 * np.eye(m, k=1)
    s[-1, 0] += eps
    q, r = np.zeros((k, m)), np.zeros((m, k))
    q[0, 0] = r[-1, 0] = 0.5
    return RealizedSchurFunction(k, m, 0.5 * np.eye(k, k=1), q, r, s)


@pytest.mark.parametrize("eps", [0.0, 1e-10], ids=["nilpotent", "perturbed"])
def test_a_defective_eigenbasis_takes_the_lu_path(eps):
    f = _jordan(2, 4, eps)
    lam = _disc_points(2 * realization._MODAL_POINTS, 0.95)
    (modal,) = _takes_modal_path(f)
    assert not modal
    np.testing.assert_allclose(f.evaluate_many(lam), _lu_reference(f, lam), rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_the_modal_path_matches_the_lu_path(m):
    f = random_schur(3, m, seed=m)
    lam = _disc_points(4000, 0.999, seed=m)
    (modal,) = _takes_modal_path(f)
    assert modal
    lu = realization._lu_values(f.p[None], f.q[None], f.r[None], f.s[None], lam[None])[0]
    np.testing.assert_allclose(f.evaluate_many(lam), lu, rtol=0, atol=1e-13)


def test_a_stack_mixing_both_paths_gives_each_function_its_own_values():
    fs = [random_schur(2, 4, seed=1), _jordan(2, 4, 1e-10), random_schur(2, 4, seed=2)]
    assert [bool(_takes_modal_path(f)[0]) for f in fs] == [True, False, True]
    lam = np.stack([_disc_points(2 * realization._MODAL_POINTS, 0.95, seed) for seed in range(3)])
    blocks = (np.stack([getattr(f, name) for f in fs]) for name in "pqrs")
    stacked = RealizedSchurFunction.values_of(*blocks, lam)
    for f, points, values in zip(fs, lam, stacked):
        assert values.tobytes() == f.evaluate_many(points).tobytes()


# ---------------------------------------------------------------------------
# the colligation certificate bounds F: ||V|| <= rho gives ||F(lam)|| <= rho
# for |lam| < 1 / rho, so a function that passed check_colligations has
# ||F(lam)|| <= 1 + NORM_SLACK for |lam| < 1 / (1 + NORM_SLACK)

# the rounding of F's values and of their 2-norms at radius 0.999: a few eps
# times ||(I - lam S)^-1|| <= 1 / (1 - 0.999) on the LU path, MODAL_KAPPA =
# 100 times more on the modal path
_ROUNDING = 1e-10


def _dense_grid() -> np.ndarray:
    """The origin and 32 x 32 points on the radii up to 0.999: more points than
    the modal path needs."""
    radii = 0.999 * np.arange(1, 33) / 32
    circle = np.exp(2j * np.pi * np.arange(32) / 32)
    return np.concatenate([[0.0], (radii[:, None] * circle).ravel()])


def _largest_norms(f: RealizedSchurFunction) -> tuple[float, float]:
    """The largest ``||F(lam)||`` on :func:`_dense_grid` by ``evaluate_many``,
    which takes the modal path where ``values_of`` allows it, and by the LU
    path."""
    lam = _dense_grid()
    assert lam.size >= realization._MODAL_POINTS
    lu = realization._lu_values(f.p[None], f.q[None], f.r[None], f.s[None], lam[None])[0]
    return tuple(float(np.linalg.norm(v, 2, axis=(1, 2)).max()) for v in (f.evaluate_many(lam), lu))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 3),
    m=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    max_sigma=st.floats(0.05, 1.0 - SIGMA_GAP),
    n=st.integers(1, 4),
)
@example(k=3, m=6, seed=0, max_sigma=1.0 - SIGMA_GAP, n=4)
def test_the_certificate_bounds_every_realized_function_on_the_disc(k, m, seed, max_sigma, n):
    f = random_schur(k, m, seed, max_sigma=max_sigma)
    # an interpolant of a strict contraction's values: its colligation is unitary
    rng = np.random.default_rng(seed)
    nodes = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    targets = random_schur(k, m, seed, max_sigma=0.9).evaluate_many(nodes)
    g = np_solve(PickData(tuple(nodes), tuple(targets)))
    for h in (f, g):
        assert RealizedSchurFunction.check_colligations(h.colligation[None]) == [None]
        assert max(_largest_norms(h)) <= 1.0 + NORM_SLACK + _ROUNDING


def test_the_certificate_refuses_an_expansive_colligation():
    v = random_schur(2, 2, seed=10).colligation
    v[:2, :2] = 1.5 * np.eye(2)
    (error,) = RealizedSchurFunction.check_colligations(v[None])
    assert isinstance(error, ValueError) and "exceeds 1 + 1e-10" in str(error)
    # F(0) = p: the values the certificate refuses exceed 1
    f = RealizedSchurFunction.from_checked(v, 2, 2)
    assert min(_largest_norms(f)) >= 1.5 - _ROUNDING

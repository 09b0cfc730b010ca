import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapick import realization
from gammapick.linalg import extend_isometry, operator_norm
from gammapick.nevanlinna import PickData, PickInterpolant, np_solve
from gammapick.realization import (
    RealizedSchurFunction,
    random_schur,
    realization_to_rational,
    verify_schur,
)


def test_random_schur_is_contractive_and_deterministic():
    f = random_schur(3, 4, seed=0)
    g = random_schur(3, 4, seed=0)
    np.testing.assert_array_equal(f.colligation, g.colligation)
    report = verify_schur(f)
    assert report.passed
    assert report.max_norm <= 1.0 + report.tol


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


def test_verify_schur_flags_expansive_values():
    # bypass the constructor norm gate to probe the verifier itself
    f = random_schur(2, 2, seed=10)
    object.__setattr__(f, "p", 1.5 * np.eye(2))
    report = verify_schur(f)
    assert not report.passed
    assert report.max_norm > 1.0


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

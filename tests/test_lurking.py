import numpy as np
import pytest

from gammapick.kernels import (
    KernelTriple,
    SampleGrid,
    SampledKernel,
    combine_k,
    tensor_grid,
    upper_e,
)
from gammapick.lurking import (
    GramInconsistencyError,
    RankError,
    rank1_factor,
    right_s,
    torus_fit,
    uw_construct,
    verify_uw,
)
from gammapick.realization import RealizedSchurFunction, random_schur


def _grid(seed=0, n=3):
    return tensor_grid(n, n, radius=0.9, seed=seed)


def test_rank1_factor_recovers_values_up_to_phase():
    grid = _grid()
    rng = np.random.default_rng(0)
    v = rng.normal(size=len(grid)) + 1j * rng.normal(size=len(grid))
    kernel = SampledKernel(grid, np.outer(v, v.conj()))
    out = rank1_factor(kernel)
    np.testing.assert_allclose(
        np.outer(out.values, out.values.conj()), kernel.gram, atol=1e-10
    )
    ratio = out.values / v
    np.testing.assert_allclose(ratio, ratio[0] * np.ones_like(ratio), atol=1e-9)


def test_rank1_factor_rejects_higher_rank():
    grid = _grid()
    rng = np.random.default_rng(1)
    v = rng.normal(size=(len(grid), 2)) + 1j * rng.normal(size=(len(grid), 2))
    with pytest.raises(RankError):
        rank1_factor(SampledKernel(grid, v @ v.conj().T))


@pytest.mark.parametrize("m", [2, 3])
def test_uw_roundtrip_reconstructs_kernels(m):
    f = random_schur(3, m, seed=m)
    grid = tensor_grid(4, 4, radius=0.9, seed=m)
    triple = upper_e(f, grid)
    result = uw_construct(triple)
    rebuilt = upper_e(result.xi, grid)
    check = verify_uw(result, rebuilt.f_values)
    assert check.passed, check
    # the reconstructed function reproduces the kernel data exactly
    np.testing.assert_allclose(rebuilt.n1.gram, triple.n1.gram, atol=1e-8)
    np.testing.assert_allclose(rebuilt.n2.gram, triple.n2.gram, atol=1e-8)
    np.testing.assert_allclose(
        combine_k(rebuilt).gram, combine_k(triple).gram, atol=1e-8
    )


def test_uw_reconstruction_is_torus_conjugate_of_source():
    f = random_schur(3, 2, seed=5)
    grid = tensor_grid(4, 4, radius=0.9, seed=0)
    result = uw_construct(upper_e(f, grid))
    lam = np.unique(grid.lam)
    fit = torus_fit(f.evaluate_many(lam), result.xi.evaluate_many(lam))
    assert fit.max_residual <= 1e-7
    assert all(abs(abs(e) - 1.0) <= 1e-9 for e in fit.eta)


def test_uw_passes_on_a_64_point_grid():
    # roundoff in this grid's near-singular Gram pushes a least-squares fit
    # to norm 1.035; the unitary fit has no excess norm to refuse
    triple = upper_e(random_schur(3, 2, seed=0), tensor_grid(8, 8, radius=0.9, seed=0))
    result = uw_construct(triple)
    back = upper_e(result.xi, triple.grid)
    assert verify_uw(result, back.f_values).passed
    gram_match = max(
        float(np.abs(b.gram - a.gram).max())
        for a, b in ((triple.n1, back.n1), (triple.n2, back.n2), (triple.n3, back.n3))
    )
    assert gram_match <= 1e-8


def test_uw_rejects_rank_deficient_triple():
    f = random_schur(3, 2, seed=6)
    grid = _grid(seed=2)
    triple = upper_e(f, grid)
    rng = np.random.default_rng(2)
    v = rng.normal(size=(len(grid), 2)) + 1j * rng.normal(size=(len(grid), 2))
    bad = KernelTriple(
        grid,
        SampledKernel(grid, v @ v.conj().T),  # rank 2 where rank 1 is required
        triple.n2,
        triple.n3,
        triple.g_values,
    )
    with pytest.raises(RankError):
        uw_construct(bad)


def test_uw_rejects_inconsistent_grams():
    # rescaling one kernel breaks the exact decomposition, which surfaces as
    # lost positivity of the combined kernel before the Gram stage is reached
    f = random_schur(3, 2, seed=7)
    grid = _grid(seed=3)
    triple = upper_e(f, grid)
    bad = KernelTriple(
        grid,
        triple.n1,
        triple.n2,
        SampledKernel(grid, 1.5 * triple.n3.gram),  # still PSD, wrong scale
        triple.g_values,
    )
    with pytest.raises((RankError, GramInconsistencyError)):
        uw_construct(bad)


def test_torus_conjugate_preserves_kernels_and_fit_recovers_phases():
    f = random_schur(3, 3, seed=8)
    grid = tensor_grid(3, 4, radius=0.85, seed=4)
    etas = (np.exp(0.3j), np.exp(-1.1j), np.exp(2.0j))
    # conjugation by diag(eta) on the left and diag(1, conj(eta2), conj(eta3))
    # on the right, the gauge freedom of the reconstruction
    d1 = np.diag(etas)
    d2 = np.diag([1.0, np.conj(etas[1]), np.conj(etas[2])])
    g = RealizedSchurFunction(3, f.m, d1 @ f.p @ d2, d1 @ f.q, f.r @ d2, f.s)
    a = upper_e(f, grid)
    b = upper_e(g, grid)
    np.testing.assert_allclose(a.n1.gram, b.n1.gram, atol=1e-10)
    np.testing.assert_allclose(a.n2.gram, b.n2.gram, atol=1e-10)
    np.testing.assert_allclose(a.n3.gram, b.n3.gram, atol=1e-10)
    lam = np.unique(grid.lam)
    fit = torus_fit(f.evaluate_many(lam), g.evaluate_many(lam))
    assert fit.max_residual <= 1e-10
    np.testing.assert_allclose(fit.eta, etas, atol=1e-9)


def test_right_s_matches_fractional_values():
    f = random_schur(3, 2, seed=10)
    grid = tensor_grid(4, 4, radius=0.9, seed=5)
    triple = upper_e(f, grid)
    factor = right_s(triple)
    np.testing.assert_allclose(
        np.abs(factor.values), np.abs(triple.g_values), atol=1e-9
    )
    big = np.abs(triple.g_values) > 1e-8
    ratio = factor.values[big] / triple.g_values[big]
    np.testing.assert_allclose(ratio, ratio[0] * np.ones_like(ratio), atol=1e-8)
    assert np.abs(factor.values).max() <= 1.0 + 1e-9


def test_right_s_on_diagonal_grid():
    f = random_schur(3, 2, seed=11)
    grid = tensor_grid(4, 4, radius=0.9, seed=6, diagonal=True)
    factor = right_s(upper_e(f, grid))
    assert len(factor.values) == len(grid)


@pytest.mark.parametrize("seed", range(5))
def test_rank1_factor_is_a_pivot_column_near_the_rank_threshold(seed):
    # g g* plus a perturbation E whose eigenvalues reach 0.99 tol * top on both
    # sides: still PSD and of rank one at tol, but far from exactly rank one
    tol, n = 1e-9, 64
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    top = np.vdot(g, g).real
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    e = 0.99 * tol * top * rng.uniform(-1.0, 1.0, size=n)
    e[:2] = 0.99 * tol * top * np.array([1.0, -1.0])
    gram = np.outer(g, g.conj()) + (q * e) @ q.conj().T
    kernel = SampledKernel(tensor_grid(8, 8, radius=0.9, seed=0), gram)
    assert kernel.spectrum.rank(tol) == 1
    v = rank1_factor(kernel, tol).values
    # well inside the factor's own residual bound 10 tol * top
    assert np.abs(kernel.gram - np.outer(v, v.conj())).max() <= 1e-9 * top
    # the eigenvector factor, up to phase
    w = kernel.spectrum.factor()[:, -1]
    phase = np.vdot(w, v) / abs(np.vdot(w, v))
    assert np.abs(v - phase * w).max() <= 2e-9 * np.sqrt(top)

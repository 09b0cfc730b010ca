import numpy as np
import pytest

from gammapick.fractional import se_eval, se_values
from gammapick.kernels import (
    KernelTriple,
    SampleGrid,
    SampledKernel,
    combine_k,
    kernel_rank,
    membership,
    tensor_grid,
    upper_e,
)
from gammapick.linalg import IndefiniteMatrixError
from gammapick.realization import random_schur


def test_sample_grid_validation():
    with pytest.raises(ValueError, match="at least one point"):
        SampleGrid(())
    with pytest.raises(ValueError, match="open unit polydisc"):
        SampleGrid(((1.0, 0.0, 0.0),))
    with pytest.raises(ValueError, match="distinct"):
        SampleGrid(((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)))
    with pytest.raises(ValueError, match="diagonal"):
        SampleGrid(((0.1, 0.2, 0.3),), diagonal=True)


def test_tensor_grid_determinism_and_bounds():
    g1 = tensor_grid(4, 4, radius=0.9, seed=3)
    g2 = tensor_grid(4, 4, radius=0.9, seed=3)
    assert g1.points == g2.points
    assert len(g1) == 16
    assert max(abs(c) for p in g1.points for c in p) < 0.9
    assert tensor_grid(seed=4).points != g1.points


def test_grid_coordinates_are_cached_read_only_arrays():
    grid = tensor_grid(3, 3, seed=2)
    for col, name in enumerate(("lam", "z1", "z2")):
        a = getattr(grid, name)
        assert a is getattr(grid, name)
        assert a.tolist() == [p[col] for p in grid.points]
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_upper_e_keeps_the_function_values_it_sampled():
    f = random_schur(3, 4, seed=3)
    grid = tensor_grid(4, 4, seed=1)
    assert upper_e(f, grid).f_values.tobytes() == f.evaluate_many(grid.lam).tobytes()


def test_tensor_grid_diagonal_variant():
    g = tensor_grid(3, 3, diagonal=True, seed=0)
    assert g.diagonal
    np.testing.assert_array_equal(g.z1, g.z2)


def test_upper_e_entries_match_pointwise_formulas():
    f = random_schur(3, 3, seed=0)
    grid = tensor_grid(3, 3, seed=1)
    triple = upper_e(f, grid)
    pts = grid.points
    evals = [se_eval(f, *p) for p in pts]
    i, j = 2, 5
    assert triple.g_values[i] == pytest.approx(evals[i].value, abs=1e-13)
    assert triple.n1.gram[i, j] == pytest.approx(
        evals[i].gamma[0] * np.conj(evals[j].gamma[0]), abs=1e-12
    )
    assert triple.n2.gram[i, j] == pytest.approx(
        evals[i].gamma[1] * np.conj(evals[j].gamma[1]), abs=1e-12
    )
    fi = f.evaluate(pts[i][0])
    fj = f.evaluate(pts[j][0])
    ei = np.array(evals[i].eta)
    ej = np.array(evals[j].eta)
    n3 = ej.conj() @ (np.eye(3) - fj.conj().T @ fi) @ ei
    n3 /= 1.0 - pts[i][0] * np.conj(pts[j][0])
    assert triple.n3.gram[i, j] == pytest.approx(n3, abs=1e-12)


def test_combined_kernel_is_outer_product_of_values():
    f = random_schur(3, 4, seed=2)
    grid = tensor_grid(4, 4, seed=2)
    triple = upper_e(f, grid)
    k = combine_k(triple)
    outer = np.outer(triple.g_values, triple.g_values.conj())
    np.testing.assert_allclose(k.gram, outer, atol=1e-10)


def test_kernel_ranks_and_membership():
    f = random_schur(3, 2, seed=3)
    grid = tensor_grid(4, 4, seed=0)
    triple = upper_e(f, grid)
    assert kernel_rank(triple.n1) == 1
    assert kernel_rank(triple.n2) == 1
    assert kernel_rank(combine_k(triple)) == 1
    assert membership(triple, "R1")
    assert membership(triple, "R11")


def test_membership_diagonal_class():
    f = random_schur(3, 2, seed=4)
    diag = tensor_grid(4, 4, diagonal=True, seed=5)
    triple = upper_e(f, diag)
    assert membership(triple, "S1")
    off = upper_e(f, tensor_grid(4, 4, seed=5))
    with pytest.raises(ValueError, match="diagonal"):
        membership(off, "S1")


def test_membership_rejects_tampered_triple():
    f = random_schur(3, 2, seed=5)
    grid = tensor_grid(3, 3, seed=6)
    triple = upper_e(f, grid)
    bad_gram = triple.n3.gram.copy()
    bad_gram[0, 0] -= 0.5  # break positivity of the third kernel
    bad = KernelTriple(
        grid, triple.n1, triple.n2, SampledKernel(grid, bad_gram), triple.g_values
    )
    assert not membership(bad, "R1")


def test_membership_unknown_class():
    f = random_schur(3, 2, seed=6)
    triple = upper_e(f, tensor_grid(2, 2, seed=0))
    with pytest.raises(ValueError, match="unknown"):
        membership(triple, "R2")


def test_kernel_rank_detects_indefinite():
    grid = SampleGrid(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
    with pytest.raises(IndefiniteMatrixError):
        kernel_rank(SampledKernel(grid, np.diag([1.0, -1.0])))


def test_sampled_kernel_requires_hermitian():
    grid = SampleGrid(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
    with pytest.raises(ValueError, match="hermitian"):
        SampledKernel(grid, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sampled_kernels_are_read_only():
    grid = tensor_grid(2, 2, seed=0)
    triple = upper_e(random_schur(3, 2, seed=1), grid)
    kernels = (triple.n1, triple.n2, triple.n3, combine_k(triple), SampledKernel(grid, np.eye(4)))
    for kernel in kernels:
        with pytest.raises(ValueError, match="read-only"):
            kernel.gram[0, 0] = 2.0


def test_rank_one_kernels_keep_the_gram_of_their_outer_product():
    grid = tensor_grid(3, 3, seed=4)
    triple = upper_e(random_schur(3, 4, seed=7), grid)
    gamma = se_values(random_schur(3, 4, seed=7), grid.lam, grid.z1, grid.z2)[1]
    for j, kernel in enumerate((triple.n1, triple.n2)):
        outer = SampledKernel(grid, np.outer(gamma[:, j], gamma[:, j].conj()))
        assert kernel.gram.tobytes() == outer.gram.tobytes()
        assert kernel.spectrum.rank(1e-9) == outer.spectrum.rank(1e-9) == 1

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gammapick import cli, linalg
from gammapick.domains import GammaPoint, pi_coordinates
from gammapick.kernels import SampleGrid, SampledKernel, kernel_rank, tensor_grid, upper_e
from gammapick.linalg import (
    IndefiniteMatrixError,
    Spectrum,
    as_cmatrix,
    extend_isometry,
    hermitian_part,
    operator_norm,
    operator_norms,
)
from gammapick.lurking import RankError, rank1_factor, right_s, uw_construct
from gammapick.nevanlinna import (
    GammaNodes,
    PickData,
    UnsolvablePickError,
    certify_gamma7_interpolation,
    np_solve,
)
from gammapick.realization import random_schur


def test_as_cmatrix_accepts_nested_lists():
    m = as_cmatrix([[1, 2j], [0, 1]])
    assert m.dtype == complex
    assert m.shape == (2, 2)


def test_as_cmatrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_cmatrix([1, 2, 3])


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0], [0, 1]])


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert operator_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


def test_hermitian_part_is_hermitian_and_projects():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitian_part(m)
    np.testing.assert_allclose(h, h.conj().T)
    # already-Hermitian input is a fixed point
    np.testing.assert_allclose(hermitian_part(h), h)


def test_is_psd_on_gram_and_indefinite():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert Spectrum(b.conj().T @ b).is_psd(1e-9)
    assert not Spectrum(np.diag([1.0, -1e-3])).is_psd(1e-9)
    # tolerance absorbs tiny negative eigenvalues
    assert Spectrum(np.diag([1.0, -1e-12])).is_psd(1e-9)


def test_spectrum_factor_reconstructs_and_reports_rank():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    g = v @ v.conj().T
    spec = Spectrum(g)
    f = spec.factor()
    assert spec.rank(1e-9) == f.shape[1] == 2
    np.testing.assert_allclose(f @ f.conj().T, g, atol=1e-10)


@pytest.mark.parametrize("rank", [6, 3], ids=["full-rank", "deficient"])
def test_extend_isometry_is_unitary_and_maps_right_onto_left(rank):
    rng = np.random.default_rng(rank)
    right = (rng.normal(size=(6, rank)) + 1j * rng.normal(size=(6, rank))) @ (
        rng.normal(size=(rank, 20)) + 1j * rng.normal(size=(rank, 20))
    )
    w, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    left = w @ right
    v = extend_isometry(right, left)
    assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-12
    np.testing.assert_allclose(v @ right, left, atol=1e-12 * np.abs(left).max())


_RNG = np.random.default_rng(5)
_EDGE_VECTORS = {
    "zero": np.zeros(4, dtype=complex),
    "length-1": np.array([0.3 - 0.4j]),
    "last-entry-zero": np.array([1.0 - 2.0j, 0.5j, 0.0]),
    "scale-1e-150": 1e-150 * (_RNG.normal(size=6) + 1j * _RNG.normal(size=6)),
    "scale-1e150": 1e150 * (_RNG.normal(size=6) + 1j * _RNG.normal(size=6)),
}


def _agrees_with_eigh(u: np.ndarray, tols=(1e-9, 1e-12)):
    """The sampled kernel ``u u*`` against ``eigvalsh`` of ``u u*``: each of
    its rank and PSD decisions, made on a fresh kernel, is the one the
    eigenvalues make; returns the kernel."""
    grid = SampleGrid(tuple((0.9 * j / u.size, 0.2, 0.3) for j in range(u.size)))
    kernel = lambda: SampledKernel(grid, np.outer(u, u.conj()))
    ref = Spectrum(np.outer(u, u.conj()))
    ref.values  # computed first, so each decision of ``ref`` reads them
    for tol in tols:
        assert kernel_rank(kernel(), tol) == ref.rank(tol)
        assert kernel().is_psd(tol) == ref.is_psd(tol)
    return kernel()


@pytest.mark.parametrize("name", list(_EDGE_VECTORS))
def test_outer_spectrum_edge_cases(name):
    u = _EDGE_VECTORS[name]
    kernel = _agrees_with_eigh(u)
    # the rank-one factor of the kernel u u* is u up to phase, or zeros when
    # |u|**2 is below the rank floor tol * max(1, |u|**2)
    values = rank1_factor(kernel).values
    if name == "zero":
        assert kernel.spectrum.factor().shape == (4, 0)
    if np.vdot(u, u).real <= 1e-9:
        assert kernel_rank(kernel, 1e-9) == 0
        assert np.array_equal(values, np.zeros(u.size))
    else:
        assert kernel_rank(kernel, 1e-9) == 1
        np.testing.assert_allclose(np.abs(values), np.abs(u), rtol=1e-14, atol=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    parts=st.integers(1, 24).flatmap(
        lambda n: arrays(float, (2, n), elements=st.floats(-1.0, 1.0, allow_subnormal=False))
    ),
    exponent=st.integers(-150, 150),
)
def test_outer_spectrum_agrees_with_eigh(parts, exponent):
    u = 10.0**exponent * (parts[0] + 1j * parts[1])
    # keep |u|**2 a normal float, where eigh itself is accurate
    assume(np.linalg.norm(parts) >= 1e-3 or not np.any(parts))
    _agrees_with_eigh(u)


def test_a_rank_one_kernel_with_no_positive_diagonal_has_no_factor():
    # eigenvalues -9e-10, -9e-10 and 1.8e-9: PSD within tol = 1e-9 and of
    # rank one, but no diagonal entry to pivot on
    grid = SampleGrid(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.1, 0.2)))
    kernel = SampledKernel(grid, 0.9e-9 * (np.ones((3, 3)) - np.eye(3)))
    assert kernel_rank(kernel, 1e-9) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankError, match="no positive diagonal entry"):
            rank1_factor(kernel, 1e-9)


# ---------------------------------------------------------------------------
# threshold contracts of the PSD predicates built on the shared spectrum

TOL = 1e-9


def _diag(top, low):
    return np.diag([top, low]).astype(complex)


def _kernel(top, low):
    grid = SampleGrid(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
    return SampledKernel(grid, _diag(top, low))


def _pick(top, low):
    """One node and a diagonal 2x2 target whose Pick matrix is diag(top, low)."""
    if top <= 1.0:
        node, targets = 0.0, (np.sqrt(1.0 - top), np.sqrt(1.0 - low))
    else:
        node, targets = np.sqrt(1.0 - 1.0 / top), (0.0, np.sqrt(1.0 - low / top))
    return PickData((node,), (np.diag(targets).astype(complex),))


def _accepts(exc, fn):
    try:
        fn()
    except exc:
        return False
    return True


# predicate -> (accepts(top, low), rejection threshold as a function of top)
_CONTRACTS = {
    "SampledKernel.is_psd": (
        lambda t, l: _kernel(t, l).is_psd(TOL),
        lambda t: TOL * max(1.0, t),
    ),
    "np_solve": (
        lambda t, l: _accepts(UnsolvablePickError, lambda: np_solve(_pick(t, l), TOL)),
        lambda t: TOL * max(1.0, t),
    ),
    "kernel_rank": (
        lambda t, l: _accepts(IndefiniteMatrixError, lambda: kernel_rank(_kernel(t, l), TOL)),
        lambda t: TOL * max(1.0, t),
    ),
    "rank1_factor": (
        lambda t, l: _accepts(IndefiniteMatrixError, lambda: rank1_factor(_kernel(t, l), TOL)),
        lambda t: TOL * max(1.0, t),
    ),
}


@pytest.mark.parametrize("top", [1e-3, 1e3])
@pytest.mark.parametrize("name", sorted(_CONTRACTS))
def test_psd_predicate_threshold_contracts(name, top):
    # every predicate has the floor tol * max(1, top): at top = 1e-3 it parts
    # from the relative -tol*top, at top = 1e3 from the absolute -tol
    accepts, threshold = _CONTRACTS[name]
    bound = threshold(top)
    assert accepts(top, -0.9 * bound)
    assert not accepts(top, -1.1 * bound)


# ---------------------------------------------------------------------------
# each hermitian matrix is decomposed once, and eigenvectors are computed only
# for a factor


def _decompositions(fn) -> dict:
    counts = {"eigh": 0, "eigvalsh": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        fn()
    return counts


def _fresh_triple():
    return upper_e(random_schur(3, 2, seed=2), tensor_grid(4, 4, radius=0.9, seed=2))


# N3 is certified PSD by a Cholesky, and N1, N2 and the combined kernel K by
# their rank-one bounds, so no eigenvalues are computed; the rank-one factors
# are the Gram columns of those bounds, and only N3's state factor reads
# eigenvectors


def test_uw_construct_decomposes_each_kernel_once():
    triple = _fresh_triple()
    assert len(triple.grid) == 16
    assert _decompositions(lambda: uw_construct(triple)) == {"eigh": 1, "eigvalsh": 0}


def test_right_s_decomposes_each_kernel_once():
    triple = _fresh_triple()
    assert _decompositions(lambda: right_s(triple)) == {"eigh": 0, "eigvalsh": 0}


def test_upper_e_command_decomposes_each_kernel_once(tmp_path, capsys):
    path = tmp_path / "ue.json"
    path.write_text(json.dumps({"function": random_schur(3, 2, seed=2).to_json()}))
    codes = []
    counts = _decompositions(lambda: codes.append(cli.run(["upper-e", "--in", str(path)])))
    # N3's rank, which the report prints, is the one count that needs eigenvalues
    assert counts == {"eigh": 0, "eigvalsh": 1}
    assert codes == [0]
    ranks = json.loads(capsys.readouterr().out)["ranks"]
    assert (ranks["n1"], ranks["n2"], ranks["k"]) == (1, 1, 1)


@pytest.mark.parametrize(
    "command, grid, want",
    [
        ("right-s", {"n_lambda": 8, "n_z": 8}, {"eigh": 0, "eigvalsh": 0}),
        ("uw", {}, {"eigh": 1, "eigvalsh": 0}),
    ],
    ids=["right-s", "uw"],
)
def test_kernel_commands_compute_eigenvectors_only_for_the_state_factor(
    tmp_path, capsys, command, grid, want
):
    path = tmp_path / "op.json"
    payload = {"function": random_schur(3, 4, seed=3).to_json(), "grid": grid}
    path.write_text(json.dumps(payload))
    codes = []
    assert _decompositions(lambda: codes.append(cli.run([command, "--in", str(path)]))) == want
    assert codes == [0]
    capsys.readouterr()


def _kernels_instance(pool: int, slot: int) -> dict:
    """Instance ``slot`` of the ``uw`` (``pool`` 0) or ``right_s`` (1) pool of
    the ``kernels`` benchmark workload at seed 1, drawn as
    ``perfbench/workloads.py`` draws it."""
    rng = np.random.default_rng([1, 1, pool, slot, 0])
    f = random_schur(3, (2, 4, 8)[slot % 3], seed=int(rng.integers(2**31)))
    side = (4, 8)[pool]
    grid = {"n_lambda": side, "n_z": side, "radius": 0.9, "seed": int(rng.integers(2**31))}
    return {"function": f.to_json(), "grid": grid}


@pytest.mark.parametrize(
    "command, pool, want",
    [("right-s", 1, {"eigh": 0, "eigvalsh": 0}), ("uw", 0, {"eigh": 1, "eigvalsh": 0})],
    ids=["right-s", "uw"],
)
def test_benchmark_kernel_ops_decide_from_certificates(tmp_path, capsys, command, pool, want):
    for slot in range(12):
        path = tmp_path / f"{slot}.json"
        path.write_text(json.dumps(_kernels_instance(pool, slot)))
        codes = []
        assert _decompositions(lambda: codes.append(cli.run([command, "--in", str(path)]))) == want
        assert codes == [0]
    capsys.readouterr()


def test_a_sampled_kernel_reads_its_gram_as_it_is(monkeypatch):
    # the gram is exactly hermitian already, so its spectrum takes no hermitian
    # part, and its eigenvalues are those of the hermitian part to the last bit
    triple = upper_e(random_schur(3, 4, seed=3), tensor_grid(8, 8, seed=1))
    taken = []
    monkeypatch.setattr(linalg, "hermitian_part", lambda m: taken.append(m) or hermitian_part(m))
    for kernel in (triple.n3, triple.combined):
        values = kernel.spectrum.values
        assert taken == []
        assert values.tobytes() == np.linalg.eigvalsh(hermitian_part(kernel.gram)).tobytes()


# ---------------------------------------------------------------------------
# a certificate of Spectrum decides only as the eigenvalues decide

_TOLS = (0.0, 1e-12, 1e-9, 1e-3)


def _random_kernel(kind: str, n: int, seed: int, tol: float, c: float) -> np.ndarray:
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind in ("psd", "shifted"):
        b = gaussian(n, int(rng.integers(1, n + 1)))
        psd = 10.0 ** rng.uniform(-3, 3) * (b @ b.conj().T)
        if kind == "psd":
            return psd
        # least eigenvalue near minus c times the floor of tol
        floor = max(tol, 1e-12) * max(1.0, np.linalg.norm(psd, 2))
        return psd - c * floor * np.eye(n)
    h = hermitian_part(gaussian(n, n))
    if kind == "indefinite":
        return h
    # rank one plus a hermitian perturbation of c times the floor of tol
    # (of 1e-12 at tol 0), so the second and the least eigenvalue straddle it
    u = 10.0 ** rng.uniform(-2, 2) * gaussian(n)
    floor = max(tol, 1e-12) * max(1.0, float(np.vdot(u, u).real))
    return np.outer(u, u.conj()) + c * floor / np.linalg.norm(h, 2) * h


def _rank(spec, tol):
    try:
        return spec.rank(tol)
    except IndefiniteMatrixError:
        return "indefinite"


def _agrees_with_the_eigenvalues(m, tol, x) -> int:
    """Assert that each decision a certificate makes on ``m`` is the one the
    eigenvalues make; return how many a certificate made."""
    exact = Spectrum(m)
    exact.values  # computed first, so each decision of ``exact`` reads them
    decisions = [
        lambda spec: spec.is_psd(tol),
        lambda spec: _rank(spec, tol),
        lambda spec: spec.above_floor(x, tol),
    ]
    certified = 0
    for decide in decisions:
        spec, got = Spectrum(m), []
        if _decompositions(lambda: got.append(decide(spec))) == {"eigh": 0, "eigvalsh": 0}:
            assert tol > 0, "tol = 0 is decided by the eigenvalues alone"
            assert got[0] == decide(exact)
            certified += 1
    return certified


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["psd", "shifted", "rank_one", "indefinite"]),
    n=st.sampled_from([1, 2, 3, 8, 24]),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(_TOLS),
    c=st.floats(0.1, 10.0),
    a=st.floats(0.1, 10.0),
)
def test_a_certificate_decides_as_the_eigenvalues_do(kind, n, seed, tol, c, a):
    m = _random_kernel(kind, n, seed, tol, c)
    # a residual near the floor of above_floor
    x = a * max(tol, 1e-12) * max(1.0, Spectrum(m).top)
    _agrees_with_the_eigenvalues(m, tol, x)


@pytest.mark.parametrize("tol", _TOLS)
def test_certificates_on_a_one_point_grid(tol):
    triple = upper_e(random_schur(3, 2, seed=2), tensor_grid(1, 1, radius=0.9, seed=2))
    for kernel in (triple.n3, triple.combined):
        certified = _agrees_with_the_eigenvalues(kernel.gram, tol, 0.5 * tol)
        assert certified == (0 if tol == 0.0 else 3)


def test_closed_form_2x2_norms_match_the_svd():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    # equal singular values, a tiny matrix, rank one, zero
    m[:4] = [u, 1e-9 * u + np.diag([0.0, 1e-17]), np.outer([1, 2j], [3, -1]), np.zeros((2, 2))]
    want = np.linalg.norm(m, 2, axis=(1, 2))
    np.testing.assert_allclose(operator_norms(m), want, rtol=1e-15, atol=0)
    wide = m.reshape(50, 4, 4)
    assert np.array_equal(operator_norms(wide), np.linalg.norm(wide, 2, axis=(1, 2)))


def test_stacked_spectra_equal_the_single_ones_to_the_last_bit():
    rng = np.random.default_rng(4)
    for n in (1, 6, 10):
        ms = rng.normal(size=(9, n, n)) + 1j * rng.normal(size=(9, n, n))
        ms = ms @ ms.conj().transpose(0, 2, 1) - 0.5 * n * np.eye(n)  # some indefinite
        for m, many in zip(ms, Spectrum.many(list(ms))):
            (one,) = Spectrum.many([m])
            assert one.values.tobytes() == many.values.tobytes()
            assert (one.min, one.top) == (many.min, many.top)
            assert one.factor().tobytes() == many.factor().tobytes()
    assert Spectrum.many([]) == []
    with pytest.raises(ValueError, match="square"):
        Spectrum.many([np.zeros((2, 3))])


def test_a_single_spectrum_factors_as_the_stacked_one_to_the_last_bit():
    # eigvalsh and eigh may part in the last bit of the values, but the factor
    # reads the eigh of the same matrix that Spectrum.many decomposes
    rng = np.random.default_rng(6)
    for n in (1, 6, 10, 64):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m @ m.conj().T - 0.5 * n * np.eye(n)
        one, (many,) = Spectrum(m), Spectrum.many([m])
        np.testing.assert_allclose(one.values, many.values, rtol=0, atol=1e-12 * abs(many.top))
        assert one.factor().tobytes() == many.factor().tobytes()


def test_certify_decomposes_each_pick_matrix_once():
    a0 = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]], complex)
    nodes = (0.2, -0.35 + 0.1j, 0.45j)
    points = tuple(GammaPoint("gamma7", pi_coordinates(l * a0, "gamma7").entries) for l in nodes)
    data = GammaNodes("gamma7", nodes, points)
    reports = []
    counts = _decompositions(lambda: reports.append(certify_gamma7_interpolation(data)))
    assert sum(counts.values()) <= len(reports[0].rows)
    # one stacked eigh for the grid's Pick matrices, none in np_solve
    assert counts == {"eigh": 1, "eigvalsh": 0}

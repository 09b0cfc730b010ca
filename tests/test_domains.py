import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gammapick import domains
from gammapick.domains import (
    E211,
    E311,
    E312,
    BlockStructure,
    GammaPoint,
    in_gamma,
    mu,
    mu_bound,
    pi_coordinates,
    tetrablock_member,
)
from oracles import mu_oracle, tetrablock_completion_mu


def test_block_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure(3, 2, (1, 1))  # block sizes must sum to n
    with pytest.raises(ValueError):
        BlockStructure(3, 0, ())
    assert E311.label() == "E(3;3;1,1,1)"
    assert E312.label() == "E(3;2;1,2)"
    assert E211.label() == "E(2;2;1,1)"


def test_mu_rejects_wrong_shape():
    with pytest.raises(ValueError):
        mu(np.eye(2), E311)


def test_mu_diagonal_is_largest_modulus_entry():
    a = np.diag([0.5, 0.25, 0.2])
    assert mu(a, E311) == pytest.approx(0.5, abs=1e-12)
    assert mu(a, E312) == pytest.approx(0.5, abs=1e-12)


def test_mu_nilpotent_is_zero():
    a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert mu(a, E311) == 0.0
    assert mu(a, E312) == 0.0


def test_mu_on_one_block_is_the_spectral_radius():
    # one scalar block: mu is the spectral radius, below the norm here
    a = np.diag([0.5, 0.2, 0.1]).astype(complex)
    a[0, 1] = 0.3
    value = mu(a, BlockStructure.parse("E(3;1;3)"))
    assert value == 0.5 and (value.bracket.lower, value.bracket.upper) == (0.5, 0.5)
    assert np.linalg.norm(a, 2) > 0.5


def test_mu_identity_is_one():
    assert mu(np.eye(3), E311) == pytest.approx(1.0, rel=1e-6)


def test_mu_scaling_equivariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base = mu(a, E311)
    assert mu(2.5 * a, E311) == pytest.approx(2.5 * base, rel=1e-6)


@pytest.mark.parametrize("structure", [E311, E312], ids=["E311", "E312"])
def test_mu_of_a_matrix_with_a_subnormal_peak(structure):
    # dividing by a subnormal largest entry would overflow: the matrix is
    # lifted by a power of two first, so mu scales down with it
    ones = np.full((3, 3), 1e-320)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = mu(ones, structure)
        assert in_gamma(ones, structure)
        scaled = mu(2.0**-1040 * a, structure)
    assert value == pytest.approx(3e-320, rel=1e-3) and value.bracket.closed
    # entries of 2**-1040 a keep about 34 bits
    assert scaled == pytest.approx(2.0**-1040 * mu(a, structure), rel=1e-8)


@pytest.mark.parametrize("structure", [E311, E312], ids=["E311", "E312"])
def test_mu_bound_refuses_a_bracket_above_the_largest_float(structure):
    # every entry 1e308 has mu 3e308; 1e307 still has a finite bracket
    with pytest.raises(ValueError, match=r"^mu overflows: its bracket \[inf, inf\] is not finite$"):
        mu_bound(np.full((3, 3), 1e308), structure)
    assert mu(np.full((3, 3), 1e307), structure) == pytest.approx(3e307, rel=1e-12)


def test_mu_dominates_spectral_radius_and_structure_order():
    # scalar multiples of the identity are admissible in every structure, so
    # mu bounds the spectral radius from above; the two-block structure is a
    # subset of the full-diagonal one, so its mu cannot exceed it
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        m311 = mu(a, E311)
        m312 = mu(a, E312)
        assert m311 >= rho - 1e-8
        assert m312 <= m311 + 1e-8


@pytest.mark.parametrize("structure", [E311, E312])
def test_mu_matches_independent_oracle(structure):
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lib = mu(a, structure)
        ora = mu_oracle(a, structure.label())
        assert lib == pytest.approx(ora, rel=1e-4, abs=1e-10)


def test_mu_e211_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert mu(a, E211) == pytest.approx(mu_oracle(a, E211.label()), rel=1e-4)


def test_pi_coordinates_identity():
    assert pi_coordinates(np.eye(3), "gamma7").entries == tuple([1 + 0j] * 7)
    assert pi_coordinates(np.eye(3), "gamma5").entries == (1, 2, 1, 2, 1)


def test_pi_coordinates_match_minors():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        return np.linalg.det(a[np.ix_(rows, cols)])

    x = pi_coordinates(a, "gamma7").entries
    expected = (
        a[0, 0], a[1, 1], minor(2, 2), a[2, 2], minor(1, 1), minor(0, 0),
        np.linalg.det(a),
    )
    np.testing.assert_allclose(x, expected, atol=1e-12)

    y = pi_coordinates(a, "gamma5").entries
    np.testing.assert_allclose(
        y,
        (a[0, 0], minor(2, 2) + minor(1, 1), np.linalg.det(a),
         a[1, 1] + a[2, 2], minor(0, 0)),
        atol=1e-12,
    )


def test_pi_coordinates_gamma3_takes_a_2x2_matrix():
    a = np.array([[0.3, 0.2j], [0.1, -0.4]])
    x = pi_coordinates(a, "gamma3")
    assert x.variant == "gamma3"
    np.testing.assert_allclose(x.entries, (0.3, -0.4, np.linalg.det(a)), atol=1e-15)
    with pytest.raises(ValueError, match="gamma3 coordinates need a 2x2 matrix"):
        pi_coordinates(np.eye(3), "gamma3")


def test_pi_coordinates_rejects_unknown_variant():
    with pytest.raises(ValueError):
        pi_coordinates(np.eye(3), "gamma9")


def test_in_gamma_contractive_and_scaled():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.8 * a / np.linalg.svd(a, compute_uv=False)[0]
    assert in_gamma(a, E311)
    assert in_gamma(a, E312)
    assert not in_gamma(4.0 * a / 0.8, E311)


def test_tetrablock_member_fixtures():
    assert tetrablock_member((0.3, 0.2, 0.05))
    assert not tetrablock_member((1.4, 0.0, 0.0))
    # diagonal point on the boundary of membership
    assert tetrablock_member((1.0, 0.0, 0.0))


def test_tetrablock_member_reads_gamma3_points_only():
    assert tetrablock_member(GammaPoint("gamma3", (0.3, 0.2, 0.05)))
    assert not tetrablock_member(GammaPoint("gamma3", (1.4, 0.0, 0.0)))
    with pytest.raises(ValueError, match="expects gamma3 coordinates"):
        tetrablock_member(pi_coordinates(0.5 * np.eye(3), "gamma7"))
    # |x3| above 1 + tol is refused: with tol = -0.5 the first inequality
    # alone, 0 <= 1 - 0.36 - 0.5, would let (0, 0, 0.6) in
    assert not tetrablock_member((0.0, 0.0, 1.1))
    assert not tetrablock_member((0.0, 0.0, 0.6), tol=-0.5)
    assert tetrablock_member((0.0, 0.0, 0.4), tol=-0.5)


def test_tetrablock_member_matches_completion_oracle():
    pts = [
        (0.3, 0.2, 0.05),
        (0.6 + 0.2j, -0.4, 0.1j),
        (0.9, 0.9, 0.81),
        (1.2, 0.1, 0.0),
        (0.5j, 0.5, 0.3),
    ]
    for x in pts:
        member = tetrablock_member(x)
        completion = tetrablock_completion_mu(x)
        assert member == (completion <= 1.0 + 1e-6), (x, completion)


def test_tetrablock_contains_contraction_coordinates():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = 0.95 * a / np.linalg.svd(a, compute_uv=False)[0]
        x = (a[0, 0], a[1, 1], np.linalg.det(a))
        assert tetrablock_member(x)


# ---------------------------------------------------------------------------
# the certified bracket and its invariants

# entries on a 0.01 grid in [-2, 2]: exact zeros make reducible and
# triangular matrices common, where the optimal scaling D runs off to
# infinity and sigma_max is often double at the minimizer
_ENTRY = st.integers(-200, 200).map(lambda k: k / 100)
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
_CASES = [
    pytest.param(structure, real, id=f"{structure.label()}-{'real' if real else 'complex'}")
    for structure in (E311, E312, E211)
    for real in (False, True)
]


def _matrices(n: int, real: bool):
    shape = (n, n) if real else (2, n, n)
    return arrays(float, shape, elements=_ENTRY).map(lambda p: p if real else p[0] + 1j * p[1])


def _agree(x, y, slack: float) -> bool:
    """Two mu values of the same (or a rescaled) matrix agree up to the gaps of
    their brackets: each lies within its own gap above the true value."""
    return abs(x - y) <= slack + 1e-12 * max(abs(x), abs(y))


def _gap(value) -> float:
    return value.bracket.upper - value.bracket.lower


@pytest.mark.parametrize("structure, real", _CASES)
@_PROPERTY
@given(data=st.data())
def test_mu_property_homogeneity(structure, real, data):
    a = data.draw(_matrices(structure.n, real))
    c = data.draw(
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
        )
    )
    base, scaled = mu(a, structure), mu(c * a, structure)
    assert _agree(scaled, abs(c) * base, max(abs(c) * _gap(base), _gap(scaled)))


@pytest.mark.parametrize("structure, real", _CASES)
@_PROPERTY
@given(data=st.data())
def test_mu_property_between_spectral_radius_and_norm(structure, real, data):
    a = data.draw(_matrices(structure.n, real))
    value = mu(a, structure)
    rho = np.abs(np.linalg.eigvals(a)).max()
    assert rho <= value * (1 + 1e-12) + 1e-300
    assert value <= np.linalg.norm(a, 2) * (1 + 1e-12)


def _block_unitary(structure, angles) -> np.ndarray:
    """diag(e^{i alpha_B}) for scalar blocks; diag(e^{i alpha}, U_2) for E312."""
    if structure == E312:
        t, phi = angles[1], angles[2]
        u = np.zeros((3, 3), dtype=complex)
        u[0, 0] = np.exp(1j * angles[0])
        u[1:, 1:] = [
            [np.cos(t), -np.exp(-1j * phi) * np.sin(t)],
            [np.exp(1j * phi) * np.sin(t), np.cos(t)],
        ]
        return u
    return np.diag(np.exp(1j * np.asarray(angles[: structure.n])))


@pytest.mark.parametrize("structure, real", _CASES)
@_PROPERTY
@given(data=st.data())
def test_mu_property_block_unitary_similarity(structure, real, data):
    a = data.draw(_matrices(structure.n, real))
    angles = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3))
    u = _block_unitary(structure, angles)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(structure.n), atol=1e-14)
    base, moved = mu(a, structure), mu(u @ a @ u.conj().T, structure)
    assert _agree(moved, base, _gap(base) + _gap(moved))


@pytest.mark.parametrize("structure, real", _CASES)
@_PROPERTY
@given(data=st.data())
def test_mu_property_lies_in_its_bracket(structure, real, data):
    a = data.draw(_matrices(structure.n, real))
    bracket = mu_bound(a, structure)
    value = mu(a, structure)
    assert value.bracket == bracket
    assert 0.0 <= bracket.lower <= value <= bracket.upper
    assert value == bracket.upper


# A real E(3;2;1,2) matrix on which this property failed in full tier-1 runs
# and passed in lone runs: the derandomized draws move with the constants of
# the modules loaded.  Pinned, it runs every time; its bracket is
# [0.6318409399080843, 0.6318409399125691] and the oracle 0.6318409399080839.
_PINNED_312 = ("E(3;2;1,2)", True, np.array([[-0.01, 0, -0.03], [0, 0, 0], [-0.66, 0, -0.6]]))


@pytest.mark.parametrize("structure, real", _CASES)
@settings(max_examples=10, deadline=None, derandomize=True)
@example(data=_PINNED_312)
@given(data=st.data())
def test_mu_property_bracket_contains_oracle(structure, real, data):
    if isinstance(data, tuple):  # the pinned example, for its own case only
        label, pinned_real, a = data
        if (label, pinned_real) != (structure.label(), real):
            return
    else:
        a = data.draw(_matrices(structure.n, real))
    bracket = mu_bound(a, structure)
    ora = mu_oracle(a, structure.label())
    # the oracle is 1 / |X| for a structured X with det(I - a X) = 0, so it
    # can only sit below mu; within 1e-9 of the bracket on either side
    assert bracket.lower <= ora * (1 + 1e-9) + 1e-300
    assert ora <= bracket.upper * (1 + 1e-9)


def test_mu_bracket_closes_on_criterion_5_matrices():
    rng = np.random.default_rng(50)
    for structure in (E311, E312):
        for _ in range(30):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            bracket = mu_bound(a, structure)
            assert bracket.closed, bracket


def test_mu_outside_exact_structures_needs_a_closed_bracket():
    e4 = BlockStructure.parse("E(4;4;1,1,1,1)")
    assert not e4.d_scaling_exact
    assert E311.d_scaling_exact and E312.d_scaling_exact and E211.d_scaling_exact
    for seed in (5, 13):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bracket = mu_bound(a, e4)
        if bracket.closed:
            assert mu(a, e4) == bracket.upper
        else:
            with pytest.raises(ValueError, match="gap"):
                mu(a, e4)


def test_mu_peak_memory_is_small():
    rng = np.random.default_rng(50)  # the first matrix of acceptance criterion 5
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mu(a, E311)  # first call outside the trace: numpy's lazy set-up
    tracemalloc.start()
    try:
        mu(a, E311)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the lean evaluation of sigma_max(D a D^-1): scaling, gradient and plan

_LEAN = [
    E311,
    E312,
    E211,
    BlockStructure.parse("E(4;4;1,1,1,1)"),
    BlockStructure.parse("E(4;2;1,3)"),
]


def _scaling_matrix(x, structure) -> np.ndarray:
    """``D`` from its parameters, written out: ``D[0, 0] = 1``, the other
    diagonal entries ``exp(x[:n - 1])``, then the entries below the diagonal
    of each block, row by row, real parts first and imaginary parts after."""
    n = structure.n
    d = np.eye(n, dtype=complex)
    d[range(1, n), range(1, n)] = np.exp(x[: n - 1])
    lower = [
        (j, k)
        for start, size in zip(np.cumsum((0,) + structure.r[:-1]).tolist(), structure.r)
        for j in range(start, start + size)
        for k in range(start, j)
    ]
    entries = x[n - 1 : n - 1 + len(lower)] + 1j * x[n - 1 + len(lower) :]
    for (j, k), value in zip(lower, entries):
        d[j, k] = value
    return d


def _parameter_count(structure) -> int:
    return structure.n - 1 + sum(r * (r - 1) for r in structure.r)


@pytest.mark.parametrize("structure", _LEAN, ids=BlockStructure.label)
def test_scaled_matrix_matches_the_general_inverse(structure):
    rng = np.random.default_rng(31)
    plan = domains._plan(structure)
    for _ in range(20):
        a = rng.standard_normal((structure.n,) * 2) + 1j * rng.standard_normal((structure.n,) * 2)
        x = rng.standard_normal(_parameter_count(structure))
        d = _scaling_matrix(x, structure)
        want = d @ a @ np.linalg.inv(d)
        got = domains._scaled(a, x, plan)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("structure", _LEAN, ids=BlockStructure.label)
def test_scaled_sigma_gradient_matches_central_differences(structure):
    rng = np.random.default_rng(32)
    plan = domains._plan(structure)
    h = 1e-6
    checked = 0
    while checked < 10:
        a = rng.standard_normal((structure.n,) * 2) + 1j * rng.standard_normal((structure.n,) * 2)
        x = 0.5 * rng.standard_normal(_parameter_count(structure))
        sv = np.linalg.svd(domains._scaled(a, x, plan)[0], compute_uv=False)
        if sv[0] - sv[1] < 1e-2 * sv[0]:
            continue  # sigma_max is (nearly) double: no gradient there
        sigma, grad, _, _ = domains._scaled_sigma(a, x, plan)
        assert sigma == pytest.approx(sv[0], rel=1e-14)
        step = h * np.eye(x.size)
        central = np.array(
            [
                domains._scaled_sigma(a, x + e, plan)[0] - domains._scaled_sigma(a, x - e, plan)[0]
                for e in step
            ]
        ) / (2 * h)
        np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-5 * np.abs(central).max())
        checked += 1


def test_equal_structures_share_one_plan():
    assert domains._plan(BlockStructure.parse("E(3;2;1,2)")) is domains._plan(E312)
    assert domains._plan(BlockStructure(3, 3, (1, 1, 1))) is domains._plan(E311)
    assert domains._plan(E311) is not domains._plan(E312)


def test_stalled_descent_bracket_still_contains_mu():
    # sigma_max is double along the descent, and BFGS stalls a little above
    # the infimum of the D-scaling bound: the upper end is then a valid upper
    # bound above mu, and the bracket still holds mu
    a = np.random.default_rng(443).standard_normal((3, 3))
    bracket = mu_bound(a, E312)
    ora = mu_oracle(a, E312.label())
    assert bracket.lower <= ora * (1 + 1e-9)
    assert ora <= bracket.upper * (1 + 1e-9)


@pytest.mark.parametrize("structure", [E311, E312], ids=lambda s: s.label())
def test_phase_sweep_closes_all_but_two_brackets_of_real_draws(structure):
    # real matrices often have a double sigma_max at the minimizer, where the
    # descent's aligned phases leave the bracket open (26 of these 100 on
    # E(3;3;1,1,1), 27 on E(3;2;1,2)); the sweep closes all but two: draws
    # 31 and 67, and on E(3;2;1,2) the descent stalls 43 and 97
    rng = np.random.default_rng(0)
    brackets = [mu_bound(rng.standard_normal((3, 3)), structure) for _ in range(100)]
    assert all(b.lower <= b.upper for b in brackets)
    assert sum(not b.closed for b in brackets) <= 2


def test_phase_sweep_levels_stay_within_the_cap(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stacked = []

    def counted(m):
        if m.ndim == 3:
            stacked.append(m.shape[0])
        return eigvals(m)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    bracket = mu_bound(a, BlockStructure.parse("E(4;4;1,1,1,1)"))
    # the bracket stays open (2S + F > 3): the sweep runs down to its floor
    assert not bracket.closed and len(stacked) > 20
    assert stacked[0] == 8**3 and max(stacked[1:]) <= domains._SWEEP_POINTS // 4

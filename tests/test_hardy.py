import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapick import hardy
from gammapick.hardy import (
    InnerOuterPair,
    RationalFunction,
    blaschke_eval,
    inner_outer,
)


def _circle(n=64):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _disc_grid(radius=0.7, n=50):
    rng = np.random.default_rng(12)
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def test_rational_arithmetic_matches_pointwise():
    # numerator roots of g stay outside the disc so the quotient is admissible
    f = RationalFunction([1.0, 2.0], [1.0, 0.0, 0.25])  # poles at |lam| = 2
    g = RationalFunction([1.0, 0.0, 0.5], [1.0, -0.3])
    lam = _disc_grid()
    np.testing.assert_allclose((f + g)(lam), f(lam) + g(lam), atol=1e-12)
    np.testing.assert_allclose((f * g)(lam), f(lam) * g(lam), atol=1e-12)
    np.testing.assert_allclose((f - g)(lam), f(lam) - g(lam), atol=1e-12)
    np.testing.assert_allclose((f / g)(lam), f(lam) / g(lam), atol=1e-12)


def test_rational_same_denominator_addition_keeps_denominator():
    den = np.array([1.0, 0.1, 0.04])
    f = RationalFunction([1.0, 1.0], den)
    g = RationalFunction([2.0, 0.5], den)
    h = f + g
    np.testing.assert_array_equal(h.denominator, den)
    np.testing.assert_allclose(h.numerator, [3.0, 1.5])
    q = f / g
    np.testing.assert_array_equal(q.denominator, np.array([2.0, 0.5]))


def test_rational_rejects_pole_inside_disc():
    with pytest.raises(ValueError, match="root"):
        RationalFunction([1.0], [1.0, -2.0])  # pole at 0.5


def test_rational_rejects_pole_on_circle():
    with pytest.raises(ValueError):
        RationalFunction([1.0], [1.0, -1.0])  # pole at 1


def test_rational_accepts_high_multiplicity_outside_pole():
    # repeated factors scatter computed roots; the winding count must not
    base = np.array([1.0, -1.0 / 1.111])
    den = np.array([1.0])
    for _ in range(9):
        den = np.polynomial.polynomial.polymul(den, base)
    f = RationalFunction(np.ones(3), den)
    lam = _disc_grid(radius=0.8, n=20)
    direct = np.polynomial.polynomial.polyval(lam, np.ones(3)) / (
        np.polynomial.polynomial.polyval(lam, den)
    )
    np.testing.assert_allclose(f(lam), direct, atol=1e-10)


def test_rational_trim_and_zero_and_roots():
    f = RationalFunction([0.25, -1.0, 0.0, 0.0], [1.0])
    assert f.numerator.size == 2
    assert not f.is_zero
    assert RationalFunction([0.0], [1.0]).is_zero
    np.testing.assert_allclose(f.numerator_roots(), [0.25], atol=1e-12)


def test_blaschke_eval_unimodular_on_boundary_and_vanishes_at_zeros():
    zeros = [0.3 + 0.2j, -0.5j]
    vals = blaschke_eval(zeros, 1.0, _circle())
    np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)
    np.testing.assert_allclose(blaschke_eval(zeros, 1.0, np.array(zeros)), 0.0, atol=1e-14)
    # zero at the origin contributes a bare monomial factor
    np.testing.assert_allclose(blaschke_eval([0.0], 1.0, [0.25]), [0.25], atol=1e-14)


def _reconstruction_error(f, pair, radius=0.9, n=60):
    lam = _disc_grid(radius=radius, n=n)
    return float(np.abs(pair.eval(lam) - f(lam)).max())


def test_inner_outer_polynomial_with_interior_zero():
    f = RationalFunction([0.0, 2.0, -1.0], [1.0])  # lam (2 - lam)
    pair = inner_outer(f)
    assert _reconstruction_error(f, pair) <= 1e-8
    np.testing.assert_allclose(np.abs(pair.blaschke_zeros), [0.0], atol=1e-9)
    assert pair.outer_eval(np.array([0.0]))[0].real > 0
    # boundary modulus of the outer factor equals |f| there
    nodes = _circle(pair.n_boundary)
    np.testing.assert_allclose(
        pair.boundary_outer_modulus(), np.abs(f(nodes)), atol=1e-8
    )


def test_inner_outer_blaschke_factor_has_trivial_outer():
    f = RationalFunction([0.5, -1.0], [1.0, -0.5])  # (0.5 - lam)/(1 - 0.5 lam)
    pair = inner_outer(f)
    assert _reconstruction_error(f, pair) <= 1e-8
    lam = _disc_grid(radius=0.8, n=30)
    np.testing.assert_allclose(pair.outer_eval(lam), np.ones_like(lam), atol=1e-8)
    assert abs(abs(pair.unimodular_constant) - 1.0) <= 1e-9


def test_inner_outer_constant():
    f = RationalFunction([-2.0], [1.0])
    pair = inner_outer(f)
    assert pair.blaschke_zeros.size == 0
    np.testing.assert_allclose(pair.eval(np.array([0.3j])), [-2.0], atol=1e-9)


def test_inner_outer_zero_function_rejected():
    with pytest.raises(ValueError):
        inner_outer(RationalFunction([0.0], [1.0]))


def test_exact_outer_path_and_sqrt():
    f = RationalFunction([6.0, 1.0, -1.0], [1.0])  # (2 - lam)(3 + lam), no inner part
    pair = inner_outer(f)
    assert pair.has_exact_outer
    lam = _disc_grid(radius=0.9, n=60)
    np.testing.assert_allclose(pair.outer_eval(lam), f(lam), atol=1e-9)
    s = pair.outer_sqrt(lam)
    np.testing.assert_allclose(s * s, f(lam), atol=1e-9)
    assert np.all(s.real > 0)  # factors stay in the right half-plane


def test_outer_sqrt_matches_principal_branch():
    f = RationalFunction([2.0, -1.0], [1.0])  # 2 - lam, values in the right half-plane
    pair = inner_outer(f)
    lam = _disc_grid(radius=0.95, n=80)
    np.testing.assert_allclose(pair.outer_sqrt(lam), np.sqrt(f(lam)), atol=1e-6)


def test_herglotz_fallback_near_circle_pole():
    # a denominator root just outside the margin forces the quadrature route,
    # which needs enough nodes to resolve the boundary spike
    f = RationalFunction([1.0, 0.5], [1.0, -1.0 / 1.0008])
    pair = inner_outer(f, n_boundary=16384)
    assert not pair.has_exact_outer
    lam = _disc_grid(radius=0.7, n=40)
    np.testing.assert_allclose(pair.eval(lam), f(lam), atol=1e-6)


def test_inner_outer_refuses_under_resolved_boundary_zero():
    # a numerator root touching the circle cannot be represented at default
    # resolution; the factorization must fail loudly instead of degrading
    f = RationalFunction([1.0, -1.0], [1.0])
    with pytest.warns(UserWarning, match="unit circle"):
        with pytest.raises(ValueError, match="under-resolved"):
            inner_outer(f)


def test_exact_pair_root_validation():
    with pytest.raises(ValueError):
        InnerOuterPair(
            1.0,
            np.zeros(0),
            np.zeros(2048),
            outer_roots=np.array([0.5 + 0.0j]),  # must lie outside the closed disc
            den_roots=np.zeros(0, dtype=complex),
            outer_scale=1.0,
        )


# ---------------------------------------------------------------------------
# RationalFunction.over certifies a shared denominator once


def winding_checks(fn, on_given_values=None) -> int:
    """Number of 4096-point winding checks ``fn()`` computes, on circle
    values evaluated or given; with ``on_given_values`` True or False, only
    those on given or on evaluated values."""
    count = 0
    original = hardy._boundary_winding

    def counted(den, values=None):
        nonlocal count
        if on_given_values is None or on_given_values == (values is not None):
            count += 1
        return original(den, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "_boundary_winding", counted)
        fn()
    return count


_DEN_A = [1.0, 0.1, 0.04]


def test_over_checks_k_numerators_once():
    nums = [[1.0, c] for c in range(5)]
    built = []
    assert winding_checks(lambda: built.extend(RationalFunction.over(_DEN_A, nums))) == 1
    # the same functions as the constructor builds, one check each
    assert winding_checks(lambda: [RationalFunction(n, _DEN_A) for n in nums]) == 5
    lam = _disc_grid()
    for f, num in zip(built, nums):
        assert type(f) is RationalFunction
        np.testing.assert_array_equal(f(lam), RationalFunction(num, _DEN_A)(lam))


def test_over_reads_given_samples_and_evaluates_nothing():
    samples = npoly.polyval(hardy.SAMPLES, _DEN_A)

    def built():
        RationalFunction.over(_DEN_A, [[1.0], [2.0]], samples)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "npoly", None)  # nothing is evaluated
        assert winding_checks(built, on_given_values=True) == 1
        assert winding_checks(built, on_given_values=False) == 0
    # the check runs on the samples given: those of a polynomial with a root
    # inside the disc fail it, whatever the denominator
    with pytest.raises(ValueError, match="root"):
        RationalFunction.over(_DEN_A, [[1.0]], npoly.polyval(hardy.SAMPLES, [1.0, -2.0]))


def test_over_raises_on_every_call_for_a_rejected_denominator():
    def rejected():
        for _ in range(3):
            with pytest.raises(ValueError, match="root"):
                RationalFunction.over([1.0, -2.0], [[1.0], [2.0]])  # pole at 0.5

    assert winding_checks(rejected) == 3
    with pytest.raises(ZeroDivisionError):
        RationalFunction.over([0.0, 0.0], [[1.0]])


def test_over_does_not_check_a_constant_denominator():
    built = []

    def constant():
        built.extend(RationalFunction.over([2.0, 0.0], [[1.0, 3.0]]))

    assert winding_checks(constant) == 0
    np.testing.assert_array_equal(built[0].denominator, [2.0])


def test_over_trims_as_the_constructor_trims():
    den = [*_DEN_A, 1e-15, 0.0]
    num = [1.0, 1e-16, 0.5, 0.0, 1e-17]
    (f,) = RationalFunction.over(den, [num])
    g = RationalFunction(num, den)
    assert f.numerator.tobytes() == g.numerator.tobytes()
    assert f.denominator.tobytes() == g.denominator.tobytes()
    assert f.denominator.size == 3 and f.numerator.size == 3


# ---------------------------------------------------------------------------
# inner_outer on both sides of each circle margin


def _root_at(modulus: float) -> RationalFunction:
    # a phase away from every boundary node, so the quadrature is not hit head on
    return RationalFunction([1.0, -1.0 / (modulus * np.exp(0.7j))])


@pytest.mark.parametrize(
    "modulus, exact, snapped, tol",
    [
        # the 1e-9 snap: inside it the root is a Blaschke zero
        (1.0 - 2e-9, True, False, 1e-6),
        (1.0 - 0.5e-9, False, True, 1e-4),
        (1.0 + 0.5e-9, False, True, 1e-4),
        # the 1e-6 margin for outer roots
        (1.0 + 0.5e-6, False, False, 1e-4),
        (1.0 + 2e-6, True, False, 1e-6),
    ],
)
def test_inner_outer_numerator_root_margins(modulus, exact, snapped, tol):
    # off the exact path the quadrature resolves a root this close to the
    # circle only to ~1e-5 with 2048 nodes, so those cases ask for tol 1e-4
    f = _root_at(modulus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair = inner_outer(f, tol=tol)
    assert any("unit circle" in str(w.message) for w in caught) == snapped
    assert pair.has_exact_outer == exact
    assert pair.blaschke_zeros.size == (1 if modulus < 1.0 - 1e-9 else 0)
    scale = max(1.0, float(np.abs(f(_circle(2048))).max()))
    assert _reconstruction_error(f, pair, radius=0.7) <= tol * scale


@pytest.mark.parametrize("modulus, exact", [(1.0 + 0.5e-3, False), (1.0 + 2e-3, True)])
def test_inner_outer_pole_margin(modulus, exact):
    tol = 1e-5
    f = RationalFunction([0.5, 0.2], [1.0, -1.0 / (modulus * np.exp(0.7j))])
    pair = inner_outer(f, tol=tol)
    assert pair.has_exact_outer == exact
    scale = max(1.0, float(np.abs(f(_circle(2048))).max()))
    assert _reconstruction_error(f, pair, radius=0.7) <= tol * scale


# inner_outer on random rational functions with every root and pole away from the circle
def _roots(moduli):
    return st.lists(
        st.tuples(moduli, st.floats(0.0, 2 * np.pi)).map(lambda rt: rt[0] * np.exp(1j * rt[1])),
        max_size=4,
    )


_OFF_CIRCLE = st.floats(0.0, 0.9) | st.floats(1.1, 3.0)


@settings(max_examples=60, deadline=None)
@given(
    zeros=_roots(_OFF_CIRCLE),
    poles=_roots(st.floats(1.1, 3.0)),
    scale=st.floats(0.1, 10.0),
    phase=st.floats(0.0, 2 * np.pi),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_inner_outer_property_on_random_rational_functions(zeros, poles, scale, phase, tol):
    # polyfromroots([]) is the constant 1
    f = RationalFunction(
        scale * np.exp(1j * phase) * npoly.polyfromroots(zeros), npoly.polyfromroots(poles)
    )
    pair = inner_outer(f, tol=tol)
    assert float(np.abs(np.abs(pair.inner_eval(_circle(512))) - 1.0).max()) <= 1e-12
    assert pair.blaschke_zeros.size == sum(abs(z) < 1.0 for z in zeros)
    fscale = max(1.0, float(np.abs(f(_circle(2048))).max()))
    assert _reconstruction_error(f, pair, radius=0.95, n=200) <= tol * fscale

import re
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gammapick import _poly, hardy, tolerances
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


def test_rational_rejects_pole_inside_disc():
    with pytest.raises(ValueError, match="root"):
        RationalFunction([1.0], [1.0, -2.0])  # pole at 0.5


def test_rational_rejects_pole_on_circle():
    with pytest.raises(ValueError):
        RationalFunction([1.0], [1.0, -1.0])  # pole at 1


def test_rational_accepts_high_multiplicity_outside_pole():
    # repeated factors scatter computed roots by about 2e-3; the root
    # certificate still decides
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


def _refusal(den):
    """The message refusing ``RationalFunction([1.0], den)``, or "accepted"."""
    try:
        RationalFunction([1.0], den)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def test_rational_over_subnormal_denominator_coefficients():
    # 0.1 / (1 + 0.1 lam) over coefficients of 1e-310: a division by them
    # overflows, so they are lifted with the numerator by 2**600
    lam = np.array([0.0, 0.5, -0.9, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = RationalFunction([1e-311], [1e-310, 1e-311])
        (g,) = RationalFunction.over([1e-310, 1e-311], [[1e-311]])
        values = f(lam)
        # the root of 1e-310 + 1e-310 lam is -1, on the circle
        assert _refusal([1e-310, 1e-310]) == _ON_CIRCLE
    np.testing.assert_allclose(values, 0.1 / (1.0 + 0.1 * lam), rtol=1e-11)
    assert g(lam).tobytes() == values.tobytes()
    ((_, roots, _),) = f.factors
    assert roots == pytest.approx([-10.0])
    with pytest.raises(ValueError, match="^numerator overflows over a subnormal denominator$"):
        RationalFunction([1e200], [1e-310, 1e-311])


@pytest.mark.parametrize("d", [1e-7, 1e-8, 1e-9, 1e-10])
def test_rational_refuses_a_pole_just_inside_the_disc(d):
    # the 4096-point winding check accepted 736 of these 800 poles
    phases = np.exp(2j * np.pi * np.arange(200) / 200 + 0.1j)
    for root in (1.0 - d) * phases:
        assert _refusal(npoly.polyfromroots([root])) == "denominator has 1 root(s) inside the unit disc"


def test_rational_accepts_close_pole_pairs_just_outside_the_circle():
    # two poles 1e-5 to 1e-3 outside the circle, within 2e-3 of each other in
    # phase: the winding check refused about half of these
    rng = np.random.default_rng(20)
    for _ in range(1500):
        moduli = 1.0 + 10.0 ** rng.uniform(-5.0, -3.0, size=2)
        theta = rng.uniform(0.0, 2 * np.pi)
        phases = theta + np.array([0.0, rng.uniform(-2e-3, 2e-3)])
        roots = moduli * np.exp(1j * phases)
        f = RationalFunction([1.0], npoly.polyfromroots(roots))
        ((_, got, _),) = f.factors
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(roots), rtol=1e-8)


_BAND = "denominator root not certified 1e-09 outside the unit circle"
_ON_CIRCLE = "denominator nearly vanishes on the unit circle: roots not certified"


@pytest.mark.parametrize(
    "modulus, outcome",
    [
        # the 1e-9 band on either side of 1 + 1e-9, then roots on and next to
        # the circle
        (1.0 + 2e-9, "accepted"),
        (1.0 + 0.5e-9, _BAND),
        (1.0 + 2e-12, _BAND),
        (1.0, _ON_CIRCLE),
        (1.0 - 2e-12, "denominator has 1 root(s) inside the unit disc"),
    ],
)
def test_rational_refuses_a_pole_in_the_circle_band(modulus, outcome):
    for phase in (0.0, 0.3, np.pi):
        assert _refusal([1.0, -1.0 / (modulus * np.exp(1j * phase))]) == outcome


@pytest.mark.parametrize(
    "roots",
    [
        pytest.param(1.05 * np.exp(0.7j * np.arange(9)), id="9-at-1.05"),
        pytest.param(1.002 * np.exp(1j * np.arange(5)), id="5-at-1.002"),
        pytest.param(1.001 * np.exp(2j * np.pi * np.arange(27) / 27 + 0.1j), id="27-at-1.001"),
        pytest.param([1.001] * 4 + [-1.001] * 4, id="two-4-fold-at-1.001"),
    ],
)
def test_rational_accepts_poles_spread_around_the_circle(roots):
    # the product of the roots' distances to the circle is far below the
    # rounding here (0.05**9 = 2e-12); |lead prod(lam - r_i)| on the circle
    # is not, and its bound arc by arc decides
    f = RationalFunction([1.0], npoly.polyfromroots(roots))
    ((_, got, _),) = f.factors
    np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(roots), atol=5e-3)


def test_rational_refuses_what_its_roots_cannot_certify():
    # a 9-fold root on the circle: the computed roots scatter across it
    den = npoly.polyfromroots([np.exp(0.2j)] * 9)
    assert _refusal(den) == _ON_CIRCLE


def _cluster(modulus, mult):
    return st.tuples(st.floats(0.0, 2 * np.pi), st.integers(1, mult)).map(
        lambda pm: [modulus * np.exp(1j * pm[0])] * pm[1]
    )


# clusters of up to 4 equal roots, inside the disc by 1e-6 or more, or
# outside it by 1e-3 or more
_INSIDE_ROOTS = st.floats(1e-6, 0.9).flatmap(lambda d: _cluster(1.0 - d, 4))
_OUTSIDE_ROOTS = st.floats(1e-3, 3.0).flatmap(lambda d: _cluster(1.0 + d, 4))


@settings(max_examples=150, deadline=2000)
@given(
    inside=st.lists(_INSIDE_ROOTS, max_size=2),
    outside=st.lists(_OUTSIDE_ROOTS, max_size=2),
    scale=st.floats(1e-2, 1e2),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_root_certificate_property(inside, outside, scale, phase):
    roots = [r for cluster in inside + outside for r in cluster]
    assume(roots)
    den = scale * np.exp(1j * phase) * npoly.polyfromroots(roots)
    count = sum(map(len, inside))
    got = _refusal(den)
    # never accepted with a root inside, and a named count is the true one
    assert (got == "accepted") <= (count == 0)
    named = re.fullmatch(r"denominator has (\d+) root\(s\) inside the unit disc", got)
    assert named is None or int(named[1]) == count
    # an outside draw is accepted wherever |den| on the circle clears
    # POLY_NOISE per unit of coefficient mass, the floor of the winding check
    # this certificate replaced.  Not every outside draw can be: two 4-fold
    # clusters at 1.001 of one phase dip to 1e-24 of the leading coefficient,
    # below the rounding of any evaluation of den
    low = abs(den[-1]) * np.abs(_circle(1 << 14)[:, None] - roots).prod(axis=1).min()
    if not inside and low >= tolerances.POLY_NOISE * np.abs(den).sum():
        assert got == "accepted"


_NON_FINITE = [
    pytest.param([0.1, np.nan], [1.0], id="numerator-nan-last"),
    pytest.param([np.nan], [1.0], id="numerator-nan-alone"),
    pytest.param([0.1, np.inf], [1.0], id="numerator-inf"),
    pytest.param([0.1], [1.0, -np.inf], id="denominator-inf"),
    pytest.param([0.1], [1.0, 0.1, complex(0.0, np.nan)], id="denominator-nan-imag"),
]


@pytest.mark.parametrize("num, den", _NON_FINITE)
def test_rational_rejects_non_finite_coefficients(num, den):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        RationalFunction(num, den)


@pytest.mark.parametrize("num, den", _NON_FINITE)
def test_over_rejects_non_finite_coefficients(num, den):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        RationalFunction.over(den, [[0.5], num])


def test_rational_trim_and_zero_and_roots():
    f = RationalFunction([0.25, -1.0, 0.0, 0.0], [1.0])
    assert f.numerator.size == 2
    assert not f.is_zero
    assert RationalFunction([0.0], [1.0]).is_zero
    np.testing.assert_allclose(_poly.roots(f.numerator[None])[0], [0.25], atol=1e-12)


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
    nodes = hardy.BOUNDARY_NODES
    np.testing.assert_allclose(np.abs(pair.outer_eval(nodes)), np.abs(f(nodes)), atol=1e-8)


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


def test_inner_outer_takes_only_a_rational_function():
    with pytest.raises(TypeError, match="RationalFunction"):
        inner_outer(2.0)


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


def test_inner_outer_factors_a_boundary_zero_exactly():
    # a numerator root on the circle is an outer root like any other
    f = RationalFunction([1.0, -1.0], [1.0])
    with pytest.warns(UserWarning, match="unit circle"):
        pair = inner_outer(f)
    assert pair.has_exact_outer and pair.blaschke_zeros.size == 0
    np.testing.assert_array_equal(pair.outer_roots, [1.0])
    lam = 0.999 * _circle(512)
    np.testing.assert_allclose(pair.eval(lam), f(lam), rtol=0, atol=1e-14)


def test_exact_pair_root_validation():
    with pytest.raises(ValueError, match="on or outside the unit circle"):
        InnerOuterPair(
            1.0,
            np.zeros(0),
            outer_roots=np.array([0.5 + 0.0j]),
            den_roots=np.zeros(0, dtype=complex),
            outer_scale=1.0,
        )
    # a root projected onto the circle may round to 1 - 1 ulp
    below = np.nextafter(1.0, 0.0) * np.exp(0.3j)
    pair = InnerOuterPair(1.0, np.zeros(0), np.array([below]), np.zeros(0), 1.0)
    assert pair.outer_roots.size == 1


# ---------------------------------------------------------------------------
# RationalFunction.over certifies a shared denominator once


def root_certificates(fn) -> int:
    """Number of root certificates ``fn()`` computes: rows of the stacks of
    denominators, none of them constant, that ``hardy._certified`` is given."""
    count = 0
    original = hardy._certified

    def counted(dens):
        nonlocal count
        count += len(dens)
        return original(dens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "_certified", counted)
        fn()
    return count


_DEN_A = [1.0, 0.1, 0.04]


def test_over_checks_k_numerators_once():
    nums = [[1.0, c] for c in range(5)]
    built = []
    assert root_certificates(lambda: built.extend(RationalFunction.over(_DEN_A, nums))) == 1
    # the same functions as the constructor builds, one certificate each
    assert root_certificates(lambda: [RationalFunction(n, _DEN_A) for n in nums]) == 5
    lam = _disc_grid()
    for f, num in zip(built, nums):
        assert type(f) is RationalFunction
        np.testing.assert_array_equal(f(lam), RationalFunction(num, _DEN_A)(lam))


def test_over_certifies_from_roots_and_circle_values():
    calls = []

    def roots(stack):
        calls.append(("roots", stack))
        return _poly.roots(stack)

    def horner(h, x):
        calls.append(("values", x))
        return _poly.horner(h, x)

    with pytest.MonkeyPatch.context() as mp:
        # the certificate reads one root solve and the denominator's values
        # at 8n points of the unit circle, n its degree
        mp.setattr(hardy, "_poly", SimpleNamespace(roots=roots, horner=horner))
        built = RationalFunction.over(_DEN_A, [[1.0], [2.0]])
    assert [kind for kind, _ in calls] == ["roots", "values"]
    assert calls[0][1].shape == (1, 3)
    np.testing.assert_allclose(calls[1][1], np.exp(2j * np.pi * np.arange(16) / 16), atol=1e-15)
    # the factor carries the roots of its one root solve, the bits of polyroots
    ((den, roots, mult),) = built[0].factors
    assert mult == 1 and built[1].factors is built[0].factors
    assert roots.tobytes() == npoly.polyroots(den).tobytes()


def test_over_raises_on_every_call_for_a_rejected_denominator():
    def rejected():
        for _ in range(3):
            with pytest.raises(ValueError, match="root"):
                RationalFunction.over([1.0, -2.0], [[1.0], [2.0]])  # pole at 0.5

    assert root_certificates(rejected) == 3
    with pytest.raises(ZeroDivisionError):
        RationalFunction.over([0.0, 0.0], [[1.0]])


def test_over_does_not_check_a_constant_denominator():
    built = []

    def constant():
        built.extend(RationalFunction.over([2.0, 0.0], [[1.0, 3.0]]))

    assert root_certificates(constant) == 0
    np.testing.assert_array_equal(built[0].denominator, [2.0])
    assert built[0].factors == ()


def test_over_trims_as_the_constructor_trims():
    den = [*_DEN_A, 1e-15, 0.0]
    num = [1.0, 1e-16, 0.5, 0.0, 1e-17]
    (f,) = RationalFunction.over(den, [num])
    g = RationalFunction(num, den)
    assert f.numerator.tobytes() == g.numerator.tobytes()
    assert f.denominator.tobytes() == g.denominator.tobytes()
    assert f.denominator.size == 3 and f.numerator.size == 3


# ---------------------------------------------------------------------------
# inner_outer next to the circle: every case takes the exact factored form


def _root_at(modulus: float) -> RationalFunction:
    return RationalFunction([1.0, -1.0 / (modulus * np.exp(0.7j))])


def _pole_at(modulus: float) -> RationalFunction:
    return RationalFunction([0.5, 0.2], [1.0, -1.0 / (modulus * np.exp(0.7j))])


# radius 0.999, up to the phase of the root or pole: 1e-3 from the circle
_NEAR_CIRCLE = 0.999 * np.append(_circle(1024), np.exp(0.7j))


def _assert_exact_near_the_circle(f, pair):
    want = f(_NEAR_CIRCLE)
    assert float(np.abs(pair.eval(_NEAR_CIRCLE) - want).max()) <= 1e-9 * np.abs(want).max()
    outer = pair.outer_eval(_NEAR_CIRCLE)
    sqrt = pair.outer_sqrt(_NEAR_CIRCLE)
    assert float(np.abs(sqrt**2 - outer).max()) <= 1e-13 * np.abs(outer).max()


@pytest.mark.parametrize(
    "modulus, exact, snapped, tol",
    [
        # the 1e-9 snap: inside it the root is a Blaschke zero; within it the
        # root moves onto the circle, by at most 5e-10 here
        (1.0 - 2e-9, True, False, 1e-6),
        (1.0 - 0.5e-9, True, True, 1e-6),
        (1.0 + 0.5e-9, True, True, 1e-6),
        (1.0 + 0.5e-6, True, False, 1e-6),
        (1.0 + 2e-6, True, False, 1e-6),
    ],
)
def test_inner_outer_numerator_root_margins(modulus, exact, snapped, tol):
    f = _root_at(modulus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair = inner_outer(f, tol=tol)
    assert any("unit circle" in str(w.message) for w in caught) == snapped
    assert pair.has_exact_outer == exact
    assert pair.blaschke_zeros.size == (1 if modulus < 1.0 - 1e-9 else 0)
    scale = max(1.0, float(np.abs(f(_circle(2048))).max()))
    assert _reconstruction_error(f, pair, radius=0.7) <= tol * scale
    _assert_exact_near_the_circle(f, pair)


@pytest.mark.parametrize(
    "modulus, exact", [(1.0 + 0.5e-3, True), (1.0 + 0.8e-3, True), (1.0 + 2e-3, True)]
)
def test_inner_outer_pole_margin(modulus, exact):
    tol = 1e-6
    f = _pole_at(modulus)
    pair = inner_outer(f, tol=tol)
    assert pair.has_exact_outer == exact
    scale = max(1.0, float(np.abs(f(_circle(2048))).max()))
    assert _reconstruction_error(f, pair, radius=0.7) <= tol * scale
    _assert_exact_near_the_circle(f, pair)


# the scale of inner_outer's check, max(1, max |f|) on the boundary nodes, is
# read only for an interior miss above tol


def _sampled(f, tol, interior, circle):
    """The pair of ``f`` that ``hardy._inner_outer_many`` checks against the
    samples ``interior`` and ``circle()`` in place of the values of ``f``."""
    pair, _ = hardy._only(hardy._inner_outer_many([f], tol, [(interior, circle)]))
    return pair


def _eager_message(f, pair, interior, tol):
    """What the check err > tol * scale, with the scale read first, raises on
    ``interior``, else None."""
    err = float(np.abs(pair.eval(hardy.INTERIOR) - interior).max())
    scale = max(1.0, float(np.abs(f(hardy.BOUNDARY_NODES)).max()))
    if err > tol * scale:
        return f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = {tol * scale:.3e}"
    return None


@pytest.mark.parametrize("miss, reads", [(0.5, 0), (2.0, 1), (4.0, 1)])
def test_inner_outer_reads_the_circle_only_for_a_miss_above_tol(miss, reads):
    # f = 2 + lam has max |f| = 3 on the circle.  The interior samples miss f
    # by miss * tol: at most tol passes unread, up to tol * 3 passes read
    # once, and beyond it raises what the eager check raises
    tol = 1e-6
    f = RationalFunction([2.0, 1.0])
    pair = inner_outer(f, tol=tol)
    interior = f(hardy.INTERIOR) + miss * tol
    calls = []

    def circle():
        calls.append(None)
        return f(hardy.BOUNDARY_NODES)

    want = _eager_message(f, pair, interior, tol)
    assert (want is not None) == (miss > 3.0)
    if want is None:
        assert _sampled(f, tol, interior, circle).outer_scale == pair.outer_scale
    else:
        with pytest.raises(ValueError, match=re.escape(want)):
            _sampled(f, tol, interior, circle)
    assert len(calls) == reads


@pytest.mark.parametrize("tol", [1e-6, 0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("offset", [0.0, 2e-6, float("nan")])
def test_inner_outer_lazy_scale_decides_as_the_eager_check(tol, offset):
    # any tol, a NaN miss among the interior samples included
    f = RationalFunction([2.0, 1.0])
    pair = inner_outer(f)
    interior = f(hardy.INTERIOR) + offset
    want = _eager_message(f, pair, interior, tol)
    if want is None:
        _sampled(f, tol, interior, lambda: f(hardy.BOUNDARY_NODES))
    else:
        with pytest.raises(ValueError, match=re.escape(want)):
            _sampled(f, tol, interior, lambda: f(hardy.BOUNDARY_NODES))


def test_inner_outer_evaluates_f_at_the_circle_only_when_needed():
    # without samples: f at the interior points, and at the boundary nodes
    # only for a miss above tol.  f = 1.5 - 0.7 lam reconstructs to a few
    # ulps, so at half its miss as tol the scale 2.2 is read and passes it
    f = RationalFunction([1.5, -0.7])
    err = float(np.abs(inner_outer(f).eval(hardy.INTERIOR) - f(hardy.INTERIOR)).max())
    assert 0.0 < err < 1e-14
    sizes = []
    original = RationalFunction.__call__

    def recorded(self, lam):
        sizes.append(np.asarray(lam).size)
        return original(self, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RationalFunction, "__call__", recorded)
        inner_outer(f)
        assert sizes == [hardy.INTERIOR.size]
        inner_outer(f, tol=err / 2)
    assert sizes[1:] == [hardy.INTERIOR.size, hardy.BOUNDARY_NODES.size]


# inner_outer on random rational functions: roots and poles away from the
# circle, numerator roots in the 1e-9 snap band and a pole 1e-4 to 1e-2
# outside the circle
def _roots(moduli, max_size=4):
    return st.lists(
        st.tuples(moduli, st.floats(0.0, 2 * np.pi)).map(lambda rt: rt[0] * np.exp(1j * rt[1])),
        max_size=max_size,
    )


_OFF_CIRCLE = st.floats(0.0, 0.9) | st.floats(1.1, 3.0)


@settings(max_examples=60, deadline=None)
@given(
    zeros=_roots(_OFF_CIRCLE),
    poles=_roots(st.floats(1.1, 3.0)),
    snapped=_roots(st.floats(1.0 - 1e-9, 1.0 + 1e-9), max_size=2),
    near_poles=_roots(st.floats(1.0 + 1e-4, 1.01), max_size=1),
    scale=st.floats(0.1, 10.0),
    phase=st.floats(0.0, 2 * np.pi),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
# a pole 1e-4 outside the circle, whose peak the circle samples miss; a
# root drawn at the inner edge of the snap band and computed just inside
# it, a Blaschke zero
@example(
    zeros=[],
    poles=[1.25 * np.exp(1j), 0.3498107457822512 + 1.0527798120976035j],
    snapped=[],
    near_poles=[0.3153538946315082 + 0.9490795178175218j],
    scale=1.0,
    phase=0.0,
    tol=1e-10,
)
@example(
    zeros=[],
    poles=[],
    snapped=[np.exp(1j), 0.3136647080240407 + 0.9495338061070776j],
    near_poles=[],
    scale=0.1015625,
    phase=0.0,
    tol=1e-6,
)
def test_inner_outer_property_on_random_rational_functions(
    zeros, poles, snapped, near_poles, scale, phase, tol
):
    # a root projected onto the circle moves by at most 1e-9, which changes
    # f by at most 1e-9 / (1 - |lam|) of |f(lam)|: at the check's radius 0.7
    # more than tol 1e-10 allows
    assume(tol >= 1e-8 or not snapped)
    # polyfromroots([]) is the constant 1
    f = RationalFunction(
        scale * np.exp(1j * phase) * npoly.polyfromroots(zeros + snapped),
        npoly.polyfromroots(poles + near_poles),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = inner_outer(f, tol=tol)
    # |B| = 1 on the circle up to the rounding of its factors, below 1e-12
    # for zeros away from it.  The factor of a zero z within the snap band
    # also has the rounding of conj(z) lam next to 1 over d = |1 - conj(z)
    # lam|, sqrt(5) u |z| |lam| / d, and its exact modulus moves by (1 -
    # |z|**2) |1 - |lam|**2| / d**2 <= 8 (1 - |z|) eps / d**2 at a computed
    # point |lam| = 1 + delta, |delta| <= eps
    lam, eps = _circle(512), np.finfo(float).eps
    band = pair.blaschke_zeros[1.0 - np.abs(pair.blaschke_zeros) <= 2 * tolerances.CIRCLE_BAND]
    d = np.abs(1.0 - np.conj(band) * lam[:, None])
    rounding = np.sqrt(5) * eps / 2 * np.abs(band) * np.abs(lam)[:, None] / d
    moves = 8 * (1.0 - np.abs(band)) * eps / d**2
    bound = 1e-12 + (rounding + moves).sum(axis=1)
    assert (np.abs(np.abs(pair.inner_eval(lam)) - 1.0) <= bound).all()
    inside = sum(abs(z) < 1.0 for z in zeros)
    assert inside <= pair.blaschke_zeros.size <= inside + len(snapped)

    def exact(lam):
        # f from its drawn roots in product form, a reference accurate to a
        # few ulps next to a pole, where Horner's rule is not
        num = np.prod(lam[:, None] - np.array(zeros + snapped, dtype=complex), axis=1)
        den = np.prod(lam[:, None] - np.array(poles + near_poles, dtype=complex), axis=1)
        return scale * np.exp(1j * phase) * num / den

    near = np.exp(1j * np.angle(np.array(snapped + near_poles, dtype=complex)))
    points = (_disc_grid(radius=0.95, n=200), 0.999 * np.append(_circle(512), near))
    wants = [exact(lam) for lam in points]
    # every |f(lam)| in the disc is at most sup |f|: the test points raise
    # the circle samples' maximum, which misses the peak next to a pole
    fscale = max(1.0, *(float(np.abs(w).max()) for w in (exact(_circle(2048)), *wants)))
    for lam, want in zip(points, wants):
        moved = len(snapped) * 1e-9 / (1.0 - np.abs(lam)) * np.abs(want)
        assert (np.abs(pair.eval(lam) - want) <= tol * fscale + moved).all()


# ---------------------------------------------------------------------------
# a product of certified factors is certified by its factors


_DEN_B = [1.0, -0.5]


def test_over_product_checks_nothing_and_expands_as_the_arithmetic_does():
    (f,) = RationalFunction.over(_DEN_A, [[1.0, 2.0]])
    (g,) = RationalFunction.over(_DEN_B, [[0.5]])
    built = []

    def product():
        built.extend(RationalFunction.over_product(((f, 2), (g, 1)), [[1.0], [0.0, 3.0]]))

    assert root_certificates(product) == 0
    expected = npoly.polymul(npoly.polymul(f.denominator, f.denominator), g.denominator)
    for h in built:
        assert h.denominator.tobytes() == expected.tobytes()
    # f's factor merges into one of multiplicity 2, g's stays once, each
    # with the roots it was certified by
    (a, ra, ma), (b, rb, mb) = built[0].factors
    assert (ma, mb) == (2, 1)
    np.testing.assert_array_equal(a, f.denominator)
    np.testing.assert_array_equal(b, g.denominator)
    assert ra is f.factors[0][1] and rb is g.factors[0][1]


def test_inner_outer_takes_poles_from_each_factor():
    base = np.array([1.0, -1.0 / 1.25])
    (f,) = RationalFunction.over(base, [[1.0]])
    (g,) = RationalFunction.over_product(((f, 4),), [[1.0]])
    pair = inner_outer(g)
    assert pair.has_exact_outer
    np.testing.assert_array_equal(pair.den_roots, np.full(4, 1.25 + 0j))

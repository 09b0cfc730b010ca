"""Rational functions on the closed unit disc and their inner-outer parts.

A :class:`RationalFunction` is a quotient of polynomials in ascending
coefficient order whose denominator has no roots in the closed disc, so the
function is analytic up to the boundary.  Each denominator factor is
certified from its own computed roots by Rouché's theorem, and keeps them.
:func:`inner_outer` splits such a function into a Blaschke product times a
unimodular constant and an outer factor held in exact factored form, a
product of linear factors over the numerator roots on or outside the circle,
the Blaschke zeros and the poles; the outer factor and its analytic square
root are evaluated from those factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .tolerances import (
    BARE_ZERO,
    CIRCLE_BAND,
    DISC_SLACK,
    POLY_NOISE,
    SLICE_TOL,
    TRIM_RTOL,
    UNIMODULAR_TOL,
)

__all__ = [
    "POLY_NOISE",
    "RationalFunction",
    "InnerOuterPair",
    "INTERIOR",
    "BOUNDARY_NODES",
    "blaschke_eval",
    "inner_outer",
]

# where inner_outer reads the scale of its check: 2048 points of the circle
BOUNDARY_NODES = np.exp(2j * np.pi * np.arange(0, 4096, 2) / 4096)
# where inner_outer checks its reconstruction against f inside the disc
INTERIOR = (np.linspace(0.05, 0.7, 14)[:, None] * np.exp(2j * np.pi * np.arange(5) / 5.0)).ravel()


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.array(coeffs, dtype=complex).ravel()
    mods = np.abs(c)
    small = mods <= TRIM_RTOL * mods.max(initial=0.0)
    if small.all():
        return np.zeros(1, dtype=complex)
    if small.any():
        c[small] = 0.0
        c = c[: np.flatnonzero(~small)[-1] + 1]
    return c


def _finite(coeffs) -> np.ndarray:
    """``coeffs`` as a complex array, refused if an entry is not finite."""
    c = np.asarray(coeffs, dtype=complex)
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return c


@cache
def _circle(size: int) -> np.ndarray:
    """``size + 1`` points around the unit circle, the last back at 1."""
    return np.exp(2j * np.pi * np.arange(size + 1) / size)


def _least_modulus(roots: np.ndarray, rho: float, size: int) -> float:
    """A lower bound of ``prod |lam - r_i|`` on ``|lam| = rho``: the product of
    the roots' distances to it or, arc by arc between ``size`` of its points
    ``lam_j``, of ``max(| |r_i| - rho |, (|lam_j - r_i| + |lam_(j+1) - r_i|) / 2
    - pi rho / size)``, each less ``16 eps (rho + |r_i|)`` for rounding."""
    mods = np.abs(roots)
    far = np.abs(mods - rho)
    if size:
        ends = np.abs(rho * _circle(size)[:, None] - roots)
        far = np.maximum(far, (ends[1:] + ends[:-1]) / 2 - np.pi * rho / size)
    far = np.maximum(far - 16 * np.finfo(float).eps * (rho + mods), 0.0)
    return float(np.prod(far, axis=-1).min())


def _lifted(den: np.ndarray, nums: list) -> tuple[np.ndarray, list]:
    """``den`` and ``nums`` times ``2**600`` when the largest coefficient of
    ``den`` is subnormal, as a division by it overflows; else as they are."""
    peak = float(np.abs(den).max(initial=0.0))
    if not 0.0 < peak < np.finfo(float).tiny:
        return den, nums
    with np.errstate(over="ignore"):
        den, nums = den * 2.0**600, [num * 2.0**600 for num in nums]
    if not all(np.isfinite(num).all() for num in nums):
        raise ValueError("numerator overflows over a subnormal denominator")
    return den, nums


def _certified(den) -> tuple[np.ndarray, tuple]:
    """``den`` trimmed, with its factors: none for a constant, which is not
    checked, else ``(den, roots, 1)``, its roots certified to lie outside the
    closed disc of radius ``1 + CIRCLE_BAND``.

    Rouché's theorem against ``q = lead * prod(lam - r_i)``, ``r_i`` the
    computed roots: where ``|den - q|``, bounded from its values at 8n points,
    is below :func:`_least_modulus` of the roots (from their distances, else
    from 4096 points) on ``|lam| = rho``, ``den`` has ``#{|r_i| < rho}`` zeros
    inside and none on that circle, however a repeated factor scatters the
    roots.  ``rho = 1 + CIRCLE_BAND`` certifies, ``rho = 1`` counts the roots
    inside the disc.  Products of certified factors need no check.
    """
    den = _trim(den)
    if float(np.abs(den).max()) == 0.0:
        raise ZeroDivisionError("denominator is identically zero")
    if den.size == 1:
        return den, ()
    roots = npoly.polyroots(den)
    n = roots.size
    lam = _circle(8 * n)[:-1]
    q = den[-1] * np.prod(lam[:, None] - roots, axis=1)
    # g = den - q has degree below n; each |g(lam_j)| is off by at most 4 (n +
    # 2) u (||den||_1 + |q|): Horner 4n u, q (4n + 4) u, difference 2u.  As
    # |g'| <= (n - 1) max |g| (Bernstein), max |g| on the circle is at most the
    # largest over 1 - pi/8 - 22 n eps (lam_j 11 eps off; 1.7 leaves 3%), and
    # on |lam| = rho > 1 rho**(n - 1) times that (maximum principle)
    err = 2 * (n + 2) * np.finfo(float).eps * (float(np.abs(den).sum()) + np.abs(q))
    miss = 1.7 * float((np.abs(npoly.polyval(lam, den) - q) + err).max()) / abs(den[-1])

    def count(rho):
        for size in (0, 4096):
            if rho ** (n - 1) * miss < _least_modulus(roots, rho, size):
                return int(np.count_nonzero(np.abs(roots) < rho))

    if count(1.0 + CIRCLE_BAND) == 0:
        return den, ((den, roots, 1),)
    inside = count(1.0)
    if inside is None:
        raise ValueError("denominator nearly vanishes on the unit circle: roots not certified")
    if inside:
        raise ValueError(f"denominator has {inside} root(s) inside the unit disc")
    raise ValueError(f"denominator root not certified {CIRCLE_BAND:g} outside the unit circle")


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """Quotient of polynomials, analytic on the closed unit disc.

    Coefficients are ascending.  The denominator must have all of its roots
    strictly outside the closed unit disc, more than ``CIRCLE_BAND`` outside
    the circle; trailing coefficients of at most ``TRIM_RTOL`` of the
    largest are trimmed, and a denominator whose largest coefficient is
    subnormal is kept, with the numerator, times ``2**600``.  ``factors``
    holds the denominator's non-constant factors, triples ``(coefficients,
    roots, multiplicity)`` whose product is the denominator up to a
    constant.  Each factor is certified from its roots by ``_certified``
    where it first enters a denominator, and a product of certified factors
    is certified with no check of its own: its zeros are those of its
    factors.
    """

    numerator: np.ndarray
    denominator: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        num = _finite(self.numerator)
        den, (num,) = _lifted(_finite(self.denominator), [num])
        object.__setattr__(self, "numerator", _trim(num))
        den, factors = _certified(den)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _built(cls, numerator: np.ndarray, denominator: np.ndarray, factors: tuple):
        """A function from trimmed coefficients and the certified factors of
        ``denominator``, with no check."""
        f = object.__new__(cls)
        object.__setattr__(f, "numerator", numerator)
        object.__setattr__(f, "denominator", denominator)
        object.__setattr__(f, "factors", factors)
        return f

    @classmethod
    def over(cls, denominator, numerators):
        """One function per numerator, all over ``denominator``, which is
        trimmed and certified once.  The denominator is the functions' one
        factor."""
        den, nums = _lifted(_finite(denominator), [_finite(num) for num in numerators])
        den, factors = _certified(den)
        return [cls._built(_trim(num), den, factors) for num in nums]

    @classmethod
    def over_product(cls, powers, numerators):
        """One function per numerator, all over the product of the
        denominators of ``powers``, pairs ``(function, power)``.

        The product is expanded in the order given, trimmed after each
        multiplication, and is not certified again: its factors are those of
        the functions, with multiplicities scaled by the powers and added
        where two functions share a factor.
        """
        den, factors = None, {}
        for f, power in powers:
            for _ in range(power):
                den = f.denominator if den is None else _trim(npoly.polymul(den, f.denominator))
            for factor, roots, mult in f.factors:
                key = factor.tobytes()
                count = factors[key][2] if key in factors else 0
                factors[key] = (factor, roots, count + power * mult)
        factors = tuple(factors.values())
        return [cls._built(_trim(num), den, factors) for num in numerators]

    @property
    def is_zero(self) -> bool:
        return float(np.abs(self.numerator).max()) == 0.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return npoly.polyval(lam, self.numerator) / npoly.polyval(lam, self.denominator)

    def numerator_roots(self) -> np.ndarray:
        if self.is_zero or self.numerator.size == 1:
            return np.zeros(0, dtype=complex)
        return npoly.polyroots(self.numerator)


def blaschke_eval(zeros, constant: complex, lam):
    """Finite Blaschke product with the given interior zeros times ``constant``.

    Zeros must lie strictly inside the disc; ``lam`` may touch the boundary.
    A zero at the origin contributes a bare factor ``lam``.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.size and float(np.abs(lam).max()) > 1.0 + DISC_SLACK:
        raise ValueError("evaluation points must lie in the closed unit disc")
    out = np.full(lam.shape, complex(constant), dtype=complex)
    for a in np.asarray(zeros, dtype=complex).ravel():
        r = abs(a)
        if r >= 1.0:
            raise ValueError(f"Blaschke zero with modulus {r:.12f} outside the open disc")
        if r < BARE_ZERO:
            out = out * lam
        else:
            out = out * (r / a) * (a - lam) / (1.0 - np.conj(a) * lam)
    return out


@dataclass(frozen=True, eq=False)
class InnerOuterPair:
    """Inner-outer data: unimodular constant, Blaschke zeros, outer factor.

    The outer factor is held in exact factored form,
    ``outer = scale * prod(1 - lam/r_out) * prod(1 - conj(z) lam) /
    prod(1 - lam/p)``, over the ``outer_roots`` ``r_out`` (on or outside the
    unit circle), the Blaschke zeros ``z`` and the ``den_roots`` ``p``
    (outside the closed disc), so ``outer(0) = outer_scale > 0``.
    ``_at_points`` is an output for ``nevanlinna.build_slice_schur`` alone:
    ``(inner, sqrt(outer))`` at the ``_points`` it gave :func:`inner_outer`,
    from the pass that checked the pair, else None.
    """

    unimodular_constant: complex
    blaschke_zeros: np.ndarray
    outer_roots: np.ndarray = field(repr=False)
    den_roots: np.ndarray = field(repr=False)
    outer_scale: float = 1.0
    _at_points: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        zeros, out, den = (
            np.asarray(a, dtype=complex).ravel()
            for a in (self.blaschke_zeros, self.outer_roots, self.den_roots)
        )
        if abs(abs(complex(self.unimodular_constant)) - 1.0) > UNIMODULAR_TOL:
            raise ValueError("inner constant must be unimodular")
        if zeros.size and float(np.abs(zeros).max()) >= 1.0:
            raise ValueError("Blaschke zeros must lie in the open disc")
        # a root projected onto the circle may round to a modulus of 1 - 1 ulp
        if out.size and float(np.abs(out).min()) < 1.0 - 2.0 * np.finfo(float).eps:
            raise ValueError("outer roots must lie on or outside the unit circle")
        if den.size and float(np.abs(den).min()) <= 1.0:
            raise ValueError("denominator roots must lie outside the closed disc")
        if not self.outer_scale > 0.0:
            raise ValueError("outer scale must be positive")
        object.__setattr__(self, "blaschke_zeros", zeros)
        object.__setattr__(self, "outer_roots", out)
        object.__setattr__(self, "den_roots", den)

    @property
    def has_exact_outer(self) -> bool:
        """Always True, the factored form being the only one; kept because
        ``perfbench/tracing.py`` tags every ``inner_outer`` call by it."""
        return True

    def _factor_stack(self, lam) -> np.ndarray:
        """Per-point factors of the exact outer form, shape lam.shape + (k,).

        Every factor maps the open disc into the open right half-plane, and
        the closed disc into the closed one, so principal square roots
        multiply into the analytic branch that is positive at the origin.
        """
        flat = np.asarray(lam, dtype=complex).ravel()[:, None]
        ones = np.ones((flat.shape[0], 1), dtype=complex)
        zeros, den = np.conj(self.blaschke_zeros), self.den_roots
        parts = [ones, 1.0 - flat / self.outer_roots, 1.0 - zeros * flat, 1.0 / (1.0 - flat / den)]
        return np.concatenate(parts, axis=1)

    def inner_eval(self, lam):
        return blaschke_eval(self.blaschke_zeros, self.unimodular_constant, lam)

    def _outer(self, stack: np.ndarray, root: bool = False) -> np.ndarray:
        """The outer factor, or its square root, from a factor stack."""
        if root:
            return np.sqrt(self.outer_scale) * np.prod(np.sqrt(stack), axis=1)
        return self.outer_scale * np.prod(stack, axis=1)

    def outer_eval(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return self._outer(self._factor_stack(lam)).reshape(lam.shape)

    def outer_sqrt(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return self._outer(self._factor_stack(lam), root=True).reshape(lam.shape)

    def eval(self, lam):
        return self.inner_eval(lam) * self.outer_eval(lam)


def inner_outer(
    f: RationalFunction, tol: float = SLICE_TOL, samples=None, _points=None
) -> InnerOuterPair:
    """Inner-outer factorization of a rational function bounded on the disc.

    Numerator roots strictly inside the disc turn into Blaschke zeros and
    the others into outer roots; roots within ``CIRCLE_BAND`` of the circle are
    projected onto it, with a warning.  The poles are the certified roots of
    each of ``f.factors``, repeated by its multiplicity: the expanded
    denominator's repeated roots would scatter.  The unimodular constant is
    the phase of ``lead / den[0] * prod(-r_out) * prod(-z / |z|)`` over the
    outer roots and the Blaschke zeros away from the origin, ``lead`` the
    numerator's leading coefficient: ``lam - r = -r (1 - lam/r)`` and ``lam -
    z = -(z / |z|) b_z(lam) (1 - conj(z) lam)``.  ``inner * outer`` is checked
    against ``f`` at :data:`INTERIOR`, to ``tol`` times the larger of 1 and
    ``max |f|`` at :data:`BOUNDARY_NODES`, read only for a miss above ``tol``.
    ``samples``, when given, are the values of ``f`` at :data:`INTERIOR` and a
    function of no arguments that gives them at :data:`BOUNDARY_NODES`, read
    instead of evaluating ``f``.  ``_points``, when given, are further points
    of the closed disc where the pair is evaluated in the same pass as the
    check, one factor stack and one Blaschke product for all of them; their
    values are the pair's ``_at_points``.
    """
    if not isinstance(f, RationalFunction):
        raise TypeError("inner_outer expects a RationalFunction")
    if f.is_zero:
        raise ValueError("the zero function has no inner-outer factorization")
    roots = f.numerator_roots()
    mods = np.abs(roots)
    inside = roots[mods < 1.0 - CIRCLE_BAND]
    outside = roots[mods > 1.0 + CIRCLE_BAND]
    snapped = roots[(mods >= 1.0 - CIRCLE_BAND) & (mods <= 1.0 + CIRCLE_BAND)]
    if snapped.size:
        warnings.warn(
            f"{snapped.size} numerator root(s) within {CIRCLE_BAND} of the unit "
            "circle assigned to the outer factor",
            stacklevel=2,
        )
    outer = np.concatenate([outside, snapped / np.abs(snapped)])
    # the poles from each certified factor, never from their expanded
    # product, whose repeated roots would scatter
    poles = np.concatenate(
        [np.zeros(0, dtype=complex)] + [np.repeat(r, m) for _, r, m in f.factors]
    )
    lead, den0 = complex(f.numerator[-1]), complex(f.denominator[0])
    turns = np.concatenate([[lead / den0], -outer, -inside[np.abs(inside) >= BARE_ZERO]])
    constant = complex(np.prod(turns / np.abs(turns)))
    outer_scale = abs(lead) * float(np.prod(np.abs(outer))) / abs(den0)
    pair = InnerOuterPair(constant / abs(constant), inside, outer, poles, outer_scale)

    interior, circle = (f(INTERIOR), lambda: f(BOUNDARY_NODES)) if samples is None else samples
    head = INTERIOR.size
    lam = INTERIOR if _points is None else np.concatenate([INTERIOR, np.ravel(_points)])
    inner, stack = pair.inner_eval(lam), pair._factor_stack(lam)
    err = float(np.abs(inner[:head] * pair._outer(stack[:head]) - interior).max())
    # err > tol * scale decides: as scale >= 1, err <= tol passes it for any tol
    if err > tol and err > tol * (scale := max(1.0, float(np.abs(circle()).max()))):
        raise ValueError(
            f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = {tol * scale:.3e}"
        )
    if _points is not None:
        object.__setattr__(pair, "_at_points", (inner[head:], pair._outer(stack[head:], root=True)))
    return pair

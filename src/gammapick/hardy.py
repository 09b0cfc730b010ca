"""Rational functions on the closed unit disc and their inner-outer parts.

A :class:`RationalFunction` is a quotient of polynomials in ascending
coefficient order whose denominator has no roots in the closed disc, so the
function is analytic up to the boundary.  :func:`inner_outer` splits such a
function into a Blaschke product times a unimodular constant and an outer
factor held in exact factored form, a product of linear factors over the
numerator roots on or outside the circle, the Blaschke zeros and the poles;
the outer factor and its analytic square root are evaluated from those
factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "POLY_NOISE",
    "RationalFunction",
    "InnerOuterPair",
    "INTERIOR",
    "SAMPLES",
    "BOUNDARY_NODES",
    "blaschke_eval",
    "inner_outer",
]

_CIRCLE_SNAP = 1e-9
# rounding noise of polynomial arithmetic, per unit of coefficient mass
POLY_NOISE = 1e3 * np.finfo(float).eps
# where the winding check reads a denominator: 4096 points of the circle
SAMPLES = np.exp(2j * np.pi * np.arange(4096) / 4096)
# every second one of them, where inner_outer reads the scale of its check
BOUNDARY_NODES = SAMPLES[::2]
# where inner_outer checks its reconstruction against f inside the disc
INTERIOR = (np.linspace(0.05, 0.7, 14)[:, None] * np.exp(2j * np.pi * np.arange(5) / 5.0)).ravel()
# a Blaschke zero below this modulus is a bare factor lam
_BARE_ZERO = 1e-14


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex).ravel()
    mods = np.abs(c)
    top = float(mods.max()) if c.size else 0.0
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    small = mods <= 1e-13 * top
    c = np.where(small, 0.0, c)
    last = int(np.flatnonzero(~small).max())
    return c[: last + 1]


def _finite(coeffs) -> np.ndarray:
    """``coeffs`` as a complex array, refused if an entry is not finite."""
    c = np.asarray(coeffs, dtype=complex)
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return c


def _certified(den, samples: np.ndarray | None = None) -> np.ndarray:
    """``den`` trimmed, checked to have no zeros in the closed unit disc.

    Uses the argument principle on the unit circle instead of numerical
    roots: repeated factors make computed roots scatter, while the winding
    number of the boundary values stays exact as long as the polynomial is
    bounded away from zero there.  ``samples``, when given, are the values
    of ``den`` at :data:`SAMPLES`.  A constant is not checked.  A product of
    certified factors needs no check of its own (see
    :meth:`RationalFunction.over_product`).
    """
    den = _trim(den)
    if float(np.abs(den).max()) == 0.0:
        raise ZeroDivisionError("denominator is identically zero")
    if den.size > 1:
        _boundary_winding(den, samples)
    return den


def _factors(den: np.ndarray) -> tuple:
    """The factors of a certified denominator standing alone: itself, once,
    unless it is a constant."""
    return ((den, 1),) if den.size > 1 else ()


def _boundary_winding(den: np.ndarray, values: np.ndarray | None = None):
    """The 4096-point winding check behind :func:`_certified`, on ``den``'s
    values at :data:`SAMPLES` (evaluated here when not given)."""
    vals = npoly.polyval(SAMPLES, den) if values is None else values
    mods = np.abs(vals)
    top, low = float(mods.max()), float(mods.min())
    # the floor is the evaluation noise, not a fraction of the peak: high
    # multiplicity factors legitimately dip many orders below their maximum
    mass = float(np.abs(den).sum())
    noise = max(POLY_NOISE * mass, 1e-12 * top)
    if low <= noise:
        raise ValueError(
            f"denominator nearly vanishes on the unit circle (min |den| = {low:.3e})"
        )
    # the turn from each value to the next, the last back to the first
    turns = np.angle(np.concatenate((vals[1:], vals[:1])) * vals.conj())
    raw = float(turns.sum() / (2.0 * np.pi))
    winding = int(np.rint(raw))
    if abs(raw - winding) > 0.25:
        # a root sitting on the circle contributes a half turn
        raise ValueError(
            f"denominator winding number {raw:.3f} is ambiguous on the unit circle"
        )
    if winding != 0:
        raise ValueError(f"denominator has {winding} root(s) inside the unit disc")


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """Quotient of polynomials, analytic on the closed unit disc.

    Coefficients are ascending.  The denominator must have all of its roots
    strictly outside the closed unit disc; trailing coefficients below
    ``1e-13`` of the leading scale are trimmed.  ``factors`` holds the
    denominator's non-constant factors with their multiplicities, pairs
    ``(coefficients, multiplicity)`` whose product is the denominator up to
    a constant.  Each factor is certified by the boundary winding number
    where it first enters a denominator, and a product of certified factors
    is certified with no check of its own: the winding number of a product
    is the sum over its factors.
    """

    numerator: np.ndarray
    denominator: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "numerator", _trim(_finite(self.numerator)))
        object.__setattr__(self, "denominator", _certified(_finite(self.denominator)))
        object.__setattr__(self, "factors", _factors(self.denominator))

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
    def over(cls, denominator, numerators, samples: np.ndarray | None = None):
        """One function per numerator, all over ``denominator``, which is
        trimmed and certified once: on ``samples``, its values at
        :data:`SAMPLES`, when given, else on values evaluated here.  The
        denominator is the functions' one factor."""
        nums = [_trim(_finite(num)) for num in numerators]
        den = _certified(_finite(denominator), samples)
        factors = _factors(den)
        return [cls._built(num, den, factors) for num in nums]

    @classmethod
    def over_product(cls, powers, numerators):
        """One function per numerator, all over the product of the
        denominators of ``powers``, pairs ``(function, power)``.

        The product is expanded in the order given, trimmed after each
        multiplication, and runs no winding check: its factors are those of
        the functions, with multiplicities scaled by the powers and added
        where two functions share a factor.
        """
        den, factors = None, []
        for f, power in powers:
            for _ in range(power):
                den = f.denominator if den is None else _trim(npoly.polymul(den, f.denominator))
            for factor, mult in f.factors:
                for i, (seen, count) in enumerate(factors):
                    if np.array_equal(seen, factor):
                        factors[i] = (seen, count + power * mult)
                        break
                else:
                    factors.append((factor, power * mult))
        factors = tuple(factors)
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
    if lam.size and float(np.abs(lam).max()) > 1.0 + 1e-12:
        raise ValueError("evaluation points must lie in the closed unit disc")
    out = np.full(lam.shape, complex(constant), dtype=complex)
    for a in np.asarray(zeros, dtype=complex).ravel():
        r = abs(a)
        if r >= 1.0:
            raise ValueError(f"Blaschke zero with modulus {r:.12f} outside the open disc")
        if r < _BARE_ZERO:
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
    """

    unimodular_constant: complex
    blaschke_zeros: np.ndarray
    outer_roots: np.ndarray = field(repr=False)
    den_roots: np.ndarray = field(repr=False)
    outer_scale: float = 1.0

    def __post_init__(self):
        zeros, out, den = (
            np.asarray(a, dtype=complex).ravel()
            for a in (self.blaschke_zeros, self.outer_roots, self.den_roots)
        )
        if abs(abs(complex(self.unimodular_constant)) - 1.0) > 1e-9:
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
        lam = np.asarray(lam, dtype=complex)
        flat = lam.ravel()[:, None]
        parts = [np.ones((flat.shape[0], 1), dtype=complex)]
        if self.outer_roots.size:
            parts.append(1.0 - flat / self.outer_roots[None, :])
        if self.blaschke_zeros.size:
            parts.append(1.0 - np.conj(self.blaschke_zeros)[None, :] * flat)
        if self.den_roots.size:
            parts.append(1.0 / (1.0 - flat / self.den_roots[None, :]))
        return np.concatenate(parts, axis=1)

    def inner_eval(self, lam):
        return blaschke_eval(self.blaschke_zeros, self.unimodular_constant, lam)

    def outer_eval(self, lam):
        lam = np.asarray(lam, dtype=complex)
        vals = self.outer_scale * np.prod(self._factor_stack(lam), axis=1)
        return vals.reshape(lam.shape)

    def outer_sqrt(self, lam):
        lam = np.asarray(lam, dtype=complex)
        vals = np.sqrt(self.outer_scale) * np.prod(np.sqrt(self._factor_stack(lam)), axis=1)
        return vals.reshape(lam.shape)

    def eval(self, lam):
        return self.inner_eval(lam) * self.outer_eval(lam)


def inner_outer(
    f: RationalFunction,
    tol: float = 1e-6,
    samples: np.ndarray | None = None,
) -> InnerOuterPair:
    """Inner-outer factorization of a rational function bounded on the disc.

    Numerator roots strictly inside the disc turn into Blaschke zeros and
    the others into outer roots; roots within ``1e-9`` of the circle are
    projected onto it, with a warning.  The poles are the roots of each of
    ``f.factors``, repeated by its multiplicity: the expanded denominator's
    repeated roots would scatter.  The unimodular constant is the phase of
    ``lead / den[0] * prod(-r_out) * prod(-z / |z|)`` over the outer roots
    and the Blaschke zeros away from the origin, ``lead`` the numerator's
    leading coefficient: ``lam - r = -r (1 - lam/r)`` and ``lam - z =
    -(z / |z|) b_z(lam) (1 - conj(z) lam)``.  ``inner * outer`` is checked
    against ``f`` at :data:`INTERIOR`, to ``tol`` times the larger of 1 and
    ``max |f|`` at :data:`BOUNDARY_NODES`.  ``samples``, when given, are the
    values of ``f`` at :data:`BOUNDARY_NODES`, then at :data:`INTERIOR`, read
    instead of evaluating ``f``.
    """
    if not isinstance(f, RationalFunction):
        raise TypeError("inner_outer expects a RationalFunction")
    if f.is_zero:
        raise ValueError("the zero function has no inner-outer factorization")
    roots = f.numerator_roots()
    mods = np.abs(roots)
    inside = roots[mods < 1.0 - _CIRCLE_SNAP]
    outside = roots[mods > 1.0 + _CIRCLE_SNAP]
    snapped = roots[(mods >= 1.0 - _CIRCLE_SNAP) & (mods <= 1.0 + _CIRCLE_SNAP)]
    if snapped.size:
        warnings.warn(
            f"{snapped.size} numerator root(s) within {_CIRCLE_SNAP} of the unit "
            "circle assigned to the outer factor",
            stacklevel=2,
        )
    outer = np.concatenate([outside, snapped / np.abs(snapped)])
    # the poles from each certified factor, never from their expanded
    # product, whose repeated roots would scatter
    poles = np.concatenate(
        [np.zeros(0, dtype=complex)]
        + [np.repeat(npoly.polyroots(c), m) for c, m in f.factors]
    )
    lead, den0 = complex(f.numerator[-1]), complex(f.denominator[0])
    turns = np.concatenate([[lead / den0], -outer, -inside[np.abs(inside) >= _BARE_ZERO]])
    constant = complex(np.prod(turns / np.abs(turns)))
    outer_scale = abs(lead) * float(np.prod(np.abs(outer))) / abs(den0)
    pair = InnerOuterPair(constant / abs(constant), inside, outer, poles, outer_scale)

    if samples is None:
        fvals, interior = f(BOUNDARY_NODES), f(INTERIOR)
    else:
        fvals, interior = samples[: BOUNDARY_NODES.size], samples[BOUNDARY_NODES.size :]
    scale = max(1.0, float(np.abs(fvals).max()))
    err = float(np.abs(pair.eval(INTERIOR) - interior).max())
    if err > tol * scale:
        raise ValueError(
            f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = {tol * scale:.3e}"
        )
    return pair

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
from functools import cache, partial

import numpy as np

from . import _poly
from ._poly import trim
from .tolerances import (
    BARE_ZERO,
    CIRCLE_BAND,
    DISC_SLACK,
    SLICE_TOL,
    UNIMODULAR_TOL,
)

__all__ = [
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
# the largest stack built for several denominators or pairs together: glibc's
# malloc maps a block of 128 KiB or more on its own, and releasing it raises
# that threshold, so that later blocks stay on the heap and the process keeps
# more memory than a per-item loop would
_STACK_BYTES = 1 << 17


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


def _least_modulus(roots: np.ndarray, rho: float, size: int):
    """A lower bound of ``prod |lam - r_i|`` on ``|lam| = rho``, one per row of
    ``roots``, shape ``(..., n)``: the product of the roots' distances to it
    or, arc by arc between ``size`` of its points ``lam_j``, of ``max(| |r_i| -
    rho |, (|lam_j - r_i| + |lam_(j+1) - r_i|) / 2 - pi rho / size)``, each
    less ``16 eps (rho + |r_i|)`` for rounding."""
    mods = np.abs(roots)
    far = np.abs(mods - rho)
    if size:
        mods, far = mods[..., None, :], far[..., None, :]
        ends = np.abs(rho * _circle(size)[:, None] - roots[..., None, :])
        far = np.maximum(far, (ends[..., 1:, :] + ends[..., :-1, :]) / 2 - np.pi * rho / size)
    far = np.maximum(far - 16 * np.finfo(float).eps * (rho + mods), 0.0)
    low = np.prod(far, axis=-1)
    return low.min(axis=-1) if size else low


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


def _inside(roots: np.ndarray, miss: float, rho: float, low=None) -> int | None:
    """``#{|r_i| < rho}`` when Rouché's theorem certifies it on ``|lam| = rho``
    against ``rho**(n - 1) * miss``, from the roots' distances (``low``, when
    given) or else from 4096 points; None when neither bound does."""
    for size in (0, 4096):
        if size or low is None:
            low = _least_modulus(roots, rho, size)
        if rho ** (roots.size - 1) * miss < low:
            return int(np.count_nonzero(np.abs(roots) < rho))
    return None


def _certified(dens: np.ndarray) -> list:
    """The factors of each row of ``dens``, trimmed denominators of one length
    ``n + 1 >= 2``: ``((den, roots, 1),)``, its roots certified to lie outside
    the closed disc of radius ``1 + CIRCLE_BAND``, else the ValueError that
    refuses it.  All rows share one companion stack, one ``eigvals`` and one
    evaluation of the bound below.

    Rouché's theorem against ``q = lead * prod(lam - r_i)``, ``r_i`` the
    computed roots: where ``|den - q|``, bounded from its values at 8n points,
    is below :func:`_least_modulus` of the roots (from their distances, else
    from 4096 points) on ``|lam| = rho``, ``den`` has ``#{|r_i| < rho}`` zeros
    inside and none on that circle, however a repeated factor scatters the
    roots.  ``rho = 1 + CIRCLE_BAND`` certifies, ``rho = 1`` counts the roots
    inside the disc.  Products of certified factors need no check.
    """
    n = dens.shape[1] - 1
    roots = _poly.roots(dens)
    lam = _circle(8 * n)[:-1]
    batches = _batches(roots[:, None, :], 16 * lam.size * n)
    q = dens[:, -1:] * np.concatenate([np.prod(lam[:, None] - r, axis=-1) for r in batches])
    # g = den - q has degree below n; each |g(lam_j)| is off by at most 4 (n +
    # 2) u (||den||_1 + |q|): Horner 4n u, q (4n + 4) u, difference 2u.  As
    # |g'| <= (n - 1) max |g| (Bernstein), max |g| on the circle is at most the
    # largest over 1 - pi/8 - 22 n eps (lam_j 11 eps off; 1.7 leaves 3%), and
    # on |lam| = rho > 1 rho**(n - 1) times that (maximum principle)
    err = 2 * (n + 2) * np.finfo(float).eps * (np.abs(dens).sum(axis=1)[:, None] + np.abs(q))
    peaks = (np.abs(_poly.horner(dens, lam) - q) + err).max(axis=1)
    band = 1.0 + CIRCLE_BAND
    out = []
    for den, r, peak, low in zip(dens, roots, peaks, _least_modulus(roots, band, 0)):
        miss = 1.7 * float(peak) / abs(den[-1])
        if _inside(r, miss, band, low) == 0:
            out.append(((den, r, 1),))
            continue
        inside = _inside(r, miss, 1.0)
        if inside is None:
            message = "denominator nearly vanishes on the unit circle: roots not certified"
        elif inside:
            message = f"denominator has {inside} root(s) inside the unit disc"
        else:
            message = f"denominator root not certified {CIRCLE_BAND:g} outside the unit circle"
        out.append(ValueError(message))
    return out


def _groups(indices, key) -> list[list[int]]:
    """``indices`` grouped by ``key``, in order within each group."""
    groups: dict = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())


def _batches(items, item_bytes: int) -> list:
    """``items`` in runs of at most ``_STACK_BYTES / item_bytes``, one item
    at the least: the runs that a stack of ``item_bytes`` per item is built
    for together."""
    step = max(1, _STACK_BYTES // item_bytes)
    return [items[j : j + step] for j in range(0, len(items), step)]


def _only(outcomes):
    """The one entry of ``outcomes``, raised if it is an exception: a
    one-item case of a pass that returns each item's result or exception."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _factored(dens) -> list:
    """Each of ``dens``, finite and lifted, trimmed with its factors as
    ``(den, factors)``, or the exception that refuses it: no factor for a
    constant, else those :func:`_certified` gives it, for the denominators of
    one trimmed length together."""
    out = []
    for den in map(trim, dens):
        zero = den.size == 1 and den[0] == 0  # trimmed: all zero only as [0]
        out.append(ZeroDivisionError("denominator is identically zero") if zero else (den, ()))
    solved = [i for i, item in enumerate(out) if type(item) is tuple and item[0].size > 1]
    for idx in _groups(solved, lambda i: out[i][0].size):
        for i, factors in zip(idx, _certified(np.stack([out[i][0] for i in idx]))):
            out[i] = factors if isinstance(factors, Exception) else (factors[0][0], factors)
    return out


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
        (f,) = self.over(self.denominator, [self.numerator])
        for name in ("numerator", "denominator", "factors"):
            object.__setattr__(self, name, getattr(f, name))

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
        return _only(cls._over_many([(denominator, numerators)]))

    @classmethod
    def _over_many(cls, pairs) -> list:
        """:meth:`over` on each ``(denominator, numerators)`` pair: its
        functions, or the exception it raises.  The denominators of one
        trimmed length are certified together (:func:`_factored`)."""
        out = []
        for denominator, numerators in pairs:
            try:
                out.append(_lifted(_finite(denominator), [_finite(num) for num in numerators]))
            except ValueError as exc:
                out.append(exc)
        live = [i for i, item in enumerate(out) if type(item) is tuple]
        for i, factored in zip(live, _factored([out[i][0] for i in live])):
            if isinstance(factored, Exception):
                out[i] = factored
            else:
                den, factors = factored
                out[i] = [cls._built(trim(num), den, factors) for num in out[i][1]]
        return out

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
                den = f.denominator if den is None else trim(_poly.mul(den, f.denominator))
            for factor, roots, mult in f.factors:
                key = factor.tobytes()
                count = factors[key][2] if key in factors else 0
                factors[key] = (factor, roots, count + power * mult)
        factors = tuple(factors.values())
        return [cls._built(trim(num), den, factors) for num in numerators]

    @property
    def is_zero(self) -> bool:
        # the numerator is trimmed: all zero only as [0]
        return bool(self.numerator.size == 1 and self.numerator[0] == 0)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return _poly.val(lam, self.numerator) / _poly.val(lam, self.denominator)


def blaschke_eval(zeros, constant: complex, lam):
    """Finite Blaschke product with the given interior zeros times ``constant``.

    Zeros must lie strictly inside the disc; ``lam`` may touch the boundary.
    A zero at the origin contributes a bare factor ``lam``.
    """
    lam = np.asarray(lam, dtype=complex)
    zeros = np.asarray(zeros, dtype=complex).ravel()
    return _blaschke_rows(zeros[None], [complex(constant)], lam.ravel())[0].reshape(lam.shape)


def _blaschke_rows(zeros: np.ndarray, constants, lam: np.ndarray) -> np.ndarray:
    """Blaschke products at the points ``lam``, one per row of ``zeros``,
    shape ``(S, k)``, times its entry of ``constants``: shape ``(S,
    lam.size)``.  Each row gets the bits :func:`blaschke_eval` gives it
    alone: the turn ``|a| / a`` of each zero is divided as a scalar."""
    if lam.size and float(np.abs(lam).max()) > 1.0 + DISC_SLACK:
        raise ValueError("evaluation points must lie in the closed unit disc")
    out = np.empty((len(constants), lam.size), dtype=complex)
    out[:] = np.array(constants)[:, None]
    for col in zeros.T:
        mods = [abs(a) for a in col]
        for r in mods:
            if r >= 1.0:
                raise ValueError(f"Blaschke zero with modulus {r:.12f} outside the open disc")
        bare = np.array([r < BARE_ZERO for r in mods])
        turns = np.array([1.0 if r < BARE_ZERO else r / a for r, a in zip(mods, col)])
        step = out * turns[:, None] * (col[:, None] - lam) / (1.0 - np.conj(col)[:, None] * lam)
        if bare.any():
            step[bare] = out[bare] * lam
        out = step
    return out


def _factor_rows(pairs, lam: np.ndarray) -> np.ndarray:
    """The factors of the exact outer forms of ``pairs``, which have one
    number each of outer roots, Blaschke zeros and poles, at the points
    ``lam``: shape ``(S, lam.size, k)``, filled in place.

    Every factor maps the open disc into the open right half-plane, and
    the closed disc into the closed one, so principal square roots
    multiply into the analytic branch that is positive at the origin.
    """
    outer, zeros, den = (
        np.array([getattr(p, name) for p in pairs])
        for name in ("outer_roots", "blaschke_zeros", "den_roots")
    )
    sizes = [outer.shape[1], zeros.shape[1], den.shape[1]]
    col = lam[:, None]
    stack = np.empty((len(pairs), lam.size, 1 + sum(sizes)), dtype=complex)
    stack[..., 0] = 1.0
    to_outer, to_zeros, to_den = np.split(stack[..., 1:], np.cumsum(sizes[:2]), axis=-1)
    np.divide(col, outer[:, None], out=to_outer)
    np.subtract(1.0, to_outer, out=to_outer)
    np.multiply(np.conj(zeros)[:, None], col, out=to_zeros)
    np.subtract(1.0, to_zeros, out=to_zeros)
    np.divide(col, den[:, None], out=to_den)
    np.subtract(1.0, to_den, out=to_den)
    np.divide(1.0, to_den, out=to_den)
    return stack


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

    def inner_eval(self, lam):
        return blaschke_eval(self.blaschke_zeros, self.unimodular_constant, lam)

    def outer_eval(self, lam):
        lam = np.asarray(lam, dtype=complex)
        stack = _factor_rows([self], lam.ravel())[0]
        return (self.outer_scale * np.prod(stack, axis=-1)).reshape(lam.shape)

    def outer_sqrt(self, lam):
        lam = np.asarray(lam, dtype=complex)
        stack = _factor_rows([self], lam.ravel())[0]
        return (np.sqrt(self.outer_scale) * np.prod(np.sqrt(stack), axis=-1)).reshape(lam.shape)

    def eval(self, lam):
        return self.inner_eval(lam) * self.outer_eval(lam)


def inner_outer(f: RationalFunction, tol: float = SLICE_TOL) -> InnerOuterPair:
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
    This is :func:`_inner_outer_many` on the one function ``f``.
    """
    if not isinstance(f, RationalFunction):
        raise TypeError("inner_outer expects a RationalFunction")
    pair, _ = _only(_inner_outer_many([f], tol))
    return pair


def _pair_from_roots(f: RationalFunction, roots: np.ndarray) -> InnerOuterPair:
    """The inner-outer data of ``f`` from its numerator roots, unchecked
    against ``f`` (see :func:`inner_outer`)."""
    if f.is_zero:
        raise ValueError("the zero function has no inner-outer factorization")
    mods = np.abs(roots)
    inside = roots[mods < 1.0 - CIRCLE_BAND]
    outside = roots[mods > 1.0 + CIRCLE_BAND]
    snapped = roots[(mods >= 1.0 - CIRCLE_BAND) & (mods <= 1.0 + CIRCLE_BAND)]
    if snapped.size:
        warnings.warn(
            f"{snapped.size} numerator root(s) within {CIRCLE_BAND} of the unit "
            "circle assigned to the outer factor",
            stacklevel=4,
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
    return InnerOuterPair(constant / abs(constant), inside, outer, poles, outer_scale)


def _inner_outer_many(fs, tol: float, samples=None, points=()) -> list:
    """:func:`inner_outer` on each of ``fs``: its pair and the pair's values
    ``(inner, sqrt(outer))`` at ``points``, or the exception it raises, as
    one list entry.

    ``samples``, when given, holds for each of ``fs`` its values at
    :data:`INTERIOR` and a function of no arguments that gives its values at
    :data:`BOUNDARY_NODES`, read instead of evaluating it.  The numerator
    roots of one length come from one stacked solve (:func:`_poly.roots`).
    The pairs with the same numbers of Blaschke zeros, outer roots and poles
    are evaluated together: one Blaschke product for all points and one
    factor stack per point set, :data:`INTERIOR` for the check and then
    ``points``, each filled in place.  Every pair gets the bits that it gets
    alone.
    """
    out: list = [None] * len(fs)
    found = [np.zeros(0, dtype=complex)] * len(fs)
    solved = [i for i, f in enumerate(fs) if f.numerator.size > 1]
    for idx in _groups(solved, lambda i: fs[i].numerator.size):
        for i, roots in zip(idx, _poly.roots(np.stack([fs[i].numerator for i in idx]))):
            found[i] = roots
    for i, (f, roots) in enumerate(zip(fs, found)):
        try:
            out[i] = _pair_from_roots(f, roots)
        except ValueError as exc:
            out[i] = exc

    head = INTERIOR.size
    lam = np.concatenate([INTERIOR, np.ravel(points)])
    live = [i for i, pair in enumerate(out) if isinstance(pair, InnerOuterPair)]
    shape = lambda i: (out[i].blaschke_zeros.size, out[i].outer_roots.size, out[i].den_roots.size)
    batches = []
    for group in _groups(live, shape):
        batches += _batches(group, 16 * (1 + sum(shape(group[0]))) * max(head, lam.size - head))
    for idx in batches:
        pairs = [out[i] for i in idx]
        if samples is None:
            sampled = [(fs[i](INTERIOR), partial(fs[i], BOUNDARY_NODES)) for i in idx]
        else:
            sampled = [samples[i] for i in idx]
        zeros = np.array([pair.blaschke_zeros for pair in pairs])
        try:
            inner = _blaschke_rows(zeros, [pair.unimodular_constant for pair in pairs], lam)
        except ValueError as exc:
            for i in idx:
                out[i] = exc
            continue
        scales = np.array([pair.outer_scale for pair in pairs])[:, None]
        stack = _factor_rows(pairs, INTERIOR)
        interior = np.array([values for values, _ in sampled])
        errs = np.abs(inner[:, :head] * (scales * np.prod(stack, axis=-1)) - interior).max(axis=-1)
        del stack
        for i, err, (_, circle) in zip(idx, map(float, errs), sampled):
            # err > tol * scale decides: as scale >= 1, err <= tol passes it for any tol
            if err > tol and err > tol * (scale := max(1.0, float(np.abs(circle()).max()))):
                out[i] = ValueError(
                    f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = "
                    f"{tol * scale:.3e}"
                )
        stack = _factor_rows(pairs, lam[head:])
        roots = np.sqrt(scales) * np.prod(np.sqrt(stack, out=stack), axis=-1)
        for s, (i, pair) in enumerate(zip(idx, pairs)):
            if out[i] is pair:
                out[i] = (pair, (inner[s, head:], roots[s]))
    return out

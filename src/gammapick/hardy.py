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
from math import comb

import numpy as np

from . import _poly
from ._poly import padded, trims
from .tolerances import (
    BARE_ZERO,
    CIRCLE_BAND,
    DISC_SLACK,
    PRODUCT_RTOL,
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
    low = far.prod(axis=-1)
    return low.min(axis=-1) if size else low


def _lifted(dens: np.ndarray, nums: np.ndarray, rows: np.ndarray):
    """``dens`` and ``nums`` with each row of ``dens`` whose largest
    coefficient is subnormal, as a division by it overflows, and its
    numerators (``rows[j]`` that of ``nums[j]``) times ``2**600``; and, per
    row, whether that lift overflows one of its numerators."""
    peaks = np.abs(dens).max(axis=1, initial=0.0)
    low = (0.0 < peaks) & (peaks < np.finfo(float).tiny)
    if not low.any():
        return dens, nums, low
    with np.errstate(over="ignore", invalid="ignore"):
        dens = np.where(low[:, None], dens * 2.0**600, dens)
        nums = np.where(low[rows][:, None], nums * 2.0**600, nums)
    overflows = np.zeros_like(low)
    overflows[rows[~np.isfinite(nums).all(axis=1)]] = True
    return dens, nums, low & overflows


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


def _newton(a: np.ndarray, x: np.ndarray):
    """``p``, ``p'`` and ``sum |a_i| |x|**i`` at the points of each row of
    ``x``, ``p`` the polynomial of the same row of ``a``, by Horner's rule:
    what a Newton step on ``p`` and the bound of its rounding read."""
    p, dp, mass = a[:, -1:] + x * 0, x * 0, np.abs(a[:, -1:]) + np.abs(x) * 0
    for col in a.T[-2::-1]:
        dp = dp * x + p
        p = p * x + col[:, None]
        mass = mass * np.abs(x) + np.abs(col)[:, None]
    return p, dp, mass


def _clusters(roots: np.ndarray, members, reach) -> list[list[int]]:
    """``members``, indices of ``roots``, each joined to the roots within its
    ``reach``, and the groups that share a root merged."""
    groups: list = []
    for i in members:
        near = set(np.flatnonzero(np.abs(roots - roots[i]) <= reach[i]).tolist())
        linked = [g for g in groups if near.intersection(g)]
        groups = [g for g in groups if g not in linked] + [sorted(near.union(*linked))]
    return groups


def _local_factor(a: np.ndarray, c, others: np.ndarray, m: int) -> np.ndarray:
    """``[g_0, ..., g_(m-1)]``, the Taylor coefficients at ``c`` of ``a /
    (lead * prod(x - others))`` below ``t**m``: with ``t**m`` added, the
    factor of ``a`` at the m roots next to ``c`` that ``others`` leave, in
    ``t = x - c``, from values at ``c`` only, not at the roots."""
    n = a.size - 1
    top = [_poly.val(c, a[k:] * np.array([comb(i, k) for i in range(k, n + 1)])) for k in range(m)]
    low = [a[-1], *[0] * (m - 1)]
    for d in c - others:
        low = [low[0] * d, *(low[k] * d + low[k - 1] for k in range(1, m))]
    g: list = []
    for k in range(m):
        g.append((top[k] - sum(low[i] * g[k - i] for i in range(1, k + 1))) / low[0])
    return np.array(g)


def _refined(dens: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """``roots``, those of the rows of ``dens`` from their companion
    matrices, refined in ``np.clongdouble`` (on x86-64, 11 bits more than a
    double).  Those eigenvalues can miss a root by far more than the
    coefficients fix it: next to two double roots, 1.0078125 comes out 2e-12
    off, and the mean of a scattered double root 5e-11 off, which moves
    ``prod (1 - lam / r)`` by 1e-10 at radius 0.999.

    A root whose Newton step is below a sixteenth of its distance to the
    other roots, and which the rounding of ``p / p'`` leaves within half a
    double ulp, takes up to three Newton steps.  Each other root joins the
    roots within four times that distance, and each such cluster is replaced
    by the roots of its :func:`_local_factor` about its mean, unless one of
    them lands more than four times the cluster's radius away: a cluster's
    own roots are ill-conditioned, but the coefficients of its factor are
    not.  A pair's factor is solved by the quadratic formula, a larger
    cluster's by its companion matrix, and a row of several clusters is
    swept twice, as each factor divides by the others' roots.  The root
    ``-c0 / c1`` of a linear row is left as it is."""
    n = dens.shape[1] - 1
    if n == 1:
        return roots
    eps = np.finfo(float).eps
    a, out = dens.astype(np.clongdouble), roots.astype(np.clongdouble)
    gaps = np.abs(roots[:, :, None] - roots[:, None, :])
    gaps[:, np.arange(n), np.arange(n)] = np.inf
    gap = gaps.min(axis=2)
    p, dp, mass = _newton(a, out)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
        noise = 4 * n * np.finfo(np.longdouble).eps * mass / np.abs(dp)
    alone = (np.abs(step) < gap / 16) & (noise < eps / 2 * np.abs(roots))
    for _ in range(3):
        out = np.where(alone, out - step, out)
        if not (np.abs(step[alone]) > eps * np.abs(out[alone])).any():
            break
        p, dp, _ = _newton(a, out)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
    for row in np.flatnonzero(~alone.all(axis=1)).tolist():
        groups = _clusters(roots[row], np.flatnonzero(~alone[row]).tolist(), 4 * gap[row])
        for group in groups * min(len(groups), 2):
            c = out[row, group].mean()
            g = _local_factor(a[row], c, np.delete(out[row], group), len(group))
            if not np.isfinite(g).all():
                continue
            if len(group) == 2:  # t**2 + g_1 t + g_0 by the stable quadratic formula
                root = np.sqrt(g[1] ** 2 - 4 * g[0])
                q = -(g[1] + (root if (np.conj(g[1]) * root).real >= 0 else -root)) / 2
                t = np.array([q, g[0] / q]) if q else np.zeros(2)
            else:
                t = _poly.roots(np.append(g, 1).astype(complex)[None])[0]
            if np.abs(t).max() < 4 * np.abs(roots[row, group] - c).max():
                out[row, group] = c + t
    return out.astype(complex)


def _products(dens: np.ndarray, roots: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``q = lead * prod(lam - r_i)`` at the points ``lam``, over the
    ``roots`` of each row of ``dens``."""
    batches = _batches(roots[:, None, :], 16 * lam.size * roots.shape[1])
    return dens[:, -1:] * np.concatenate([(lam[:, None] - r).prod(axis=-1) for r in batches])


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

    ``(den - q) / q`` is the relative error of the roots' product form in
    the disc, largest on the circle, and den's values there are taken in
    ``np.clongdouble`` (then rounded, which the Horner bound covers).  Where
    ``|den - q|`` at one of the 8n points exceeds ``PRODUCT_RTOL |q|``, the
    roots are :func:`_refined`, and the refined ones are kept, and certified,
    where their largest ``|den - q| / |q|`` there is smaller and their
    largest ``|den - q|`` no larger.  Other rows keep the bits of their
    companion eigenvalues.
    """
    n = dens.shape[1] - 1
    roots = _poly.roots(dens)
    lam = _circle(8 * n)[:-1]
    values = _poly.horner(dens.astype(np.clongdouble), lam)
    q = _products(dens, roots, lam)
    with np.errstate(divide="ignore", invalid="ignore"):  # a root on a point: q = 0
        misses = (np.abs(values - q) / np.abs(q)).max(axis=1)
    poor = np.flatnonzero(misses > PRODUCT_RTOL)
    if poor.size:
        refined = _refined(dens[poor], roots[poor])
        products = _products(dens[poor], refined, lam)
        gaps = np.abs(values[poor] - products)
        better = ((gaps / np.abs(products)).max(axis=1) < misses[poor]) & (
            gaps.max(axis=1) <= np.abs(values[poor] - q[poor]).max(axis=1)
        )
        roots[poor[better]], q[poor[better]] = refined[better], products[better]
    # g = den - q has degree below n; each |g(lam_j)| is off by at most 4 (n +
    # 2) u (||den||_1 + |q|): Horner 4n u, q (4n + 4) u, difference 2u.  As
    # |g'| <= (n - 1) max |g| (Bernstein), max |g| on the circle is at most the
    # largest over 1 - pi/8 - 22 n eps (lam_j 11 eps off; 1.7 leaves 3%), and
    # on |lam| = rho > 1 rho**(n - 1) times that (maximum principle)
    err = 2 * (n + 2) * np.finfo(float).eps * (np.abs(dens).sum(axis=1)[:, None] + np.abs(q))
    peaks = (np.abs(values.astype(complex) - q) + err).max(axis=1)
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
    """Each row of ``dens``, finite and lifted, trimmed with its factors as
    ``(den, factors)``, or the exception that refuses it: no factor for a
    constant, else those :func:`_certified` gives it, for the denominators of
    one trimmed length together.  The rows are trimmed as one stack."""
    out = []
    for den in trims(np.asarray(dens, dtype=complex)):
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
        vars(f).update(numerator=numerator, denominator=denominator, factors=factors)
        return f

    @classmethod
    def over(cls, denominator, numerators):
        """One function per numerator, all over ``denominator``, which is
        trimmed and certified once.  The denominator is the functions' one
        factor.  This is :meth:`_over_many` on one row, the numerators
        zero-padded to one length, which changes no check and no trim."""
        den = padded([denominator])
        nums = padded(numerators)
        return _only(cls._over_many(den, nums, np.zeros(len(nums), dtype=int)))

    @classmethod
    def _over_many(cls, dens, nums, rows) -> list:
        """:meth:`over` on each row of ``dens``, ``(S, L)``, with the
        numerators ``nums[j]``, ``(N, M)``, that ``rows[j]`` gives it: its
        functions, in the order of ``nums``, or the exception it raises.

        The finiteness check, the subnormal lift (:func:`_lifted`) and the
        trims (:func:`_poly.trims`) each run once on the stack, the
        denominators of one trimmed length are certified together
        (:func:`_factored`), and each function is built unchecked
        (:meth:`_built`) from rows that passed."""
        rows = np.asarray(rows, dtype=int)
        finite = np.isfinite(dens).all(axis=1)
        finite[rows[~np.isfinite(nums).all(axis=1)]] = False
        dens, nums, overflows = _lifted(dens, nums, rows)
        out: list = [
            [] if ok and not overflow else ValueError(
                "numerator overflows over a subnormal denominator" if ok
                else "coefficients must be finite"
            )
            for ok, overflow in zip(finite.tolist(), overflows.tolist())
        ]
        live = [i for i, item in enumerate(out) if type(item) is list]
        factored = dict(zip(live, _factored(dens[live])))
        for i, item in factored.items():
            if isinstance(item, Exception):
                out[i] = item
        at = rows.tolist()
        keep = [j for j, i in enumerate(at) if type(out[i]) is list]
        for j, num in zip(keep, trims(nums[keep])):
            out[at[j]].append(cls._built(num, *factored[at[j]]))
        return out

    @classmethod
    def _over_products(cls, rows, powers, numerators) -> list:
        """For each tuple of functions of ``rows``, pairs with ``powers``, one
        function per numerator of its list in ``numerators``, all over the
        product of the functions' denominators to those powers: the functions
        of each row.

        Each product is expanded in the order given, trimmed after each
        multiplication, and is not certified again: its factors are those of
        the functions, with multiplicities scaled by the powers and added
        where two functions share a factor.  The products are expanded by
        ``np.convolve`` row by row, and each multiplication's trims, and those
        of the numerators, run once on the zero-padded stack."""
        if not rows:
            return []
        dens = None
        for k, power in enumerate(powers):
            for _ in range(power):
                step = [fs[k].denominator for fs in rows]
                dens = step if dens is None else trims(list(map(_poly.mul, dens, step)))
        nums = iter(trims([num for row in numerators for num in row]))
        out = []
        for fs, den, row in zip(rows, dens, numerators):
            # the factors of each function, multiplicities scaled by its
            # power and added where two functions share a factor
            factors: dict = {}
            for f, power in zip(fs, powers):
                for factor, roots, mult in f.factors:
                    key = factor.tobytes()
                    count = factors[key][2] if key in factors else 0
                    factors[key] = (factor, roots, count + power * mult)
            out.append([cls._built(next(nums), den, tuple(factors.values())) for _ in row])
        return out

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
    alone: the moduli and turns ``|a| / a`` of all zeros are taken as
    scalars in one pass, the factors' numerators and denominators as one
    stack, and the product is taken zero by zero; a zero at the origin is
    the factor ``lam``, and a column of them only multiplies by it."""
    if lam.size and float(np.abs(lam).max()) > 1.0 + DISC_SLACK:
        raise ValueError("evaluation points must lie in the closed unit disc")
    flat = zeros.T.ravel()  # zero by zero, the order of the product
    mods = [abs(a) for a in flat]
    for r in mods:
        if r >= 1.0:
            raise ValueError(f"Blaschke zero with modulus {r:.12f} outside the open disc")
    bare = (np.array(mods) < BARE_ZERO).reshape(zeros.shape[::-1])
    turns = np.array([1.0 if r < BARE_ZERO else r / a for r, a in zip(mods, flat)])
    turns = turns.reshape(zeros.shape[::-1])[..., None]
    tops = zeros.T[..., None] - lam
    bottoms = 1.0 - np.conj(zeros).T[..., None] * lam
    out = np.empty((len(constants), lam.size), dtype=complex)
    out[:] = np.array(constants)[:, None]
    for b, turn, top, bottom in zip(bare, turns, tops, bottoms):
        if b.all():  # as on every slice of a polynomial curve
            out = out * lam
            continue
        step = out * turn * top / bottom
        if b.any():
            step[b] = out[b] * lam
        out = step
    return out


def _factor_rows(outer: np.ndarray, zeros: np.ndarray, den: np.ndarray, lam: np.ndarray):
    """The factors of the exact outer forms with the outer roots, Blaschke
    zeros and poles of the rows of ``outer``, ``zeros`` and ``den``, at the
    points ``lam``: shape ``(S, lam.size, k)``.  Each block is computed with
    the points along its last axis and copied into place.

    Every factor maps the open disc into the open right half-plane, and
    the closed disc into the closed one, so principal square roots
    multiply into the analytic branch that is positive at the origin.
    """
    a, b = outer.shape[1], outer.shape[1] + zeros.shape[1]
    stack = np.empty((len(outer), lam.size, 1 + b + den.shape[1]), dtype=complex)
    stack[..., 0] = 1.0
    stack[..., 1 : 1 + a] = (1.0 - lam / outer[..., None]).swapaxes(1, 2)
    stack[..., 1 + a : 1 + b] = (1.0 - np.conj(zeros)[..., None] * lam).swapaxes(1, 2)
    stack[..., 1 + b :] = (1.0 / (1.0 - lam / den[..., None])).swapaxes(1, 2)
    return stack


# what each invariant of InnerOuterPair says when a pair breaks it, in the
# order they are tested
_PAIR_INVARIANTS = (
    "inner constant must be unimodular",
    "Blaschke zeros must lie in the open disc",
    "outer roots must lie on or outside the unit circle",
    "denominator roots must lie outside the closed disc",
    "outer scale must be positive",
)


def _pair_errors(constants, zeros, outer, den, scales) -> list:
    """For each row of the stacks, the message of the first invariant of
    :class:`InnerOuterPair` that it breaks, or None: each array test once on
    the stack, the scalar tests scalar."""
    tests = (
        [abs(abs(c) - 1.0) > UNIMODULAR_TOL for c in constants],
        np.abs(zeros).max(axis=1, initial=0.0) >= 1.0,
        # a root projected onto the circle may round to a modulus of 1 - 1 ulp
        np.abs(outer).min(axis=1, initial=np.inf) < 1.0 - 2.0 * np.finfo(float).eps,
        np.abs(den).min(axis=1, initial=np.inf) <= 1.0,
        [not scale > 0.0 for scale in scales],
    )
    broken = zip(*(np.array(test, dtype=bool).tolist() for test in tests))
    return [_PAIR_INVARIANTS[row.index(True)] if True in row else None for row in broken]


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
        constant = complex(self.unimodular_constant)
        (error,) = _pair_errors([constant], zeros[None], out[None], den[None], [self.outer_scale])
        if error:
            raise ValueError(error)
        object.__setattr__(self, "blaschke_zeros", zeros)
        object.__setattr__(self, "outer_roots", out)
        object.__setattr__(self, "den_roots", den)

    @classmethod
    def _built(cls, *values):
        """A pair from the values of its fields, in order, that passed
        :func:`_pair_errors`, with no check."""
        pair = object.__new__(cls)
        vars(pair).update(zip(cls.__dataclass_fields__, values))
        return pair

    @property
    def has_exact_outer(self) -> bool:
        """Always True, the factored form being the only one; kept because
        ``perfbench/tracing.py`` tags every ``inner_outer`` call by it."""
        return True

    @property
    def _roots(self):
        """The outer roots, Blaschke zeros and poles as one-row stacks."""
        return self.outer_roots[None], self.blaschke_zeros[None], self.den_roots[None]

    def inner_eval(self, lam):
        return blaschke_eval(self.blaschke_zeros, self.unimodular_constant, lam)

    def outer_eval(self, lam):
        lam = np.asarray(lam, dtype=complex)
        stack = _factor_rows(*self._roots, lam.ravel())[0]
        return (self.outer_scale * np.prod(stack, axis=-1)).reshape(lam.shape)

    def outer_sqrt(self, lam):
        lam = np.asarray(lam, dtype=complex)
        stack = _factor_rows(*self._roots, lam.ravel())[0]
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


def _pair_stacks(fs, out: list) -> list:
    """The inner-outer data of ``fs`` from their numerator roots, unchecked
    against them (see :func:`inner_outer`), as ``(idx, constants, zeros,
    outer, poles, scales)`` per signature: the functions of one numerator
    length, numbers of Blaschke zeros away from the origin and at it, outer
    and snapped roots, and multiplicities and root numbers of factors.
    Each pair, or the exception that refuses it, goes to ``out``.

    The roots of one numerator length come from one stacked solve
    (:func:`_poly.roots`) and are classified on the stack; each signature's
    zeros, outer roots, poles, constant and scale are taken as stacks and
    checked by :func:`_pair_errors`.  The scalars keep the arithmetic of a
    single pair: ``lead / den[0]``, ``|lead|``, ``|den[0]|`` and the unit
    constant are Python complex and float operations, row by row.
    """
    stacks, snaps = [], {}
    for i in [i for i, f in enumerate(fs) if f.is_zero]:
        out[i] = ValueError("the zero function has no inner-outer factorization")
    live = [i for i, f in enumerate(fs) if not f.is_zero]
    for idx in _groups(live, lambda i: fs[i].numerator.size):
        nums = np.stack([fs[i].numerator for i in idx])
        roots = _poly.roots(nums) if nums.shape[1] > 1 else nums[:, :0]
        mods = np.abs(roots)
        inside = mods < 1.0 - CIRCLE_BAND
        snapped = (mods >= 1.0 - CIRCLE_BAND) & (mods <= 1.0 + CIRCLE_BAND)
        masks = np.array([inside, inside & (mods >= BARE_ZERO), mods > 1.0 + CIRCLE_BAND, snapped])
        counts = masks.sum(axis=2).T.tolist()
        snaps.update((i, n) for i, (*_, n) in zip(idx, counts) if n)
        key = lambda s: (*counts[s], *((r.size, m) for _, r, m in fs[idx[s]].factors))
        for group in _groups(range(len(idx)), key):
            rows = [idx[s] for s in group]
            sub = roots[group]
            zeros, turned, outside, snap = (sub[m].reshape(len(group), -1) for m in masks[:, group])
            outer = np.concatenate([outside, snap / np.abs(snap)], axis=1)
            # the poles from each certified factor, never from their
            # expanded product, whose repeated roots would scatter
            repeated = [
                np.repeat([fs[i].factors[j][1] for i in rows], m, axis=1)
                for j, (*_, m) in enumerate(fs[rows[0]].factors)
            ]
            poles = np.concatenate([zeros[:, :0], *repeated], axis=1)
            ends = [(complex(fs[i].numerator[-1]), complex(fs[i].denominator[0])) for i in rows]
            heads = np.array([lead / den0 for lead, den0 in ends])[:, None]
            turns = np.concatenate([heads, -outer, -turned], axis=1)
            constants = [c / abs(c) for c in map(complex, (turns / np.abs(turns)).prod(axis=1))]
            scales = [
                abs(lead) * p / abs(den0)
                for (lead, den0), p in zip(ends, np.abs(outer).prod(axis=1).tolist())
            ]
            errors = _pair_errors(constants, zeros, outer, poles, scales)
            for s, (i, error) in enumerate(zip(rows, errors)):
                out[i] = ValueError(error) if error else InnerOuterPair._built(
                    constants[s], zeros[s], outer[s], poles[s], scales[s]
                )
            ok = [s for s, error in enumerate(errors) if error is None]
            at = lambda a: [a[s] for s in ok]
            stacks.append((at(rows), at(constants), zeros[ok], outer[ok], poles[ok], at(scales)))
    for i in sorted(snaps):
        warnings.warn(
            f"{snaps[i]} numerator root(s) within {CIRCLE_BAND} of the unit "
            "circle assigned to the outer factor",
            stacklevel=4,
        )
    return stacks


def _inner_outer_many(fs, tol: float, samples=None, points=()) -> list:
    """:func:`inner_outer` on each of ``fs``: its pair and the pair's values
    ``(inner, sqrt(outer))`` at ``points``, or the exception it raises, as
    one list entry.

    ``samples``, when given, holds for each of ``fs`` its values at
    :data:`INTERIOR` and a function of no arguments that gives its values at
    :data:`BOUNDARY_NODES`, read instead of evaluating it.  The pairs come
    as stacks of one signature (:func:`_pair_stacks`), and each stack is
    evaluated together: one Blaschke product for all points and one factor
    stack per point set, :data:`INTERIOR` for the check and then
    ``points``.  Every pair gets the bits that it gets alone.
    """
    out: list = [None] * len(fs)
    head = INTERIOR.size
    lam = np.concatenate([INTERIOR, np.ravel(points)])
    for idx, constants, zeros, outer, poles, scales in _pair_stacks(fs, out):
        width = 16 * (1 + zeros.shape[1] + outer.shape[1] + poles.shape[1])
        for run in _batches(range(len(idx)), width * max(head, lam.size - head)):
            rows = [idx[s] for s in run]
            if samples is None:
                sampled = [(fs[i](INTERIOR), partial(fs[i], BOUNDARY_NODES)) for i in rows]
            else:
                sampled = [samples[i] for i in rows]
            # checked: the zeros lie in the open disc, and lam in the closed one
            inner = _blaschke_rows(zeros[run], [constants[s] for s in run], lam)
            roots = outer[run], zeros[run], poles[run]
            factors = np.array([scales[s] for s in run])[:, None]
            stack = _factor_rows(*roots, INTERIOR)
            interior = np.array([values for values, _ in sampled])
            errs = np.abs(inner[:, :head] * (factors * stack.prod(axis=-1)) - interior).max(axis=-1)
            del stack
            for i, err, (_, circle) in zip(rows, map(float, errs), sampled):
                # err > tol * scale decides: as scale >= 1, err <= tol passes it for any tol
                if err > tol and err > tol * (scale := max(1.0, float(np.abs(circle()).max()))):
                    out[i] = ValueError(
                        f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = "
                        f"{tol * scale:.3e}"
                    )
            stack = _factor_rows(*roots, lam[head:])
            values = np.sqrt(factors) * np.sqrt(stack, out=stack).prod(axis=-1)
            for s, i in enumerate(rows):
                if isinstance(out[i], InnerOuterPair):
                    out[i] = (out[i], (inner[s, head:], values[s]))
    return out

"""Rational functions on the closed unit disc and their inner-outer parts.

A :class:`RationalFunction` is a quotient of polynomials in ascending
coefficient order whose denominator has no roots in the closed disc, so the
function is analytic up to the boundary.  :func:`inner_outer` splits such a
function into a Blaschke product times a unimodular constant and an outer
factor represented by uniform boundary samples of ``log |f|``; evaluation of
the outer factor and of its analytic square root goes through the Herglotz
kernel average over those samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "POLY_NOISE",
    "RationalFunction",
    "InnerOuterPair",
    "INTERIOR",
    "SAMPLES",
    "blaschke_eval",
    "boundary_nodes",
    "node_step",
    "inner_outer",
]

_CIRCLE_SNAP = 1e-9
# rounding noise of polynomial arithmetic, per unit of coefficient mass
POLY_NOISE = 1e3 * np.finfo(float).eps
# where the winding check reads a denominator: 4096 points of the circle,
# whose every (4096 / n_boundary)-th point is a boundary node of inner_outer
SAMPLES = np.exp(2j * np.pi * np.arange(4096) / 4096)
# where inner_outer reads f inside the disc: the anchor probes, then the
# reconstruction check grid
_PROBES = np.array([0.0, 0.21 + 0.13j, -0.17 + 0.29j, 0.33 - 0.11j, -0.27 - 0.23j])
_CHECK = (np.linspace(0.05, 0.7, 14)[:, None] * np.exp(2j * np.pi * np.arange(5) / 5.0)).ravel()
INTERIOR = np.concatenate([_PROBES, _CHECK])


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
        if r < 1e-14:
            out = out * lam
        else:
            out = out * (r / a) * (a - lam) / (1.0 - np.conj(a) * lam)
    return out


def node_step(n_boundary: int) -> int:
    """The step along :data:`SAMPLES` whose points are the ``n_boundary``
    boundary nodes, to the last bit; 0 when ``n_boundary`` does not divide 4096."""
    return SAMPLES.size // n_boundary if n_boundary > 0 and SAMPLES.size % n_boundary == 0 else 0


def boundary_nodes(n_boundary: int) -> np.ndarray:
    """The uniform boundary nodes ``exp(2 pi i j / n_boundary)``."""
    step = node_step(n_boundary)
    return SAMPLES[::step] if step else np.exp(2j * np.pi * np.arange(n_boundary) / n_boundary)


@dataclass(frozen=True, eq=False)
class InnerOuterPair:
    """Inner-outer data: unimodular constant, Blaschke zeros, boundary values.

    ``boundary_values[j]`` is ``f`` at the uniform boundary node
    ``exp(2 pi i j / n)``; ``boundary_logmod``, ``log |f_outer|`` there, is
    computed from them when first read.  Interior evaluation uses its Herglotz
    kernel average, so ``outer(0) = exp(mean(boundary_logmod)) > 0``.

    For rational input whose non-Blaschke roots stay safely away from the
    circle, ``outer_roots``/``den_roots``/``outer_scale`` hold an exact
    factored form ``outer = scale * prod(1 - lam/r_out) * prod(1 - conj(z) lam)
    / prod(1 - lam/p)``; evaluation then bypasses the Herglotz quadrature,
    whose kernel is under-resolved near the boundary, and reads no log-modulus.
    """

    unimodular_constant: complex
    blaschke_zeros: np.ndarray
    boundary_values: np.ndarray = field(repr=False)
    outer_roots: np.ndarray | None = field(default=None, repr=False)
    den_roots: np.ndarray | None = field(default=None, repr=False)
    outer_scale: float = 1.0

    def __post_init__(self):
        zeros = np.asarray(self.blaschke_zeros, dtype=complex).ravel()
        values = np.asarray(self.boundary_values, dtype=complex).ravel()
        if values.size < 16:
            raise ValueError("need at least 16 boundary samples")
        if abs(abs(complex(self.unimodular_constant)) - 1.0) > 1e-9:
            raise ValueError("inner constant must be unimodular")
        if zeros.size and float(np.abs(zeros).max()) >= 1.0:
            raise ValueError("Blaschke zeros must lie in the open disc")
        object.__setattr__(self, "blaschke_zeros", zeros)
        object.__setattr__(self, "boundary_values", values)
        if (self.outer_roots is None) != (self.den_roots is None):
            raise ValueError("exact outer data needs both root sets")
        if self.outer_roots is not None:
            out = np.asarray(self.outer_roots, dtype=complex).ravel()
            den = np.asarray(self.den_roots, dtype=complex).ravel()
            if out.size and float(np.abs(out).min()) <= 1.0:
                raise ValueError("exact outer roots must lie outside the closed disc")
            if den.size and float(np.abs(den).min()) <= 1.0:
                raise ValueError("denominator roots must lie outside the closed disc")
            if not self.outer_scale > 0.0:
                raise ValueError("outer scale must be positive")
            object.__setattr__(self, "outer_roots", out)
            object.__setattr__(self, "den_roots", den)

    @cached_property
    def boundary_logmod(self) -> np.ndarray:
        """``log |f| - log |B|`` at the nodes, ``B`` the Blaschke product."""
        bvals = blaschke_eval(self.blaschke_zeros, 1.0, boundary_nodes(self.n_boundary))
        return np.log(np.maximum(np.abs(self.boundary_values), 1e-300)) - np.log(np.abs(bvals))

    @property
    def n_boundary(self) -> int:
        return int(self.boundary_values.size)

    @property
    def has_exact_outer(self) -> bool:
        return self.outer_roots is not None

    def _herglotz(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        if lam.size and float(np.abs(lam).max()) >= 1.0:
            raise ValueError("Herglotz evaluation needs interior points")
        nodes = boundary_nodes(self.n_boundary)
        flat = lam.ravel()[:, None]
        vals = np.mean((nodes + flat) / (nodes - flat) * self.boundary_logmod, axis=1)
        return vals.reshape(lam.shape)

    def _factor_stack(self, lam) -> np.ndarray:
        """Per-point factors of the exact outer form, shape lam.shape + (k,).

        Every factor maps the closed disc into the open right half-plane, so
        principal square roots multiply into the analytic branch that is
        positive at the origin.
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
        if self.outer_roots is None:
            return np.exp(self._herglotz(lam))
        lam = np.asarray(lam, dtype=complex)
        vals = self.outer_scale * np.prod(self._factor_stack(lam), axis=1)
        return vals.reshape(lam.shape)

    def outer_sqrt(self, lam):
        if self.outer_roots is None:
            return np.exp(self._herglotz(lam) / 2.0)
        lam = np.asarray(lam, dtype=complex)
        vals = np.sqrt(self.outer_scale) * np.prod(
            np.sqrt(self._factor_stack(lam)), axis=1
        )
        return vals.reshape(lam.shape)

    def eval(self, lam):
        return self.inner_eval(lam) * self.outer_eval(lam)


def inner_outer(
    f: RationalFunction,
    n_boundary: int = 2048,
    tol: float = 1e-6,
    samples: np.ndarray | None = None,
) -> InnerOuterPair:
    """Inner-outer factorization of a rational function bounded on the disc.

    Numerator roots strictly inside the disc turn into Blaschke zeros; roots
    within ``1e-9`` of the circle are assigned to the outer factor with a
    warning, since a genuine boundary zero spoils the quadrature.  The poles
    are the roots of each of ``f.factors``, repeated by its multiplicity:
    the expanded denominator's repeated roots would scatter.  ``inner *
    outer`` is evaluated once, at :data:`INTERIOR`: its first probe where it
    and ``f`` are safely nonzero anchors the unimodular constant, and the
    rest checks the reconstruction against ``f`` to ``tol``.  ``samples``,
    when given, are the values of ``f`` at the boundary nodes, when they are
    points of :data:`SAMPLES` (``n_boundary`` divides 4096), then at
    :data:`INTERIOR`, read instead of evaluating ``f``.
    """
    if not isinstance(f, RationalFunction):
        raise TypeError("inner_outer expects a RationalFunction")
    if f.is_zero:
        raise ValueError("the zero function has no inner-outer factorization")
    if n_boundary < 64:
        raise ValueError("n_boundary too small for the quadrature")
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
    if samples is None:
        fvals, interior = f(boundary_nodes(n_boundary)), f(INTERIOR)
    else:
        fvals = samples[:n_boundary] if node_step(n_boundary) else f(boundary_nodes(n_boundary))
        interior = samples[-INTERIOR.size :]
    scale = max(1.0, float(np.abs(fvals).max()))

    # Attach the exact factored outer form when every non-Blaschke root and
    # every pole keeps a safe margin from the circle; otherwise fall back to
    # the quadrature representation alone.
    exact_out = exact_den = None
    exact_scale = 1.0
    use_exact = snapped.size == 0
    if outside.size and float(np.abs(outside).min()) <= 1.0 + 1e-6:
        use_exact = False
    # the poles from each certified factor, never from their expanded
    # product, whose repeated roots would scatter
    droots = np.concatenate(
        [np.zeros(0, dtype=complex)]
        + [np.repeat(npoly.polyroots(c), m) for c, m in f.factors]
    )
    if droots.size and float(np.abs(droots).min()) <= 1.0 + 1e-3:
        use_exact = False
    if use_exact:
        lead = complex(f.numerator[-1])
        exact_scale = (
            abs(lead) * float(np.prod(np.abs(outside)))
        ) / abs(complex(f.denominator[0]))
        exact_out = outside
        exact_den = droots
    pair = InnerOuterPair(1.0 + 0j, inside, fvals, exact_out, exact_den, exact_scale)

    factored = pair.eval(INTERIOR)  # with the constant 1
    constant = None
    for numer, denom in zip(interior[: _PROBES.size], factored[: _PROBES.size]):
        numer, denom = complex(numer), complex(denom)
        if abs(denom) > 1e-10 and abs(numer) > 1e-12 * scale:
            constant = numer / denom
            break
    if constant is None:
        raise ValueError("could not anchor the unimodular constant at any probe point")
    constant = constant / abs(constant)
    object.__setattr__(pair, "unimodular_constant", constant)  # unimodular by construction

    err = float(np.abs(constant * factored[_PROBES.size :] - interior[_PROBES.size :]).max())
    if err > tol * scale:
        raise ValueError(
            f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = "
            f"{tol * scale:.3e}; boundary quadrature is likely under-resolved"
        )
    return pair

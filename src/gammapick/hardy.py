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

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "POLY_NOISE",
    "RationalFunction",
    "InnerOuterPair",
    "SAMPLES",
    "blaschke_eval",
    "inner_outer",
]

_CIRCLE_SNAP = 1e-9
# rounding noise of polynomial arithmetic, per unit of coefficient mass
POLY_NOISE = 1e3 * np.finfo(float).eps
_WINDING_CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)
# the fixed interior points where inner_outer reads f: the anchor probes and
# the reconstruction check grid
_PROBES = np.array([0.0, 0.21 + 0.13j, -0.17 + 0.29j, 0.33 - 0.11j, -0.27 - 0.23j])
_CHECK = (
    np.linspace(0.05, 0.7, 14)[:, None] * np.exp(2j * np.pi * np.arange(5)[None, :] / 5.0)
).ravel()
# every point where the winding check and inner_outer read a function, for
# callers that know its values there: the winding circle (whose every
# (4096 / n_boundary)-th point is a boundary node of inner_outer), the probes
# and the check grid
SAMPLES = np.concatenate([_WINDING_CIRCLE, _PROBES, _CHECK])
_PROBE_AT = _WINDING_CIRCLE.size


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex).ravel()
    mods = np.abs(c)
    top = float(mods.max()) if c.size else 0.0
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    small = mods <= 1e-13 * top
    c = np.where(small, 0.0, c)
    # the nonzero entries of c (a NaN is neither small nor nonzero)
    last = int(np.flatnonzero(~small & (mods > 0.0)).max())
    return c[: last + 1]


def _certified(den, samples: np.ndarray | None = None) -> np.ndarray:
    """``den`` trimmed, checked to have no zeros in the closed unit disc.

    Uses the argument principle on the unit circle instead of numerical
    roots: repeated factors make computed roots scatter, while the winding
    number of the boundary values stays exact as long as the polynomial is
    bounded away from zero there.  ``samples``, when given, are the values
    of ``den`` at :data:`SAMPLES`.  A constant is not checked.
    """
    den = _trim(den)
    if float(np.abs(den).max()) == 0.0:
        raise ZeroDivisionError("denominator is identically zero")
    if den.size > 1:
        _boundary_winding(den, None if samples is None else samples[:_PROBE_AT])
    return den


def _boundary_winding(den: np.ndarray, values: np.ndarray | None = None):
    """The 4096-point winding check behind :func:`_certified`, on ``den``'s
    values at the circle points (evaluated here when not given)."""
    vals = npoly.polyval(_WINDING_CIRCLE, den) if values is None else values
    top = float(np.abs(vals).max())
    low = float(np.abs(vals).min())
    # the floor is the evaluation noise, not a fraction of the peak: high
    # multiplicity factors legitimately dip many orders below their maximum
    mass = float(np.abs(den).sum())
    noise = max(POLY_NOISE * mass, 1e-12 * top)
    if low <= noise:
        raise ValueError(
            f"denominator nearly vanishes on the unit circle (min |den| = {low:.3e})"
        )
    # the turn from each value to the next, the last back to the first
    turns = np.angle(np.roll(vals, -1) * vals.conj())
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
    strictly outside the closed unit disc, certified through the boundary
    winding number; trailing coefficients below ``1e-13`` of the leading
    scale are trimmed.
    """

    numerator: np.ndarray
    denominator: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "numerator", _trim(self.numerator))
        object.__setattr__(self, "denominator", _certified(self.denominator))

    @classmethod
    def over(cls, denominator, numerators, samples: np.ndarray | None = None):
        """One function per numerator, all over ``denominator``, which is
        trimmed and certified once: on ``samples``, its values at
        :data:`SAMPLES`, when given, else on values evaluated here."""
        nums = [_trim(num) for num in numerators]
        den = _certified(denominator, samples)
        out = []
        for num in nums:
            f = object.__new__(cls)
            object.__setattr__(f, "numerator", num)
            object.__setattr__(f, "denominator", den)
            out.append(f)
        return out

    @property
    def is_zero(self) -> bool:
        return float(np.abs(self.numerator).max()) == 0.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return npoly.polyval(lam, self.numerator) / npoly.polyval(lam, self.denominator)

    def __add__(self, other) -> "RationalFunction":
        other = _as_rational(other)
        # Equal denominators combine without squaring the denominator;
        # repeated factors make downstream root extraction ill conditioned.
        if np.array_equal(self.denominator, other.denominator):
            return RationalFunction(
                npoly.polyadd(self.numerator, other.numerator), self.denominator
            )
        num = npoly.polyadd(
            npoly.polymul(self.numerator, other.denominator),
            npoly.polymul(other.numerator, self.denominator),
        )
        return RationalFunction(num, npoly.polymul(self.denominator, other.denominator))

    def __radd__(self, other) -> "RationalFunction":
        return self.__add__(other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other) -> "RationalFunction":
        return self.__add__(_as_rational(other).__neg__())

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rational(other).__sub__(self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rational(other)
        return RationalFunction(
            npoly.polymul(self.numerator, other.numerator),
            npoly.polymul(self.denominator, other.denominator),
        )

    def __rmul__(self, other) -> "RationalFunction":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rational(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        if np.array_equal(self.denominator, other.denominator):
            return RationalFunction(self.numerator, other.numerator)
        return RationalFunction(
            npoly.polymul(self.numerator, other.denominator),
            npoly.polymul(self.denominator, other.numerator),
        )

    def numerator_roots(self) -> np.ndarray:
        if self.is_zero or self.numerator.size == 1:
            return np.zeros(0, dtype=complex)
        return npoly.polyroots(self.numerator)


def _as_rational(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(np.asarray([value], dtype=complex))


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


@dataclass(frozen=True, eq=False)
class InnerOuterPair:
    """Inner-outer data: unimodular constant, Blaschke zeros, boundary log-modulus.

    ``boundary_logmod[j]`` samples ``log |f_outer|`` at the uniform boundary
    node ``exp(2 pi i j / n)``; interior evaluation uses the Herglotz kernel
    average, so ``outer(0) = exp(mean(boundary_logmod)) > 0``.

    For rational input whose non-Blaschke roots stay safely away from the
    circle, ``outer_roots``/``den_roots``/``outer_scale`` hold an exact
    factored form ``outer = scale * prod(1 - lam/r_out) * prod(1 - conj(z) lam)
    / prod(1 - lam/p)``; evaluation then bypasses the Herglotz quadrature,
    whose kernel is under-resolved near the boundary.
    """

    unimodular_constant: complex
    blaschke_zeros: np.ndarray
    boundary_logmod: np.ndarray = field(repr=False)
    outer_roots: np.ndarray | None = field(default=None, repr=False)
    den_roots: np.ndarray | None = field(default=None, repr=False)
    outer_scale: float = 1.0

    def __post_init__(self):
        zeros = np.asarray(self.blaschke_zeros, dtype=complex).ravel()
        logmod = np.asarray(self.boundary_logmod, dtype=float).ravel()
        if logmod.size < 16:
            raise ValueError("need at least 16 boundary samples")
        if abs(abs(complex(self.unimodular_constant)) - 1.0) > 1e-9:
            raise ValueError("inner constant must be unimodular")
        if zeros.size and float(np.abs(zeros).max()) >= 1.0:
            raise ValueError("Blaschke zeros must lie in the open disc")
        object.__setattr__(self, "blaschke_zeros", zeros)
        object.__setattr__(self, "boundary_logmod", logmod)
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

    @property
    def n_boundary(self) -> int:
        return int(self.boundary_logmod.size)

    @property
    def has_exact_outer(self) -> bool:
        return self.outer_roots is not None

    def _herglotz(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        if lam.size and float(np.abs(lam).max()) >= 1.0:
            raise ValueError("Herglotz evaluation needs interior points")
        nodes = np.exp(2j * np.pi * np.arange(self.n_boundary) / self.n_boundary)
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

    def boundary_outer_modulus(self) -> np.ndarray:
        """|outer| at the stored uniform boundary nodes."""
        return np.exp(self.boundary_logmod)

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
    warning, since a genuine boundary zero spoils the quadrature.  The
    reconstruction ``inner * outer`` is checked against ``f`` on an interior
    grid to ``tol`` before returning.  ``samples``, when given, are the values
    of ``f`` at :data:`SAMPLES`, read instead of evaluating ``f`` (at the
    boundary nodes only when ``n_boundary`` divides 4096).
    """
    if not isinstance(f, RationalFunction):
        f = _as_rational(f)
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
    # the nodes of a power-of-two circle are every step-th point of the
    # winding circle, to the last bit
    step = _WINDING_CIRCLE.size // n_boundary
    on_circle = step * n_boundary == _WINDING_CIRCLE.size
    if on_circle:
        nodes = _WINDING_CIRCLE[::step]
    else:
        nodes = np.exp(2j * np.pi * np.arange(n_boundary) / n_boundary)
    if samples is None:
        fvals, interior = f(nodes), f(SAMPLES[_PROBE_AT:])
    else:
        fvals = samples[:_PROBE_AT:step] if on_circle else f(nodes)
        interior = samples[_PROBE_AT:]
    bvals = blaschke_eval(inside, 1.0, nodes)
    logmod = np.log(np.maximum(np.abs(fvals), 1e-300)) - np.log(np.abs(bvals))

    # Attach the exact factored outer form when every non-Blaschke root and
    # every pole keeps a safe margin from the circle; otherwise fall back to
    # the quadrature representation alone.
    exact_out = exact_den = None
    exact_scale = 1.0
    use_exact = snapped.size == 0
    if outside.size and float(np.abs(outside).min()) <= 1.0 + 1e-6:
        use_exact = False
    droots = np.zeros(0, dtype=complex)
    if f.denominator.size > 1:
        droots = npoly.polyroots(f.denominator)
        if float(np.abs(droots).min()) <= 1.0 + 1e-3:
            use_exact = False
    if use_exact:
        lead = complex(f.numerator[-1])
        exact_scale = (
            abs(lead) * float(np.prod(np.abs(outside)))
        ) / abs(complex(f.denominator[0]))
        exact_out = outside
        exact_den = droots
    pair = InnerOuterPair(1.0 + 0j, inside, logmod, exact_out, exact_den, exact_scale)

    constant = None
    for probe, numer in zip(_PROBES, interior[: _PROBES.size]):
        probe, numer = complex(probe), complex(numer)
        denom = complex(blaschke_eval(inside, 1.0, probe) * pair.outer_eval(probe))
        if abs(denom) > 1e-10 and abs(numer) > 1e-12 * max(1.0, float(np.abs(fvals).max())):
            constant = numer / denom
            break
    if constant is None:
        raise ValueError("could not anchor the unimodular constant at any probe point")
    constant = constant / abs(constant)
    pair = InnerOuterPair(constant, inside, logmod, exact_out, exact_den, exact_scale)

    err = float(np.abs(pair.eval(_CHECK) - interior[_PROBES.size :]).max())
    scale = max(1.0, float(np.abs(fvals).max()))
    if err > tol * scale:
        raise ValueError(
            f"inner-outer reconstruction error {err:.3e} exceeds tol * scale = "
            f"{tol * scale:.3e}; boundary quadrature is likely under-resolved"
        )
    return pair

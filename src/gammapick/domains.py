"""Structured singular values for block-scalar scaling structures and the
coordinate maps / membership tests of the associated mu-unit-ball domains.

The scaling structures handled here are sets of block diagonal matrices
``diag(z_1 I_{r_1}, ..., z_s I_{r_s})`` with complex scalars ``z_i``: ``F``
blocks of size 1 and ``S`` repeated scalar blocks of size 2 or more.

``mu`` is computed as a certified bracket (:func:`mu_bound`):

- Upper bound: ``sigma_max(D A D^-1) >= mu`` for every invertible ``D`` that
  commutes with the structure, i.e. ``D = diag(L_1, ..., L_s)`` with ``L_i``
  an ``r_i x r_i`` block.  Lower triangular blocks with a positive diagonal
  reach every such ``sigma_max``, and ``D[0, 0] = 1`` fixes the scale, so
  E(3;3;1,1,1) has 2 real parameters, E(3;2;1,2) has 4 and E(2;2;1,1) has 1.
  A BFGS descent from ``D = I`` lowers the bound.  Each evaluation makes one
  ``n x n`` SVD (the first, at ``D = I``, also gives the operator norm that
  ``a`` is divided by) and each accepted step one ``eigvals`` for the lower
  bound; nothing else in the loop calls LAPACK.  ``D a D^-1`` is an
  entrywise rescaling of ``a`` for a diagonal ``D``; for a block-triangular
  ``D`` its inverse is a finite series in the nilpotent part.  The index
  sets these read (free entries, block map, block starts) form a plan built once
  per structure.
- Lower bound: ``rho(A Q) <= mu`` for every unitary ``Q`` of the structure.
  Each iterate's top singular pair ``(u, v)`` proposes the block phases
  ``arg<u_B, v_B>``; at a smooth minimizer this ``Q`` attains the upper bound.
  Where the descent ends with the bracket open, a nested sweep of the block
  phases raises the lower end: a torus grid, then grids that halve around
  the best point so far, each one stacked ``eigvals``.
- For ``2S + F <= 3`` the D-scaling bound is exact: ``mu = inf_D
  sigma_max(D A D^-1)`` (Doyle 1982; Packard and Doyle, "The complex
  structured singular value", Automatica 29, 1993).  Both 3x3 structures
  qualify, so there ``mu`` is the upper end of the bracket even when the
  lower end stays open, as it can where ``sigma_max`` is a double singular
  value at the minimizer (common for real matrices) and the sweep stops
  short of the upper end.  There the descent can also stall above the
  infimum, so the upper end is then a valid bound that overstates mu (on
  E(3;2;1,2), by 5e-5 relative for ``default_rng(443).standard_normal((3,
  3))``).  For other structures ``mu`` returns a value only once the
  bracket has closed.
- ``mu = 0`` exactly when every coefficient of ``det(I - A Delta)`` as a
  polynomial in the block scalars vanishes; that is tested first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Literal

import numpy as np

from .linalg import as_cmatrix
from .tolerances import BRACKET_RTOL, MEMBER_TOL

__all__ = [
    "BlockStructure",
    "GammaPoint",
    "MuBound",
    "MuValue",
    "mu",
    "mu_bound",
    "pi_coordinates",
    "in_gamma",
    "tetrablock_member",
]

# Descent steps after which the D-scaling search counts as stalled.
_MAX_STEPS = 200
# Armijo sufficient-decrease constant, and the step below which backtracking
# gives up.
_ARMIJO = 1e-4
_MIN_STEP = 1e-12
# Matrices in the first stacked eigvals of the phase sweep of an open
# bracket, and the phase cell below which the sweep stops.
_SWEEP_POINTS = 576
_SWEEP_FLOOR = 1e-10
# Box on the scaling parameters.  Where the optimal D lies at infinity
# (reducible matrices) the descent stops at the box edge, where D A D^-1 is
# still finite and the entries that vanish in the limit are down by about
# exp(-40): negligible unless the entries of A span tens of orders of
# magnitude.
_SCALING_BOX = 40.0


@dataclass(frozen=True)
class BlockStructure:
    """Scaling structure ``diag(z_1 I_{r_1}, ..., z_s I_{r_s})`` inside C^{n x n}."""

    n: int
    s: int
    r: tuple[int, ...]

    def __post_init__(self):
        if self.s != len(self.r):
            raise ValueError("block count s must match len(r)")
        if any(ri < 1 for ri in self.r):
            raise ValueError("block sizes must be positive")
        if sum(self.r) != self.n:
            raise ValueError("block sizes must sum to the ambient dimension n")

    @classmethod
    def parse(cls, text: str) -> "BlockStructure":
        """Parse ``"E(3;3;1,1,1)"`` style labels."""
        t = text.strip() if isinstance(text, str) else ""
        if not (t.startswith("E(") and t.endswith(")")):
            raise ValueError(f"cannot parse structure label {text!r}")
        parts = t[2:-1].split(";")
        if len(parts) != 3:
            raise ValueError(f"cannot parse structure label {text!r}")
        n = int(parts[0])
        s = int(parts[1])
        r = tuple(int(p) for p in parts[2].split(","))
        return cls(n, s, r)

    @property
    def d_scaling_exact(self) -> bool:
        """Whether mu equals its D-scaling upper bound: ``2S + F <= 3`` with
        ``S`` repeated scalar blocks and ``F`` blocks of size 1."""
        repeated = sum(ri > 1 for ri in self.r)
        return 2 * repeated + (self.s - repeated) <= 3

    def label(self) -> str:
        return f"E({self.n};{self.s};{','.join(str(ri) for ri in self.r)})"


E311 = BlockStructure(3, 3, (1, 1, 1))
E312 = BlockStructure(3, 2, (1, 2))
E211 = BlockStructure(2, 2, (1, 1))


@dataclass(frozen=True)
class MuBound:
    """A certified bracket ``lower <= mu <= upper``.

    ``upper`` is ``sigma_max(D A D^-1)`` at a computed scaling ``D`` and
    ``lower`` is ``rho(A Q)`` at a computed unitary ``Q`` of the structure.
    """

    lower: float
    upper: float

    @property
    def closed(self) -> bool:
        """Whether the gap is at most ``BRACKET_RTOL`` times the upper end."""
        return self.upper - self.lower <= BRACKET_RTOL * self.upper


class MuValue(float):
    """The value of ``mu``, carrying the bracket that certifies it as ``.bracket``."""

    bracket: MuBound

    def __new__(cls, bracket: MuBound):
        value = super().__new__(cls, bracket.upper)
        value.bracket = bracket
        return value

    def __getnewargs__(self):
        return (self.bracket,)


@dataclass(frozen=True)
class GammaPoint:
    """A coordinate tuple in one of the supported gamma domains."""

    variant: Literal["gamma7", "gamma5", "gamma3"]
    entries: tuple[complex, ...]

    _SIZES = {"gamma7": 7, "gamma5": 5, "gamma3": 3}

    def __post_init__(self):
        if self.variant not in self._SIZES:
            raise ValueError(f"unknown gamma variant {self.variant!r}")
        if len(self.entries) != self._SIZES[self.variant]:
            raise ValueError(
                f"{self.variant} needs {self._SIZES[self.variant]} entries, "
                f"got {len(self.entries)}"
            )
        entries = tuple(complex(e) for e in self.entries)
        if not np.all(np.isfinite(entries)):
            raise ValueError(f"{self.variant} entries must be finite")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The index sets of one structure that ``mu_bound`` reads on every step.

    The free entries of ``D = diag(L_1, ..., L_s)``, each ``L_i`` lower
    triangular, are ``(rows[m], cols[m])``: first its diagonal entries other
    than the first (``D[0, 0] = 1`` fixes the scale), then the entries
    strictly below the diagonal inside each block.  The strictly lower part
    of ``D`` vanishes at its ``depth + 1``-th power (the largest block size);
    ``eye`` is the n x n identity.  ``block`` is the block of each position
    and ``starts`` the first position of each block.
    """

    rows: np.ndarray
    cols: np.ndarray
    depth: int
    eye: np.ndarray
    block: np.ndarray
    starts: np.ndarray


@functools.cache
def _plan(structure: BlockStructure) -> _Plan:
    """The plan of ``structure``, built once per distinct structure."""
    starts = np.concatenate(([0], np.cumsum(structure.r)[:-1]))
    free = [(j, j) for j in range(1, structure.n)]
    for start, size in zip(starts.tolist(), structure.r):
        for j in range(start, start + size):
            free.extend((j, k) for k in range(start, j))
    rows, cols = np.array(free, dtype=int).reshape(-1, 2).T
    plan = _Plan(
        rows=rows,
        cols=cols,
        depth=max(structure.r) - 1,
        eye=np.eye(structure.n),
        block=np.repeat(np.arange(structure.s), structure.r),
        starts=starts,
    )
    # every mu_bound call on the structure shares these arrays
    for array in vars(plan).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return plan


def _char_coeffs(a: np.ndarray, structure: BlockStructure) -> dict:
    """Non-constant coefficients of ``det(I - a diag(z_1 I_{r_1}, ...))``.

    Up to its sign, the coefficient of ``z_1^{k_1} ... z_s^{k_s}`` is the sum
    of the principal minors of ``a`` whose index set takes ``k_i`` indices
    from block ``i``.  The key of a coefficient lists the blocks of such an
    index set in order, e.g. ``(0, 1, 1)`` for ``z_1 z_2^2``.
    """
    n = structure.n
    block = np.repeat(np.arange(structure.s), structure.r)
    coeffs: dict = {}
    for size in range(1, n + 1):
        rows = np.array(list(combinations(range(n), size)))
        minors = np.linalg.det(a[rows[:, :, None], rows[:, None, :]])
        for key, minor in zip(map(tuple, block[rows].tolist()), minors.tolist()):
            coeffs[key] = coeffs.get(key, 0.0) + minor
    return coeffs


def _scaled(a: np.ndarray, x: np.ndarray, plan: _Plan):
    """``D a D^-1`` for the scaling ``D`` with parameters ``x``, with the
    diagonal ``delta`` of ``D`` and ``(I + N)^-1`` (None for a diagonal ``D``).

    ``x`` holds the logarithms of the free diagonal entries of ``D``, then the
    real parts and the imaginary parts of its free lower entries.  With
    ``Delta = diag(delta)``, ``D = Delta (I + N)`` where ``N = Delta^-1 (D -
    Delta)`` is nilpotent, so ``(I + N)^-1 = I - N + N^2 - ...`` stops at
    ``N^depth``, and ``D a D^-1`` is ``(I + N) a (I + N)^-1`` times
    ``delta_j / delta_k`` entry by entry.
    """
    nd = a.shape[0] - 1
    nl = plan.rows.size - nd
    delta = np.empty(nd + 1)
    delta[0] = 1.0
    np.exp(x[:nd], out=delta[1:])
    unit_inv = None
    if nl:
        nil = np.zeros(a.shape, dtype=complex)
        rows, cols = plan.rows[nd:], plan.cols[nd:]
        nil[rows, cols] = (x[nd : nd + nl] + 1j * x[nd + nl :]) / delta[rows]
        # I - N (I - N (I - ...)), with depth factors N
        unit_inv = plan.eye - nil
        for _ in range(plan.depth - 1):
            unit_inv = plan.eye - nil @ unit_inv
        a = (a + nil @ a) @ unit_inv
    return a * (delta[:, None] / delta), delta, unit_inv


def _scaled_sigma(a: np.ndarray, x: np.ndarray, plan: _Plan):
    """``sigma_max(D a D^-1)``, its gradient in ``x``, and the top singular pair.

    With ``M v = sigma u`` and ``E_p = (dD/dp) D^-1`` the gradient is
    ``d sigma / dp = sigma Re(u* E_p u - v* E_p v)``, taken only at the free
    entries of ``D`` (see :func:`_scaled`); for a diagonal ``D`` it is
    ``sigma (|u_j|^2 - |v_j|^2)``.
    """
    m, delta, unit_inv = _scaled(a, x, plan)
    left, sv, right_h = np.linalg.svd(m)
    sigma = float(sv[0])
    u, v = left[:, 0], right_h[0].conj()
    if unit_inv is None:
        ud, vd = u[1:], v[1:]
        return sigma, sigma * ((ud.real**2 + ud.imag**2) - (vd.real**2 + vd.imag**2)), u, v
    # entry (j, k) of u* E_p u - v* E_p v: conj(u_j) (D^-1 u)_k - conj(v_j) (D^-1 v)_k
    d_inv_u, d_inv_v = unit_inv @ (u / delta), unit_inv @ (v / delta)
    g = (
        u[plan.rows].conj() * d_inv_u[plan.cols]
        - v[plan.rows].conj() * d_inv_v[plan.cols]
    )
    nd = delta.size - 1
    g[:nd] *= delta[1:]
    return sigma, sigma * np.concatenate((g[:nd].real, g[nd:].real, -g[nd:].imag)), u, v


def _aligned_phases(u: np.ndarray, v: np.ndarray, plan: _Plan) -> np.ndarray:
    """Phases of the unitary ``Q`` with ``Q_B = arg<u_B, v_B>`` on each block,
    relative to the first block (whose phase is 0).

    ``Q`` turns ``u`` towards ``v`` block by block; where ``|u_B| = |v_B|``
    and ``u_B`` is parallel to ``v_B`` for every block, ``M Q u = sigma u``
    and ``rho(a Q)`` reaches the upper bound.
    """
    theta = np.angle(np.add.reduceat(u.conj() * v, plan.starts))
    return theta - theta[0]


def _rho_exact(a: np.ndarray, phases: np.ndarray, plan: _Plan) -> float:
    """LAPACK spectral radius of ``a Q`` for the block phases ``phases``."""
    return float(np.abs(np.linalg.eigvals(a * np.exp(1j * phases)[plan.block])).max())


def _sweep(a: np.ndarray, phases: np.ndarray, low: float, upper: float, plan: _Plan) -> float:
    """Largest ``rho(a Q)`` found by a nested sweep of the free phases (all
    but the first block's), from ``phases``, where ``rho(a Q) = low``.

    The first level is a torus grid from ``phases`` with up to 24 points per
    free phase and at most ``_SWEEP_POINTS`` in all.  Each later level is a
    grid over ``+-2`` cells around the best point so far, with up to 7 points
    per phase and at most a quarter of ``_SWEEP_POINTS`` in all, and the cell
    halves.  Each level is one stacked ``eigvals``.  The sweep stops once the
    bracket closes or the cell is below ``_SWEEP_FLOOR``.
    """
    free = phases.size - 1
    side = max(m for m in range(1, 25) if m**free <= _SWEEP_POINTS)
    step = max(m for m in range(1, 8) if m**free <= _SWEEP_POINTS // 4)
    cell = 2.0 * np.pi / side
    offsets = cell * np.arange(side)
    while upper - low > BRACKET_RTOL * upper and cell > _SWEEP_FLOOR:
        grid = np.stack(np.meshgrid(*[offsets] * free, indexing="ij"), axis=-1)
        points = phases + np.pad(grid.reshape(-1, free), ((0, 0), (1, 0)))
        rho = np.abs(np.linalg.eigvals(a * np.exp(1j * points)[:, None, plan.block])).max(axis=1)
        best = int(np.argmax(rho))
        if rho[best] > low:
            low, phases = float(rho[best]), points[best]
        offsets = np.linspace(-2.0 * cell, 2.0 * cell, step)
        cell /= 2.0
    return low


def mu_bound(a, structure: BlockStructure) -> MuBound:
    """Certified bracket ``lower <= mu(a) <= upper``.

    The upper bound is ``sigma_max(D a D^-1)`` after a BFGS descent with
    Armijo backtracking over the scalings ``D`` that commute with the
    structure, started at ``D = I``.  The lower bound is the largest
    ``rho(a Q)`` over the unitaries ``Q`` of the structure that the top
    singular pair of each iterate aligns (:func:`_aligned_phases`).  The
    descent stops once the gap is below ``BRACKET_RTOL`` times the upper
    bound, or when no step decreases ``sigma_max``.  If the gap is still open,
    a nested sweep from the phases of the best ``Q`` raises the lower bound
    (:func:`_sweep`).

    ``a`` is divided by its operator norm first, so the bracket of ``c a``
    is ``|c|`` times that of ``a`` up to roundoff.

    Where ``sigma_max`` is a double singular value the descent can stall
    above the infimum of the D-scaling bound, with the bracket left open:
    ``upper`` is still an upper bound on mu, but not the infimum (by 5e-5
    relative at worst over 600 real Gaussian 3x3 matrices on E(3;2;1,2)).

    Raises ``ValueError`` when mu is above the largest float, so that the
    bracket would not be finite.
    """
    a = as_cmatrix(a)
    if a.shape != (structure.n, structure.n):
        raise ValueError(
            f"matrix shape {a.shape} does not match structure dimension {structure.n}"
        )
    if structure.s == 1:
        rho = float(np.abs(np.linalg.eigvals(a)).max())
        return _finite_bound(rho, rho)
    # divide by the largest entry first, so that no minor or norm of a tiny
    # matrix underflows
    peak = float(np.abs(a).max())
    if peak == 0.0:
        return MuBound(0.0, 0.0)
    lift = 1.0
    if peak < np.finfo(float).tiny:
        # a / peak overflows at a subnormal peak: lift a by an exact power of two
        lift = 2.0**600
        a, peak = a * lift, peak * lift
    a = a / peak
    plan = _plan(structure)
    # mu = 0 exactly when det(I - a Delta) = 1 for every Delta in the structure
    if all(c == 0 for c in _char_coeffs(a, structure).values()):
        return MuBound(0.0, 0.0)
    x = np.zeros(2 * plan.rows.size - (structure.n - 1))
    # at D = I the top singular value is the operator norm: divide by it
    norm, grad, u, v = _scaled_sigma(a, x, plan)
    a = a / norm
    upper, grad = 1.0, grad / norm
    scale = peak * norm / lift
    phases = _aligned_phases(u, v, plan)
    low = _rho_exact(a, phases, plan)
    hess_inv = np.eye(x.size)
    for _ in range(_MAX_STEPS):
        if upper - low <= BRACKET_RTOL * upper:
            break
        step = -(hess_inv @ grad)
        slope = grad @ step
        if slope >= 0.0:
            # the quasi-Newton model lost descent: restart from the gradient
            hess_inv = np.eye(x.size)
            step, slope = -grad, -(grad @ grad)
        t = 1.0
        while True:
            x_new = np.minimum(np.maximum(x + t * step, -_SCALING_BOX), _SCALING_BOX)
            f_new, g_new, u, v = _scaled_sigma(a, x_new, plan)
            if f_new <= upper + _ARMIJO * t * slope or t < _MIN_STEP:
                break
            t *= 0.5
        if not f_new < upper:
            break
        s, y = x_new - x, g_new - grad
        sy = s @ y
        if sy > 0.0:
            # BFGS, H <- (I - s y^T / sy) H (I - y s^T / sy) + s s^T / sy, as the
            # rank-two update H + (1 + y^T w) / sy s s^T - s w^T - w s^T, w = H y / sy
            w = hess_inv @ y / sy
            sw = np.multiply.outer(s, w)
            hess_inv = hess_inv + (1.0 + y @ w) / sy * np.multiply.outer(s, s) - (sw + sw.T)
        x, upper, grad = x_new, f_new, g_new
        candidate = _aligned_phases(u, v, plan)
        val = _rho_exact(a, candidate, plan)
        if val > low:
            low, phases = val, candidate
    if upper - low > BRACKET_RTOL * upper:
        low = _sweep(a, phases, low, upper, plan)
    # rho(a Q) <= sigma_max(D a D^-1) holds exactly; drop the roundoff excess
    low = min(low, upper)
    return _finite_bound(low * scale, upper * scale)


def _finite_bound(lower: float, upper: float) -> MuBound:
    """The bracket ``[lower, upper]``, refused when it is not finite."""
    if not np.isfinite(upper):
        raise ValueError(f"mu overflows: its bracket [{lower!r}, {upper!r}] is not finite")
    return MuBound(lower, upper)


def mu(a, structure: BlockStructure) -> MuValue:
    """Structured singular value of ``a`` with respect to ``structure``.

    Parameters
    ----------
    a : array_like
        Square complex matrix of the structure's ambient dimension.
    structure : BlockStructure
        Block-scalar scaling structure.

    Returns
    -------
    MuValue
        The upper end of :func:`mu_bound`, carrying the bracket as
        ``.bracket``.  mu is ``1 / inf{||X||: det(I - aX) = 0}`` over the
        structured ``X`` (0 when no such ``X`` makes ``I - aX`` singular).
        When the structure has ``2S + F <= 3``
        (``BlockStructure.d_scaling_exact``) it is the infimum of the
        D-scaling bound, so the upper end is mu up to ``BRACKET_RTOL``
        whenever the bracket closed.  With the bracket open it is an upper
        bound that can overstate mu: where ``sigma_max`` is double the
        descent can stall above the infimum (see :func:`mu_bound`).

    Raises
    ------
    ValueError
        For a structure with ``2S + F > 3`` whose bracket did not close; the
        message gives the gap.  For a bracket that is not finite.
    """
    bracket = mu_bound(a, structure)
    if not (structure.d_scaling_exact or bracket.closed):
        raise ValueError(
            f"mu bracket [{bracket.lower!r}, {bracket.upper!r}] did not close "
            f"(gap {bracket.upper - bracket.lower:.3e}), and for "
            f"{structure.label()} (2S + F > 3) the D-scaling bound need not be mu"
        )
    return MuValue(bracket)


def pi_coordinates(a, variant: str) -> GammaPoint:
    """Coordinate tuple of a matrix in the requested gamma domain.

    ``gamma7`` / ``gamma5`` take a 3x3 matrix, ``gamma3`` a 2x2 matrix.
    ``gamma5`` packs the invariants of the structure with a repeated lower
    block: ``(a11, m12 + m13, det, a22 + a33, m23)`` where ``m_ij`` are the
    principal 2x2 minors.
    """
    a = as_cmatrix(a)
    if variant == "gamma3":
        if a.shape != (2, 2):
            raise ValueError("gamma3 coordinates need a 2x2 matrix")
        return GammaPoint("gamma3", (a[0, 0], a[1, 1], complex(np.linalg.det(a))))
    if a.shape != (3, 3):
        raise ValueError(f"{variant} coordinates need a 3x3 matrix")
    m12 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    m13 = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    m23 = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    det = complex(np.linalg.det(a))
    if variant == "gamma7":
        return GammaPoint(
            "gamma7", (a[0, 0], a[1, 1], m12, a[2, 2], m13, m23, det)
        )
    if variant == "gamma5":
        return GammaPoint("gamma5", (a[0, 0], m12 + m13, det, a[1, 1] + a[2, 2], m23))
    raise ValueError(f"unknown gamma variant {variant!r}")


def in_gamma(a, structure: BlockStructure, tol: float = MEMBER_TOL) -> bool:
    """Whether ``a`` lies in the closed mu-unit ball for ``structure``.

    Membership is ``mu(a) <= 1 + tol``; points within ``tol`` of the boundary
    therefore count as members.  Pass a negative ``tol`` to test the open
    ball up to numerical slack.
    """
    return mu(a, structure) <= 1.0 + tol


def tetrablock_member(x, tol: float = MEMBER_TOL) -> bool:
    """Closed-form membership test for the closed tetrablock.

    ``x`` is a gamma3 point ``(x1, x2, x3)``.  The test is
    ``|x1 - conj(x2) x3| + |x2 - conj(x1) x3| <= 1 - |x3|^2`` together with
    ``|x3| <= 1``, slackened by ``tol``.
    """
    if isinstance(x, GammaPoint):
        if x.variant != "gamma3":
            raise ValueError("tetrablock_member expects gamma3 coordinates")
        x1, x2, x3 = x.entries
    else:
        x1, x2, x3 = (complex(v) for v in x)
    if abs(x3) > 1.0 + tol:
        return False
    lhs = abs(x1 - np.conj(x2) * x3) + abs(x2 - np.conj(x1) * x3)
    return bool(lhs <= 1.0 - abs(x3) ** 2 + tol)

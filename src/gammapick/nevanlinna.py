"""Matricial Nevanlinna-Pick interpolation and the slice reductions that turn
analytic interpolation in the 7- and 5-coordinate gamma domains into 2x2 Pick
problems.

The slice of a 7-coordinate tuple ``x`` at a disc parameter ``z`` is the
triple ``(x1 - z x3, x4 - z x6, x5 - z x7) / (1 - z x2)``, which collects the
diagonal entries and determinant of a 2x2 Schur-class function; the analytic
square-root split of ``f11 f22 - det`` reconstructs its off-diagonal part.
For the 5-coordinate domain the corresponding slices are
``(2 x1 - z x2, x4 - 2 z x5, x2 - 2 z x3) / (2 - z x4)`` in the coordinate
order ``(a11, m12 + m13, det, a22 + a33, m23)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .domains import GammaPoint
from .hardy import (
    INTERIOR,
    POLY_NOISE,
    SAMPLES,
    InnerOuterPair,
    RationalFunction,
    boundary_nodes,
    check_n_boundary,
    inner_outer,
    node_step,
)
from .linalg import (
    STATE_CUTOFF,
    GramInconsistencyError,
    Spectrum,
    as_cmatrix,
    extend_isometry,
    operator_norms,
)
from .realization import RealizedSchurFunction

__all__ = [
    "UnsolvablePickError",
    "PickData",
    "PickInterpolant",
    "GammaCurve",
    "GammaNodes",
    "SlicedSchur2x2",
    "CertificationReport",
    "DEFAULT_Z_GRID",
    "pick_matrix",
    "np_solve",
    "sample_curve",
    "gamma_curve_from_entries",
    "slice_coordinates",
    "psi3_eval",
    "psi_lower3_eval",
    "build_slice_schur",
    "reduce_gamma7",
    "reduce_gamma5",
    "certify_gamma7_interpolation",
    "certify_gamma5_interpolation",
]

DEFAULT_Z_GRID = (
    0.0 + 0j,
    0.3 + 0j,
    -0.3 + 0j,
    0.3j,
    -0.3j,
    0.6 + 0j,
    -0.6 + 0j,
    0.6j,
    -0.6j,
)


class UnsolvablePickError(ValueError):
    """The Pick matrix of an interpolation problem is indefinite."""

    def __init__(self, message: str, min_eig: float):
        super().__init__(message)
        self.min_eig = min_eig


def _disc_nodes(values) -> tuple[complex, ...]:
    """``values`` as complex nodes, checked pairwise distinct and in the open disc
    (so not NaN)."""
    nodes = tuple(complex(v) for v in values)
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    if not all(abs(v) < 1.0 for v in nodes):
        raise ValueError("nodes must lie in the open unit disc")
    return nodes


@dataclass(frozen=True)
class PickData:
    """Nodes in the open disc with square matrix targets of a common size."""

    nodes: tuple[complex, ...]
    targets: tuple[np.ndarray, ...]

    def __post_init__(self):
        nodes = _disc_nodes(self.nodes)
        if not nodes:
            raise ValueError("need at least one node")
        mats = tuple(np.atleast_2d(as_cmatrix(np.atleast_2d(t))) for t in self.targets)
        if len(mats) != len(nodes):
            raise ValueError("need one target per node")
        k = mats[0].shape[0]
        if any(m.shape != (k, k) for m in mats):
            raise ValueError("targets must be square matrices of a common size")
        if k == 0:
            raise ValueError("targets must be at least 1x1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", mats)

    @property
    def k(self) -> int:
        return self.targets[0].shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        """Spectrum of the Pick matrix, computed once: do not modify the targets."""
        return Spectrum(pick_matrix(self))


def _targets(problems: Sequence[PickData]):
    """Targets of problems of one shape, ``(b, n, k, k)``, and the rows
    ``(W_1, ..., W_n)`` of each problem, ``(b, k, n k)``."""
    targets = np.array([data.targets for data in problems])
    b, n, k, _ = targets.shape
    return targets, targets.transpose(0, 2, 1, 3).reshape(b, k, n * k)


def pick_matrix(data: PickData) -> np.ndarray:
    """Block matrix ``(I - W_i* W_j) / (1 - conj(lam_i) lam_j)``."""
    return _pick_matrices([data])[0]


def _pick_matrices(problems: Sequence[PickData]) -> np.ndarray:
    """The Pick matrices of problems with one node count and target size,
    from one stacked expression.  Targets far outside the unit ball overflow
    it, silently: the solver reports such a problem as unsolvable."""
    n, k = len(problems[0].nodes), problems[0].k
    _, w = _targets(problems)
    lam = np.repeat(np.array([data.nodes for data in problems]), k, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.tile(np.eye(k, dtype=complex), (n, n)) - w.conj().swapaxes(1, 2) @ w) / (
            1.0 - np.conj(lam)[:, :, None] * lam[:, None, :]
        )


@dataclass(frozen=True)
class PickInterpolant(RealizedSchurFunction):
    """Schur function that solves a Pick problem, with its largest target
    miss ``max_j ||F(lam_j) - W_j||`` (operator norm) as measured by
    :func:`np_solve`.  Its colligation comes from ``extend_isometry``,
    unitary by construction, and is certified by its Gram defect."""

    target_residual: float = float("nan")


def np_solve(data: PickData, tol: float = 1e-9) -> PickInterpolant:
    """Solve a solvable matricial Nevanlinna-Pick problem by isometry extension.

    This is :func:`_solve_many` on the one problem ``[data]``.

    Parameters
    ----------
    data : PickData
        Interpolation nodes and matrix targets.
    tol : float
        Relative slack for the Pick positivity test.

    Returns
    -------
    PickInterpolant
        A Schur function with ``F(lam_j) = W_j`` to 1e-8, carrying that
        residual; its state dimension is at most ``k * len(nodes)``.  Its
        colligation is unitary by construction and certified by its Gram
        defect, with no SVD.

    Raises
    ------
    OverflowError
        When the Pick matrix overflows, which only targets of norm far above
        1 make it do: the problem is unsolvable.
    UnsolvablePickError
        When the Pick matrix is indefinite beyond ``tol``.
    GramInconsistencyError
        When the two families of the lurking isometry do not share their Gram
        matrix to within ``10 max(tol, 1e-9) max(1, top eigenvalue)``.
    ArithmeticError
        When the interpolant misses a target by more than 1e-8.
    """
    (outcome,) = _solve_many([data], tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _solve_many(problems: Sequence[PickData], tol: float) -> list:
    """Solve Pick problems together by the lurking-isometry construction.

    Each problem gets the :class:`PickInterpolant` or the exception that
    :func:`np_solve` gives it, as one list entry: the same checks in the same
    order, and no check twice.  The Pick spectra come from one stacked
    ``eigh`` per node count and target size, and fill each problem's cached
    ``spectrum`` (one already cached is read).  The problems that pass the
    positivity test then go by their shape ``(n, k, r)``, with ``r`` the rank
    of the Pick factor at ``STATE_CUTOFF`` (see :func:`_solve_shape`).
    """
    out: list = [None] * len(problems)
    fresh = [i for i, data in enumerate(problems) if "spectrum" not in vars(data)]
    for idx in _groups(fresh, lambda i: (len(problems[i].nodes), problems[i].k)):
        mats = _pick_matrices([problems[i] for i in idx])
        finite = np.isfinite(mats).all(axis=(1, 2))
        for i, spec in zip(np.compress(finite, idx), Spectrum.many(mats[finite])):
            object.__setattr__(problems[i], "spectrum", spec)  # fills the cached property
        for i in np.compress(~finite, idx):
            out[i] = OverflowError(
                "Pick matrix overflows: a target has norm far above 1, so the problem "
                "is unsolvable"
            )
    factors = {}
    for i, data in enumerate(problems):
        if out[i] is None:
            spec = data.spectrum
            if spec.is_psd(tol):
                factors[i] = spec.factor(STATE_CUTOFF)
            else:
                out[i] = UnsolvablePickError(
                    f"Pick matrix is indefinite: min eigenvalue {spec.min:.6e}", spec.min
                )
    shape = lambda i: (len(problems[i].nodes), problems[i].k, factors[i].shape[1])
    for idx in _groups(factors, shape):
        outcomes = _solve_shape([problems[i] for i in idx], np.stack([factors[i] for i in idx]), tol)
        for i, outcome in zip(idx, outcomes):
            out[i] = outcome
    return out


def _groups(indices, key) -> list[list[int]]:
    """``indices`` grouped by ``key``, in order within each group."""
    groups: dict = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())


def _solve_shape(problems: Sequence[PickData], factors: np.ndarray, tol: float) -> list:
    """The outcomes of positive problems of one shape ``(n, k, r)`` with Pick
    factors ``factors``, shape ``(b, n k, r)``.

    One stacked Gram defect, one stacked Procrustes SVD, one colligation
    certificate, one stacked solve for the values ``F(lam_j)`` and one
    stacked SVD norm of the misses, each step on the problems the checks
    before it passed.  Every stacked step gives each problem what it gives
    that problem alone, to the last bit.
    """
    n, k, r = len(problems[0].nodes), problems[0].k, factors.shape[2]
    out: list = [None] * len(problems)
    lam = np.array([data.nodes for data in problems])
    targets, w = _targets(problems)
    # column block j is (I, lam_j h_j*) on the right and (W_j, h_j*) on the
    # left, with h_j the j-th block of k rows of a factor
    lh = factors.conj().swapaxes(1, 2)
    eyes = np.broadcast_to(np.tile(np.eye(k, dtype=complex), n), (len(problems), k, n * k))
    right = np.concatenate([eyes, np.repeat(lam, k, axis=1)[:, None, :] * lh], axis=1)
    left = np.concatenate([w, lh], axis=1)

    defects = np.abs(
        right.conj().swapaxes(1, 2) @ right - left.conj().swapaxes(1, 2) @ left
    ).max(axis=(1, 2))
    tops = np.array([data.spectrum.top for data in problems])
    consistent = ~(defects > max(tol, 1e-9) * np.maximum(1.0, tops) * 10)
    for b in np.flatnonzero(~consistent):
        out[b] = GramInconsistencyError(
            f"interpolation Gram defect {defects[b]:.3e}; data are numerically inconsistent"
        )
    live = np.flatnonzero(consistent)
    vs = extend_isometry(right[live], left[live])
    contractive = []
    for b, v, error in zip(live, vs, PickInterpolant.check_colligations(vs)):
        out[b] = error or PickInterpolant.from_checked(v, k, r)
        contractive.append(error is None)
    live, vs = live[contractive], vs[contractive]

    blocks = vs[:, :k, :k], vs[:, :k, k:], vs[:, k:, :k], vs[:, k:, k:]
    vals = PickInterpolant.values_of(*blocks, lam[live])
    # the SVD norm, so the residual is the largest miss to the last bit
    worst = np.linalg.norm(vals - targets[live], 2, axis=(2, 3)).max(axis=1)
    for b, miss in zip(live, worst):
        if miss > 1e-8:
            out[b] = ArithmeticError(f"constructed interpolant misses a target by {miss:.3e}")
        else:
            # recorded on the frozen result before it leaves the solver
            object.__setattr__(out[b], "target_residual", float(miss))
    return out


# ---------------------------------------------------------------------------
# gamma-domain data carriers


@dataclass(frozen=True)
class GammaCurve:
    """Analytic map into a gamma domain with rational coordinate functions."""

    variant: str
    components: tuple[RationalFunction, ...]

    def __post_init__(self):
        sizes = {"gamma7": 7, "gamma5": 5}
        if self.variant not in sizes:
            raise ValueError(f"unsupported curve variant {self.variant!r}")
        comps = tuple(self.components)
        if len(comps) != sizes[self.variant]:
            raise ValueError(f"{self.variant} curve needs {sizes[self.variant]} components")
        if not all(isinstance(c, RationalFunction) for c in comps):
            raise ValueError("curve components must be RationalFunction instances")
        object.__setattr__(self, "components", comps)

    @cached_property
    def shared_numerators(self):
        """The components over one denominator, ``(numerators, denominator)``
        (see ``_shared_numerators``)."""
        return _shared_numerators(self.components)

    @cached_property
    def rows(self) -> np.ndarray:
        """Homogeneous coordinate rows: the shared denominator, then the
        numerators, zero-padded to one length."""
        nums, big = self.shared_numerators
        h = np.zeros((1 + len(nums), max(c.size for c in (big, *nums))), dtype=complex)
        for row, c in zip(h, (big, *nums)):
            row[: c.size] = c
        return h

    @cached_property
    def row_values(self) -> np.ndarray:
        """``rows`` at ``_CURVE_POINTS``, evaluated once: each slice reads its
        values from these (see ``_curve_slice``)."""
        h = self.rows
        out = np.empty((h.shape[0], _CURVE_POINTS.size), dtype=complex)
        out[:] = h[:, -1:]
        # Horner's rule in place, as npoly.polyval computes it but with no
        # (rows, points) temporary per step
        for col in h.T[-2::-1]:
            out *= _CURVE_POINTS
            out += col[:, None]
        return out

    @cached_property
    def _read_rows(self) -> dict:
        """``row_values`` where slices read them, by node step (see ``_read_values``)."""
        return {}

    def point_at(self, lam: complex) -> GammaPoint:
        return GammaPoint(self.variant, tuple(complex(c(lam)) for c in self.components))


@dataclass(frozen=True)
class GammaNodes:
    """Finitely many interpolation nodes with gamma-domain coordinate targets."""

    variant: str
    nodes: tuple[complex, ...]
    points: tuple[GammaPoint, ...]

    def __post_init__(self):
        if self.variant not in ("gamma7", "gamma5"):
            raise ValueError(f"unsupported variant {self.variant!r}")
        nodes = _disc_nodes(self.nodes)
        if not nodes:
            raise ValueError("need at least one node")
        pts = tuple(self.points)
        if len(pts) != len(nodes):
            raise ValueError("need one coordinate point per node")
        if any(p.variant != self.variant for p in pts):
            raise ValueError("coordinate points must match the data variant")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "points", pts)


def sample_curve(curve: GammaCurve, nodes: Sequence[complex]) -> GammaNodes:
    """Evaluate a curve at finitely many nodes."""
    nodes = _disc_nodes(nodes)
    return GammaNodes(curve.variant, nodes, tuple(curve.point_at(v) for v in nodes))


def _scalar_ratio(den: np.ndarray, base: np.ndarray):
    """``den / base`` when ``den`` is a scalar multiple of ``base``, else None."""
    if den.size != base.size:
        return None
    anchor = int(np.argmax(np.abs(base)))
    ratio = den[anchor] / base[anchor]
    scale = float(np.abs(den).max())
    # the test of np.allclose(den, ratio * base, rtol=1e-11, atol=1e-13 *
    # scale) written out, without its overhead; the same on finite input
    scaled = ratio * base
    if not (np.abs(den - scaled) <= 1e-13 * scale + 1e-11 * np.abs(scaled)).all():
        return None
    return ratio


def _shared_numerators(fs: Sequence[RationalFunction]):
    """Numerators of ``fs`` over one common denominator, as
    ``(numerators, denominator)``.

    Denominators that are scalar multiples of an earlier one count once, and
    the common denominator is the product of those that differ; functions
    over one denominator (the usual case) keep it.  The shared form lets
    slice arithmetic cancel the denominator instead of stacking repeated
    factors, which would make downstream root extraction ill conditioned.
    """
    bases, parts = [], []
    for f in fs:
        # compared last with itself: no multiple of an earlier one opens a base
        for k, base in enumerate([*bases, f.denominator]):
            ratio = _scalar_ratio(f.denominator, base)
            if ratio is not None:
                break
        if k == len(bases):
            bases.append(f.denominator)
        parts.append((k, f.numerator / ratio))
    nums = []
    for k, num in parts:
        for j, base in enumerate(bases):
            if j != k:
                num = npoly.polymul(num, base)
        nums.append(num)
    common = bases[0]
    for base in bases[1:]:
        common = npoly.polymul(common, base)
    return nums, common


def gamma_curve_from_entries(entries, variant: str) -> GammaCurve:
    """Coordinate curve of a 3x3 matrix function with rational entries.

    ``entries`` is a 3x3 nested list of :class:`RationalFunction`.  The
    entries are put over one denominator (their shared one, the usual case
    for transfer-function entries, or else the product of the distinct
    ones), and the components over its cube.
    """
    nums, delta = _shared_numerators([entry for row in entries for entry in row])
    p = [nums[3 * i : 3 * i + 3] for i in range(3)]
    m12n = npoly.polysub(npoly.polymul(p[0][0], p[1][1]), npoly.polymul(p[0][1], p[1][0]))
    m13n = npoly.polysub(npoly.polymul(p[0][0], p[2][2]), npoly.polymul(p[0][2], p[2][0]))
    m23n = npoly.polysub(npoly.polymul(p[1][1], p[2][2]), npoly.polymul(p[1][2], p[2][1]))
    c12n = npoly.polysub(npoly.polymul(p[1][0], p[2][2]), npoly.polymul(p[1][2], p[2][0]))
    c13n = npoly.polysub(npoly.polymul(p[1][0], p[2][1]), npoly.polymul(p[1][1], p[2][0]))
    detn = npoly.polyadd(
        npoly.polysub(npoly.polymul(p[0][0], m23n), npoly.polymul(p[0][1], c12n)),
        npoly.polymul(p[0][2], c13n),
    )
    delta2 = npoly.polymul(delta, delta)
    # numerator / delta**power rewritten over the common denominator delta**3
    lift = {1: delta2, 2: delta, 3: np.ones(1, dtype=complex)}
    if variant == "gamma7":
        terms = (
            (p[0][0], 1), (p[1][1], 1), (m12n, 2), (p[2][2], 1), (m13n, 2), (m23n, 2), (detn, 3)
        )
    elif variant == "gamma5":
        terms = (
            (p[0][0], 1),
            (npoly.polyadd(m12n, m13n), 2),
            (detn, 3),
            (npoly.polyadd(p[1][1], p[2][2]), 1),
            (m23n, 2),
        )
    else:
        raise ValueError(f"unsupported variant {variant!r}")
    nums = [npoly.polymul(num, lift[power]) for num, power in terms]
    return GammaCurve(variant, RationalFunction.over(npoly.polymul(delta2, delta), nums))


# ---------------------------------------------------------------------------
# slices

# the slice denominator of each variant, as the point errors name it
_SLICE_DENOMINATOR = {"gamma7": "1 - z*x2", "gamma5": "2 - z*x4"}


def _slice_denominators(h, z: complex, det_denominator: str):
    """The two denominators of :func:`_slice_terms`, one object when equal."""
    if len(h) == 8:
        return (h[0] - z * h[2],) * 2
    if det_denominator not in ("corrected", "printed"):
        raise ValueError(f"unknown det_denominator {det_denominator!r}")
    den = 2.0 * h[0] - z * h[4]
    return den, den if det_denominator == "corrected" else h[0] - z * h[4]


def _slice_terms(h, z: complex, det_denominator: str):
    """The slice formulas, once for points and curves.

    ``h = (h0, h1, ...)`` are homogeneous coordinates, ``x_i = h_i / h0``: a
    point passes numbers with ``h0 = 1``, a curve coefficient arrays of one
    length with ``h0`` its denominator.  Returns the numerators of
    ``(f11, f22, det)``, the denominator of ``f11`` and ``f22``, and that
    of ``det``.
    """
    dens = _slice_denominators(h, z, det_denominator)
    if len(h) == 8:
        return (h[1] - z * h[3], h[4] - z * h[6], h[5] - z * h[7]), *dens
    return (2.0 * h[1] - z * h[2], h[4] - 2.0 * z * h[5], h[2] - 2.0 * z * h[3]), *dens


def _slice_point(x: GammaPoint, z: complex, det_denominator: str):
    if x.variant not in _SLICE_DENOMINATOR:
        raise ValueError("slice_coordinates needs gamma7 or gamma5 data")
    (n1, n2, n3), den, det_den = _slice_terms((1.0, *x.entries), z, det_denominator)
    if abs(den) < 1e-12:
        raise ZeroDivisionError(
            f"slice denominator {_SLICE_DENOMINATOR[x.variant]} vanishes at z={z}"
        )
    if abs(det_den) < 1e-12:
        raise ZeroDivisionError(f"printed slice denominator 1 - z*x4 vanishes at z={z}")
    return (n1 / den, n2 / den, n3 / det_den)


def slice_coordinates(x, z: complex, det_denominator: str = "corrected"):
    """Slice a gamma point or curve at disc parameter ``z``.

    For a 7-tuple the result is the ``(f11, f22, det)`` triple of the 2x2
    slice function; for a 5-tuple the analogous triple of the one-variable
    structure.  ``det_denominator`` selects between the corrected determinant
    slice (default; it makes the slice identities hold) and the printed
    variant with denominator ``1 - z*x4``.  A curve's slice keeps the curve's
    shared denominator form.
    """
    z = complex(z)
    if isinstance(x, GammaPoint):
        return _slice_point(x, z, det_denominator)
    if isinstance(x, GammaCurve):
        return _curve_slice(x, z, det_denominator)
    raise TypeError("slice_coordinates expects a GammaPoint or GammaCurve")


def _curve_slice(x: GammaCurve, z: complex, det_denominator: str):
    """The slice functions ``(f11, f22, det)`` of a curve, each denominator
    certified once, on its values at :data:`SAMPLES` read from ``row_values``."""
    (n1, n2, n3), den, det_den = _slice_terms(x.rows, z, det_denominator)
    den_v, det_den_v = _slice_denominators(x.row_values[:, : SAMPLES.size], z, det_denominator)
    if det_den is den:
        return tuple(RationalFunction.over(den, (n1, n2, n3), den_v))
    f11, f22 = RationalFunction.over(den, (n1, n2), den_v)
    return f11, f22, *RationalFunction.over(det_den, (n3,), det_den_v)


def _read_values(x: GammaCurve, z: complex, n_boundary: int, det_denominator: str):
    """A slice's terms at the boundary nodes in SAMPLES, then at the points after SAMPLES."""
    step = node_step(n_boundary)
    if step not in x._read_rows:  # once per curve and node step
        nodes = (x.row_values[:, : SAMPLES.size : step],) if step else ()
        x._read_rows[step] = np.concatenate((*nodes, x.row_values[:, SAMPLES.size :]), axis=1)
    return _slice_terms(x._read_rows[step], z, det_denominator)


def psi3_eval(x: GammaCurve, lam: complex, z1: complex, z2: complex) -> complex:
    """Two-variable fractional form of a 7-coordinate curve at ``(lam, z1, z2)``.

    Equals the transfer function of the ``z2``-slice evaluated at ``z1``.
    """
    if not isinstance(x, GammaCurve) or x.variant != "gamma7":
        raise ValueError("psi3_eval needs a gamma7 curve")
    x1, x2, x3, x4, x5, x6, x7 = (complex(c(lam)) for c in x.components)
    num = x1 - x3 * z2 - x5 * z1 + x7 * z1 * z2
    den = 1.0 - x2 * z2 - x4 * z1 + x6 * z1 * z2
    if abs(den) < 1e-12:
        raise ZeroDivisionError("fractional denominator vanishes")
    return complex(num / den)


def psi_lower3_eval(x, lam_or_z, z: complex | None = None) -> complex:
    """One-variable fractional form of a 5-coordinate point or curve.

    For a point pass ``psi_lower3_eval(point, z)``; for a curve pass
    ``psi_lower3_eval(curve, lam, z)``.
    """
    if isinstance(x, GammaCurve):
        if x.variant != "gamma5":
            raise ValueError("psi_lower3_eval needs gamma5 data")
        if z is None:
            raise ValueError("curve evaluation needs both lam and z")
        s = tuple(complex(c(lam_or_z)) for c in x.components)
        zz = complex(z)
    elif isinstance(x, GammaPoint):
        if x.variant != "gamma5":
            raise ValueError("psi_lower3_eval needs gamma5 data")
        s = x.entries
        zz = complex(lam_or_z)
    else:
        raise TypeError("psi_lower3_eval expects a GammaPoint or GammaCurve")
    num = s[0] - s[1] * zz + s[2] * zz * zz
    den = 1.0 - s[3] * zz + s[4] * zz * zz
    if abs(den) < 1e-12:
        raise ZeroDivisionError("fractional denominator vanishes")
    return complex(num / den)


# ---------------------------------------------------------------------------
# slice Schur functions


@dataclass(frozen=True, eq=False)
class SlicedSchur2x2:
    """2x2 Schur-class slice with factored off-diagonal part.

    The diagonal is rational; the off-diagonal entries are
    ``f12 = inner * sqrt(outer)`` and ``f21 = sqrt(outer)`` of the product
    ``f11 f22 - det``.  ``triangular`` marks the degenerate case where that
    product vanishes identically and the function is diagonal.
    """

    z: complex
    f11: RationalFunction
    f22: RationalFunction
    det_slice: RationalFunction
    pair: InnerOuterPair | None
    triangular: bool

    def evaluate_many(self, lam, diagonal=None) -> np.ndarray:
        """Values at ``lam``, shape ``(n, 2, 2)``; ``diagonal``, when given,
        holds the values of ``(f11, f22)`` at ``lam``, read instead of
        evaluating them."""
        lam = np.asarray(lam, dtype=complex).ravel()
        out = np.zeros((lam.size, 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 1, 1] = (self.f11(lam), self.f22(lam)) if diagonal is None else diagonal
        if not self.triangular:
            sqrt_outer = self.pair.outer_sqrt(lam)
            out[:, 0, 1] = self.pair.inner_eval(lam) * sqrt_outer
            out[:, 1, 0] = sqrt_outer
        return out

    def evaluate(self, lam: complex) -> np.ndarray:
        return self.evaluate_many([lam])[0]

    def transfer_eval(self, lam: complex, z1: complex) -> complex:
        """One-variable fractional form ``f11 + z1 f12 f21 / (1 - f22 z1)``."""
        v = self.evaluate(lam)
        den = 1.0 - v[1, 1] * z1
        if abs(den) < 1e-12:
            raise ZeroDivisionError("transfer denominator vanishes")
        return complex(v[0, 0] + z1 * v[0, 1] * v[1, 0] / den)

    def boundary_moduli(self):
        """(|f12|, |f21|) at the stored boundary nodes of the outer factor."""
        if self.triangular:
            return np.zeros(0), np.zeros(0)
        half = np.exp(self.pair.boundary_logmod / 2.0)
        nodes = boundary_nodes(self.pair.n_boundary)
        return np.abs(self.pair.inner_eval(nodes)) * half, half


# contractivity grid of build_slice_schur: 12 radii by 8 angles
_SLICE_GRID = (
    np.linspace(0.05, 1.0 - 1e-3, 12)[:, None]
    * np.exp(2j * np.pi * np.arange(8) / 8.0)[None, :]
).ravel()
# where a curve is evaluated once (GammaCurve.row_values): the points of the
# winding check, then inner_outer's interior points, the contractivity grid
# and the origin.  A slice reads only its denominators at all of SAMPLES
_CURVE_POINTS = np.concatenate([SAMPLES, INTERIOR, _SLICE_GRID, [0.0]])
_GRID_AT = -(_SLICE_GRID.size + 1)
# inner_outer's reconstruction tolerance on a slice, and the largest miss of
# the slice determinant
_SLICE_TOL = 1e-6


def build_slice_schur(
    x: GammaCurve,
    z: complex,
    n_boundary: int = 2048,
    det_denominator: str = "corrected",
) -> SlicedSchur2x2:
    """Construct the 2x2 Schur-class slice of a gamma curve at parameter ``z``.

    The construction verifies contractivity on an interior grid (slack 1e-6),
    that the determinant of the result matches the determinant slice, and
    that the lower-left entry is positive at the origin, all from one
    evaluation of the slice.  Failures raise ``ValueError`` with the worst
    offending point.  Every value of the slice's terms comes from the
    curve's ``row_values``, computed only where a check reads it: the
    denominators on the 4096 points of their winding checks, the rest at the
    boundary nodes and interior points of ``inner_outer``, the contractivity
    grid and the origin.  A winding check runs on each slice denominator, once:
    ``f11 f22 - det`` goes over the square of the slice denominator (times
    the printed determinant denominator, when that differs), certified by
    those factors with no check of its own, and ``inner_outer`` takes its
    poles from them.
    """
    if not isinstance(x, GammaCurve):
        raise TypeError("build_slice_schur expects a GammaCurve")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("slice parameter must lie in the open unit disc")
    check_n_boundary(n_boundary)  # a triangular slice never reaches inner_outer
    f11, f22, det_slice = _curve_slice(x, z, det_denominator)
    (v11, v22, v_det), v_den, v_det_den = _read_values(x, z, n_boundary, det_denominator)
    # f11 and f22 share one denominator; the printed determinant slice has
    # its own, the only place where two denominators meet.  f11 f22 - det
    # goes over a product of the certified slice denominators, checked by
    # its factors
    den = f11.denominator
    ratio = _scalar_ratio(det_slice.denominator, den)
    v_den2 = v_den * v_den
    diag = npoly.polymul(f11.numerator, f22.numerator)
    if ratio is not None:
        d_v = (v11 * v22 - v_det / ratio * v_den) / v_den2
        corr = npoly.polymul(det_slice.numerator / ratio, den)
        num = npoly.polysub(diag, corr)
        # f11 f22 - det vanishes identically when what is left of it is the
        # rounding noise of the two products
        noise = POLY_NOISE * float(np.abs(diag).sum() + np.abs(corr).sum())
        if float(np.abs(num).max()) <= noise:
            num = np.zeros(1, dtype=complex)
        (d,) = RationalFunction.over_product(((f11, 2),), (num,))
    else:
        # f11 f22 - det over den**2 * det_den, with the coefficients of
        # f11 * f22 - det_slice taken as a difference of quotients
        (prod,) = RationalFunction.over_product(((f11, 2),), (diag,))
        num = npoly.polysub(
            npoly.polymul(prod.numerator, det_slice.denominator),
            npoly.polymul(det_slice.numerator, prod.denominator),
        )
        (d,) = RationalFunction.over_product(((f11, 2), (det_slice, 1)), (num,))
        d_v = v11 * v22 / v_den2 - v_det / v_det_den
    if d.is_zero:
        sliced = SlicedSchur2x2(z, f11, f22, det_slice, None, True)
    else:
        pair = inner_outer(d, n_boundary=n_boundary, tol=_SLICE_TOL, samples=d_v[:_GRID_AT])
        sliced = SlicedSchur2x2(z, f11, f22, det_slice, pair, False)

    lam = _SLICE_GRID
    at = slice(_GRID_AT, None)  # the contractivity grid, then the origin
    vals = sliced.evaluate_many(_CURVE_POINTS[at], (v11[at] / v_den[at], v22[at] / v_den[at]))
    vals, origin = vals[:-1], vals[-1]
    norms = operator_norms(vals)
    worst = int(np.argmax(norms))
    if float(norms[worst]) > 1.0 + 1e-6:
        raise ValueError(
            f"slice at z={z} is not contractive: norm {norms[worst]:.9f} at "
            f"lam={lam[worst]:.4f}"
        )
    dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    det_err = float(np.abs(dets - (v_det[at] / v_det_den[at])[:-1]).max())
    if det_err > _SLICE_TOL:
        raise ValueError(f"slice determinant mismatch {det_err:.3e}")
    corner = complex(origin[1, 0])
    if corner.real < -1e-10 or abs(corner.imag) > 1e-10:
        raise ValueError(f"lower-left entry at the origin is not positive: {corner}")
    return sliced


# ---------------------------------------------------------------------------
# reductions


def _split_pairs(products: Sequence[complex], split_rule) -> list[tuple[complex, complex]]:
    if isinstance(split_rule, str):
        if split_rule == "balanced":
            return [(complex(np.sqrt(p)), complex(np.sqrt(p))) for p in products]
        if split_rule == "left-one":
            return [
                (complex(p), 1.0 + 0j) if p != 0 else (0j, 0j) for p in products
            ]
        raise ValueError(f"unknown split rule {split_rule!r}")
    pairs = [tuple(map(complex, pair)) for pair in split_rule]
    if len(pairs) != len(products):
        raise ValueError("need one explicit (b, c) pair per node")
    for (b, c), p in zip(pairs, products):
        if abs(b * c - p) > 1e-9 * max(1.0, abs(p)):
            raise ValueError(f"pair product {b * c} does not match {p}")
    return pairs


def _reduce(data: GammaNodes, z: complex, split_rule, det_denominator="corrected") -> PickData:
    slices = [_slice_point(p, z, det_denominator) for p in data.points]
    if data.variant == "gamma7":
        # diagonal order swapped relative to the slice function itself
        slices = [(t2, t1, t3) for t1, t2, t3 in slices]
    products = [a * b - c for a, b, c in slices]
    pairs = _split_pairs(products, split_rule)
    targets = []
    for (a, b_diag, _), (b, c) in zip(slices, pairs):
        targets.append(np.array([[a, b], [c, b_diag]], dtype=complex))
    return PickData(data.nodes, tuple(targets))


def reduce_gamma7(data: GammaNodes, z2: complex, split_rule="balanced") -> PickData:
    """2x2 Pick data of a 7-coordinate interpolation problem sliced at ``z2``.

    The diagonal targets are the ``(x4, x1)``-type slice pair and the
    off-diagonal entries split the product constraint
    ``b c = t1 t2 - t3`` according to ``split_rule`` (``"balanced"``,
    ``"left-one"``, or explicit pairs).  Solvability for some
    split certifies the original data; the search here covers only the
    configured splits.
    """
    if data.variant != "gamma7":
        raise ValueError("reduce_gamma7 needs gamma7 data")
    return _reduce(data, complex(z2), split_rule)


def reduce_gamma5(
    data: GammaNodes, z: complex, split_rule="balanced", det_denominator: str = "corrected"
) -> PickData:
    """2x2 Pick data of a 5-coordinate interpolation problem sliced at ``z``."""
    if data.variant != "gamma5":
        raise ValueError("reduce_gamma5 needs gamma5 data")
    return _reduce(data, complex(z), split_rule, det_denominator)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertificationRow:
    z: complex
    split: str
    solvable: bool
    min_eig: float
    target_residual: float | None
    note: str = ""


@dataclass(frozen=True)
class CertificationReport:
    variant: str
    rows: tuple[CertificationRow, ...]
    splits: tuple[str, ...]

    def solvable_splits(self) -> tuple[str, ...]:
        out = []
        for split in self.splits:
            rows = [r for r in self.rows if r.split == split]
            if rows and all(r.solvable for r in rows):
                out.append(split)
        return tuple(out)

    @property
    def certified(self) -> bool:
        return len(self.solvable_splits()) > 0


def _certify(data: GammaNodes, z_grid, split_rules, tol, reducer) -> CertificationReport:
    """Reduce ``data`` at every split and slice parameter, then solve all the
    Pick problems of the table together (:func:`_solve_many`), each exactly
    as :func:`np_solve` would."""
    if z_grid is None:
        z_grid = DEFAULT_Z_GRID
    if isinstance(split_rules, str):
        split_rules = (split_rules,)
    cells = []
    for split in split_rules:
        for z in z_grid:
            z = complex(z)
            try:
                cells.append((z, split, reducer(data, z, split)))
            except (ZeroDivisionError, ValueError) as exc:
                cells.append((z, split, str(exc)))
    outcomes = iter(_solve_many([pick for *_, pick in cells if isinstance(pick, PickData)], tol))
    rows = []
    for z, split, pick in cells:
        if not isinstance(pick, PickData):
            rows.append(CertificationRow(z, split, False, float("nan"), None, pick))
            continue
        outcome = next(outcomes)
        if isinstance(outcome, PickInterpolant):
            rows.append(CertificationRow(z, split, True, pick.spectrum.min, outcome.target_residual))
        elif isinstance(outcome, (UnsolvablePickError, GramInconsistencyError, ArithmeticError)):
            # an overflowing Pick matrix has no spectrum
            min_eig = float("nan") if isinstance(outcome, OverflowError) else pick.spectrum.min
            rows.append(CertificationRow(z, split, False, min_eig, None, str(outcome)))
        else:
            raise outcome
    return CertificationReport(data.variant, tuple(rows), tuple(split_rules))


def certify_gamma7_interpolation(
    data: GammaNodes,
    z_grid=None,
    split_rules=("balanced",),
    tol: float = 1e-9,
) -> CertificationReport:
    """Slice a 7-coordinate problem over a grid of parameters and try to solve
    every resulting Pick problem.

    A split whose Pick problems are all solvable certifies the data (the
    converse direction is not decided here: failure of the configured splits
    leaves the answer open).
    """
    return _certify(
        data, z_grid, split_rules, tol, lambda d, z, s: reduce_gamma7(d, z, s)
    )


def certify_gamma5_interpolation(
    data: GammaNodes,
    z_grid=None,
    split_rules=("balanced",),
    tol: float = 1e-9,
    det_denominator: str = "corrected",
) -> CertificationReport:
    """5-coordinate counterpart of :func:`certify_gamma7_interpolation`."""
    return _certify(
        data,
        z_grid,
        split_rules,
        tol,
        lambda d, z, s: reduce_gamma5(d, z, s, det_denominator=det_denominator),
    )

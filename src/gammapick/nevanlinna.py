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
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import _poly
from .domains import GammaPoint
from .hardy import (
    BOUNDARY_NODES,
    INTERIOR,
    InnerOuterPair,
    RationalFunction,
    _groups,
    _inner_outer_many,
    _only,
)
from .linalg import (
    GramInconsistencyError,
    Spectrum,
    as_cmatrix,
    extend_isometry,
    operator_norms,
)
from .realization import RealizedSchurFunction
from .tolerances import (
    CONTRACTIVE_SLACK,
    DENOMINATOR_FLOOR,
    GRAM_FLOOR,
    PICK_TOL,
    POLY_NOISE,
    RATIO_ATOL,
    RATIO_RTOL,
    SLICE_TOL,
    SPLIT_RTOL,
    TARGET_TOL,
)

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
    """Nodes in the open disc with square matrix targets of a common size: a
    tuple of matrices, or the one ``(n, k, k)`` array that a reduction builds."""

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


def np_solve(data: PickData, tol: float = PICK_TOL) -> PickInterpolant:
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
        A Schur function with ``F(lam_j) = W_j`` to ``TARGET_TOL``, carrying that
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
        matrix to within ``10 max(tol, GRAM_FLOOR) max(1, top eigenvalue)``.
    ArithmeticError
        When the interpolant misses a target by more than ``TARGET_TOL``.
    """
    return _only(_solve_many([data], tol))


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
                factors[i] = spec.factor()
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
    consistent = ~(defects > max(tol, GRAM_FLOOR) * np.maximum(1.0, tops) * 10)
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
        if miss > TARGET_TOL:
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
    def rows(self) -> np.ndarray:
        """Homogeneous coordinate rows: the shared denominator, then the
        numerators, zero-padded to one length (see ``_shared_numerators``)."""
        nums, big = _shared_numerators(self.components)
        h = np.zeros((1 + len(nums), max(c.size for c in (big, *nums))), dtype=complex)
        for row, c in zip(h, (big, *nums)):
            row[: c.size] = c
        return h

    @cached_property
    def row_values(self) -> np.ndarray:
        """``rows`` at the 166 ``_CURVE_POINTS``, evaluated once: each slice
        reads its values from these (see ``build_slice_schur``)."""
        return _poly.horner(self.rows, _CURVE_POINTS)

    @cached_property
    def circle_values(self) -> np.ndarray:
        """``rows`` at the 2048 :data:`BOUNDARY_NODES`, evaluated on first use:
        only a slice whose reconstruction misses by more than its tolerance
        reads them."""
        return _poly.horner(self.rows, BOUNDARY_NODES)

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
    """Evaluate a curve at finitely many nodes, each component at all nodes at
    once (the values of ``point_at`` to the last bit)."""
    nodes = _disc_nodes(nodes)
    cols = [c(np.array(nodes, dtype=complex)) for c in curve.components]
    points = tuple(GammaPoint(curve.variant, p) for p in zip(*cols))
    return GammaNodes(curve.variant, nodes, points)


def _scalar_ratio(den: np.ndarray, base: np.ndarray):
    """``den / base`` when ``den`` is a scalar multiple of ``base``, else
    None: exactly 1.0 when the two are equal, else the ratio of their entries
    where ``base`` is largest."""
    if den.size != base.size:
        return None
    if np.array_equal(den, base):
        return 1.0
    anchor = np.abs(base).argmax()
    ratio = den[anchor] / base[anchor]
    scaled = ratio * base
    # the test of np.allclose(den, ratio * base, rtol=RATIO_RTOL,
    # atol=RATIO_ATOL * scale) written out, without its overhead; the same on
    # finite input
    bound = RATIO_ATOL * np.abs(den).max() + RATIO_RTOL * np.abs(scaled)
    return ratio if (np.abs(den - scaled) <= bound).all() else None


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
        # each function joins the first base it is a multiple of, or opens one
        for k, base in enumerate(bases):
            ratio = _scalar_ratio(f.denominator, base)
            if ratio is not None:
                parts.append((k, f.numerator / ratio))
                break
        else:
            parts.append((len(bases), f.numerator))
            bases.append(f.denominator)
    nums = []
    for k, num in parts:
        for j, base in enumerate(bases):
            if j != k:
                num = _poly.mul(num, base)
        nums.append(num)
    common = bases[0]
    for base in bases[1:]:
        common = _poly.mul(common, base)
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
    m12n = _poly.sub(_poly.mul(p[0][0], p[1][1]), _poly.mul(p[0][1], p[1][0]))
    m13n = _poly.sub(_poly.mul(p[0][0], p[2][2]), _poly.mul(p[0][2], p[2][0]))
    m23n = _poly.sub(_poly.mul(p[1][1], p[2][2]), _poly.mul(p[1][2], p[2][1]))
    c12n = _poly.sub(_poly.mul(p[1][0], p[2][2]), _poly.mul(p[1][2], p[2][0]))
    c13n = _poly.sub(_poly.mul(p[1][0], p[2][1]), _poly.mul(p[1][1], p[2][0]))
    detn = _poly.add(
        _poly.sub(_poly.mul(p[0][0], m23n), _poly.mul(p[0][1], c12n)),
        _poly.mul(p[0][2], c13n),
    )
    delta2 = _poly.mul(delta, delta)
    # numerator / delta**power rewritten over the common denominator delta**3
    lift = {1: delta2, 2: delta, 3: np.ones(1, dtype=complex)}
    if variant == "gamma7":
        terms = (
            (p[0][0], 1), (p[1][1], 1), (m12n, 2), (p[2][2], 1), (m13n, 2), (m23n, 2), (detn, 3)
        )
    elif variant == "gamma5":
        terms = (
            (p[0][0], 1),
            (_poly.add(m12n, m13n), 2),
            (detn, 3),
            (_poly.add(p[1][1], p[2][2]), 1),
            (m23n, 2),
        )
    else:
        raise ValueError(f"unsupported variant {variant!r}")
    nums = [_poly.mul(num, lift[power]) for num, power in terms]
    return GammaCurve(variant, RationalFunction.over(_poly.mul(delta2, delta), nums))


# ---------------------------------------------------------------------------
# slices

# the slice denominator of each variant, as the point errors name it
_SLICE_DENOMINATOR = {"gamma7": "1 - z*x2", "gamma5": "2 - z*x4"}


def _slice_terms(h, z: complex, det_denominator: str):
    """The slice formulas, once for points and curves.

    ``h = (h0, h1, ...)`` are homogeneous coordinates, ``x_i = h_i / h0``: a
    point passes numbers with ``h0 = 1``, a curve coefficient arrays of one
    length with ``h0`` its denominator.  Returns the numerators of
    ``(f11, f22, det)``, the denominator of ``f11`` and ``f22``, and that
    of ``det``, one object when they are equal.
    """
    if len(h) == 8:
        den = h[0] - z * h[2]
        return (h[1] - z * h[3], h[4] - z * h[6], h[5] - z * h[7]), den, den
    if det_denominator not in ("corrected", "printed"):
        raise ValueError(f"unknown det_denominator {det_denominator!r}")
    den = 2.0 * h[0] - z * h[4]
    det_den = den if det_denominator == "corrected" else h[0] - z * h[4]
    return (2.0 * h[1] - z * h[2], h[4] - 2.0 * z * h[5], h[2] - 2.0 * z * h[3]), den, det_den


def _slice_point(x: GammaPoint, z: complex, det_denominator: str):
    if x.variant not in _SLICE_DENOMINATOR:
        raise ValueError("slice_coordinates needs gamma7 or gamma5 data")
    (n1, n2, n3), den, det_den = _slice_terms((1.0, *x.entries), z, det_denominator)
    if abs(den) < DENOMINATOR_FLOOR:
        raise ZeroDivisionError(
            f"slice denominator {_SLICE_DENOMINATOR[x.variant]} vanishes at z={z}"
        )
    if abs(det_den) < DENOMINATOR_FLOOR:
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
        return _only(_slice_functions(x, [z], det_denominator))
    raise TypeError("slice_coordinates expects a GammaPoint or GammaCurve")


def _slice_functions(x: GammaCurve, zs, det_denominator: str) -> list:
    """The slice functions ``(f11, f22, det)`` of a curve at each of ``zs``,
    or the exception that refuses them.  The slice terms of all ``zs`` come
    from one expression with ``z`` as a column, and the slice denominators of
    one trimmed length are certified together (``RationalFunction.over`` on
    each, see ``hardy._factored``)."""
    column = np.array(zs, dtype=complex)[:, None]
    (n1, n2, n3), den, det_den = _slice_terms(x.rows, column, det_denominator)
    nums, at = np.concatenate([n1, n2, n3]), np.arange(len(zs))
    if det_den is den:
        built = RationalFunction._over_many(den, nums, np.tile(at, 3))
        return [f if isinstance(f, Exception) else tuple(f) for f in built]
    rows = np.concatenate([at, at, at + len(zs)])
    built = RationalFunction._over_many(np.concatenate([den, det_den]), nums, rows)
    out = []
    for diagonal, det in zip(built[: len(zs)], built[len(zs) :]):
        failed = [f for f in (diagonal, det) if isinstance(f, Exception)]
        out.append(failed[0] if failed else (*diagonal, *det))
    return out


def psi3_eval(x: GammaCurve, lam: complex, z1: complex, z2: complex) -> complex:
    """Two-variable fractional form of a 7-coordinate curve at ``(lam, z1, z2)``.

    Equals the transfer function of the ``z2``-slice evaluated at ``z1``.
    """
    if not isinstance(x, GammaCurve) or x.variant != "gamma7":
        raise ValueError("psi3_eval needs a gamma7 curve")
    x1, x2, x3, x4, x5, x6, x7 = (complex(c(lam)) for c in x.components)
    num = x1 - x3 * z2 - x5 * z1 + x7 * z1 * z2
    den = 1.0 - x2 * z2 - x4 * z1 + x6 * z1 * z2
    if abs(den) < DENOMINATOR_FLOOR:
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
    if abs(den) < DENOMINATOR_FLOOR:
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

    def evaluate_many(self, lam) -> np.ndarray:
        """Values at ``lam``, shape ``(n, 2, 2)``."""
        lam = np.asarray(lam, dtype=complex).ravel()
        off = None if self.triangular else (self.pair.inner_eval(lam), self.pair.outer_sqrt(lam))
        return _slice_values(self.f11(lam), self.f22(lam), off)

    def evaluate(self, lam: complex) -> np.ndarray:
        return self.evaluate_many([lam])[0]

    def transfer_eval(self, lam: complex, z1: complex) -> complex:
        """One-variable fractional form ``f11 + z1 f12 f21 / (1 - f22 z1)``."""
        v = self.evaluate(lam)
        den = 1.0 - v[1, 1] * z1
        if abs(den) < DENOMINATOR_FLOOR:
            raise ZeroDivisionError("transfer denominator vanishes")
        return complex(v[0, 0] + z1 * v[0, 1] * v[1, 0] / den)

    def boundary_moduli(self):
        """(|f12|, |f21|) at the 2048 :data:`BOUNDARY_NODES`."""
        if self.triangular:
            return np.zeros(0), np.zeros(0)
        half = np.abs(self.pair.outer_sqrt(BOUNDARY_NODES))
        return np.abs(self.pair.inner_eval(BOUNDARY_NODES)) * half, half


def _slice_values(d11, d22, off) -> np.ndarray:
    """Slice values, shape ``d11.shape + (2, 2)``, from the diagonal and,
    unless the slice is triangular, ``off = (inner, sqrt(outer))``."""
    out = np.zeros(d11.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = d11, d22
    if off is not None:
        out[..., 0, 1], out[..., 1, 0] = off[0] * off[1], off[1]
    return out


# contractivity grid of build_slice_schur: 12 radii by 8 angles
_SLICE_GRID = (
    np.linspace(0.05, 1.0 - 1e-3, 12)[:, None]
    * np.exp(2j * np.pi * np.arange(8) / 8.0)[None, :]
).ravel()
# where a curve is evaluated once (GammaCurve.row_values): inner_outer's
# interior points, then the contractivity grid
_CURVE_POINTS = np.concatenate([INTERIOR, _SLICE_GRID])
_GRID_AT = -_SLICE_GRID.size


def build_slice_schur(x: GammaCurve, z: complex, det_denominator: str = "corrected") -> SlicedSchur2x2:
    """Construct the 2x2 Schur-class slice of a gamma curve at parameter ``z``.

    The construction verifies contractivity on an interior grid (slack
    ``CONTRACTIVE_SLACK``) and that the determinant of the result matches the
    determinant slice (to ``SLICE_TOL``), both from one evaluation of the
    slice.  Failures raise ``ValueError`` with the worst offending point.
    The lower-left entry ``sqrt(outer)`` is positive at the origin by
    construction (see ``InnerOuterPair``).  This is :func:`_slice_grid` at
    the one parameter ``z``: a grid of slices is built in one stacked pass,
    and each slice is the one it builds alone.
    """
    return _only(_slice_grid(x, [z], det_denominator))


def _d_values(nums, den, det_den, ratio):
    """``f11 f22 - det`` from the values of the slice terms: over ``den**2``
    when ``ratio``, the determinant denominator over ``den``, is given (a
    scalar, or a column for rows of values), else as a difference of
    quotients."""
    if ratio is None:
        return nums[0] * nums[1] / (den * den) - nums[2] / det_den
    return (nums[0] * nums[1] - nums[2] / ratio * den) / (den * den)


def _circle_d(x: GammaCurve, z: complex, det_denominator: str, ratio):
    """``f11 f22 - det`` at the 2048 :data:`BOUNDARY_NODES`, from the curve's
    ``circle_values``."""
    nums, den, det_den = _slice_terms(x.circle_values, z, det_denominator)
    return _d_values(nums, den, det_den, ratio)


def _products(slices) -> list:
    """For each triple ``(f11, f22, det_slice)`` of ``slices``, ``f11 f22 -
    det`` as a function over a product of the certified slice denominators,
    checked by its factors, and the ratio of the determinant denominator to
    that of ``f11`` and ``f22`` (None when it is not a scalar multiple of it,
    which only the printed determinant slice gives): one
    :func:`_scalar_ratio` per slice, and one noise test per stack of one
    pair of product lengths (see :func:`_slice_grid`).
    """
    f11s, dets = [f11 for f11, _, _ in slices], [det for _, _, det in slices]
    ratios = [_scalar_ratio(det.denominator, f11.denominator) for f11, det in zip(f11s, dets)]
    exact = [i for i, ratio in enumerate(ratios) if ratio is not None]
    quotient = [i for i, ratio in enumerate(ratios) if ratio is None]
    diag = [_poly.mul(f11.numerator, f22.numerator) for f11, f22, _ in slices]
    corr = {i: _poly.mul(dets[i].numerator / ratios[i], f11s[i].denominator) for i in exact}
    nums = {i: _poly.sub(diag[i], corr[i]) for i in exact}
    # f11 f22 - det vanishes identically when what is left of it is the
    # rounding noise of the two products
    for idx in _groups(exact, lambda i: (diag[i].size, corr[i].size)):
        sums = [np.abs([terms[i] for i in idx]).sum(axis=1) for terms in (diag, corr)]
        peaks = np.abs([nums[i] for i in idx]).max(axis=1)
        for i, noise in zip(idx, peaks <= POLY_NOISE * (sums[0] + sums[1])):
            if noise:
                nums[i] = np.zeros(1, dtype=complex)

    def over(idx, fs, powers, terms):
        rows = [tuple(f[i] for f in fs) for i in idx]
        return RationalFunction._over_products(rows, powers, [[terms[i]] for i in idx])

    # f11 f22 - det over den**2 * det_den, with the coefficients of
    # f11 * f22 - det_slice taken as a difference of quotients
    for i, (prod,) in zip(quotient, over(quotient, (f11s,), (2,), diag)):
        num, den = dets[i].numerator, dets[i].denominator
        nums[i] = _poly.sub(_poly.mul(prod.numerator, den), _poly.mul(num, prod.denominator))
    out = dict(zip(exact, over(exact, (f11s,), (2,), nums)))
    out.update(zip(quotient, over(quotient, (f11s, dets), (2, 1), nums)))
    return [(out[i][0], ratios[i]) for i in range(len(slices))]


def _slice_grid(x: GammaCurve, z_grid, det_denominator: str = "corrected") -> list:
    """For each parameter of ``z_grid``, the slice that
    :func:`build_slice_schur` builds at it, or the exception that it raises.

    One pass builds every slice, and each slice gets the bits it gets alone.
    Every value of the slices' terms comes from the curve's ``row_values``,
    with ``z`` as a column, at the interior points of ``inner_outer`` and the
    contractivity grid; the scale of ``inner_outer``'s check comes from the
    curve's ``circle_values``, read only on a miss above its tolerance.  The
    slice functions come from one ``RationalFunction._over_many`` on the
    stacked slice terms (:func:`_slice_functions`): one finiteness check,
    lift and trim for the stack, and one certificate per trimmed denominator
    length.  ``f11 f22 - det`` goes over the square of the slice denominator
    (times the printed determinant denominator, when that differs), with no
    check of its own, from :func:`_products`: one ratio per slice, one noise
    test per stack of one pair of product lengths, and the trims and factor
    bookkeeping of the products for all slices at once.  The pairs, and their
    values at the contractivity grid, come from ``hardy._inner_outer_many``: one root
    solve per numerator length, one root classification, pole, constant,
    scale and invariant check per pair signature, and one evaluation per
    signature for the reconstruction check and the grid.  The contractivity
    and determinant checks run on the stacked slice values.  What a single
    slice takes as a scalar for its bits stays a scalar, row by row (see
    ``hardy._pair_stacks``), and each polynomial product is one
    ``np.convolve`` per row.
    """
    if not isinstance(x, GammaCurve):
        raise TypeError("build_slice_schur expects a GammaCurve")
    zs = [complex(z) for z in z_grid]
    out: list = [
        ValueError("slice parameter must lie in the open unit disc") if abs(z) >= 1.0 else None
        for z in zs
    ]
    live = [i for i, item in enumerate(out) if item is None]
    try:
        built = _slice_functions(x, [zs[i] for i in live], det_denominator)
        terms = _slice_terms(x.row_values, np.array(zs)[:, None], det_denominator)
    except ValueError as exc:  # an unknown det_denominator
        return [exc if item is None else item for item in out]
    (v11, v22, v_det), v_den, v_det_den = terms
    for i, functions in zip(live, built):
        out[i] = functions
    checked = [i for i in live if not isinstance(out[i], Exception)]
    products = dict(zip(checked, _products([out[i] for i in checked])))

    # f11 f22 - det at the interior points of inner_outer, the slices with a
    # ratio stacked apart from those without
    head = slice(None, _GRID_AT)
    interior = {}
    for has_ratio in (True, False):
        idx = [i for i, (_, ratio) in products.items() if (ratio is not None) == has_ratio]
        if not idx:
            continue
        ratio = np.array([products[i][1] for i in idx])[:, None] if has_ratio else None
        values = _d_values(
            (v11[idx, head], v22[idx, head], v_det[idx, head]),
            v_den[idx, head],
            v_det_den[idx, head],
            ratio,
        )
        interior.update(zip(idx, values))
    factored = [i for i, (d, _) in products.items() if not d.is_zero]
    samples = [
        (interior[i], partial(_circle_d, x, zs[i], det_denominator, products[i][1]))
        for i in factored
    ]
    fs = [products[i][0] for i in factored]
    passed = dict(zip(factored, _inner_outer_many(fs, SLICE_TOL, samples, _SLICE_GRID)))
    for i in products:
        outcome = passed.get(i, (None, None))  # no pair when f11 f22 - det is zero
        if isinstance(outcome, Exception):
            out[i] = outcome
        else:
            pair, _ = outcome
            out[i] = SlicedSchur2x2(zs[i], *out[i], pair, pair is None)

    # contractivity and the determinant, on the slices at the grid
    idx = [i for i in products if isinstance(out[i], SlicedSchur2x2)]
    at = slice(_GRID_AT, None)
    off = np.zeros((2, len(idx), -_GRID_AT), dtype=complex)  # 0 on a triangular slice
    for s, i in enumerate(idx):
        if not out[i].triangular:
            off[:, s] = passed[i][1]
    vals = _slice_values(v11[idx, at] / v_den[idx, at], v22[idx, at] / v_den[idx, at], off)
    norms = operator_norms(vals.reshape(-1, 2, 2)).reshape(vals.shape[:2])
    dets = vals[..., 0, 0] * vals[..., 1, 1] - vals[..., 0, 1] * vals[..., 1, 0]
    det_errs = np.abs(dets - v_det[idx, at] / v_det_den[idx, at]).max(axis=-1)
    lam = _SLICE_GRID
    worsts = norms.argmax(axis=-1).tolist()
    for i, row, worst, det_err in zip(idx, norms, worsts, det_errs.tolist()):
        if float(row[worst]) > 1.0 + CONTRACTIVE_SLACK:
            out[i] = ValueError(
                f"slice at z={zs[i]} is not contractive: norm {row[worst]:.9f} at "
                f"lam={lam[worst]:.4f}"
            )
        elif det_err > SLICE_TOL:
            out[i] = ValueError(f"slice determinant mismatch {det_err:.3e}")
    return out


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
        if abs(b * c - p) > SPLIT_RTOL * max(1.0, abs(p)):
            raise ValueError(f"pair product {b * c} does not match {p}")
    return pairs


def _reduce(data: GammaNodes, z: complex, split_rule, det_denominator="corrected") -> PickData:
    slices = [_slice_point(p, z, det_denominator) for p in data.points]
    if data.variant == "gamma7":
        # diagonal order swapped relative to the slice function itself
        slices = [(t2, t1, t3) for t1, t2, t3 in slices]
    products = [a * b - c for a, b, c in slices]
    pairs = _split_pairs(products, split_rule)
    rows = [[[a, b], [c, b_diag]] for (a, b_diag, _), (b, c) in zip(slices, pairs)]
    targets = np.array(rows, dtype=complex)
    if not np.isfinite(targets).all():
        raise ValueError("matrix entries must be finite")
    # built with no __post_init__: GammaNodes checked the nodes, the targets are 2x2
    pick = object.__new__(PickData)
    vars(pick).update(nodes=data.nodes, targets=targets)
    return pick


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


def _certify(data: GammaNodes, z_grid, split_rules, tol, reducers) -> list[CertificationReport]:
    """Reduce ``data`` by each of ``reducers`` at every split and slice
    parameter, then solve all the Pick problems of the tables together
    (:func:`_solve_many`), each exactly as :func:`np_solve` would: one report
    per reducer."""
    if z_grid is None:
        z_grid = DEFAULT_Z_GRID
    if isinstance(split_rules, str):
        split_rules = (split_rules,)
    cells = []
    for table, reducer in enumerate(reducers):
        for split in split_rules:
            for z in map(complex, z_grid):
                try:
                    cells.append((table, z, split, reducer(data, z, split)))
                except (ZeroDivisionError, ValueError) as exc:
                    cells.append((table, z, split, str(exc)))
    outcomes = iter(_solve_many([c[-1] for c in cells if isinstance(c[-1], PickData)], tol))
    rows = [[] for _ in reducers]
    for table, z, split, pick in cells:
        if not isinstance(pick, PickData):
            row = CertificationRow(z, split, False, float("nan"), None, pick)
        elif isinstance(outcome := next(outcomes), PickInterpolant):
            row = CertificationRow(z, split, True, pick.spectrum.min, outcome.target_residual)
        elif isinstance(outcome, (UnsolvablePickError, GramInconsistencyError, ArithmeticError)):
            # an overflowing Pick matrix has no spectrum
            min_eig = float("nan") if isinstance(outcome, OverflowError) else pick.spectrum.min
            row = CertificationRow(z, split, False, min_eig, None, str(outcome))
        else:
            raise outcome
        rows[table].append(row)
    return [CertificationReport(data.variant, tuple(r), tuple(split_rules)) for r in rows]


def certify_gamma7_interpolation(
    data: GammaNodes,
    z_grid=None,
    split_rules=("balanced",),
    tol: float = PICK_TOL,
) -> CertificationReport:
    """Slice a 7-coordinate problem over a grid of parameters and try to solve
    every resulting Pick problem.

    A split whose Pick problems are all solvable certifies the data (the
    converse direction is not decided here: failure of the configured splits
    leaves the answer open).
    """
    (report,) = _certify(data, z_grid, split_rules, tol, [reduce_gamma7])
    return report


def certify_gamma5_interpolation(
    data: GammaNodes,
    z_grid=None,
    split_rules=("balanced",),
    tol: float = PICK_TOL,
    det_denominator: str = "corrected",
) -> CertificationReport:
    """5-coordinate counterpart of :func:`certify_gamma7_interpolation`."""
    reducer = partial(reduce_gamma5, det_denominator=det_denominator)
    (report,) = _certify(data, z_grid, split_rules, tol, [reducer])
    return report

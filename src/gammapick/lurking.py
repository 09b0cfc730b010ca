"""Reconstruction of a Schur function from a sampled kernel triple.

Given a triple whose kernels satisfy the rank-one conditions, the sampled
decomposition identity makes the right vectors ``(1, z1 f1, z2 f2, lam v)``
and left vectors ``(g, f1, f2, v)`` share their Gram matrix, so a unitary
maps one family onto the other (the lurking isometry).  That unitary, the
Procrustes factor of the two families, is a colligation whose transfer
function reproduces the data on the grid, up to a joint torus conjugation of
the middle and last rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelTriple, SampleGrid, SampledKernel, combine_k, membership
from .linalg import GramInconsistencyError, extend_isometry
from .realization import RealizedSchurFunction
from .tolerances import GRAM_FLOOR, KERNEL_TOL, PHASE_ANCHOR, TORUS_ANCHOR, UW_TOL

__all__ = [
    "RankError",
    "GramInconsistencyError",
    "RankOneFactor",
    "UWResult",
    "UWVerification",
    "TorusFit",
    "rank1_factor",
    "uw_construct",
    "verify_uw",
    "torus_fit",
    "right_s",
]


class RankError(ValueError):
    """A kernel violates the rank conditions required by the construction."""


@dataclass(frozen=True)
class RankOneFactor:
    """Values of a rank-one kernel factor over a grid.

    The factor satisfies ``gram[t, u] = values[t] * conj(values[u])`` and is
    normalized so that its first significantly nonzero entry is positive
    real.
    """

    grid: SampleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.shape != (len(self.grid),):
            raise ValueError("factor needs one value per grid point")
        object.__setattr__(self, "values", v)


def rank1_factor(kernel: SampledKernel, tol: float = KERNEL_TOL) -> RankOneFactor:
    """Factor a PSD sampled kernel of rank at most one by its Gram column of
    largest diagonal, ``K[:, j] / sqrt(K[j, j])`` (one pivoted Cholesky step).

    The column and the residual ``K - v v*`` are the
    :attr:`~gammapick.linalg.Spectrum.pivot` of the kernel's spectrum, whose
    rank-one bounds decide the rank and the residual test's floor
    ``tol * max(1, top)`` when they clear the floor, with no ``eigvalsh``.

    Raises :class:`RankError` when the numerical rank exceeds one, when no
    diagonal entry is positive to pivot on, or when the factor misses the
    kernel, and :class:`~gammapick.linalg.IndefiniteMatrixError` when the
    kernel fails to be PSD within ``tol``.
    """
    spec = kernel.spectrum
    rank = spec.rank(tol)
    if rank > 1:
        raise RankError(
            f"kernel rank exceeds one: second eigenvalue {spec.values[-2]:.3e} "
            f"vs top {spec.top:.3e}"
        )
    if rank == 0:
        return RankOneFactor(kernel.grid, np.zeros(len(kernel.grid), dtype=complex))
    if spec.pivot is None:
        raise RankError("rank-one kernel has no positive diagonal entry to pivot on")
    v, rest = spec.pivot
    # anchor the phase on the first entry that carries weight
    mags = np.abs(v)
    anchor = int(np.argmax(mags >= PHASE_ANCHOR * mags.max()))
    phase = v[anchor] / abs(v[anchor])
    resid = float(np.abs(rest).max())
    if spec.above_floor(resid, 10 * tol):
        raise RankError(f"rank-one reconstruction residual {resid:.3e} too large")
    return RankOneFactor(kernel.grid, v * np.conj(phase))


@dataclass(frozen=True)
class UWResult:
    """Outcome of the isometry-extension construction."""

    xi: RealizedSchurFunction
    f1: RankOneFactor
    f2: RankOneFactor
    g: RankOneFactor
    state_dim: int


def uw_construct(triple: KernelTriple, tol: float = UW_TOL) -> UWResult:
    """Build a 3x3 Schur function whose kernel triple matches ``triple``.

    Parameters
    ----------
    triple : KernelTriple
        Sampled triple satisfying the rank-1/1/1 membership conditions.
    tol : float
        Bound for the Gram-equality defect and the isometry residual, the
        latter at least ``GRAM_FLOOR``.  The rank conditions and the
        rank-one factors are decided at ``KERNEL_TOL`` whatever ``tol`` is.

    Raises
    ------
    RankError
        When the rank conditions fail.
    GramInconsistencyError
        When the left/right Grams differ beyond ``tol`` or the unitary
        :func:`~gammapick.linalg.extend_isometry` fit misses the left family
        by more than ``tol`` relative to its largest entry.
    """
    if not membership(triple, "R11", KERNEL_TOL):
        raise RankError("triple fails the rank-1/1/1 membership conditions")
    grid = triple.grid
    lam, z1, z2 = grid.lam, grid.z1, grid.z2
    f1 = rank1_factor(triple.n1, KERNEL_TOL)
    f2 = rank1_factor(triple.n2, KERNEL_TOL)
    g = rank1_factor(combine_k(triple), KERNEL_TOL)
    l = triple.n3.spectrum.factor()
    m = l.shape[1]

    right = np.vstack([np.ones_like(lam), z1 * f1.values, z2 * f2.values, (lam[:, None] * l).T])
    left = np.vstack([g.values, f1.values, f2.values, l.T])

    gram_r = right.conj().T @ right
    gram_l = left.conj().T @ left
    scale = max(1.0, float(np.abs(gram_r).max()))
    defect = float(np.abs(gram_r - gram_l).max())
    if defect > tol * scale:
        raise GramInconsistencyError(
            f"left/right Gram defect {defect:.3e} exceeds {tol:.1e} * {scale:.1e}"
        )

    v = extend_isometry(right, left)
    fit = float(np.abs(v @ right - left).max())
    if fit > max(tol, GRAM_FLOOR) * max(1.0, float(np.abs(left).max())):
        raise GramInconsistencyError(f"isometry fit residual {fit:.3e} too large")

    return UWResult(RealizedSchurFunction.from_colligation(v, 3, m), f1, f2, g, m)


@dataclass(frozen=True)
class UWVerification:
    max_residual: float
    worst_point: tuple[complex, complex, complex]
    passed: bool
    tol: float


def verify_uw(result: UWResult, values, tol: float = UW_TOL) -> UWVerification:
    """Check ``Xi(lam_t) (1, z1 f1, z2 f2)^T = (g, f1, f2)^T`` over the grid
    of the factors, from Xi's ``values`` at the grid's ``lam`` (the
    ``f_values`` of ``upper_e(result.xi, grid)``)."""
    grid = result.f1.grid
    lam, z1, z2 = grid.lam, grid.z1, grid.z2
    rhs = np.stack([np.ones_like(lam), z1 * result.f1.values, z2 * result.f2.values], axis=-1)
    lhs = np.stack([result.g.values, result.f1.values, result.f2.values], axis=-1)
    resid = np.linalg.norm(np.einsum("tij,tj->ti", values, rhs) - lhs, axis=-1)
    i = int(np.argmax(resid))
    top = float(resid[i])
    return UWVerification(top, grid.points[i], bool(top <= tol), tol)


@dataclass(frozen=True)
class TorusFit:
    eta: tuple[complex, complex, complex]
    max_residual: float


def torus_fit(reference, candidate) -> TorusFit:
    """Fit torus phases aligning a candidate function with a reference one,
    given as their ``(n, 3, 3)`` values at the same points (``evaluate_many``
    or the ``f_values`` of a triple).

    Phases are read off the first column, which the conjugation scales by
    ``eta_i`` alone; entries must not vanish identically there.
    """
    fv, xv = np.asarray(reference), np.asarray(candidate)
    etas = []
    for i in range(3):
        corr = np.vdot(fv[:, i, 0], xv[:, i, 0])
        if abs(corr) < TORUS_ANCHOR * max(1.0, float(np.abs(fv[:, i, 0]).max()) ** 2):
            raise ValueError(f"column-one entry ({i + 1},1) too small to anchor a phase")
        etas.append(complex(corr / abs(corr)))
    d1 = np.diag(etas)
    d2 = np.diag([1.0, np.conj(etas[1]), np.conj(etas[2])])
    resid = float(np.linalg.norm(xv - d1 @ fv @ d2, 2, axis=(1, 2)).max())
    return TorusFit((etas[0], etas[1], etas[2]), resid)


def right_s(triple: KernelTriple, tol: float = KERNEL_TOL) -> RankOneFactor:
    """Rank-one factor of the combined kernel, the sampled interpolating datum.

    Requires the PSD / rank-at-most-one membership conditions; the factor's
    values must be bounded by one in modulus on the grid.  The full solution
    family is this factor times a unimodular constant.
    """
    if not membership(triple, "S1" if triple.grid.diagonal else "R1", tol):
        raise RankError("triple fails the PSD / rank-at-most-one conditions")
    factor = rank1_factor(combine_k(triple), tol)
    worst = float(np.abs(factor.values).max())
    if worst > 1.0 + tol:
        raise ValueError(f"factor modulus {worst:.12f} exceeds 1 + tol")
    return factor

"""Dense complex linear algebra helpers shared across the package.

Everything here is a thin, contract-checked wrapper over LAPACK via
``numpy.linalg``.  Matrices are plain complex ndarrays.  Every hermitian
spectrum in the package goes through :class:`Spectrum`, which computes
eigenvectors only for a factor, and both isometry-extension constructions go
through :func:`extend_isometry`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .tolerances import STATE_CUTOFF, STATE_FLOOR

__all__ = [
    "IndefiniteMatrixError",
    "GramInconsistencyError",
    "Spectrum",
    "as_cmatrix",
    "operator_norm",
    "operator_norms",
    "hermitian_part",
    "extend_isometry",
]


class IndefiniteMatrixError(ValueError):
    """A matrix expected to be positive semidefinite has negative spectrum."""


class GramInconsistencyError(ValueError):
    """Left and right sample vectors do not share their Gram matrix."""


def as_cmatrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex ndarray with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def operator_norm(m) -> float:
    """Largest singular value of ``m``."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def operator_norms(ms) -> np.ndarray:
    """Largest singular value of each matrix of a ``(n, k, k)`` stack.

    For ``k = 2`` in closed form, with no cancellation: the square root of
    the top eigenvalue ``(p + r) / 2 + hypot((p - r) / 2, |q|)`` of
    ``m* m = [[p, q], [conj(q), r]]``.
    """
    ms = np.asarray(ms)
    if ms.shape[1:] != (2, 2):
        return np.linalg.norm(ms, 2, axis=(1, 2))
    sq = np.abs(ms) ** 2
    p, r = sq[:, 0, 0] + sq[:, 1, 0], sq[:, 0, 1] + sq[:, 1, 1]
    q = np.conj(ms[:, 0, 0]) * ms[:, 0, 1] + np.conj(ms[:, 1, 0]) * ms[:, 1, 1]
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q)))


def hermitian_part(m) -> np.ndarray:
    """Return ``(m + m*) / 2``."""
    m = as_cmatrix(m)
    return (m + m.conj().T) / 2.0


class Spectrum:
    """Eigenvalues of the hermitian part of a square matrix, read by every check.

    ``values`` ascend; ``min`` and ``top`` are the extreme eigenvalues (0 for
    an empty matrix).  ``values`` come from one ``eigvalsh`` on first use, and
    only :meth:`factor` runs ``eigh``.  The decisions read ``values`` only when
    a certificate does not decide them first:

    - :meth:`is_psd`, from a Cholesky: if ``m + s I`` factors, with
      ``s = (tol / 2) max(1, max diag)``, then ``min >= -s`` (Cholesky is
      backward stable) and ``top >= max diag``;
    - :meth:`rank` and :meth:`above_floor`, from the rank-one bounds of the
      :attr:`pivot`: with ``v = m[:, j] / sqrt(m[j, j])`` the Gram column
      of largest diagonal and ``R = m - v v*``, Weyl's inequality puts the
      top eigenvalue within ``|R|_F`` of ``|v|**2`` and every other one
      within ``|R|_F`` of 0.

    Each bound is widened by the rounding of ``eigvalsh`` and of the
    certificate, ``4 (n + 1) eps`` times ``|m|_F + sum |m_ii|``, so a
    certificate decides only where ``values`` decide the same.  At a ``tol``
    within that margin, ``tol = 0`` included, ``values`` decide.
    """

    def __init__(self, m):
        m = as_cmatrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        self._matrix, self._eigh = hermitian_part(m), None

    @classmethod
    def of_hermitian(cls, m: np.ndarray) -> "Spectrum":
        """Spectrum of a square matrix that is already exactly hermitian (a
        sampled kernel's ``gram``), read as it is."""
        spec = cls.__new__(cls)
        spec._matrix, spec._eigh = m, None
        return spec

    @cached_property
    def values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._matrix)

    @property
    def min(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    @property
    def top(self) -> float:
        return float(self.values[-1]) if self.values.size else 0.0

    @classmethod
    def many(cls, matrices) -> list["Spectrum"]:
        """Spectra of square matrices of one shape (a sequence or a stack)
        from one stacked ``eigh``, whose vectors their factors read."""
        if len(matrices) == 0:
            return []
        ms = np.asarray(matrices, dtype=complex)
        if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
            raise ValueError(f"expected square matrices, got shape {ms.shape[1:]}")
        if not np.isfinite(ms).all():
            raise ValueError("matrix entries must be finite")
        values, vectors = np.linalg.eigh((ms + ms.conj().swapaxes(1, 2)) / 2.0)
        spectra = []
        for pair in zip(values, vectors):
            spec = cls.__new__(cls)
            spec.values, spec._eigh = pair[0], pair
            spectra.append(spec)
        return spectra

    @cached_property
    def _unit(self) -> float:
        """Rounding allowance per unit of scale, ``4 (n + 1) eps``."""
        return 4.0 * (len(self._matrix) + 1) * np.finfo(float).eps

    @cached_property
    def _rounding(self) -> float:
        """Allowance for the rounding of ``eigvalsh`` and of a certificate on
        the matrix itself, ``_unit * (|m|_F + sum |m_ii|)``; inf on overflow."""
        m = self._matrix
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.sqrt(np.vdot(m, m).real) + np.abs(m.diagonal()).sum()
        return self._unit * float(scale)

    @cached_property
    def pivot(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(v, R)``: the Gram column of largest diagonal, ``v = m[:, j] /
        sqrt(m[j, j])`` (one pivoted Cholesky step), and the residual
        ``R = m - v v*``; None when no diagonal entry is positive."""
        m = self._matrix
        diag = m.diagonal().real
        if diag.size == 0 or not diag.max() > 0.0:
            return None
        j = int(np.argmax(diag))
        with np.errstate(over="ignore", invalid="ignore"):
            v = m[:, j] / np.sqrt(diag[j])
            return v, m - v[:, None] * v.conj()

    @cached_property
    def _rank_one(self) -> tuple[float, float, float] | None:
        """Bounds ``(r, top_lo, top_hi)`` on ``values`` from ``m = v v* + R``
        (the :attr:`pivot`): every value but the top one lies in ``[-r, r]``,
        the top one in ``[top_lo, top_hi]``, and ``min >= -r``.  None when
        there is no pivot or the bounds overflow."""
        if self.pivot is None:
            return None
        v, rest = self.pivot
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(np.sqrt(np.vdot(rest, rest).real))
            vv = float(np.vdot(v, v).real)
        r += self._rounding + self._unit * (vv + r)
        if not np.isfinite(r):
            return None
        return r, vv - r, vv + r

    def _cholesky_psd(self, tol: float) -> bool:
        """Whether ``m + s I`` factors, ``s = (tol / 2) max(1, max diag)``,
        with a margin that puts ``min`` at or above ``-tol * max(1, top)``."""
        m = self._matrix
        n = len(m)
        d = float(m.diagonal().real.max())
        s = 0.5 * tol * max(1.0, d)
        err = self._rounding + self._unit * n * s
        if not s + err <= tol * max(1.0, d - err):
            return False
        shifted = m.copy()
        shifted.flat[:: n + 1] += s
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        return True

    def _decided(self) -> bool:
        return "values" in vars(self)

    def is_psd(self, tol: float) -> bool:
        """Whether ``min >= -tol * max(1, top)``."""
        if not self._decided() and self._matrix.size and self._cholesky_psd(tol):
            return True
        return self.min >= -tol * max(1.0, self.top)

    def _floors(self, tol: float) -> tuple[float, float, float, float] | None:
        """``(lo, hi, top_lo, top_hi)``: bounds on the floor ``tol * max(1, top)``
        and on ``top`` from the rank-one bounds, when the floor clears every
        value but the top one (so ``min`` is above minus the floor); else None."""
        b = None if self._decided() else self._rank_one
        if b is None:
            return None
        r, top_lo, top_hi = b
        lo = tol * max(1.0, top_lo)
        if not r <= lo:
            return None
        return lo, tol * max(1.0, top_hi), top_lo, top_hi

    def rank(self, tol: float) -> int:
        """Number of eigenvalues above ``tol * max(1, top)``, the floor of :meth:`is_psd`.

        Raises :class:`IndefiniteMatrixError` when ``min`` is below minus that floor.
        """
        b = self._floors(tol)
        if b is not None:
            lo, hi, top_lo, top_hi = b
            if top_lo > hi:
                return 1
            if top_hi <= lo:
                return 0
        floor = tol * max(1.0, self.top)
        if self.min < -floor:
            raise IndefiniteMatrixError(
                f"matrix is indefinite: eigenvalues span [{self.min:.3e}, {self.top:.3e}]"
            )
        return int(np.count_nonzero(self.values > floor))

    def above_floor(self, x: float, tol: float) -> bool:
        """Whether ``x > tol * max(1, top)``."""
        b = self._floors(tol)
        if b is not None:
            if x <= b[0]:
                return False
            if x > b[1]:
                return True
        return x > tol * max(1.0, self.top)

    def factor(self) -> np.ndarray:
        """``(n, r)`` factor ``L``, ``L L*`` = the part above ``STATE_CUTOFF * top``.

        A spectrum built by the constructor runs its ``eigh`` on the first
        call, so its factor equals that of :meth:`many` to the last bit.
        """
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self._matrix)
        values, vectors = self._eigh
        keep = values > STATE_CUTOFF * max(values.max(initial=0.0), STATE_FLOOR)
        return vectors[:, keep] * np.sqrt(np.maximum(values[keep], 0.0))


def extend_isometry(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Unitary ``V`` closest to mapping the columns of ``right`` onto those of ``left``.

    This is the orthogonal Procrustes factor (Schönemann 1966): with
    ``left @ right* = U S Vh``, ``V = U @ Vh`` minimises ``|V right - left|``
    over the unitaries.  When the two families share their Gram matrix, ``V``
    maps one onto the other; callers check the Gram defect and the residual.
    Stacks of pairs ``(..., d, N)`` give a stack of factors from one stacked
    SVD, each equal to that of its pair alone.
    """
    u, _, vh = np.linalg.svd(left @ right.conj().swapaxes(-1, -2))
    return u @ vh

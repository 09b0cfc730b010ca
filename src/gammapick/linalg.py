"""Dense complex linear algebra helpers shared across the package.

Everything here is a thin, contract-checked wrapper over LAPACK via
``numpy.linalg``.  Matrices are plain complex ndarrays.  Every hermitian
spectrum in the package goes through :class:`Spectrum`, which computes
eigenvectors only for a factor, and both isometry-extension constructions go
through :func:`extend_isometry`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IndefiniteMatrixError",
    "GramInconsistencyError",
    "STATE_CUTOFF",
    "Spectrum",
    "as_cmatrix",
    "operator_norm",
    "operator_norms",
    "hermitian_part",
    "extend_isometry",
]

# Eigenvalue cutoff, relative to the top eigenvalue, for the machine-rank
# factors that span a state space.  Anything coarser leaks truncation error
# into the Gram-equality defect and from there into the isometry fit.
STATE_CUTOFF = 1e-13


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
    an empty matrix).  The PSD and rank decisions need no eigenvectors, so
    ``values`` come from ``eigvalsh``; only :meth:`factor` runs ``eigh``.
    """

    def __init__(self, m):
        m = as_cmatrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        self._matrix = hermitian_part(m)
        self._set(np.linalg.eigvalsh(self._matrix), None)

    def _set(self, values: np.ndarray, eigh: tuple | None):
        self.values, self._eigh = values, eigh
        self.min = float(values[0]) if values.size else 0.0
        self.top = float(values[-1]) if values.size else 0.0

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
        out = []
        for values, vectors in zip(*np.linalg.eigh((ms + ms.conj().swapaxes(1, 2)) / 2.0)):
            spec = cls.__new__(cls)
            spec._set(values, (values, vectors))
            out.append(spec)
        return out

    @classmethod
    def outer(cls, u) -> "Spectrum":
        """Spectrum of ``u u*`` in closed form, with no decomposition.

        ``values`` are ``[0, ..., 0, |u|**2]``, and :meth:`factor` reads
        ``u / |u|`` as the top vector (the others are zero: a factor scales
        them by ``sqrt(0)``).
        """
        u = np.asarray(u, dtype=complex).ravel()
        values, vectors = np.zeros(u.size), np.zeros((u.size, u.size), dtype=complex)
        norm = float(np.linalg.norm(u))
        if norm > 0.0:
            values[-1], vectors[:, -1] = norm * norm, u / norm
        spec = cls.__new__(cls)
        spec._set(values, (values, vectors))
        return spec

    def is_psd(self, tol: float) -> bool:
        """Whether ``min >= -tol * max(1, top)``."""
        return self.min >= -tol * max(1.0, self.top)

    def rank(self, tol: float) -> int:
        """Number of eigenvalues above ``tol * max(1, top)``, the floor of :meth:`is_psd`.

        Raises :class:`IndefiniteMatrixError` when ``min`` is below minus that floor.
        """
        floor = tol * max(1.0, self.top)
        if self.min < -floor:
            raise IndefiniteMatrixError(
                f"matrix is indefinite: eigenvalues span [{self.min:.3e}, {self.top:.3e}]"
            )
        return int(np.count_nonzero(self.values > floor))

    def factor(self, cutoff: float) -> np.ndarray:
        """``(n, r)`` factor ``L``, ``L L*`` = the part above ``cutoff * top``.

        A spectrum built by the constructor runs its ``eigh`` on the first
        call, so its factor equals that of :meth:`many` to the last bit.
        """
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self._matrix)
        values, vectors = self._eigh
        keep = values > cutoff * max(values.max(initial=0.0), 1e-300)
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

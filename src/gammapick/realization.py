"""Schur-class matrix functions given by contractive colligations.

A function ``F(lam) = P + lam Q (I - lam S)^{-1} R`` on the open unit disc is
stored through the block matrix ``V = [[P, Q], [R, S]]``; ``F`` takes values
in the ``k x k`` contractions whenever ``V`` is a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix, operator_norm

__all__ = [
    "RealizedSchurFunction",
    "SchurNormReport",
    "random_schur",
    "verify_schur",
    "realization_to_rational",
]

_NORM_SLACK = 1e-10
# ||V* V - I||_F <= 2e-10 bounds ||V||**2 by 1 + 2e-10, so ||V|| by 1 + 1e-10
_GRAM_SLACK = 2.0 * _NORM_SLACK


@dataclass(frozen=True)
class RealizedSchurFunction:
    """Colligation blocks of a matrix Schur function.

    ``p`` is ``k x k``, ``q`` is ``k x m``, ``r`` is ``m x k`` and ``s`` is
    ``m x m``; the stacked block matrix must be a contraction within 1e-10.
    ``m = 0`` encodes a constant function.
    """

    k: int
    m: int
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        p = as_cmatrix(self.p)
        q = as_cmatrix(self.q) if np.size(self.q) else np.zeros((self.k, self.m), complex)
        r = as_cmatrix(self.r) if np.size(self.r) else np.zeros((self.m, self.k), complex)
        s = as_cmatrix(self.s) if np.size(self.s) else np.zeros((self.m, self.m), complex)
        if p.shape != (self.k, self.k):
            raise ValueError(f"p must be {self.k}x{self.k}")
        if q.shape != (self.k, self.m):
            raise ValueError(f"q must be {self.k}x{self.m}")
        if r.shape != (self.m, self.k):
            raise ValueError(f"r must be {self.m}x{self.k}")
        if s.shape != (self.m, self.m):
            raise ValueError(f"s must be {self.m}x{self.m}")
        (error,) = self.check_colligations(self.colligation_of(p, q, r, s)[None])
        if error is not None:
            raise error
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @staticmethod
    def check_colligations(vs: np.ndarray) -> list[ValueError | None]:
        """For each colligation of a ``(b, d, d)`` stack, None when it is a
        contraction within 1e-10, else the ``ValueError`` that says it is not.

        One stacked Gram defect certifies the unitary colligations with no
        SVD; only a colligation that fails that test goes on to the norm
        check.
        """
        gram = vs.conj().swapaxes(1, 2) @ vs
        gram[:, np.arange(vs.shape[1]), np.arange(vs.shape[1])] -= 1.0
        # ||V* V - I||_F of each colligation
        certified = np.linalg.norm(gram, axis=(1, 2)) <= _GRAM_SLACK
        errors: list = [None] * len(vs)
        for b in np.flatnonzero(~certified):
            norm = operator_norm(vs[b])
            if norm > 1.0 + _NORM_SLACK:
                errors[b] = ValueError(f"colligation norm {norm:.12f} exceeds 1 + {_NORM_SLACK}")
        return errors

    @classmethod
    def from_checked(cls, v: np.ndarray, k: int, m: int):
        """The function of a ``(k + m)``-square colligation that
        :meth:`check_colligations` has passed, built without a second check."""
        f = cls.__new__(cls)
        blocks = {"k": k, "m": m, "p": v[:k, :k], "q": v[:k, k:], "r": v[k:, :k], "s": v[k:, k:]}
        for name, value in blocks.items():
            object.__setattr__(f, name, value)
        return f

    @staticmethod
    def colligation_of(p, q, r, s) -> np.ndarray:
        """The block matrix ``[[p, q], [r, s]]`` (``np.block``, without its
        general-purpose overhead)."""
        k, m = p.shape[0], s.shape[0]
        v = np.empty((k + m, k + m), dtype=np.result_type(p, q, r, s))
        v[:k, :k], v[:k, k:], v[k:, :k], v[k:, k:] = p, q, r, s
        return v

    @property
    def colligation(self) -> np.ndarray:
        return self.colligation_of(self.p, self.q, self.r, self.s)

    @classmethod
    def from_colligation(cls, v, k: int, m: int) -> "RealizedSchurFunction":
        v = as_cmatrix(v)
        if v.shape != (k + m, k + m):
            raise ValueError(f"colligation must be {(k + m, k + m)}")
        return cls(k, m, v[:k, :k], v[:k, k:], v[k:, :k], v[k:, k:])

    def evaluate(self, lam: complex) -> np.ndarray:
        """Value ``F(lam)`` for a single point of the open unit disc."""
        return self.evaluate_many(np.asarray([lam]))[0]

    def evaluate_many(self, lam) -> np.ndarray:
        """Values on a 1-d array of points, shape ``(len(lam), k, k)``."""
        lam = np.asarray(lam, dtype=complex).ravel()
        if lam.size and float(np.abs(lam).max()) >= 1.0:
            raise ValueError("evaluation points must lie in the open unit disc")
        return self.values_of(self.p, self.q, self.r, self.s, lam)

    @staticmethod
    def values_of(p, q, r, s, lam) -> np.ndarray:
        """``F(lam) = p + lam q (I - lam s)^{-1} r`` at points ``lam`` of shape
        ``(..., n)``, for the blocks of one function or of a ``(...)`` stack
        of functions of one shape: shape ``(..., n, k, k)``.  A stack gives
        each function the values it gives that function alone, to the last
        bit."""
        k, m = p.shape[-1], s.shape[-1]
        at, p = lam[..., None, None], p[..., None, :, :]
        if m == 0:
            return np.broadcast_to(p, (*lam.shape, k, k)).copy()
        a = np.eye(m, dtype=complex) - at * s[..., None, :, :]
        x = np.linalg.solve(a, np.broadcast_to(r[..., None, :, :], (*lam.shape, m, k)))
        return p + at * (q[..., None, :, :] @ x)

    def to_json(self) -> dict:
        """JSON-safe dict with complex entries encoded as [re, im] pairs."""
        from .serialize import cmatrix_to_json

        return {
            "k": self.k,
            "m": self.m,
            "p": cmatrix_to_json(self.p),
            "q": cmatrix_to_json(self.q),
            "r": cmatrix_to_json(self.r),
            "s": cmatrix_to_json(self.s),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RealizedSchurFunction":
        from .serialize import cmatrix_from_json

        k, m = data["k"], data["m"]
        for key, size in (("k", k), ("m", m)):  # int() would read 2.5, "2" and true
            if isinstance(size, bool) or not isinstance(size, int):
                raise ValueError(f"{key} must be an integer, got {size!r}")
        return cls(
            k,
            m,
            cmatrix_from_json(data["p"], (k, k)),
            cmatrix_from_json(data["q"], (k, m)),
            cmatrix_from_json(data["r"], (m, k)),
            cmatrix_from_json(data["s"], (m, m)),
        )


def random_schur(k: int, m: int, seed: int, max_sigma: float = 1.0 - 1e-6) -> RealizedSchurFunction:
    """Random Schur function from a singular-value-clipped complex Gaussian.

    Deterministic in ``seed``.  Singular values of the raw ``(k+m)`` square
    Gaussian are clipped to ``max_sigma`` so the colligation is a strict
    contraction.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    if not 0.0 < max_sigma <= 1.0 - 1e-12:
        raise ValueError("max_sigma must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k + m, k + m)) + 1j * rng.standard_normal((k + m, k + m))
    u, sig, vh = np.linalg.svd(raw / np.sqrt(2.0))
    v = (u * np.minimum(sig, max_sigma)) @ vh
    return RealizedSchurFunction.from_colligation(v, k, m)


@dataclass(frozen=True)
class SchurNormReport:
    max_norm: float
    argmax: complex
    passed: bool
    tol: float


def verify_schur(f: RealizedSchurFunction, grid_size: int = 24, tol: float = 1e-9) -> SchurNormReport:
    """Check contractivity of ``F`` on a radial-angular grid of radius 1 - 1e-3."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    radii = (1.0 - 1e-3) * np.arange(1, grid_size + 1) / grid_size
    angles = 2.0 * np.pi * np.arange(max(grid_size, 8)) / max(grid_size, 8)
    lam = np.concatenate([[0.0 + 0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()])
    vals = f.evaluate_many(lam)
    norms = np.linalg.norm(vals, ord=2, axis=(1, 2))
    i = int(np.argmax(norms))
    top = float(norms[i])
    return SchurNormReport(top, complex(lam[i]), bool(top <= 1.0 + tol), tol)


def realization_to_rational(f: RealizedSchurFunction):
    """Entries of ``F`` as rational functions with denominator ``det(I - lam S)``.

    Returns a ``k x k`` nested list of :class:`~gammapick.hardy.RationalFunction`.
    The numerators have degree at most ``m`` and are recovered exactly by
    polynomial interpolation of ``F(lam) det(I - lam S)``.
    """
    from .hardy import RationalFunction

    poly = np.polynomial.polynomial
    if f.m == 0:
        den, coeffs = np.ones(1), [[v] for v in f.p.ravel()]
    else:
        eigs = np.linalg.eigvals(f.s)
        den = np.array([1.0 + 0j])
        for e in eigs:
            den = poly.polymul(den, np.array([1.0, -e], dtype=complex))
        # F_ij * den is a polynomial of degree <= m: interpolate on m+1 nodes
        nodes = 0.5 * np.exp(2j * np.pi * np.arange(f.m + 1) / (f.m + 1))
        vals = f.evaluate_many(nodes)
        denvals = poly.polyval(nodes, den)
        vander = np.vander(nodes, f.m + 1, increasing=True)
        coeffs = [
            np.linalg.solve(vander, vals[:, i, j] * denvals)
            for i in range(f.k)
            for j in range(f.k)
        ]
    entries = RationalFunction.over(den, coeffs)
    return [entries[i * f.k : (i + 1) * f.k] for i in range(f.k)]

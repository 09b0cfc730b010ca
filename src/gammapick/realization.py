"""Schur-class matrix functions given by contractive colligations.

A function ``F(lam) = P + lam Q (I - lam S)^{-1} R`` on the open unit disc is
stored through the block matrix ``V = [[P, Q], [R, S]]``; ``F`` takes values
in the ``k x k`` contractions whenever ``V`` is a contraction.  As ``V``
maps ``(u, lam x')`` to ``(F(lam) u, x')``, ``||V|| <= rho`` gives
``||F(lam)|| <= rho`` for ``|lam| < 1 / rho``: the colligation check of
every constructor, ``rho = 1 + NORM_SLACK``, bounds ``F`` with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import _poly
from .linalg import as_cmatrix, operator_norm
from .tolerances import GRAM_SLACK, MODAL_KAPPA, NORM_SLACK, SIGMA_GAP

__all__ = ["RealizedSchurFunction", "random_schur", "realization_to_rational"]

# values_of evaluates from the modal form only at this many points or more.
# Below it, the eig, cond and solve that the modal form needs once (50-300 us
# for m <= 12 states) win back little or nothing: uw ops (16 points) and
# right-s ops (64 points) time the same on either path, and the stacked
# certify Pick checks, at no more points than states, are faster on LU
_MODAL_POINTS = 128
# random_schur's default largest singular value
_MAX_SIGMA = 1.0 - 1e-6


@dataclass(frozen=True)
class RealizedSchurFunction:
    """Colligation blocks of a matrix Schur function.

    ``p`` is ``k x k``, ``q`` is ``k x m``, ``r`` is ``m x k`` and ``s`` is
    ``m x m``; the stacked block matrix must be a contraction within
    ``NORM_SLACK``.  ``m = 0`` encodes a constant function.
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
        contraction within ``NORM_SLACK``, else the ``ValueError`` that says
        it is not.

        One stacked Gram defect certifies the unitary colligations with no
        SVD; only a colligation that fails that test goes on to the norm
        check.
        """
        gram = vs.conj().swapaxes(1, 2) @ vs
        gram[:, np.arange(vs.shape[1]), np.arange(vs.shape[1])] -= 1.0
        # ||V* V - I||_F of each colligation
        certified = np.linalg.norm(gram, axis=(1, 2)) <= GRAM_SLACK
        errors: list = [None] * len(vs)
        for b in np.flatnonzero(~certified):
            norm = operator_norm(vs[b])
            if norm > 1.0 + NORM_SLACK:
                errors[b] = ValueError(f"colligation norm {norm:.12f} exceeds 1 + {NORM_SLACK}")
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
        blocks = self.p[None], self.q[None], self.r[None], self.s[None]
        return self.values_of(*blocks, lam[None])[0]

    @staticmethod
    def values_of(p, q, r, s, lam) -> np.ndarray:
        """``F(lam) = p + lam q (I - lam s)^{-1} r`` for a ``(b,)`` stack of
        functions of one shape at points ``lam`` of shape ``(b, n)``: shape
        ``(b, n, k, k)``.

        The path is chosen here and nowhere else.  With ``n >= _MODAL_POINTS``
        and ``n > m``, each member whose eigenbasis has ``kappa(V) <=
        MODAL_KAPPA`` is evaluated from its modal form (:func:`_modal_forms`).
        Every other member, and every smaller call, gets one LU solve of
        ``I - lam s`` per point: that path is as fast or faster for few
        points, and the only accurate one for an ill-conditioned or defective
        eigenbasis.  The rule reads only ``n``, ``m`` and each member's own ``kappa(V)``, so a stack gives
        each function the values it gives that function alone, to the last
        bit.
        """
        (b, n), m = lam.shape, s.shape[-1]
        if m == 0:
            return np.broadcast_to(p[:, None], (b, n, *p.shape[1:])).copy()
        if n < max(_MODAL_POINTS, m + 1):
            return _lu_values(p, q, r, s, lam)
        modal, mu, residues = _modal_forms(q, r, s)
        out = np.empty((b, n, *p.shape[1:]), dtype=complex)
        out[modal] = _modal_values(p[modal], mu, residues, lam[modal])
        if not modal.all():
            lu = ~modal
            out[lu] = _lu_values(p[lu], q[lu], r[lu], s[lu], lam[lu])
        return out

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


def _modal_forms(q, r, s):
    """The modal forms of a ``(b,)`` stack of functions, from one stacked ``eig``.

    ``F(lam) = P + sum_j lam / (1 - lam mu_j) (QV)_{:,j} (V^{-1} R)_{j,:}``
    with ``S = V diag(mu) V^{-1}``.  Returns ``(modal, mu, residues)``: the
    mask of the members whose eigenbasis has ``kappa(V) <= MODAL_KAPPA``,
    and for those members only, the poles ``mu`` of shape ``(., m)`` and the
    residues flattened to ``(., m, k * k)``.
    """
    k, m = q.shape[1:]
    mu, v = np.linalg.eig(s)
    modal = np.linalg.cond(v) <= MODAL_KAPPA  # False where kappa is inf or nan
    qv, vr = q[modal] @ v[modal], np.linalg.solve(v[modal], r[modal])
    residues = qv.swapaxes(1, 2)[..., None] * vr[:, :, None, :]
    return modal, mu[modal], residues.reshape(-1, m, k * k)


def _lu_values(p, q, r, s, lam) -> np.ndarray:
    """:meth:`RealizedSchurFunction.values_of` by one LU solve of ``I - lam s``
    per point."""
    (b, n), k, m = lam.shape, p.shape[-1], s.shape[-1]
    at = lam[:, :, None, None]
    a = np.eye(m, dtype=complex) - at * s[:, None, :, :]
    x = np.linalg.solve(a, np.broadcast_to(r[:, None, :, :], (b, n, m, k)))
    return p[:, None, :, :] + at * (q[:, None, :, :] @ x)


def _modal_values(p, mu, residues, lam) -> np.ndarray:
    """:meth:`RealizedSchurFunction.values_of` from the poles ``mu`` and
    flattened residues of :func:`_modal_forms`."""
    (b, n), k = lam.shape, p.shape[-1]
    at = lam[:, :, None, None]
    # one (m,) @ (m, k * k) product per point: one (n, m) @ (m, k * k) gemm
    # goes to OpenBLAS threads, which stall for milliseconds on a busy host
    terms = (at / (1.0 - at * mu[:, None, None, :])) @ residues[:, None, :, :]
    return p[:, None, :, :] + terms.reshape(b, n, k, k)


def random_schur(k: int, m: int, seed: int, max_sigma: float = _MAX_SIGMA) -> RealizedSchurFunction:
    """Random Schur function from a singular-value-clipped complex Gaussian.

    Deterministic in ``seed``.  Singular values of the raw ``(k+m)`` square
    Gaussian are clipped to ``max_sigma`` so the colligation is a strict
    contraction.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    if not 0.0 < max_sigma <= 1.0 - SIGMA_GAP:
        raise ValueError("max_sigma must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k + m, k + m)) + 1j * rng.standard_normal((k + m, k + m))
    u, sig, vh = np.linalg.svd(raw / np.sqrt(2.0))
    v = (u * np.minimum(sig, max_sigma)) @ vh
    return RealizedSchurFunction.from_colligation(v, k, m)


def realization_to_rational(f: RealizedSchurFunction):
    """Entries of ``F`` as rational functions with denominator ``det(I - lam S)``.

    Returns a ``k x k`` nested list of :class:`~gammapick.hardy.RationalFunction`.
    The numerators have degree at most ``m`` and are recovered exactly by
    polynomial interpolation of ``F(lam) det(I - lam S)``.
    """
    from .hardy import RationalFunction

    if f.m == 0:
        den, coeffs = np.ones(1), [[v] for v in f.p.ravel()]
    else:
        eigs = np.linalg.eigvals(f.s)
        den = np.array([1.0 + 0j])
        for e in eigs:
            den = _poly.mul(den, np.array([1.0, -e], dtype=complex))
        # F_ij * den is a polynomial of degree <= m: interpolate on m+1 nodes
        nodes = 0.5 * np.exp(2j * np.pi * np.arange(f.m + 1) / (f.m + 1))
        vals = f.evaluate_many(nodes)
        denvals = _poly.val(nodes, den)
        vander = np.vander(nodes, f.m + 1, increasing=True)
        coeffs = [
            np.linalg.solve(vander, vals[:, i, j] * denvals)
            for i in range(f.k)
            for j in range(f.k)
        ]
    entries = RationalFunction.over(den, coeffs)
    return [entries[i * f.k : (i + 1) * f.k] for i in range(f.k)]

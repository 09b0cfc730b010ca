"""Sampled analytic kernel triples attached to a 3x3 matrix Schur function.

For sample points ``t = (lam_t, z1_t, z2_t)`` of ``D^3`` the three Gram
matrices built here are

    N1[t,u] = gamma1(t) conj(gamma1(u))
    N2[t,u] = gamma2(t) conj(gamma2(u))
    N3[t,u] = eta(u)* [(I - F(lam_u)* F(lam_t)) / (1 - conj(lam_u) lam_t)] eta(t)

with ``gamma`` and ``eta`` from the fractional map.  They satisfy the exact
decomposition

    1 - G(t) conj(G(u)) = (1 - z1_t conj(z1_u)) N1 + (1 - z2_t conj(z2_u)) N2
                          + (1 - lam_t conj(lam_u)) N3,

so the combined kernel ``K = 1 - sum of weighted N's`` is the rank-one outer
product of the ``G`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fractional import se_values
from .linalg import IndefiniteMatrixError, Spectrum, hermitian_part
from .realization import RealizedSchurFunction
from .tolerances import HERMITIAN_TOL, KERNEL_TOL

__all__ = [
    "SampleGrid",
    "SampledKernel",
    "KernelTriple",
    "tensor_grid",
    "upper_e",
    "combine_k",
    "kernel_rank",
    "membership",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampleGrid:
    """Finite, non-empty list of pairwise distinct sample points of ``D^3``.

    ``diagonal`` marks grids with ``z1 == z2`` everywhere, used by the
    diagonal membership test.
    """

    points: tuple[tuple[complex, complex, complex], ...]
    diagonal: bool = False

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("need at least one point")
        if any(len(p) != 3 for p in self.points):
            raise ValueError("grid points must be (lam, z1, z2) triples")
        pts = tuple(
            (complex(p[0]), complex(p[1]), complex(p[2])) for p in self.points
        )
        for lam, z1, z2 in pts:
            if not (abs(lam) < 1.0 and abs(z1) < 1.0 and abs(z2) < 1.0):
                raise ValueError("grid points must lie in the open unit polydisc")
        if len(set(pts)) != len(pts):
            raise ValueError("grid points must be pairwise distinct")
        if self.diagonal and any(z1 != z2 for _, z1, z2 in pts):
            raise ValueError("diagonal grid requires z1 == z2 at every point")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def lam(self) -> np.ndarray:
        return _read_only(np.array([p[0] for p in self.points], dtype=complex))

    @cached_property
    def z1(self) -> np.ndarray:
        return _read_only(np.array([p[1] for p in self.points], dtype=complex))

    @cached_property
    def z2(self) -> np.ndarray:
        return _read_only(np.array([p[2] for p in self.points], dtype=complex))


def tensor_grid(
    n_lambda: int = 4,
    n_z: int = 4,
    radius: float = 0.9,
    seed: int = 0,
    diagonal: bool = False,
) -> SampleGrid:
    """Deterministic product grid: ``n_lambda`` disc points times ``n_z`` z-pairs.

    Points are laid out on golden-angle spirals with radii bounded by
    ``radius``; the seed only rotates the spirals, so grids of equal sizes
    share their radial profile.  Every ``lam`` appears with all ``n_z``
    z-pairs, which keeps the per-lambda heads ``(1, z1 a, z2 b)`` spanning.
    """
    if not 0.5 <= radius < 1.0:
        raise ValueError("radius must lie in [0.5, 1)")
    if n_lambda < 1 or n_z < 1:
        raise ValueError("grid sizes must be positive")
    rng = np.random.default_rng(seed)
    rot = rng.uniform(0.0, 1.0, size=3)
    j = np.arange(n_lambda)
    lam = (0.35 + 0.6 * (radius - 0.35) * (j + 1) / n_lambda) * np.exp(
        2j * np.pi * ((j * _GOLDEN + rot[0]) % 1.0)
    )
    k = np.arange(n_z)
    z1 = (0.3 + 0.55 * (radius - 0.3) * (k + 1) / n_z) * np.exp(
        2j * np.pi * ((k * _GOLDEN + rot[1]) % 1.0)
    )
    if diagonal:
        z2 = z1
    else:
        z2 = (0.25 + 0.6 * (radius - 0.25) * (k + 1) / n_z) * np.exp(
            2j * np.pi * (((k + 1) * _GOLDEN + rot[2]) % 1.0)
        )
    points = [
        (complex(l), complex(a), complex(b))
        for l in lam
        for a, b in zip(z1, z2)
    ]
    return SampleGrid(tuple(points), diagonal=diagonal)


@dataclass(frozen=True)
class SampledKernel:
    """A kernel sampled on a grid: hermitian Gram matrix plus its grid.

    ``gram`` is read-only, so its spectrum, computed on first use, never goes
    stale.
    """

    grid: SampleGrid
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        t = len(self.grid)
        if g.shape != (t, t):
            raise ValueError(f"gram must be {t}x{t}")
        scale = max(1.0, float(np.abs(g).max()))
        if float(np.abs(g - g.conj().T).max()) > HERMITIAN_TOL * scale:
            raise ValueError("gram matrix must be hermitian")
        object.__setattr__(self, "gram", _read_only(hermitian_part(g)))

    @cached_property
    def spectrum(self) -> Spectrum:
        """Spectrum of ``gram``, built once; ``gram`` is exactly hermitian, so
        it is read as it is."""
        return Spectrum.of_hermitian(self.gram)

    def is_psd(self, tol: float = KERNEL_TOL) -> bool:
        """Whether ``min eigenvalue >= -tol * max(1, max eigenvalue)``."""
        return self.spectrum.is_psd(tol)


@dataclass(frozen=True)
class KernelTriple:
    """The three sampled kernels of one Schur function on one grid, and the
    function's values at the grid's ``lam`` when :func:`upper_e` sampled them."""

    grid: SampleGrid
    n1: SampledKernel
    n2: SampledKernel
    n3: SampledKernel
    g_values: np.ndarray = field(repr=False)
    f_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for part in (self.n1, self.n2, self.n3):
            if part.grid is not self.grid and part.grid != self.grid:
                raise ValueError("kernel parts must share the triple's grid")
        g = np.asarray(self.g_values, dtype=complex).ravel()
        if g.shape != (len(self.grid),):
            raise ValueError("g_values must have one entry per grid point")
        object.__setattr__(self, "g_values", g)

    @cached_property
    def combined(self) -> SampledKernel:
        """The kernel of :func:`combine_k`, computed once."""
        lam, z1, z2 = self.grid.lam, self.grid.z1, self.grid.z2
        w1 = 1.0 - z1[:, None] * z1.conj()[None, :]
        w2 = 1.0 - z2[:, None] * z2.conj()[None, :]
        w3 = 1.0 - lam[:, None] * lam.conj()[None, :]
        k = 1.0 - w1 * self.n1.gram - w2 * self.n2.gram - w3 * self.n3.gram
        return SampledKernel(self.grid, k)


def upper_e(f: RealizedSchurFunction, grid: SampleGrid) -> KernelTriple:
    """Sample the kernel triple of ``f`` on ``grid``.

    Raises :class:`~gammapick.fractional.SingularFractionError` when the
    fractional map degenerates at a grid point.
    """
    lam, z1, z2 = grid.lam, grid.z1, grid.z2
    g, gamma, eta, _, fv = se_values(f, lam, z1, z2)
    feta = np.einsum("tij,tj->ti", fv, eta)
    num = eta @ eta.conj().T - feta @ feta.conj().T
    den = 1.0 - lam[:, None] * lam.conj()[None, :]
    n1, n2 = (np.outer(u, u.conj()) for u in gamma.T)
    return KernelTriple(
        grid,
        SampledKernel(grid, n1),
        SampledKernel(grid, n2),
        SampledKernel(grid, num / den),
        g,
        fv,
    )


def combine_k(triple: KernelTriple) -> SampledKernel:
    """Combined kernel ``K = 1 - w1 N1 - w2 N2 - w3 N3`` on the triple's grid.

    Computed once per triple: every call returns the same object.
    """
    return triple.combined


def kernel_rank(kernel: SampledKernel, tol: float = KERNEL_TOL) -> int:
    """Numerical rank of a PSD sampled kernel.

    Eigenvalues above ``tol * max(1, max_eig)`` count; one below minus that
    raises :class:`~gammapick.linalg.IndefiniteMatrixError`.
    """
    return kernel.spectrum.rank(tol)


def membership(triple: KernelTriple, which: str, tol: float = KERNEL_TOL) -> bool:
    """Test a sampled triple against one of the admissible-kernel classes.

    ``which`` is ``"R1"`` (all four kernels PSD, combined kernel of rank at
    most one), ``"R11"`` (additionally ``N1``, ``N2`` and the combined kernel
    of rank exactly one) or ``"S1"`` (the ``R1`` conditions on a diagonal
    grid).  ``N3`` is certified PSD by a Cholesky, and ``N1``, ``N2`` and
    the combined kernel of rank one by the rank-one bounds of their Gram
    columns of largest diagonal (see :class:`~gammapick.linalg.Spectrum`),
    so a member is decided with no eigendecomposition unless ``tol`` is
    within rounding of a kernel's floor.
    """
    if which not in ("R1", "R11", "S1"):
        raise ValueError(f"unknown membership class {which!r}")
    if which == "S1" and not triple.grid.diagonal:
        raise ValueError("S1 membership is defined on diagonal grids only")
    k = combine_k(triple)
    try:
        # a rank is counted only for a kernel that is PSD within tol
        ranks = [kernel_rank(part, tol) for part in (triple.n1, triple.n2, k)]
    except IndefiniteMatrixError:
        return False
    if not triple.n3.is_psd(tol):
        return False
    if which == "R11":
        return ranks == [1, 1, 1]
    return ranks[2] <= 1

"""Linear-fractional evaluation attached to a 3x3 matrix Schur function.

For ``F`` with block decomposition ``[[F11, F12 F13], [F21; F31, B]]`` and
``Z = diag(z1, z2)`` the map computed here is

    G(lam, z1, z2) = F11 + (F12, F13) Z (I - B Z)^{-1} (F21, F31)^T,

together with the auxiliary vector ``gamma = (I - B Z)^{-1} (F21, F31)^T``
and ``eta = (1, z1 gamma1, z2 gamma2)``.  The associated signed map is
``-G``; both orientations are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .realization import RealizedSchurFunction

__all__ = [
    "SingularFractionError",
    "SEEvaluation",
    "se_eval",
    "se_values",
]

_DET_FLOOR = 1e-12


class SingularFractionError(ArithmeticError):
    """The 2x2 resolvent ``I - B Z`` is numerically singular."""


@dataclass(frozen=True)
class SEEvaluation:
    """One evaluation of the fractional map.

    ``value`` is ``G``; the signed map is ``-G`` and is exposed as
    ``se_value``.
    """

    value: complex
    gamma: tuple[complex, complex]
    eta: tuple[complex, complex, complex]
    det_c: complex

    @property
    def se_value(self) -> complex:
        return -self.value


def _check_disc(name: str, values: np.ndarray):
    if not np.all(np.abs(values) < 1.0):
        raise ValueError(f"{name} must lie in the open unit disc")


def se_values(f: RealizedSchurFunction, lam, z1, z2):
    """Vectorized core of the fractional map.

    Returns ``(g, gamma, eta, det_c, fvals)`` where ``g`` has shape ``(B,)``,
    ``gamma`` ``(B, 2)``, ``eta`` ``(B, 3)`` and ``fvals`` ``(B, 3, 3)``.
    """
    if f.k != 3:
        raise ValueError("the fractional map needs a 3x3 matrix Schur function")
    lam = np.asarray(lam, dtype=complex).ravel()
    z1 = np.asarray(z1, dtype=complex).ravel()
    z2 = np.asarray(z2, dtype=complex).ravel()
    if not lam.shape == z1.shape == z2.shape:
        raise ValueError("lam, z1, z2 must have matching shapes")
    _check_disc("lam", lam)
    _check_disc("z1", z1)
    _check_disc("z2", z2)
    fv = f.evaluate_many(lam)
    # I - B Z = [[c11, -F23 z2], [-F32 z1, c22]]
    c11, c22 = 1.0 - fv[:, 1, 1] * z1, 1.0 - fv[:, 2, 2] * z2
    det_c = c11 * c22 - fv[:, 1, 2] * fv[:, 2, 1] * z1 * z2
    bad = np.abs(det_c) < _DET_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularFractionError(
            f"resolvent determinant {det_c[i]:.3e} below {_DET_FLOOR} at lam={lam[i]}, "
            f"z1={z1[i]}, z2={z2[i]}"
        )
    # gamma = (I - B Z)^{-1} (F21, F31)^T by the 2x2 inverse over det_c
    gamma = np.empty((lam.size, 2), dtype=complex)
    gamma[:, 0] = (c22 * fv[:, 1, 0] + fv[:, 1, 2] * z2 * fv[:, 2, 0]) / det_c
    gamma[:, 1] = (c11 * fv[:, 2, 0] + fv[:, 2, 1] * z1 * fv[:, 1, 0]) / det_c
    g = fv[:, 0, 0] + fv[:, 0, 1] * z1 * gamma[:, 0] + fv[:, 0, 2] * z2 * gamma[:, 1]
    eta = np.stack([np.ones_like(g), z1 * gamma[:, 0], z2 * gamma[:, 1]], axis=-1)
    return g, gamma, eta, det_c, fv


def se_eval(f: RealizedSchurFunction, lam: complex, z1: complex, z2: complex) -> SEEvaluation:
    """Scalar evaluation of the fractional map; see :class:`SEEvaluation`."""
    g, gamma, eta, det_c, _ = se_values(f, [lam], [z1], [z2])
    return SEEvaluation(
        complex(g[0]),
        (complex(gamma[0, 0]), complex(gamma[0, 1])),
        (complex(eta[0, 0]), complex(eta[0, 1]), complex(eta[0, 2])),
        complex(det_c[0]),
    )

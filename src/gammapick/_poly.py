"""Polynomial arithmetic on 1-d complex coefficient arrays, ascending.

Each function gives the bits of its ``numpy.polynomial.polynomial``
counterpart (``polyadd``, ``polysub``, ``polymul``, ``polyval``,
``polyroots``) on such arrays, with none of its input checks or
conversions: the same trailing-exact-zero trims, the same companion matrix
and the same sorted roots.  :func:`roots` solves a stack of polynomials of
one length with one ``eigvals``; each gets the bits it gets alone.
"""

from __future__ import annotations

import numpy as np

from .tolerances import TRIM_RTOL

__all__ = ["trims", "padded", "add", "sub", "mul", "val", "horner", "roots"]


def _exact(c: np.ndarray) -> np.ndarray:
    """``c`` less its trailing exact zeros, one entry kept (``trimseq``)."""
    if c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def padded(rows) -> np.ndarray:
    """``rows``, coefficient arrays, as complex rows zero-padded into one
    ``(len(rows), max(1, longest))`` stack."""
    rows = [np.asarray(row, dtype=complex).ravel() for row in rows]
    stack = np.zeros((len(rows), max([1, *(row.size for row in rows)])), dtype=complex)
    for out, row in zip(stack, rows):
        out[: row.size] = row
    return stack


def trims(rows) -> list:
    """Each of ``rows``, a stack ``(S, L)`` with ``L >= 1`` or else a list of
    coefficient arrays (:func:`padded`: trailing zeros change no trim), as a
    complex row with its entries of at most ``TRIM_RTOL`` of its largest set
    to zero and the trailing ones dropped, ``[0]`` if all are; each row gets
    the bits it gets alone.  One comparison and one zeroed copy for the
    stack, then a view of that copy per row."""
    stack = rows if isinstance(rows, np.ndarray) and rows.shape[-1] else padded(rows)
    mods = np.abs(stack)
    small = mods <= TRIM_RTOL * np.maximum.reduce(mods, axis=1, keepdims=True)
    kept = stack.shape[1] - small[:, ::-1].argmin(axis=1)
    kept[small.all(axis=1)] = 1  # [0] for a row of zeros
    return [row[:n] for row, n in zip(np.where(small, 0.0, stack), kept.tolist())]


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _exact(a), _exact(b)
    long, short = (a, b) if a.size > b.size else (b, a)
    out = long.copy()
    out[: short.size] += short
    return _exact(out)


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _exact(a), _exact(b)
    if a.size > b.size:
        out = a.copy()
        out[: b.size] -= b
    else:
        out = -b
        out[: a.size] += a
    return _exact(out)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _exact(np.convolve(_exact(a), _exact(b)))


def val(x, c: np.ndarray):
    """``c`` at ``x``, any shape, by Horner's rule."""
    out = c[-1] + x * 0
    for coef in c[-2::-1]:
        out = coef + out * x
    return out


def horner(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each row of ``h`` at ``points``, shape ``(rows, points)``: the
    arithmetic of :func:`val`, in place, with no temporary per step."""
    out = h[:, -1:] + points * 0
    for col in h.T[-2::-1]:
        out *= points
        out += col[:, None]
    return out


def roots(stack: np.ndarray) -> np.ndarray:
    """The roots of each row of ``stack``, ``(b, n + 1)`` with ``n >= 1`` and
    nonzero last entries, as ``(b, n)``: each row sorted, from the companion
    matrices of all rows in one ``eigvals``."""
    b, n = stack.shape[0], stack.shape[1] - 1
    if n == 1:
        return np.array([[-c[0] / c[1]] for c in stack])
    mats = np.zeros((b, n, n), dtype=stack.dtype)
    mats[:, np.arange(1, n), np.arange(n - 1)] = 1
    mats[:, :, -1] -= stack[:, :-1] / stack[:, -1:]
    out = np.linalg.eigvals(mats)
    out.sort(axis=-1)
    return out

"""The lean polynomial core gives the bits of ``numpy.polynomial``, and a
stacked root solve gives each polynomial the bits it gets alone."""

import re
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from gammapick import _poly

SRC = Path(_poly.__file__).parent


def _series(rng, size, trailing_zeros=0):
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    if trailing_zeros:
        c[-trailing_zeros:] = 0.0
    return c


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_numpy_polynomial_byte_for_byte(seed):
    rng = np.random.default_rng(seed)
    x = _series(rng, 7)
    for _ in range(200):
        a = _series(rng, int(rng.integers(1, 9)), int(rng.integers(0, 3)) % 2)
        b = _series(rng, int(rng.integers(1, 9)), int(rng.integers(0, 4)) // 3)
        for ours, theirs in (
            (_poly.add, npoly.polyadd),
            (_poly.sub, npoly.polysub),
            (_poly.mul, npoly.polymul),
        ):
            assert ours(a, b).tobytes() == theirs(a, b).tobytes()
            assert ours(b, a).tobytes() == theirs(b, a).tobytes()
        assert _poly.val(x, a).tobytes() == npoly.polyval(x, a).tobytes()
        assert _poly.val(x[0], a) == npoly.polyval(x[0], a)
        assert _poly.horner(np.stack([b, b]), x)[1].tobytes() == npoly.polyval(x, b).tobytes()


def test_zero_series_keep_one_entry():
    zero = np.zeros(3, dtype=complex)
    pairs = ((_poly.add, npoly.polyadd), (_poly.sub, npoly.polysub), (_poly.mul, npoly.polymul))
    for ours, theirs in pairs:
        assert ours(zero, zero).tobytes() == theirs(zero, zero).tobytes()
    assert _poly.mul(zero, zero).size == 1


@pytest.mark.parametrize("degree", range(1, 28))
def test_a_stacked_root_solve_gives_each_row_its_own_bits(degree):
    # one companion stack and one eigvals for all rows: each row's roots are
    # those it gets alone, and those of polyroots, sort order included
    rng = np.random.default_rng(degree)
    stack = np.stack([_series(rng, degree + 1) for _ in range(9)])
    together = _poly.roots(stack)
    assert together.shape == (9, degree)
    for row, roots in zip(stack, together):
        assert roots.tobytes() == _poly.roots(row[None])[0].tobytes()
        assert roots.tobytes() == npoly.polyroots(row).tobytes()


def test_trim_drops_small_trailing_coefficients_and_zeroes_small_ones():
    c = _poly.trim([1.0, 1e-14, 0.5, 1e-15, 0.0])
    assert c.tolist() == [1.0, 0.0, 0.5]
    assert _poly.trim([0.0, 0.0]).tolist() == [0.0]
    assert _poly.trim([]).tolist() == [0.0]
    nan = _poly.trim([np.nan, 0.0])
    assert nan.size == 2 and np.isnan(nan[0])


def test_no_module_uses_numpy_polynomial():
    pattern = re.compile(r"^\s*(from|import)\s+numpy\.polynomial|np\.polynomial\.", re.M)
    assert [p.name for p in sorted(SRC.glob("*.py")) if pattern.search(p.read_text())] == []

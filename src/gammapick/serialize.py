"""JSON encoding helpers.

Complex scalars are encoded as two-element ``[re, im]`` lists and matrices as
nested lists of such pairs, so every artifact of the package can be written
to and read back from plain JSON deterministically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "cvector_to_json",
    "cvector_from_json",
    "cmatrix_to_json",
    "cmatrix_from_json",
    "grid_to_json",
    "grid_field",
    "grid_from_json",
    "triple_to_json",
    "triple_from_json",
    "uw_result_to_json",
    "uw_result_from_json",
    "pick_data_to_json",
    "pick_data_from_json",
    "gamma_nodes_to_json",
    "gamma_nodes_from_json",
    "rational_to_json",
    "rational_from_json",
    "curve_to_json",
    "curve_from_json",
]


def complex_to_json(value) -> list[float]:
    value = complex(value)
    return [float(value.real), float(value.imag)]


def complex_from_json(data) -> complex:
    """A JSON number or ``[re, im]`` pair of numbers as a complex scalar.

    Booleans are not numbers here, and strings are not parsed: ``float()``
    alone would read ``true`` as 1 and ``"0.5"`` as 0.5.
    """
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return complex(float(data), 0.0)
    if not (isinstance(data, (list, tuple)) and len(data) == 2):
        raise ValueError(f"expected [re, im] pair, got {data!r}")
    re, im = data
    if isinstance(re, (str, bool)) or isinstance(im, (str, bool)):
        raise ValueError(f"expected [re, im] pair of numbers, got {data!r}")
    return complex(float(re), float(im))


def cvector_to_json(vec) -> list:
    vec = np.asarray(vec, dtype=complex).ravel()
    return np.stack((vec.real, vec.imag), axis=1).tolist()


def cvector_from_json(data) -> np.ndarray:
    return np.array([complex_from_json(v) for v in data], dtype=complex)


def cmatrix_to_json(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    return [[complex_to_json(v) for v in row] for row in mat]


def cmatrix_from_json(data, shape=None) -> np.ndarray:
    rows = [[complex_from_json(v) for v in row] for row in data]
    mat = np.array(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)
    if shape is not None:
        if mat.size == 0:
            mat = np.zeros(shape, dtype=complex)
        if mat.shape != tuple(shape):
            raise ValueError(f"expected shape {shape}, got {mat.shape}")
    return mat


def grid_to_json(grid) -> dict:
    return {
        "diagonal": bool(grid.diagonal),
        "points": [
            [complex_to_json(lam), complex_to_json(z1), complex_to_json(z2)]
            for lam, z1, z2 in grid.points
        ],
    }


def grid_field(spec: dict, key: str, default, kind: type):
    """``spec[key]`` (``default`` when absent) as a ``kind``: ``bool`` takes a
    JSON boolean, ``int`` an integer and ``float`` any number.

    Booleans are not numbers here, and strings are not parsed: ``bool()``
    alone would read ``"false"`` as true and ``float()`` would read ``"0.7"``.
    """
    value = spec.get(key, default)
    types = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        name = {bool: "true or false", int: "an integer", float: "a number"}[kind]
        raise ValueError(f"grid field {key!r} must be {name}, got {value!r}")
    return kind(value)


def grid_from_json(data):
    from .kernels import SampleGrid

    points = tuple(tuple(complex_from_json(v) for v in p) for p in data["points"])
    return SampleGrid(points, diagonal=grid_field(data, "diagonal", False, bool))


def triple_to_json(triple) -> dict:
    return {
        "grid": grid_to_json(triple.grid),
        "n1": cmatrix_to_json(triple.n1.gram),
        "n2": cmatrix_to_json(triple.n2.gram),
        "n3": cmatrix_to_json(triple.n3.gram),
        "g_values": cvector_to_json(triple.g_values),
    }


def triple_from_json(data):
    from .kernels import KernelTriple, SampledKernel

    grid = grid_from_json(data["grid"])
    t = len(grid)
    return KernelTriple(
        grid,
        SampledKernel(grid, cmatrix_from_json(data["n1"], (t, t))),
        SampledKernel(grid, cmatrix_from_json(data["n2"], (t, t))),
        SampledKernel(grid, cmatrix_from_json(data["n3"], (t, t))),
        cvector_from_json(data["g_values"]),
    )


def uw_result_to_json(result) -> dict:
    return {
        "xi": result.xi.to_json(),
        "grid": grid_to_json(result.f1.grid),
        "f1": cvector_to_json(result.f1.values),
        "f2": cvector_to_json(result.f2.values),
        "g": cvector_to_json(result.g.values),
        "state_dim": int(result.state_dim),
    }


def uw_result_from_json(data):
    from .lurking import RankOneFactor, UWResult
    from .realization import RealizedSchurFunction

    grid = grid_from_json(data["grid"])
    return UWResult(
        RealizedSchurFunction.from_json(data["xi"]),
        RankOneFactor(grid, cvector_from_json(data["f1"])),
        RankOneFactor(grid, cvector_from_json(data["f2"])),
        RankOneFactor(grid, cvector_from_json(data["g"])),
        int(data["state_dim"]),
    )


def pick_data_to_json(data) -> dict:
    return {
        "nodes": [complex_to_json(v) for v in data.nodes],
        "targets": [cmatrix_to_json(t) for t in data.targets],
    }


def pick_data_from_json(data):
    from .nevanlinna import PickData

    return PickData(
        tuple(complex_from_json(v) for v in data["nodes"]),
        tuple(cmatrix_from_json(t) for t in data["targets"]),
    )


def gamma_nodes_to_json(data) -> dict:
    return {
        "variant": data.variant,
        "nodes": [complex_to_json(v) for v in data.nodes],
        "points": [cvector_to_json(p.entries) for p in data.points],
    }


def gamma_nodes_from_json(data):
    from .domains import GammaPoint
    from .nevanlinna import GammaNodes

    variant = str(data["variant"])
    points = tuple(
        GammaPoint(variant, tuple(complex_from_json(e) for e in entry))
        for entry in data["points"]
    )
    return GammaNodes(
        variant, tuple(complex_from_json(v) for v in data["nodes"]), points
    )


def rational_to_json(f) -> dict:
    return {
        "numerator": cvector_to_json(f.numerator),
        "denominator": cvector_to_json(f.denominator),
    }


def rational_from_json(data):
    from .hardy import RationalFunction

    return RationalFunction(
        cvector_from_json(data["numerator"]), cvector_from_json(data["denominator"])
    )


def curve_to_json(curve) -> dict:
    return {
        "variant": curve.variant,
        "components": [rational_to_json(c) for c in curve.components],
    }


def curve_from_json(data):
    """A curve whose components are built over each distinct denominator at
    once, so each is certified once."""
    from .hardy import RationalFunction
    from .nevanlinna import GammaCurve

    variant = str(data["variant"])
    comps = [
        (cvector_from_json(c["numerator"]), cvector_from_json(c["denominator"]))
        for c in data["components"]
    ]
    groups: dict[bytes, list[int]] = {}
    for i, (_, den) in enumerate(comps):
        groups.setdefault(den.tobytes(), []).append(i)
    built = [None] * len(comps)
    for idx in groups.values():
        funcs = RationalFunction.over(comps[idx[0]][1], [comps[i][0] for i in idx])
        for i, f in zip(idx, funcs):
            built[i] = f
    return GammaCurve(variant, tuple(built))

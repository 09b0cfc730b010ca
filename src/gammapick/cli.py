"""Command-line front end.

Problem instances are JSON files (``--in``) with complex numbers encoded as
``[re, im]`` pairs.  Reports go to standard output as JSON (or ``--text``
for a line-oriented rendering) and embed the options that produced them,
so identical inputs and seeds give byte-identical output.  Each subcommand
accepts only the options it reads, as declared in ``_COMMANDS``.

Exit codes: 0 for a successful/affirmative computation, 2 for a
well-formed problem with a negative answer (unsolvable Pick data,
membership failure, a verification residual above tolerance), 1 for
malformed input, a command line that does not parse included; ``--help``
exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .domains import BlockStructure, GammaPoint, mu, tetrablock_member
from .fractional import SingularFractionError, se_values
from .kernels import SampleGrid, combine_k, kernel_rank, membership, tensor_grid, upper_e
from .linalg import IndefiniteMatrixError
from .lurking import (
    GramInconsistencyError,
    RankError,
    right_s,
    torus_fit,
    uw_construct,
    verify_uw,
)
from .nevanlinna import (
    DEFAULT_Z_GRID,
    UnsolvablePickError,
    _certify,
    _slice_grid,
    certify_gamma7_interpolation,
    np_solve,
    reduce_gamma5,
    reduce_gamma7,
    sample_curve,
)
from .realization import RealizedSchurFunction, random_schur
from .serialize import (
    cmatrix_from_json,
    complex_from_json,
    complex_to_json,
    curve_from_json,
    cvector_to_json,
    gamma_nodes_from_json,
    grid_field,
    grid_from_json,
    pick_data_from_json,
    pick_data_to_json,
)
from .tolerances import (
    KERNEL_TOL,
    MEMBER_TOL,
    PHASE_FLOOR,
    PICK_TOL,
    SE_SUP_TOL,
    TORUS_FIT_TOL,
    UW_TOL,
)

__all__ = ["run", "main"]


class InputError(Exception):
    """Malformed instance file or command line."""


class Declined(Exception):
    """A well-formed instance the computation cannot handle: exit code 2 with
    ``report`` (an ``error`` and the ``options``)."""

    def __init__(self, report: dict):
        super().__init__(report["error"])
        self.report = report


def _load_payload(args) -> dict:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.infile}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {args.infile}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("instance file must hold a JSON object")
    return payload


def _parse_z_grid(text: str) -> tuple:
    """The ``--z2-grid`` type.  Its ``InputError`` is not an argparse error,
    so it leaves the parser with its own message."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            z = complex(token)
        except ValueError as exc:
            raise InputError(f"cannot parse {token!r} as a complex number") from exc
        if not np.isfinite(z):
            raise InputError(f"--z2-grid entries must be finite, got {token!r}")
        if abs(z) >= 1.0:
            raise InputError(f"--z2-grid entries must lie in the open unit disc, got {token!r}")
        out.append(z)
    if not out:
        raise InputError("--z2-grid is empty")
    return tuple(out)


def _require(payload: dict, key: str):
    if key not in payload:
        raise InputError(f"instance file is missing the {key!r} field")
    return payload[key]


def _function_from(payload: dict) -> RealizedSchurFunction:
    data = _require(payload, "function")
    try:
        return RealizedSchurFunction.from_json(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # overflow: k or m inf
        raise InputError(f"bad realization data: {exc}") from exc


def _matrix_and_structure(payload: dict) -> tuple[np.ndarray, BlockStructure]:
    try:
        matrix = cmatrix_from_json(_require(payload, "matrix"))
        structure = BlockStructure.parse(payload.get("structure", "E(3;3;1,1,1)"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad matrix instance: {exc}") from exc
    if matrix.shape != (structure.n, structure.n):
        raise InputError(
            f"matrix shape {matrix.shape} does not fit structure {structure.label()}"
        )
    return matrix, structure


def _grid_from(payload: dict) -> tuple[SampleGrid, dict]:
    """Grid plus the echoed grid options."""
    spec = payload.get("grid", {})
    if not isinstance(spec, dict):
        raise InputError("grid field must be a JSON object")
    try:
        if "points" in spec:
            grid = grid_from_json(spec)
            return grid, {"points": len(grid), "diagonal": grid.diagonal}
        n_lambda = grid_field(spec, "n_lambda", 4, int)
        n_z = grid_field(spec, "n_z", 4, int)
        radius = grid_field(spec, "radius", 0.9, float)
        seed = grid_field(spec, "seed", 0, int)
        diagonal = grid_field(spec, "diagonal", False, bool)
        grid = tensor_grid(n_lambda, n_z, radius=radius, seed=seed, diagonal=diagonal)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad grid: {exc}") from exc
    return grid, {
        "n_lambda": n_lambda,
        "n_z": n_z,
        "radius": radius,
        "seed": seed,
        "diagonal": diagonal,
    }


def _mu_report(payload: dict) -> dict:
    """mu of the instance's matrix, its certified bracket and its structure;
    the report's options are empty."""
    matrix, structure = _matrix_and_structure(payload)
    try:
        value = mu(matrix, structure)
    except ValueError as exc:
        # non-finite entries, or an open bracket on a structure where the
        # D-scaling bound may exceed mu
        raise InputError(str(exc)) from exc
    return {
        "mu": float(value),
        "mu_bracket": [value.bracket.lower, value.bracket.upper],
        "structure": structure.label(),
        "options": {},
    }


def _se_points(pts):
    """The ``lam``, ``z1``, ``z2`` columns of an ``se`` point list.

    A list of ``[re, im]`` triples of numbers is decoded as one array; any
    other list (scalar-real entries, malformed entries) goes entry by entry
    through ``complex_from_json``, which names the first bad one.  The array
    reads ``false``/``true`` among numbers as 0/1, so a list whose array
    holds an exact 0 or 1 has its member types scanned, and one with a
    boolean member goes entry by entry too.
    """
    try:
        arr = np.asarray(pts)
    except ValueError:  # a ragged list
        arr = np.empty(0)
    if (
        arr.dtype.kind in "fi"
        and arr.shape[1:] == (3, 2)
        and not (
            np.isin(arr, (0.0, 1.0)).any()
            and bool in set(map(type, chain.from_iterable(chain.from_iterable(pts))))
        )
    ):
        cols = np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
        return cols[:, 0], cols[:, 1], cols[:, 2]
    try:
        cols = tuple(np.array([complex_from_json(p[i]) for p in pts]) for i in range(3))
        long = next((j for j, p in enumerate(pts) if len(p) != 3), None)
    except KeyError:  # p[0] of an object
        raise InputError("points must be [lam, z1, z2] triples, got an object") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise InputError(f"points must be [lam, z1, z2] triples: {exc}") from exc
    if long is not None:
        raise InputError(
            f"points must be [lam, z1, z2] triples: point {long} has {len(pts[long])} entries"
        )
    return cols


def _row_json(row) -> dict:
    return {
        "z": complex_to_json(row.z),
        "split": row.split,
        "solvable": bool(row.solvable),
        "min_eig": None if row.min_eig != row.min_eig else float(row.min_eig),
        "target_residual": None if row.target_residual is None else float(row.target_residual),
        "note": row.note,
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, report)


def _cmd_mu(args):
    return 0, _mu_report(_load_payload(args))


def _cmd_gamma_check(args):
    payload = _load_payload(args)
    tol = args.tol
    if "point" in payload:
        try:
            point = GammaPoint(
                payload.get("variant", "gamma3"),
                tuple(complex_from_json(v) for v in payload["point"]),
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad gamma point: {exc}") from exc
        if point.variant != "gamma3":
            raise InputError("point membership checks support the gamma3 variant only")
        member = tetrablock_member(point.entries, tol=tol)
        report = {
            "member": bool(member),
            "variant": "gamma3",
            "options": {"tol": tol},
        }
        return (0 if member else 2), report
    report = _mu_report(payload)
    member = report["mu"] <= 1.0 + tol
    report["member"] = bool(member)
    report["options"]["tol"] = tol
    return (0 if member else 2), report


def _cmd_se(args):
    payload = _load_payload(args)
    f = _function_from(payload)
    pts = _require(payload, "points")
    lam, z1, z2 = _se_points(pts)
    try:
        g = se_values(f, lam, z1, z2)[0]
    except SingularFractionError as exc:
        return 2, {"error": str(exc), "options": {}}
    except ValueError as exc:
        # a point outside the disc, or a function that is not 3x3
        raise InputError(str(exc)) from exc
    values = -g
    report = {
        "values": cvector_to_json(values),
        "sup_modulus": float(np.abs(values).max()) if values.size else 0.0,
        "options": {"points": len(pts)},
    }
    return 0, report


def _gram_match(triple, back) -> float:
    """Largest entry gap between the kernels of two triples on one grid."""
    return max(
        float(np.abs(b.gram - a.gram).max())
        for a, b in ((triple.n1, back.n1), (triple.n2, back.n2), (triple.n3, back.n3))
    )


def _right_s_match(values, g) -> tuple[float, float]:
    """Modulus gap, and spread of the phases ``values / g`` where
    ``|g| > PHASE_FLOOR``."""
    modulus = float(np.abs(np.abs(values) - np.abs(g)).max())
    keep = np.abs(g) > PHASE_FLOOR
    ratios = values[keep] / g[keep]
    phase = float(np.abs(ratios - ratios.mean()).max()) if ratios.size else 0.0
    return modulus, phase


def _kernel_identity(triple) -> float:
    """Largest entry gap between the combined kernel and ``g g*``."""
    g = triple.g_values
    return float(np.abs(combine_k(triple).gram - np.outer(g, np.conj(g))).max())


def _sampled_triple(args):
    """Kernel triple of a grid instance, plus echoed options."""
    payload = _load_payload(args)
    f = _function_from(payload)
    grid, grid_opts = _grid_from(payload)
    options = {"tol": args.tol, "grid": grid_opts}
    try:
        triple = upper_e(f, grid)
    except SingularFractionError as exc:
        raise Declined({"error": str(exc), "options": options}) from exc
    except ValueError as exc:  # a function that is not 3x3
        raise InputError(str(exc)) from exc
    return triple, options


def _cmd_upper_e(args):
    triple, options = _sampled_triple(args)
    tol = options["tol"]

    def safe_rank(kernel):
        try:
            return kernel_rank(kernel, tol)
        except IndefiniteMatrixError:
            return None

    parts = {"n1": triple.n1, "n2": triple.n2, "n3": triple.n3, "k": combine_k(triple)}
    which = "S1" if triple.grid.diagonal else "R1"
    member = membership(triple, which, tol)
    summary = {
        "psd": {name: bool(part.is_psd(tol)) for name, part in parts.items()},
        "ranks": {name: safe_rank(part) for name, part in parts.items()},
        "k_outer_residual": _kernel_identity(triple),
        "membership_class": which,
        "member": bool(member),
        "options": options,
    }
    return (0 if member else 2), summary


def _cmd_uw(args):
    triple, options = _sampled_triple(args)
    tol = options["tol"]
    try:
        result = uw_construct(triple, tol=tol)
    except (RankError, GramInconsistencyError, ArithmeticError) as exc:
        return 2, {"error": str(exc), "options": options}
    back = upper_e(result.xi, triple.grid)
    ver = verify_uw(result, back.f_values, tol)
    gram_match = _gram_match(triple, back)
    try:
        fit = torus_fit(triple.f_values, back.f_values)
    except ValueError as exc:  # F's first column vanishes on the grid: no phase to fit
        return 2, {"error": str(exc), "options": options}
    passed = ver.passed and gram_match <= tol
    report = {
        "state_dim": int(result.state_dim),
        "verify_residual": float(ver.max_residual),
        "gram_match": gram_match,
        "torus_fit_residual": float(fit.max_residual),
        "torus_phases": cvector_to_json(fit.eta),
        "passed": bool(passed),
        "options": options,
    }
    return (0 if passed else 2), report


def _cmd_right_s(args):
    triple, options = _sampled_triple(args)
    try:
        factor = right_s(triple, tol=options["tol"])
    except (RankError, ValueError, IndefiniteMatrixError) as exc:
        return 2, {"error": str(exc), "options": options}
    modulus_err, phase_err = _right_s_match(factor.values, triple.g_values)
    report = {
        "values": cvector_to_json(factor.values),
        "max_modulus": float(np.abs(factor.values).max()),
        "modulus_match": modulus_err,
        "phase_constancy": phase_err,
        "options": options,
    }
    return 0, report


def _cmd_np(args):
    payload = _load_payload(args)
    try:
        data = pick_data_from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad Pick data: {exc}") from exc
    options = {"tol": args.tol}
    try:
        f = np_solve(data, tol=args.tol)
    except UnsolvablePickError as exc:
        return 2, {"solvable": False, "min_eig": float(exc.min_eig), "options": options}
    except (GramInconsistencyError, ArithmeticError) as exc:
        return 2, {"error": str(exc), "options": options}
    report = {
        "solvable": True,
        "min_eig": data.spectrum.min,
        "state_dim": int(f.m),
        "target_residual": f.target_residual,
        "options": options,
    }
    return 0, report


def _gamma_instance(payload):
    """Gamma node data plus the defining curve when the instance carries one.

    Node-only instances hold explicit points; curve instances hold rational
    coordinate functions that get sampled at the listed nodes.
    """
    if "curve" in payload:
        try:
            curve = curve_from_json(payload["curve"])
            nodes = tuple(complex_from_json(v) for v in _require(payload, "nodes"))
            return sample_curve(curve, nodes), curve
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad gamma curve data: {exc}") from exc
    try:
        return gamma_nodes_from_json(payload), None
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad gamma node data: {exc}") from exc


def _cmd_reduce(args):
    payload = _load_payload(args)
    data, _ = _gamma_instance(payload)
    z_grid, split = args.z2_grid, args.split
    problems = []
    for z in z_grid:
        entry = {"z": complex_to_json(z), "split": split}
        try:
            if data.variant == "gamma7":
                pick = reduce_gamma7(data, z, split_rule=split)
            else:
                pick = reduce_gamma5(
                    data, z, split_rule=split, det_denominator=args.det_denominator
                )
            entry["pick"] = pick_data_to_json(pick)
        except (ZeroDivisionError, ValueError) as exc:
            entry["error"] = str(exc)
        problems.append(entry)
    options = {"split": split, "z2_grid": cvector_to_json(z_grid)}
    if data.variant == "gamma5":
        options["det_denominator"] = args.det_denominator
    report = {"variant": data.variant, "problems": problems, "options": options}
    return 0, report


def _slice_checks(curve, z_grid, det_denominator):
    rows = []
    for z, sliced in zip(z_grid, _slice_grid(curve, z_grid, det_denominator)):
        entry = {"z": complex_to_json(z)}
        if isinstance(sliced, Exception):
            entry["ok"] = False
            entry["error"] = str(sliced)
        else:
            entry["ok"] = True
            entry["triangular"] = bool(sliced.triangular)
        rows.append(entry)
    return rows


def _certify_table(rep) -> dict:
    return {
        "certified": bool(rep.certified),
        "solvable_splits": list(rep.solvable_splits()),
        "rows": [_row_json(r) for r in rep.rows],
    }


def _cmd_certify(args):
    payload = _load_payload(args)
    data, curve = _gamma_instance(payload)
    z_grid, splits, tol = args.z2_grid, (args.split,), args.tol
    options = {
        "split_rules": list(splits),
        "z2_grid": cvector_to_json(z_grid),
        "tol": tol,
    }
    if data.variant == "gamma7":
        rep = certify_gamma7_interpolation(data, z_grid=z_grid, split_rules=splits, tol=tol)
        report = {"variant": "gamma7", **_certify_table(rep), "options": options}
        if curve is not None:
            report["slice_checks"] = _slice_checks(curve, z_grid, "corrected")
        return (0 if rep.certified else 2), report
    # the 5-coordinate slice has two determinant conventions; report both,
    # their Pick problems solved together, and let the flag pick which one
    # decides the exit code
    options["det_denominator"] = args.det_denominator
    names = ("corrected", "printed")
    reducers = [functools.partial(reduce_gamma5, det_denominator=name) for name in names]
    reps = _certify(data, z_grid, splits, tol, reducers)
    tables = {name: _certify_table(rep) for name, rep in zip(names, reps)}
    chosen = tables[args.det_denominator]
    report = {
        "variant": "gamma5",
        "certified": chosen["certified"],
        "by_denominator": tables,
        "options": options,
    }
    if curve is not None:
        report["slice_checks"] = _slice_checks(curve, z_grid, args.det_denominator)
    return (0 if chosen["certified"] else 2), report


def _cmd_verify_identities(args):
    seed, grid_n, tol = args.seed, args.grid, args.tol
    if seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    if grid_n < 4:
        raise InputError(f"--grid must be at least 4 for the sample grid, got {grid_n}")
    f = random_schur(3, 4, seed=seed)
    grid = tensor_grid(4, grid_n // 4, radius=0.9, seed=seed)
    triple = upper_e(f, grid)

    kernel_identity = _kernel_identity(triple)

    result = uw_construct(triple)
    back = upper_e(result.xi, grid)
    ver = verify_uw(result, back.f_values)
    gram_match = _gram_match(triple, back)
    fit = torus_fit(triple.f_values, back.f_values)

    modulus, phase = _right_s_match(right_s(triple).values, triple.g_values)

    rng = np.random.default_rng(seed)
    n_samples = 4000
    lam, z1, z2 = (
        0.999 * np.sqrt(rng.random(n_samples)) * np.exp(2j * np.pi * rng.random(n_samples))
        for _ in range(3)
    )
    sup = float(np.abs(se_values(f, lam, z1, z2)[0]).max())
    se_excess = max(0.0, sup - 1.0)

    rows = [
        {"check": "kernel_identity", "residual": kernel_identity, "threshold": tol},
        {"check": "uw_verify", "residual": float(ver.max_residual), "threshold": tol},
        {"check": "uw_gram_match", "residual": gram_match, "threshold": tol},
        {"check": "right_s_modulus", "residual": modulus, "threshold": tol},
        {"check": "right_s_phase", "residual": phase, "threshold": tol},
        {"check": "torus_fit", "residual": float(fit.max_residual), "threshold": TORUS_FIT_TOL},
        {"check": "se_sup_excess", "residual": se_excess, "threshold": SE_SUP_TOL},
    ]
    passed = all(r["residual"] <= r["threshold"] for r in rows)
    report = {
        "rows": rows,
        "passed": bool(passed),
        "options": {"seed": seed, "grid": grid_n, "tol": tol, "se_samples": n_samples},
    }
    return (0 if passed else 2), report


def _render_text(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}[{i}]")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}[{i}] {item}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _json_pairs(items, indent: str) -> str | None:
    """A list of ``[re, im]`` float pairs rendered in one join; None for any
    other list, or one with a non-finite entry (the general path reports it)."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    try:
        texts = list(map(float.__repr__, flat))
    except TypeError:  # an int, bool, string, ... entry
        return None
    if not all(map(math.isfinite, flat)):
        return None
    i1, i2 = indent + "  ", indent + "    "
    body = f"\n{i1}],\n{i1}[\n{i2}".join(map(f",\n{i2}".join, zip(texts[::2], texts[1::2])))
    return f"[\n{i1}[\n{i2}{body}\n{i1}]\n{indent}]"


def _render_json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` for
    reports, whose dict keys are strings, with lists of complex pairs in bulk.

    With ``indent`` set, ``json`` runs its pure-Python encoder, which took
    about a third of an ``se`` op on 4000 points.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pairs = _json_pairs(value, indent)
        if pairs is not None:
            return pairs
        items = [_render_json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_string(k)}: {_render_json(v, inner)}" for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are malformed input (exit code 1,
    one line), not argparse's usage text and exit code 2, which here means a
    negative answer."""

    def error(self, message):
        raise InputError(message)


def _finite(text: str) -> float:
    """The ``--tol`` type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# the argparse settings of each option a subcommand may read
_OPTIONS = {
    "--tol": {"type": _finite},
    "--grid": {"type": int},
    "--seed": {"type": int},
    "--z2-grid": {"type": _parse_z_grid, "metavar": "LIST",
                  "help": "comma-separated complex slice parameters, e.g. 0,0.3,-0.3j"},
    "--split": {"choices": ("balanced", "left-one")},
    "--det-denominator": {"choices": ("corrected", "printed")},
}
_SLICE_OPTIONS = {"--z2-grid": DEFAULT_Z_GRID, "--split": "balanced",
                  "--det-denominator": "corrected"}

# each subcommand: its handler, whether it reads --in, and the options it reads
# with their defaults; every subcommand also takes --out and --text
_COMMANDS = {
    "mu": (_cmd_mu, True, {}),
    "gamma-check": (_cmd_gamma_check, True, {"--tol": MEMBER_TOL}),
    "se": (_cmd_se, True, {}),
    "upper-e": (_cmd_upper_e, True, {"--tol": KERNEL_TOL}),
    "uw": (_cmd_uw, True, {"--tol": UW_TOL}),
    "right-s": (_cmd_right_s, True, {"--tol": KERNEL_TOL}),
    "np": (_cmd_np, True, {"--tol": PICK_TOL}),
    "reduce": (_cmd_reduce, True, _SLICE_OPTIONS),
    "certify": (_cmd_certify, True, {**_SLICE_OPTIONS, "--tol": PICK_TOL}),
    "verify-identities": (
        _cmd_verify_identities, False, {"--seed": 7, "--grid": 16, "--tol": UW_TOL}
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; it depends on nothing but ``_COMMANDS``, so it is
    built once per process.  Its subcommand parsers are ``_Parser``s too, and
    each accepts exactly the options its handler reads."""
    parser = _Parser(
        prog="gammapick",
        description="Structured singular values, kernel triples, and Pick reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads_in, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        if reads_in:
            p.add_argument("--in", dest="infile", metavar="FILE", required=True,
                           help="JSON instance file")
        p.add_argument("--out", dest="outfile", metavar="FILE", help="also write the report here")
        for flag, default in options.items():
            p.add_argument(flag, default=default, **_OPTIONS[flag])
        p.add_argument("--text", action="store_true", help="line-oriented output instead of JSON")
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # overflow and NaN in extreme input reach the report, never stderr
        with np.errstate(all="ignore"):
            code, report = _COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Declined as exc:
        code, report = 2, exc.report
    report = {"command": args.command, **report}
    if args.text:
        rendered = "\n".join(_render_text(report)) + "\n"
    else:
        rendered = _render_json(report) + "\n"
    sys.stdout.write(rendered)
    if args.outfile:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.outfile}: {exc}", file=sys.stderr)
            return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

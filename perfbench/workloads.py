"""Seeded instance generation for the three benchmark workloads.

Each workload is a list of op kinds, and each kind a pool of slots; every
slot draws one instance file, written under the run's work directory, from a
random generator seeded with the seed, the workload, the kind, the slot and
the attempt.  The measured process sends the ops round-robin over the kinds
and cycles through each pool.  The same seed gives byte-identical files.
Each instance carries the facts its answer is checked against (see
``checks.py``); the program under test never sees them.

``generate`` can screen the instances of the kinds the program may refuse
(``checks.may_refuse``): an instance the program declines is set aside and
its slot drawn again, so that no timed op fails; a fixed instance the
program declines leaves its pool.  The set-aside instances are reported with
the probes, the instances of known defects that each run executes once,
untimed, so that the defects stay visible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import may_refuse, probe_indices
from gammapick.domains import BlockStructure, GammaPoint, mu, pi_coordinates
from gammapick.hardy import RationalFunction
from gammapick.nevanlinna import GammaNodes, gamma_curve_from_entries
from gammapick.realization import random_schur, realization_to_rational
from gammapick.serialize import (
    cmatrix_to_json,
    complex_to_json,
    curve_to_json,
    gamma_nodes_to_json,
)

WORKLOADS = ("membership", "kernels", "interp")

# The matrices of acceptance criterion 7: mu < 1 on E(3;3;1,1,1), so their
# gamma7 curves certify, and their node data scaled by 3 certify for no split.
CRITERION7_MAPS = (
    ((0.5, 0.2, 0.0), (0.0, 0.4, 0.1), (0.1, 0.0, 0.3)),
    ((0.3, 0.0, 0.2), (0.1, 0.5, 0.0), (0.0, 0.2, 0.4)),
    ((0.4, 0.1j, 0.0), (0.0, 0.35, 0.15), (0.1, 0.0, 0.45)),
)
CRITERION7_NODES = (0.2, -0.35 + 0.1j, 0.45j)

SE_POINTS = 4000
POOL = 12
# draws per slot before a refused instance is kept in the pool after all
MAX_DRAWS = 8


@dataclass
class Instance:
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Kind:
    name: str
    instances: list[Instance]


@dataclass
class Slot:
    """One place in a pool: ``draw(rng)`` gives the payload and the expected facts."""

    draw: Callable[[np.random.Generator], tuple[dict, dict]]
    fixed: bool = False  # draws no random numbers, so a redraw gives the same instance


@dataclass
class Pool:
    name: str
    command: str
    slots: list[Slot]


@dataclass
class Generated:
    kinds: list[Kind]
    probes: list[Kind]
    # (kind, instance, reason) of every instance the screen set aside
    screened: list[tuple[str, Instance, str]] = field(default_factory=list)


def _write(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    return path


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _disc(rng, n: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _gamma_slot(label: str, near: bool, oracle: bool) -> Slot:
    """A random 3x3 matrix, far from the mu = 1 boundary or rescaled to
    within 1e-3 of it."""
    structure = BlockStructure.parse(label)

    def draw(rng):
        a = _gaussian(rng, (3, 3))
        if near:
            # |target - 1| >= 1e-4 keeps the member/non-member answer far
            # outside the 1e-9 membership tolerance
            target = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-3)
            a *= target / mu(a, structure)
        else:
            a *= rng.uniform(0.8, 1.6) / np.linalg.norm(a, 2)
            target = None
        expect = {
            "label": label,
            "matrix": cmatrix_to_json(a),
            "rho": float(np.abs(np.linalg.eigvals(a)).max()),
            "sigma": float(np.linalg.norm(a, 2)),
            "target": target,
            "oracle": oracle,
        }
        return {"matrix": cmatrix_to_json(a), "structure": label}, expect

    return Slot(draw)


def _membership() -> tuple[list[Pool], list[Pool]]:
    pools = []
    for label, name in (("E(3;3;1,1,1)", "gamma_check_e311"), ("E(3;2;1,2)", "gamma_check_e312")):
        # the oracle costs ~0.7 s per E(3;3;1,1,1) matrix: it checks one far
        # and one near matrix per structure
        slots = [_gamma_slot(label, near=i % 2 == 1, oracle=i < 2) for i in range(8)]
        pools.append(Pool(name, "gamma-check", slots))
    return pools, []


def _function_payload(rng, m: int) -> tuple[dict, object]:
    f = random_schur(3, m, seed=int(rng.integers(2**31)))
    return {"function": f.to_json()}, f


def _grid_slot(m: int, side: int) -> Slot:
    def draw(rng):
        payload, _ = _function_payload(rng, m)
        payload["grid"] = {"n_lambda": side, "n_z": side, "radius": 0.9, "seed": int(rng.integers(2**31))}
        return payload, {}

    return Slot(draw)


def _se_slot(m: int) -> Slot:
    def draw(rng):
        payload, f = _function_payload(rng, m)
        lam, z1, z2 = (_disc(rng, SE_POINTS, 0.999) for _ in range(3))
        payload["points"] = [
            [complex_to_json(a), complex_to_json(b), complex_to_json(c)]
            for a, b, c in zip(lam, z1, z2)
        ]
        probe = probe_indices(SE_POINTS)
        expect = {
            "points": SE_POINTS,
            "probe_values": [complex_to_json(v) for v in reference_se(f, lam[probe], z1[probe], z2[probe])],
        }
        return payload, expect

    return Slot(draw)


def _kernels() -> tuple[list[Pool], list[Pool]]:
    """Random Schur functions with state dimension 2, 4 or 8.  ``uw`` on
    64-point grids is a probe: ``uw_construct`` refuses it for many seeds."""
    ms = [(2, 4, 8)[i % 3] for i in range(POOL)]
    pools = [
        Pool("uw", "uw", [_grid_slot(m, 4) for m in ms]),
        Pool("right_s", "right-s", [_grid_slot(m, 8) for m in ms]),
        Pool("se", "se", [_se_slot(m) for m in ms]),
    ]
    return pools, [Pool("uw_wide", "uw", [_grid_slot(m, 8) for m in ms])]


def reference_se(f, lam, z1, z2) -> np.ndarray:
    """Signed fractional map -G from the colligation, one point at a time.

    Written from the defining formula ``G = F11 + (F12, F13) Z (I - B Z)^{-1}
    (F21, F31)^T`` with ``F(lam) = P + lam Q (I - lam S)^{-1} R``, so the
    check does not reuse the program's batched code path.
    """
    out = []
    for l, a, b in zip(lam, z1, z2):
        fl = f.p + l * f.q @ np.linalg.inv(np.eye(f.m) - l * f.s) @ f.r
        zz = np.diag([a, b])
        g = fl[0, 0] + fl[0, 1:] @ zz @ np.linalg.inv(np.eye(2) - fl[1:, 1:] @ zz) @ fl[1:, 0]
        out.append(-g)
    return np.array(out)


def _curve_instance(curve, nodes) -> dict:
    return {"curve": curve_to_json(curve), "nodes": [complex_to_json(v) for v in nodes]}


def _polynomial_curve(a, variant: str):
    """Curve lam -> lam * A: entries are polynomials, so no winding check runs."""
    entries = [[RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    return gamma_curve_from_entries(entries, variant)


def _rational_slot(variant: str, m: int, sigma: float, n_nodes: int) -> Slot:
    def draw(rng):
        f = random_schur(3, m, seed=int(rng.integers(2**31)), max_sigma=sigma)
        curve = gamma_curve_from_entries(realization_to_rational(f), variant)
        return _curve_instance(curve, _disc(rng, n_nodes, 0.6)), {"curve": True}

    return Slot(draw)


def _polynomial_slot(variant: str, n_nodes: int) -> Slot:
    def draw(rng):
        a = _gaussian(rng, (3, 3))
        a *= rng.uniform(0.5, 0.95) / np.linalg.norm(a, 2)
        return _curve_instance(_polynomial_curve(a, variant), _disc(rng, n_nodes, 0.6)), {"curve": True}

    return Slot(draw)


def _criterion7_slot(variant: str, a) -> Slot:
    expect = {"curve": True}
    if variant == "gamma7":
        expect["certified"] = True
    payload = _curve_instance(_polynomial_curve(a, variant), CRITERION7_NODES)
    return Slot(lambda rng: (payload, expect), fixed=True)


def _scaled_criterion7_slot(a) -> Slot:
    a = np.asarray(a, dtype=complex)
    points = tuple(
        GammaPoint("gamma7", tuple(3.0 * np.asarray(pi_coordinates(l * a, "gamma7").entries)))
        for l in CRITERION7_NODES
    )
    payload = gamma_nodes_to_json(GammaNodes("gamma7", CRITERION7_NODES, points))
    return Slot(lambda rng: (payload, {"curve": False, "certified": False}), fixed=True)


def _interp() -> tuple[list[Pool], list[Pool]]:
    """gamma7 and gamma5 curve instances, rational and polynomial."""
    pools = []
    for variant, name in (("gamma7", "certify7"), ("gamma5", "certify5")):
        slots = [_rational_slot(variant, 1 + i % 3, (0.9, 0.99)[i // 3], (3, 5)[i % 2]) for i in range(6)]
        slots += [_polynomial_slot(variant, (3, 5)[i % 2]) for i in range(3)]
        slots += [_criterion7_slot(variant, a) for a in CRITERION7_MAPS]
        if variant == "gamma7":
            slots += [_scaled_criterion7_slot(a) for a in CRITERION7_MAPS]
        pools.append(Pool(name, "certify", slots))
    return pools, []


_POOLS = {"membership": _membership, "kernels": _kernels, "interp": _interp}


def generate(workload: str, seed: int, workdir: str, refused=None) -> Generated:
    """Write the instance files of ``workload`` for ``seed`` into ``workdir``.

    ``refused(kind, instance)``, when given, runs the program on an instance
    and returns the reason it declined, or None; it screens the kinds the
    program may refuse.  Without it nothing is screened.
    """
    w = WORKLOADS.index(workload)
    pools, probe_pools = _POOLS[workload]()
    out = Generated([], [])
    for k, pool in enumerate(pools + probe_pools):
        timed = k < len(pools)
        screen = refused is not None and timed and may_refuse(pool.name)
        instances = []
        for s, slot in enumerate(pool.slots):
            for attempt in range(MAX_DRAWS):
                rng = np.random.default_rng([seed % 2**63, w, k, s, attempt])
                payload, expect = slot.draw(rng)
                path = _write(workdir, f"{pool.name}-{s}-{attempt}.json", payload)
                instance = Instance([pool.command, "--in", path], expect)
                reason = refused(pool.name, instance) if screen else None
                if reason is None or attempt == MAX_DRAWS - 1:
                    instances.append(instance)
                    break
                out.screened.append((pool.name, instance, reason))
                if slot.fixed:
                    break
        (out.kinds if timed else out.probes).append(Kind(pool.name, instances))
    return out

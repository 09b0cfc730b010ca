"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints ``[PASS]``/``[FAIL]`` with its headline numbers so the
suite output doubles as the acceptance report.  Tolerances are pinned here
and are not imported from the library under test.
"""

import numpy as np
import pytest

from gammapick.domains import E311, E312, GammaPoint, in_gamma, mu, pi_coordinates
from gammapick.fractional import se_values
from gammapick.hardy import RationalFunction, inner_outer
from gammapick.kernels import combine_k, tensor_grid, upper_e
from gammapick.lurking import right_s, torus_fit, uw_construct, verify_uw
from gammapick.nevanlinna import (
    GammaNodes,
    PickData,
    UnsolvablePickError,
    build_slice_schur,
    certify_gamma7_interpolation,
    gamma_curve_from_entries,
    np_solve,
    psi3_eval,
)
from gammapick.realization import random_schur, realization_to_rational, verify_schur
from oracles import mu_oracle


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


def _disc_samples(rng, n, radius):
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def test_criterion_1_kernel_decomposition_identity():
    tol = 1e-8
    worst_identity = 0.0
    worst_outer = 0.0
    for i in range(50):
        f = random_schur(3, (2, 4, 8)[i % 3], seed=100 + i)
        grid = tensor_grid(4, 4, radius=0.9, seed=i)
        triple = upper_e(f, grid)
        lam, z1, z2 = grid.lam, grid.z1, grid.z2
        g = triple.g_values
        lhs = 1.0 - g[:, None] * g.conj()[None, :]
        rhs = (
            (1.0 - z1[:, None] * z1.conj()[None, :]) * triple.n1.gram
            + (1.0 - z2[:, None] * z2.conj()[None, :]) * triple.n2.gram
            + (1.0 - lam[:, None] * lam.conj()[None, :]) * triple.n3.gram
        )
        worst_identity = max(worst_identity, float(np.abs(lhs - rhs).max()))
        outer = np.outer(g, g.conj())
        worst_outer = max(
            worst_outer, float(np.abs(combine_k(triple).gram - outer).max())
        )
    _report(
        "criterion-1 kernel decomposition identity",
        worst_identity <= tol and worst_outer <= tol,
        f"identity residual {worst_identity:.3e}, outer-product residual "
        f"{worst_outer:.3e} (tol {tol:.0e}, 50 functions, 16-point grids)",
    )


def test_criterion_2_se_contractivity():
    bound = 1.0 + 1e-9
    n = 10_000
    worst = 0.0
    for i in range(20):
        f = random_schur(3, (2, 3, 4, 6)[i % 4], seed=200 + i)
        rng = np.random.default_rng(1000 + i)
        lam = _disc_samples(rng, n, 0.999)
        z1 = _disc_samples(rng, n, 0.999)
        z2 = _disc_samples(rng, n, 0.999)
        g, *_ = se_values(f, lam, z1, z2)
        worst = max(worst, float(np.abs(g).max()))
    _report(
        "criterion-2 SE contractivity",
        worst <= bound,
        f"sup |SE(F)| = {worst:.12f} over 20 functions x {n} interior samples "
        f"(bound 1 + 1e-9)",
    )


def test_criterion_3_uw_roundtrip():
    tol_verify = 1e-8
    tol_gram = 1e-8
    tol_torus = 1e-7
    worst_verify = 0.0
    worst_gram = 0.0
    worst_torus = 0.0
    count = 0
    seed = 0
    while count < 20:
        seed += 1
        f = random_schur(3, (2, 3, 4)[count % 3], seed=300 + seed)
        grid = tensor_grid(4, 4, radius=0.9, seed=seed)
        fv = f.evaluate_many(np.unique(grid.lam))
        # the torus phases are anchored on the first column; skip the rare
        # draws where an entry of it nearly vanishes on the grid
        if min(float(np.abs(fv[:, 1, 0]).min()), float(np.abs(fv[:, 2, 0]).min())) < 1e-3:
            continue
        count += 1
        triple = upper_e(f, grid)
        result = uw_construct(triple)
        rebuilt = upper_e(result.xi, grid)
        worst_verify = max(worst_verify, verify_uw(result, rebuilt.f_values).max_residual)
        worst_gram = max(
            worst_gram,
            float(np.abs(rebuilt.n1.gram - triple.n1.gram).max()),
            float(np.abs(rebuilt.n2.gram - triple.n2.gram).max()),
            float(np.abs(combine_k(rebuilt).gram - combine_k(triple).gram).max()),
        )
        fit = torus_fit(fv, result.xi.evaluate_many(np.unique(grid.lam)))
        worst_torus = max(worst_torus, fit.max_residual)
    _report(
        "criterion-3 UW roundtrip",
        worst_verify <= tol_verify and worst_gram <= tol_gram and worst_torus <= tol_torus,
        f"verify residual {worst_verify:.3e} (tol 1e-8), gram match "
        f"{worst_gram:.3e} (tol 1e-8), torus fit {worst_torus:.3e} (tol 1e-7), "
        f"20 functions",
    )


def test_criterion_4_right_s_composition():
    tol_mod = 1e-9
    tol_phase = 1e-8
    worst_mod = 0.0
    worst_phase = 0.0
    for i in range(20):
        f = random_schur(3, (2, 3, 4, 5)[i % 4], seed=400 + i)
        triple = upper_e(f, tensor_grid(4, 4, radius=0.9, seed=i))
        factor = right_s(triple)
        worst_mod = max(
            worst_mod,
            float(np.abs(np.abs(factor.values) - np.abs(triple.g_values)).max()),
        )
        big = np.abs(triple.g_values) > 1e-8
        if big.any():
            ratio = factor.values[big] / triple.g_values[big]
            worst_phase = max(
                worst_phase, float(np.abs(ratio - ratio.mean()).max())
            )
    _report(
        "criterion-4 right S composition",
        worst_mod <= tol_mod and worst_phase <= tol_phase,
        f"modulus match {worst_mod:.3e} (tol 1e-9), phase constancy "
        f"{worst_phase:.3e} (tol 1e-8), 20 functions",
    )


def test_criterion_5_mu_against_direct_oracle():
    rel_tol = 1e-3
    worst = {"E(3;3;1,1,1)": 0.0, "E(3;2;1,2)": 0.0}
    rng = np.random.default_rng(50)
    for structure in (E311, E312):
        label = structure.label()
        for _ in range(30):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lib = mu(a, structure)
            ora = mu_oracle(a, label)
            scale = max(abs(ora), 1e-12)
            worst[label] = max(worst[label], abs(lib - ora) / scale)
    fixture = mu(np.diag([0.5, 0.25, 0.2]), E311)
    fixture_ok = abs(fixture - 0.5) <= 1e-12
    ok = all(v <= rel_tol for v in worst.values()) and fixture_ok
    _report(
        "criterion-5 mu vs direct-definition oracle",
        ok,
        f"relative deviation {worst['E(3;3;1,1,1)']:.3e} / "
        f"{worst['E(3;2;1,2)']:.3e} over 30 matrices each (tol 1e-3); "
        f"diagonal fixture mu = {fixture:.15f}",
    )


def _slice_identity_residual(curve, s_z, s_w, z2, w2, rng, n_tuples):
    """Two-point decomposition residual across a pair of slices."""

    def gamma_eta(s, lam, z1):
        v = s.evaluate(lam)
        den = 1.0 - v[1, 1] * z1
        gam = v[1, 0] / den
        return v, gam, np.array([1.0, z1 * gam])

    worst = 0.0
    for _ in range(n_tuples):
        lam, mu_, z1, w1 = (
            complex(_disc_samples(rng, 1, 0.9)[0]) for _ in range(4)
        )
        b_mat, gam_b, eta_b = gamma_eta(s_z, lam, z1)
        a_mat, gam_a, eta_a = gamma_eta(s_w, mu_, w1)
        lhs = 1.0 - np.conj(psi3_eval(curve, mu_, w1, w2)) * psi3_eval(
            curve, lam, z1, z2
        )
        rhs = (1.0 - np.conj(w1) * z1) * np.conj(gam_a) * gam_b + eta_a.conj() @ (
            np.eye(2) - a_mat.conj().T @ b_mat
        ) @ eta_b
        worst = max(worst, abs(lhs - rhs))
    return worst


def test_criterion_6_slice_construction():
    tol_norm = 1.0 + 1e-6
    tol_det = 1e-8
    tol_offdiag = 1e-5
    tol_corner = -1e-10
    tol_psi = 1e-7
    tol_identity = 1e-7
    rng = np.random.default_rng(600)
    worst = dict.fromkeys(("norm", "det", "offdiag", "psi", "identity"), 0.0)
    worst_corner = 0.0
    for i in range(10):
        m = 1 if i < 7 else 2
        f = random_schur(3, m, seed=600 + i, max_sigma=0.9)
        # certify the generating function stays in the domain on a grid
        lam_grid = _disc_samples(rng, 8, 0.95)
        assert all(in_gamma(f.evaluate(l), E311, tol=1e-6) for l in lam_grid)
        curve = gamma_curve_from_entries(realization_to_rational(f), "gamma7")
        z2, w2 = (complex(v) for v in 0.55 * np.exp(2j * np.pi * rng.uniform(size=2)))
        s_z = build_slice_schur(curve, z2)
        s_w = build_slice_schur(curve, w2)

        lam = _disc_samples(rng, 200, 0.999)
        vals = s_z.evaluate_many(lam)
        worst["norm"] = max(
            worst["norm"], float(np.linalg.svd(vals, compute_uv=False)[:, 0].max())
        )
        dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
        # reference determinant straight from the curve coordinates, bypassing
        # the factorization that produced the off-diagonal entries
        x2, x5, x7 = (curve.components[i](lam) for i in (1, 4, 6))
        worst["det"] = max(
            worst["det"], float(np.abs(dets - (x5 - z2 * x7) / (1.0 - z2 * x2)).max())
        )
        m12, m21 = s_z.boundary_moduli()
        assert m12.size == 2048
        worst["offdiag"] = max(worst["offdiag"], float(np.abs(m12 - m21).max()))
        corner = s_z.evaluate(0.0)[1, 0]
        worst_corner = min(worst_corner, float(corner.real))
        for _ in range(20):
            l0, z10 = (complex(_disc_samples(rng, 1, 0.9)[0]) for _ in range(2))
            worst["psi"] = max(
                worst["psi"],
                abs(s_z.transfer_eval(l0, z10) - psi3_eval(curve, l0, z10, z2)),
            )
        worst["identity"] = max(
            worst["identity"],
            _slice_identity_residual(curve, s_z, s_w, z2, w2, rng, 100),
        )
    ok = (
        worst["norm"] <= tol_norm
        and worst["det"] <= tol_det
        and worst["offdiag"] <= tol_offdiag
        and worst_corner >= tol_corner
        and worst["psi"] <= tol_psi
        and worst["identity"] <= tol_identity
    )
    _report(
        "criterion-6 slice construction",
        ok,
        f"norm {worst['norm']:.9f} (<= 1+1e-6), det residual {worst['det']:.3e} "
        f"(tol 1e-8), boundary |F12|-|F21| {worst['offdiag']:.3e} (tol 1e-5), "
        f"min F21(0) {worst_corner:.3e} (>= -1e-10), psi vs transfer "
        f"{worst['psi']:.3e} (tol 1e-7), two-point identity {worst['identity']:.3e} "
        f"(tol 1e-7, 1000 tuples, 10 curves)",
    )


def test_criterion_7_interpolation_reduction():
    tol = 1e-8
    solvable_ok = True
    residual_worst = 0.0
    unsolvable_ok = True
    maps = (
        np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]], complex),
        np.array([[0.3, 0.0, 0.2], [0.1, 0.5, 0.0], [0.0, 0.2, 0.4]], complex),
        np.array([[0.4, 0.1j, 0.0], [0.0, 0.35, 0.15], [0.1, 0.0, 0.45]], complex),
    )
    for a in maps:
        assert mu(a, E311) < 1.0
        nodes = (0.2, -0.35 + 0.1j, 0.45j)

        def nodes_at(scale):
            points = tuple(
                GammaPoint(
                    "gamma7",
                    tuple(scale * np.asarray(pi_coordinates(l * a, "gamma7").entries)),
                )
                for l in nodes
            )
            return GammaNodes("gamma7", nodes, points)

        report = certify_gamma7_interpolation(nodes_at(1.0), tol=1e-9)
        assert len(report.rows) == 9  # default 9-point slice grid
        solvable_ok &= all(row.solvable for row in report.rows)
        residual_worst = max(
            residual_worst,
            max(row.target_residual for row in report.rows if row.target_residual is not None),
        )
        scaled = certify_gamma7_interpolation(
            nodes_at(3.0), split_rules=("balanced", "left-one")
        )
        unsolvable_ok &= not any(row.solvable for row in scaled.rows)
    ok = solvable_ok and residual_worst <= tol and unsolvable_ok
    _report(
        "criterion-7 interpolation reduction",
        ok,
        f"3 curve instances certified solvable on the 9-point slice grid with "
        f"target residual {residual_worst:.3e} (tol 1e-8); x3-scaled instances "
        f"unsolvable for every tested split: {unsolvable_ok}",
    )


def test_criterion_8_scalar_pick_ground_truth():
    tol = 1e-9
    outcomes = {}
    for w in (0.3, 0.5, 0.5 + tol / 10, 0.500001, 0.7, 0.5j, 0.6j):
        data = PickData((0.0, 0.5), (np.zeros((1, 1)), np.array([[w]])))
        try:
            f = np_solve(data, tol=tol)
            vals = f.evaluate_many(np.array([0.0, 0.5]))[:, 0, 0]
            solved = bool(np.abs(vals - np.array([0.0, w])).max() <= 1e-8)
            assert verify_schur(f).passed
        except UnsolvablePickError:
            solved = False
        outcomes[w] = solved
    expected = {w: abs(w) <= 0.5 + tol for w in outcomes}
    ok = outcomes == expected
    _report(
        "criterion-8 scalar Pick ground truth",
        ok,
        f"(0, 0.5) -> (0, w) solvable exactly for |w| <= 0.5 within tol; "
        f"outcomes {[(str(w), s) for w, s in outcomes.items()]}",
    )


def test_criterion_9_inner_outer_reconstruction():
    tol_recon = 1e-6
    tol_sqrt = 1e-6
    rng = np.random.default_rng(900)
    lam = _disc_samples(rng, 200, 0.9)
    fixtures = [
        RationalFunction([0.0, 2.0, -1.0], [1.0]),  # interior zero at 0
        RationalFunction([0.5, -1.0], [1.0, -0.5]),  # single Blaschke factor
        RationalFunction([6.0, 1.0, -1.0], [1.0]),  # zero-free on the disc
        RationalFunction([0.3, 0.0, 0.0, 0.5], [1.0, 0.2, 0.0, 0.1]),
        RationalFunction([-2.0], [1.0]),  # constant
        RationalFunction([0.0, 0.0, 1.0], [1.0, 0.0, 0.25]),  # double zero at 0
    ]
    worst_recon = 0.0
    for f in fixtures:
        pair = inner_outer(f)
        worst_recon = max(worst_recon, float(np.abs(pair.eval(lam) - f(lam)).max()))
    # the outer square root against the principal branch, where the values
    # stay in the right half-plane so the principal branch is the right one
    pts = _disc_samples(rng, 10, 0.9)
    g = RationalFunction([2.0, -1.0], [1.0, -0.3])
    pair = inner_outer(g)
    worst_sqrt = float(np.abs(pair.outer_sqrt(pts) - np.sqrt(g(pts))).max())
    ok = worst_recon <= tol_recon and worst_sqrt <= tol_sqrt
    _report(
        "criterion-9 inner-outer factorization",
        ok,
        f"fixture reconstruction {worst_recon:.3e} (tol 1e-6), outer sqrt vs "
        f"principal branch {worst_sqrt:.3e} (tol 1e-6, 10 points)",
    )

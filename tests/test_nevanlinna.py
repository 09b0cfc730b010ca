import json
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.polynomial import polynomial as npoly

from gammapick import cli, hardy, nevanlinna, realization
from gammapick.cli import run
from gammapick.domains import E311, GammaPoint, mu, pi_coordinates
from gammapick.fractional import se_eval
from gammapick.hardy import RationalFunction
from gammapick.nevanlinna import (
    DEFAULT_Z_GRID,
    GammaCurve,
    GammaNodes,
    PickData,
    PickInterpolant,
    SlicedSchur2x2,
    UnsolvablePickError,
    build_slice_schur,
    certify_gamma5_interpolation,
    certify_gamma7_interpolation,
    gamma_curve_from_entries,
    np_solve,
    pick_matrix,
    psi3_eval,
    psi_lower3_eval,
    reduce_gamma5,
    reduce_gamma7,
    sample_curve,
    slice_coordinates,
)
from gammapick.realization import (
    RealizedSchurFunction,
    random_schur,
    realization_to_rational,
    verify_schur,
)
from gammapick.serialize import pick_data_to_json
from test_hardy import root_certificates


def _curve(seed=0, variant="gamma7", m=1):
    f = random_schur(3, m, seed=seed, max_sigma=0.9)
    return f, gamma_curve_from_entries(realization_to_rational(f), variant)


def _scaled_nodes(scale=1.0, variant="gamma7", seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a *= 0.8 / mu(a, E311)
    nodes = (0.2, -0.35 + 0.1j, 0.45j)
    points = tuple(
        GammaPoint(variant, tuple(scale * np.asarray(pi_coordinates(lam * a, variant).entries)))
        for lam in nodes
    )
    return GammaNodes(variant, nodes, points)


def test_pick_matrix_two_node_scalar():
    data = PickData((0.0, 0.5), (np.array([[0.0]]), np.array([[0.3]])))
    expected = np.array([[1.0, 1.0], [1.0, (1 - 0.09) / (1 - 0.25)]])
    np.testing.assert_allclose(pick_matrix(data), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_pick_matrix_matches_the_block_formula(seed):
    rng = np.random.default_rng(seed)
    n, k = 1 + seed % 5, 1 + seed % 3
    nodes = 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    targets = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
    blocks = [
        [(np.eye(k) - wi.conj().T @ wj) / (1.0 - np.conj(li) * lj) for lj, wj in zip(nodes, targets)]
        for li, wi in zip(nodes, targets)
    ]
    want = np.block(blocks)
    got = pick_matrix(PickData(tuple(nodes), tuple(targets)))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_pick_data_validation():
    with pytest.raises(ValueError, match="distinct"):
        PickData((0.1, 0.1), (np.eye(1), np.eye(1)))
    with pytest.raises(ValueError, match="open unit disc"):
        PickData((1.0,), (np.eye(1),))
    with pytest.raises(ValueError, match="one target per node"):
        PickData((0.1, 0.2), (np.eye(1),))
    with pytest.raises(ValueError, match="common size"):
        PickData((0.1, 0.2), (np.eye(1), np.eye(2)))


def test_np_solve_schwarz_boundary():
    # a function fixing the origin maps 0.5 no farther than 0.5
    for w in (0.3, 0.5, 0.49j):
        data = PickData((0.0, 0.5), (np.zeros((1, 1)), np.array([[w]])))
        f = np_solve(data)
        vals = f.evaluate_many(np.array(data.nodes))
        np.testing.assert_allclose(vals[:, 0, 0], [0.0, w], atol=1e-9)
        assert verify_schur(f).passed
    with pytest.raises(UnsolvablePickError) as exc:
        np_solve(PickData((0.0, 0.5), (np.zeros((1, 1)), np.array([[0.6]]))))
    assert exc.value.min_eig < 0


def test_np_solve_matrix_targets_roundtrip():
    f = random_schur(2, 3, seed=1, max_sigma=0.9)
    nodes = np.array([0.1, -0.3 + 0.2j, 0.5j])
    targets = tuple(f.evaluate_many(nodes))
    g = np_solve(PickData(tuple(nodes), targets))
    vals = g.evaluate_many(nodes)
    for got, want in zip(vals, targets):
        np.testing.assert_allclose(got, want, atol=1e-9)
    assert verify_schur(g).passed


def test_gamma_curve_matches_pointwise_coordinates():
    f, curve7 = _curve(seed=2)
    _, curve5 = _curve(seed=2, variant="gamma5")
    for lam in (0.0, 0.4, -0.25j, 0.3 + 0.3j):
        b = f.evaluate(lam)
        np.testing.assert_allclose(
            curve7.point_at(lam).entries,
            pi_coordinates(b, "gamma7").entries,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            curve5.point_at(lam).entries,
            pi_coordinates(b, "gamma5").entries,
            atol=1e-10,
        )


def test_gamma_curve_validation():
    f = random_schur(3, 1, seed=3, max_sigma=0.9)
    entries = realization_to_rational(f)
    with pytest.raises(ValueError):
        gamma_curve_from_entries(entries, "gamma9")
    with pytest.raises(ValueError):
        GammaCurve("gamma7", tuple(entries[0]))  # wrong component count


def test_sample_curve_collects_points():
    _, curve = _curve(seed=4)
    nodes = (0.1, 0.2j)
    data = sample_curve(curve, nodes)
    assert data.variant == "gamma7"
    assert data.nodes == nodes
    np.testing.assert_allclose(
        data.points[1].entries, curve.point_at(0.2j).entries, atol=1e-12
    )


@pytest.mark.parametrize("variant", ["gamma7", "gamma5"])
@pytest.mark.parametrize("seed", [1, 4, 6])
def test_sample_curve_equals_point_at_to_the_last_bit(seed, variant):
    _, curve = _curve(seed=seed, variant=variant, m=3)
    rng = np.random.default_rng(seed)
    nodes = tuple(0.95 * np.sqrt(rng.random(9)) * np.exp(2j * np.pi * rng.random(9)))
    data = sample_curve(curve, nodes)
    for node, point in zip(nodes, data.points):
        assert point.entries == curve.point_at(node).entries


def _mixed_entries(seed=8):
    """Entries of F = A diag(b1, b2, b3): ||A|| = 0.9 and Blaschke factors
    b_j with distinct poles p_j, so no two columns share a denominator."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.9 * g / np.linalg.norm(g, 2)
    inv_p = (0.3 + 0.4 * rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    cols = [
        RationalFunction.over(
            [1, -1 / p], [npoly.polymul([-1 / np.conj(p), 1], [a[i, j]]) for i in range(3)]
        )
        for j, p in enumerate(1 / inv_p)
    ]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def test_slice_coordinates_curve_agrees_with_point():
    z = 0.3 - 0.2j
    for variant in ("gamma7", "gamma5"):
        shared = _curve(seed=5, variant=variant)[1]
        mixed = gamma_curve_from_entries(_mixed_entries(), variant)
        for curve in (shared, mixed):
            for det_denominator in ("corrected", "printed"):
                f11, f22, det = slice_coordinates(curve, z, det_denominator)
                for lam in (0.15, -0.4j):
                    t1, t2, t3 = slice_coordinates(curve.point_at(lam), z, det_denominator)
                    assert complex(f11([lam])[0]) == pytest.approx(t1, abs=1e-10)
                    assert complex(f22([lam])[0]) == pytest.approx(t2, abs=1e-10)
                    assert complex(det([lam])[0]) == pytest.approx(t3, abs=1e-10)


def test_mixed_denominator_curve_slices_are_schur():
    # the entries' denominators differ: the curve goes over their product,
    # and every slice must pass its determinant check
    entries = _mixed_entries()
    for variant in ("gamma7", "gamma5"):
        curve = gamma_curve_from_entries(entries, variant)
        for z in DEFAULT_Z_GRID:
            s = build_slice_schur(curve, z)
            lam = np.array([0.3, -0.5j])
            np.testing.assert_allclose(
                np.linalg.det(s.evaluate_many(lam)), s.det_slice(lam), atol=1e-8
            )


def test_printed_slice_on_both_sides_of_the_denominator_test():
    # at z = 0 the printed determinant denominator is half the slice
    # denominator, so f11 f22 - det cancels it; at z = 0.3 they differ and
    # the two denominators meet in rational arithmetic
    _, curve = _curve(seed=6, variant="gamma5")
    expected = {
        0.0: -0.013056450461381737 + 0.1767959852345403j,
        0.3: 0.004364779312062172 + 0.16585293741696697j,
    }
    for z, product in expected.items():
        s = build_slice_schur(curve, z, det_denominator="printed")
        proportional = np.allclose(2.0 * s.det_slice.denominator, s.f11.denominator)
        assert proportional == (z == 0.0)
        assert not s.triangular
        v = s.evaluate(0.25)
        assert complex(v[0, 1] * v[1, 0]) == pytest.approx(product, abs=1e-12)
    _, curve = _curve(seed=7, variant="gamma5")
    assert not build_slice_schur(curve, 0.0, det_denominator="printed").triangular
    with pytest.raises(ValueError, match=r"not contractive: norm 1\.007402168 at lam=0\.9990"):
        build_slice_schur(curve, 0.3, det_denominator="printed")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("z", [0.3, 0.2 - 0.1j, -0.6j])
def test_printed_slice_product_is_the_quotient_arithmetic_on_values(m, z):
    # f11 f22 - det goes over den**2 * det_den at once, with the coefficients
    # of f11 * f22 - det_slice, certified by those two factors; every value
    # the slice checks read comes from the curve's rows
    _, curve = _curve(seed=m + 4, variant="gamma5", m=m)
    f11, f22, det = slice_coordinates(curve, z, "printed")
    # the difference of quotients f11 * f22 - det, expanded as written
    (prod,) = RationalFunction.over_product(
        ((f11, 1), (f22, 1)), (npoly.polymul(f11.numerator, f22.numerator),)
    )
    num = npoly.polysub(
        npoly.polymul(prod.numerator, det.denominator),
        npoly.polymul(det.numerator, prod.denominator),
    )
    (expected,) = RationalFunction.over_product(((prod, 1), (det, 1)), (num,))
    handed = []
    original_io = nevanlinna._inner_outer_many

    def recorded_io(fs, *args):
        outcomes = original_io(fs, *args)
        handed.extend(zip(fs, outcomes))
        return outcomes

    def built():
        try:
            build_slice_schur(curve, z, det_denominator="printed")
        except ValueError as exc:
            assert "not contractive" in str(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nevanlinna, "_inner_outer_many", recorded_io)
        mp.setattr(RationalFunction, "__call__", None)  # no slice is evaluated
        certificates = root_certificates(built)
    ((d, (pair, _)),) = handed
    assert d.numerator.tobytes() == expected.numerator.tobytes()
    assert d.denominator.tobytes() == expected.denominator.tobytes()
    # den and det_den; the products den**2 and den**2 * det_den are not checked
    assert certificates == 2
    # the poles are the certified roots of den, twice, then those of det_den
    want = np.concatenate([np.repeat(f11.factors[0][1], 2), det.factors[0][1]])
    assert pair.den_roots.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# slices read from the curve's cached coordinate rows


@pytest.mark.parametrize("variant", ["gamma7", "gamma5"])
@pytest.mark.parametrize("det_denominator", ["corrected", "printed"])
def test_cached_slice_values_match_the_slice_coefficients(variant, det_denominator):
    # every term at the points build_slice_schur reads: from row_values at
    # the interior points and the contractivity grid, and from
    # circle_values at the boundary nodes
    shared = _curve(seed=5, variant=variant, m=2)[1]
    for curve in (shared, gamma_curve_from_entries(_mixed_entries(), variant)):
        for z in (*DEFAULT_Z_GRID, 0.95 - 0.1j):
            f11, f22, det = slice_coordinates(curve, z, det_denominator)
            coeffs = (f11.numerator, f22.numerator, det.numerator, f11.denominator, det.denominator)
            for points, values in (
                (nevanlinna._CURVE_POINTS, curve.row_values),
                (hardy.BOUNDARY_NODES, curve.circle_values),
            ):
                nums, *read = nevanlinna._slice_terms(values, z, det_denominator)
                for c, v in zip(coeffs, (*nums, *read)):
                    want = npoly.polyval(points, c)
                    assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()


def _numbers_out(message: str) -> str:
    return re.sub(r"-?[\d.]+(e[-+]\d+)?", "#", message)


def _certificate_outcome(den) -> str:
    """What the root certificate decides on ``den``: "pass", or its message
    with the numbers taken out."""
    (outcome,) = hardy._factored([np.asarray(den, dtype=complex)])
    return _numbers_out(str(outcome)) if isinstance(outcome, ValueError) else "pass"


def _curve_with_slice_root(root: complex, z: complex = 0.5) -> GammaCurve:
    """gamma7 curve over the denominator ``1 - 0.5 lam`` whose slice
    denominator ``h0 - z h2`` at ``z`` is ``(1 - lam / root)(1 - 0.3 lam)``."""
    big = np.array([1.0, -0.5], dtype=complex)
    target = npoly.polymul([1.0, -1.0 / root], [1.0, -0.3])
    h2 = npoly.polysub(big, target) / z
    rng = np.random.default_rng(0)
    comps = [RationalFunction(0.1 * rng.normal(size=2), big) for _ in range(7)]
    comps[1] = RationalFunction(h2, big)
    return GammaCurve("gamma7", tuple(comps))


_INSIDE = "denominator has # root(s) inside the unit disc"
_BAND = "denominator root not certified # outside the unit circle"
_UNCERTIFIED = "denominator nearly vanishes on the unit circle: roots not certified"
# what the 4096-point winding check, which the root certificate replaced,
# decided on the same denominators: the test ids keep it
_WINDING_VANISHES = "denominator nearly vanishes on the unit circle (min |den| = #)"


def _decisions(root, outcome, squared, winding, winding_squared):
    return pytest.param(root, outcome, squared, id=f"{root}-{winding}-{winding_squared}")


# |den| bottoms out near 0.7 * (|root| - 1) at lam = 1; the certificate
# refuses a root within 1e-9 of the circle, and the square of a root that
# close scatters its computed roots too far for the certificate to decide
@pytest.mark.parametrize(
    "root, outcome, squared",
    [
        _decisions(1.0 - 1e-3, _INSIDE, _INSIDE, _INSIDE, _INSIDE),
        _decisions(1.0 + 1e-3, "pass", "pass", "pass", "pass"),
        _decisions(-1.0 - 1e-3, "pass", "pass", "pass", "pass"),
        _decisions((1.0 - 1e-3) * 1j, _INSIDE, _INSIDE, _INSIDE, _INSIDE),
        _decisions(1.0 + 8e-12, _BAND, _UNCERTIFIED, "pass", _WINDING_VANISHES),
        _decisions(1.0 + 2e-12, _BAND, _UNCERTIFIED, _WINDING_VANISHES, _WINDING_VANISHES),
        _decisions(1.0 - 2e-12, _INSIDE, _UNCERTIFIED, _WINDING_VANISHES, _WINDING_VANISHES),
    ],
)
def test_cached_winding_decisions_match_the_evaluated_ones(root, outcome, squared):
    # the slice denominator, as the curve's slice certifies it from the
    # curve's rows, decides as its coefficients standing alone do
    z = 0.5
    curve = _curve_with_slice_root(root, z)
    _, den, _ = nevanlinna._slice_terms(curve.rows, z, "corrected")
    assert _certificate_outcome(den) == outcome
    assert _certificate_outcome(npoly.polymul(den, den)) == squared
    # build_slice_schur certifies den only: den**2 is certified by its factor.
    # Where den passes, the slice is refused by its contractivity check: next
    # to a pole this close to the circle a diagonal entry alone exceeds 1
    if outcome != "pass":
        for build in (slice_coordinates, build_slice_schur):
            with pytest.raises(ValueError) as info:
                build(curve, z)
            assert _numbers_out(str(info.value)) == outcome
    else:
        with pytest.raises(ValueError, match=r"is not contractive: norm .* at lam=-?0\.9990"):
            build_slice_schur(curve, z)
        f11, f22, _ = slice_coordinates(curve, z)
        edge = 0.999 * np.sign(root.real)
        assert max(abs(f11(edge)), abs(f22(edge))) > 1.0


def test_slice_checks_run_on_cached_values():
    _, curve = _curve(seed=3, m=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy.RationalFunction, "__call__", None)  # no slice is evaluated
        # the slice denominator, once; its square is certified by its factor
        assert root_certificates(lambda: build_slice_schur(curve, 0.3)) == 1


def _same_multiset(got, want, rtol) -> bool:
    """Whether ``got`` matches ``want`` root for root, each to ``rtol``
    relative, pairing every wanted root with its nearest unpaired one."""
    left = list(np.asarray(got, dtype=complex))
    if len(left) != len(want):
        return False
    for w in want:
        i = int(np.argmin(np.abs(np.asarray(left) - w)))
        if abs(left[i] - w) > rtol * abs(w):
            return False
        left.pop(i)
    return True


@pytest.mark.parametrize("variant", ["gamma7", "gamma5"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_slice_poles_come_from_the_slice_denominator(variant, m):
    # each pole of f11 f22 - det is a root of the certified slice denominator
    # taken twice, not one of the scattered roots of den**2
    _, curve = _curve(seed=m + 10, variant=variant, m=m)
    for z in DEFAULT_Z_GRID[1:]:
        s = build_slice_schur(curve, z)
        assert s.pair.has_exact_outer
        want = np.repeat(npoly.polyroots(s.f11.denominator), 2)
        assert _same_multiset(s.pair.den_roots, want, 1e-12)


def test_printed_mixed_slices_are_not_refused_by_a_product_check():
    # den**2 * det_den of a mixed-denominator curve has degree up to 27, and
    # certified as one polynomial it could fail the root certificate; its
    # factors, each certified alone, pass
    refused = []
    for seed in range(12):
        entries = _mixed_entries(seed)
        for variant in ("gamma7", "gamma5"):
            curve = gamma_curve_from_entries(entries, variant)
            for z in DEFAULT_Z_GRID:
                try:
                    build_slice_schur(curve, z, det_denominator="printed")
                except ValueError as exc:
                    refused.append(str(exc))
    assert not [r for r in refused if "nearly vanishes" in r]
    # the rest miss the determinant; 20 were refused while products were checked
    assert len(refused) <= 17


def test_slice_cache_is_small():
    _, curve = _curve(seed=3, m=3)
    assert curve.row_values.shape == (8, nevanlinna._CURVE_POINTS.size) == (8, 166)
    assert curve.row_values.nbytes < 0.025e6


@pytest.mark.parametrize("variant", ["gamma7", "gamma5"])
def test_passing_slices_leave_the_circle_values_uncomputed(variant):
    # every slice reconstructs within its tolerance, so none reads the
    # scale of inner_outer's check at the boundary nodes
    _, curve = _curve(seed=9, variant=variant)
    for z in DEFAULT_Z_GRID:
        assert not build_slice_schur(curve, z).triangular
    assert "circle_values" not in vars(curve)


def test_a_slice_reads_its_scale_from_the_circle_values():
    # the values build_slice_schur hands inner_outer for its scale are
    # f11 f22 - det at the boundary nodes; reading them fills circle_values
    _, curve = _curve(seed=9, m=2)
    handed = []
    original = nevanlinna._inner_outer_many

    def recorded(fs, tol, samples, points):
        handed.extend(zip(fs, samples))
        return original(fs, tol, samples, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nevanlinna, "_inner_outer_many", recorded)
        build_slice_schur(curve, 0.3 - 0.2j)
    ((d, (interior, circle)),) = handed
    assert "circle_values" not in vars(curve)
    for points, got in ((hardy.INTERIOR, interior), (hardy.BOUNDARY_NODES, circle())):
        want = d(points)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert vars(curve)["circle_values"].shape == (8, hardy.BOUNDARY_NODES.size)


def test_slice_coordinates_gamma5_variants_differ():
    _, curve = _curve(seed=6, variant="gamma5")
    z, lam = 0.4, 0.25
    _, _, det_corr = slice_coordinates(curve, z, det_denominator="corrected")
    _, _, det_prn = slice_coordinates(curve, z, det_denominator="printed")
    assert abs(complex(det_corr([lam])[0]) - complex(det_prn([lam])[0])) > 1e-6
    with pytest.raises(ValueError, match="det_denominator"):
        slice_coordinates(curve.point_at(lam), z, det_denominator="other")


def test_psi3_matches_fractional_map_with_swapped_arguments():
    f, curve = _curve(seed=7)
    for lam, z1, z2 in [(0.2, 0.3, -0.4), (0.35j, -0.2j, 0.5), (-0.3, 0.55j, 0.1)]:
        lhs = psi3_eval(curve, lam, z1, z2)
        rhs = se_eval(f, lam, z2, z1).value
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_psi_lower3_matches_diagonal_fractional_map():
    f, curve = _curve(seed=8, variant="gamma5")
    for lam, z in [(0.2, 0.3), (-0.35j, 0.45), (0.4, -0.5j)]:
        lhs = psi_lower3_eval(curve, lam, z)
        rhs = se_eval(f, lam, z, z).value
        assert lhs == pytest.approx(rhs, abs=1e-10)
        point_form = psi_lower3_eval(curve.point_at(lam), z)
        assert point_form == pytest.approx(lhs, abs=1e-12)


def test_build_slice_schur_matches_transfer_and_psi():
    _, curve = _curve(seed=9)
    z2 = 0.35 - 0.15j
    s = build_slice_schur(curve, z2)
    assert not s.triangular
    lam, z1 = 0.3, -0.25j
    assert s.transfer_eval(lam, z1) == pytest.approx(
        psi3_eval(curve, lam, z1, z2), abs=1e-8
    )
    # entries reproduce the slice coordinates
    f11, f22, det = slice_coordinates(curve, z2)
    assert complex(s.f11([lam])[0]) == pytest.approx(complex(f11([lam])[0]), abs=1e-12)
    assert complex(np.linalg.det(s.evaluate(lam))) == pytest.approx(
        complex(det([lam])[0]), abs=1e-8
    )
    # off-diagonal moduli agree on the boundary and the corner is real
    m12, m21 = s.boundary_moduli()
    np.testing.assert_allclose(m12, m21, atol=1e-12)
    corner = s.evaluate(0.0)[1, 0]
    assert abs(corner.imag) <= 1e-10 and corner.real >= -1e-10


def test_build_slice_schur_norm_bound():
    _, curve = _curve(seed=10)
    s = build_slice_schur(curve, 0.5j)
    rng = np.random.default_rng(0)
    lam = 0.95 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    vals = s.evaluate_many(lam)
    norms = np.linalg.svd(vals, compute_uv=False)[:, 0]
    assert float(norms.max()) <= 1.0 + 1e-6


def test_build_slice_schur_triangular_for_diagonal_curve():
    diag = np.diag([0.5, 0.4, -0.3])
    comps = pi_coordinates(diag, "gamma7").entries
    from gammapick.hardy import RationalFunction

    curve = GammaCurve(
        "gamma7", tuple(RationalFunction([c], [1.0]) for c in comps)
    )
    s = build_slice_schur(curve, 0.2)
    assert s.triangular
    v = s.evaluate(0.3)
    assert v[0, 1] == 0 and v[1, 0] == 0


def test_reduce_gamma7_split_rules():
    data = _scaled_nodes()
    z2 = 0.3
    for rule in ("balanced", "left-one"):
        pick = reduce_gamma7(data, z2, split_rule=rule)
        assert len(pick.nodes) == 3
        for point, target in zip(data.points, pick.targets):
            t1, t2, t3 = slice_coordinates(point, z2)
            assert target[0, 0] == pytest.approx(t2, abs=1e-12)
            assert target[1, 1] == pytest.approx(t1, abs=1e-12)
            assert target[0, 1] * target[1, 0] == pytest.approx(
                t1 * t2 - t3, abs=1e-12
            )
    balanced = reduce_gamma7(data, z2, split_rule="balanced")
    assert all(
        abs(abs(t[0, 1]) - abs(t[1, 0])) < 1e-12 for t in balanced.targets
    )
    left_one = reduce_gamma7(data, z2, split_rule="left-one")
    assert all(t[1, 0] == pytest.approx(1.0) for t in left_one.targets)


def test_reduce_explicit_pairs_validated():
    data = _scaled_nodes()
    with pytest.raises(ValueError, match="does not match"):
        reduce_gamma7(data, 0.3, split_rule=[(1.0, 1.0)] * 3)


def test_reduce_variant_mismatch():
    data = _scaled_nodes(variant="gamma5")
    with pytest.raises(ValueError, match="gamma7"):
        reduce_gamma7(data, 0.3)
    with pytest.raises(ValueError, match="gamma5"):
        reduce_gamma5(_scaled_nodes(), 0.3)


def test_certify_gamma7_solvable_and_scaled_unsolvable():
    report = certify_gamma7_interpolation(_scaled_nodes(), tol=1e-9)
    assert report.variant == "gamma7"
    assert all(row.solvable for row in report.rows)
    assert all(
        row.target_residual is not None and row.target_residual <= 1e-8
        for row in report.rows
    )
    scaled = certify_gamma7_interpolation(
        _scaled_nodes(scale=3.0), split_rules=("balanced", "left-one")
    )
    assert not any(row.solvable for row in scaled.rows)
    assert all(row.min_eig < 0 for row in scaled.rows if not row.solvable)


def test_certify_gamma5_both_denominators():
    data = _scaled_nodes(variant="gamma5")
    for det_denominator in ("corrected", "printed"):
        report = certify_gamma5_interpolation(data, det_denominator=det_denominator)
        assert report.variant == "gamma5"
        assert all(row.solvable for row in report.rows)
    scaled = certify_gamma5_interpolation(_scaled_nodes(scale=3.0, variant="gamma5"))
    assert not any(row.solvable for row in scaled.rows)


def test_gamma5_tables_are_solved_together():
    # the certify command's two gamma5 tables: one _solve_many call, and
    # each report as certify_gamma5_interpolation gives it alone
    data = _scaled_nodes(variant="gamma5")
    names = ("corrected", "printed")
    reducers = [partial(reduce_gamma5, det_denominator=name) for name in names]
    solved = []
    original = nevanlinna._solve_many

    def recorded(problems, tol):
        solved.append(len(problems))
        return original(problems, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nevanlinna, "_solve_many", recorded)
        both = nevanlinna._certify(data, None, ("balanced", "left-one"), 1e-9, reducers)
    assert solved == [2 * 2 * len(DEFAULT_Z_GRID)]
    for name, report in zip(names, both):
        alone = certify_gamma5_interpolation(
            data, split_rules=("balanced", "left-one"), det_denominator=name
        )
        assert repr(report) == repr(alone)


def test_reduced_pick_data_match_the_checked_constructor():
    # _reduce builds its PickData with no __post_init__; the checked
    # constructor takes the same nodes and targets unchanged
    data = _scaled_nodes()
    pick = reduce_gamma7(data, 0.3j)
    checked = PickData(data.nodes, tuple(pick.targets))
    assert pick.nodes == checked.nodes and pick.k == checked.k == 2
    for got, want in zip(pick.targets, checked.targets):
        assert got.tobytes() == want.tobytes()
    assert pick.spectrum.min == checked.spectrum.min


def test_reduction_refuses_non_finite_targets():
    # f11 f22 = 1e400 overflows the off-diagonal targets of the balanced split
    point = GammaPoint("gamma7", (1e200, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0))
    data = GammaNodes("gamma7", (0.1,), (point,))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        reduce_gamma7(data, 0.0)


def test_gamma_nodes_validation():
    with pytest.raises(ValueError):
        GammaNodes("gamma7", (0.1, 0.2), (pi_coordinates(np.eye(3) * 0.1, "gamma7"),))


# ---------------------------------------------------------------------------
# each slice invariant is computed once


def _calls(owner, name, fn) -> int:
    count = 0
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, counted)
        fn()
    return count


def test_curve_keeps_its_shared_form():
    _, curve = _curve(seed=11, m=2)

    def slice_all():
        for z in DEFAULT_Z_GRID:
            slice_coordinates(curve, z)

    # once for the curve, not once per slice parameter
    assert _calls(nevanlinna, "_shared_numerators", slice_all) == 1
    assert curve.shared_numerators is curve.shared_numerators


def test_build_slice_schur_evaluates_the_slice_once():
    # one Blaschke product for the pair, at the interior points of its
    # reconstruction check and the contractivity grid, and one factor stack
    # for each of the two point sets; none through the pair's own methods.
    # The diagonal comes from the curve's rows
    _, curve = _curve(seed=9)
    for owner, name, count in (
        (SlicedSchur2x2, "evaluate_many", 0),
        (RationalFunction, "__call__", 0),
        (hardy.InnerOuterPair, "outer_sqrt", 0),
        (hardy, "blaschke_eval", 0),
        (hardy, "_factor_rows", 2),
        (hardy, "_blaschke_rows", 1),
    ):
        assert _calls(owner, name, lambda: build_slice_schur(curve, 0.35)) == count
    # the values that pass hands back at the grid are the pair's own there,
    # to the last bit
    s, _, (inner, sqrt_outer) = _handed_to_inner_outer(curve, 0.35)
    points = nevanlinna._CURVE_POINTS[nevanlinna._GRID_AT :]
    assert inner.tobytes() == s.pair.inner_eval(points).tobytes()
    assert sqrt_outer.tobytes() == s.pair.outer_sqrt(points).tobytes()


def _handed_to_inner_outer(curve, z):
    """The slice, the function ``f11 f22 - det`` that
    :func:`build_slice_schur` hands to ``hardy._inner_outer_many``, and the
    values ``(inner, sqrt(outer))`` at the contractivity grid that it hands
    back."""
    handed = []
    original = nevanlinna._inner_outer_many

    def recorded(fs, *args):
        outcomes = original(fs, *args)
        handed.extend(zip(fs, outcomes))
        return outcomes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nevanlinna, "_inner_outer_many", recorded)
        s = build_slice_schur(curve, z)
    ((d, (_, values)),) = handed
    return s, d, values


@pytest.mark.parametrize("n_points", [64, 1000, 2048, 4096])
def test_slice_pair_matches_a_direct_factorization(n_points):
    # the slice reads f11 f22 - det from the curve's rows, at the interior
    # points.  The pair is the one inner_outer builds from values it
    # evaluates itself; the two agree at n_points inside the disk and on the
    # circle, where the pair is f11 f22 - det itself
    circle = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    lam = 0.95 * circle
    for variant in ("gamma7", "gamma5"):
        _, curve = _curve(seed=4, variant=variant, m=2)
        for z in (0.3, -0.6j):
            s, d, _ = _handed_to_inner_outer(curve, z)
            direct = hardy.inner_outer(d, tol=1e-6)
            assert s.pair.has_exact_outer and direct.has_exact_outer
            for got, want in (
                (s.pair.eval(lam), direct.eval(lam)),
                (s.pair.outer_sqrt(lam), direct.outer_sqrt(lam)),
                (s.pair.eval(circle), d(circle)),
            ):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            assert abs(s.pair.unimodular_constant - direct.unimodular_constant) <= 1e-10


def test_slice_boundary_moduli_are_the_root_of_the_factored_function():
    # |f12| = |f21| = |f11 f22 - det|^(1/2) at the 2048 boundary nodes, read
    # off the factored form and compared with the function evaluated there
    _, curve = _curve(seed=0, variant="gamma7", m=1)
    s, d, _ = _handed_to_inner_outer(curve, 0.3)
    assert s.pair.blaschke_zeros.size == 2
    m12, m21 = s.boundary_moduli()
    want = np.sqrt(np.abs(d(hardy.BOUNDARY_NODES)))
    assert m12.size == m21.size == 2048
    for got in (m12, m21):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_slice_checks_report_a_vanishing_denominator():
    # x2 = 2 everywhere, so the gamma7 slice denominator 1 - z x2 is zero at
    # z = 0.5; at z = 0.3 the slice is a multiple of the curve's and fails a
    # later check
    big = np.array([1.0, -0.5], dtype=complex)
    rng = np.random.default_rng(0)
    comps = [RationalFunction(0.1 * rng.normal(size=2), big) for _ in range(7)]
    comps[1] = RationalFunction(2.0 * big, big)
    curve = GammaCurve("gamma7", tuple(comps))
    assert cli._slice_checks(curve, (0.5, 0.3), "corrected") == [
        {"z": [0.5, 0.0], "ok": False, "error": "denominator is identically zero"},
        {
            "z": [0.3, 0.0],
            "ok": False,
            "error": "slice at z=(0.3+0j) is not contractive: norm 1.608349911 at "
            "lam=0.9990+0.0000j",
        },
    ]


def test_slice_checks_report_a_printed_determinant_mismatch():
    # one of the printed gamma5 misses of the mixed-denominator curves: the
    # slice is contractive, and its determinant misses the printed slice
    curve = gamma_curve_from_entries(_mixed_entries(8), "gamma5")
    assert cli._slice_checks(curve, (0.3,), "printed") == [
        {"z": [0.3, 0.0], "ok": False, "error": "slice determinant mismatch 3.523e-05"}
    ]
    assert cli._slice_checks(curve, (0.3,), "corrected") == [
        {"z": [0.3, 0.0], "ok": True, "triangular": False}
    ]


def test_slice_with_vanishing_product_to_rounding_is_triangular():
    # third criterion-7 map: at z = 0 its gamma5 slice has f11 f22 - det = 0,
    # which the shared-denominator arithmetic leaves at 1e-16
    a = ((0.4, 0.1j, 0.0), (0.0, 0.35, 0.15), (0.1, 0.0, 0.45))
    entries = [[RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    curve = gamma_curve_from_entries(entries, "gamma5")
    s = build_slice_schur(curve, 0.0)
    assert s.triangular
    lam = np.array([0.3, -0.5j])
    np.testing.assert_allclose(np.linalg.det(s.evaluate_many(lam)), s.det_slice(lam), atol=1e-15)


def test_np_solve_reports_its_target_residual():
    pick = reduce_gamma7(_scaled_nodes(), 0.3)
    f = np_solve(pick)
    vals = f.evaluate_many(np.asarray(pick.nodes))
    misses = [np.linalg.norm(v - t, 2) for v, t in zip(vals, pick.targets)]
    assert f.target_residual == max(misses)
    assert f.target_residual <= 1e-8


# ---------------------------------------------------------------------------
# Pick data sampled from Schur functions

_PICK_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
_PICK_CASES = dict(m=st.integers(0, 4), n=st.integers(1, 7), seed=st.integers(0, 2**16))


def _schur_pick_data(m: int, n: int, seed: int):
    """Nodes with |lam| <= 0.9 and the values of ``random_schur(2, m, seed)`` there."""
    rng = np.random.default_rng(seed)
    nodes = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return nodes, random_schur(2, m, seed).evaluate_many(nodes)


@_PICK_PROPERTY
@given(**_PICK_CASES)
# roundoff pushes a least-squares fit of these data to norm 1 + 5.3e-5
@example(m=0, n=7, seed=25)
def test_np_solve_property_schur_values_solve(m, n, seed):
    nodes, targets = _schur_pick_data(m, n, seed)
    f = np_solve(PickData(tuple(nodes), tuple(targets)))
    assert f.target_residual <= 1e-8
    assert f.m <= f.k * n


@_PICK_PROPERTY
@given(**_PICK_CASES)
def test_np_property_targets_scaled_past_norm_one_are_unsolvable(tmp_path_factory, m, n, seed):
    nodes, targets = _schur_pick_data(m, n, seed)
    targets *= 1.1 / max(np.linalg.norm(t, 2) for t in targets)
    data = PickData(tuple(nodes), tuple(targets))
    with pytest.raises(UnsolvablePickError):
        np_solve(data)
    path = tmp_path_factory.mktemp("pick") / "scaled.json"
    path.write_text(json.dumps(pick_data_to_json(data)))
    assert run(["np", "--in", str(path)]) == 2


# ---------------------------------------------------------------------------
# the stacked solver: a batch solves each problem as it is solved alone

_KINDS = ("solvable", "unsolvable", "deficient")
# more points than any batch problem's states (at most 15), enough for the
# modal path of RealizedSchurFunction.values_of
_N_MANY = 2 * realization._MODAL_POINTS
_MANY_POINTS = 0.95 * np.linspace(0.1, 1.0, _N_MANY) * np.exp(2j * np.pi * np.arange(_N_MANY) / _N_MANY)


def _batch_problem(kind: str, k: int, n: int, seed: int) -> PickData:
    """Values at ``n`` nodes of a ``k x k`` Schur function: a strict
    contraction's (solvable), the same scaled by 1.3 (unsolvable), or a
    unitary colligation's with ``m < n k`` states, whose Pick matrix has
    rank ``m`` (deficient)."""
    rng = np.random.default_rng(seed)
    nodes = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    if kind == "deficient":
        m = int(rng.integers(0, n * k))
        raw = rng.normal(size=(k + m, k + m)) + 1j * rng.normal(size=(k + m, k + m))
        f = RealizedSchurFunction.from_colligation(np.linalg.qr(raw)[0], k, m)
    else:
        f = random_schur(k, int(rng.integers(0, 5)), seed, max_sigma=0.9)
    targets = f.evaluate_many(nodes) * (1.3 if kind == "unsolvable" else 1.0)
    return PickData(tuple(nodes), tuple(targets))


def _outcome(data: PickData):
    try:
        return np_solve(data)
    except Exception as exc:  # every outcome is compared, exceptions too
        return exc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 3),
    n=st.integers(1, 5),
    cases=st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.integers(0, 2**16),
            st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 5))),
        ),
        min_size=1,
        max_size=10,
    ),
)
# one shape, three ranks: 6 (solvable), 3 and 1 (deficient), and an unsolvable
@example(
    k=2, n=3, cases=[("solvable", 0, None), ("deficient", 1, None), ("unsolvable", 2, None),
                     ("deficient", 3, None), ("solvable", 4, (1, 2))],
)
def test_a_batch_solves_each_problem_as_it_is_solved_alone(k, n, cases):
    problems = [_batch_problem(kind, *(shape or (k, n)), seed) for kind, seed, shape in cases]
    together = nevanlinna._solve_many(problems, 1e-9)
    for data, got in zip(problems, together):
        alone = _outcome(PickData(data.nodes, data.targets))
        assert type(got) is type(alone)
        if isinstance(alone, Exception):
            assert str(got) == str(alone)
        else:
            assert got.target_residual.hex() == alone.target_residual.hex()
            assert got.m == alone.m
    # the interpolants of one shape, stacked, at more points than states:
    # each gets the values it gets alone, to the last bit
    solved = [f for f in together if isinstance(f, PickInterpolant)]
    for idx in nevanlinna._groups(range(len(solved)), lambda i: (solved[i].k, solved[i].m)):
        fs = [solved[i] for i in idx]
        blocks = (np.stack([getattr(f, name) for f in fs]) for name in "pqrs")
        stacked = PickInterpolant.values_of(*blocks, np.tile(_MANY_POINTS, (len(fs), 1)))
        for f, values in zip(fs, stacked):
            assert values.tobytes() == f.evaluate_many(_MANY_POINTS).tobytes()


def test_the_batch_example_mixes_ranks_in_one_shape():
    problems = [_batch_problem(kind, 2, 3, seed) for kind, seed in
                [("solvable", 0), ("deficient", 1), ("deficient", 3)]]
    ranks = {f.m for f in nevanlinna._solve_many(problems, 1e-9)}
    assert len(ranks) == 3 and 6 in ranks


def test_certify_solves_its_pick_problems_in_one_stacked_pass():
    # a criterion-7 curve's node data: one Pick shape at every slice parameter
    a = ((0.5, 0.2, 0.0), (0.0, 0.4, 0.1), (0.1, 0.0, 0.3))
    entries = [[RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    data = sample_curve(gamma_curve_from_entries(entries, "gamma7"), (0.2, -0.35 + 0.1j, 0.45j))

    def counts(z_grid):
        calls = {"svd": 0, "solve": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                mp.setattr(np.linalg, name, counted(name))
            report = certify_gamma7_interpolation(data, z_grid=z_grid)
        assert all(row.solvable for row in report.rows)
        return calls

    assert counts((0.0, 0.3, -0.3j)) == counts(DEFAULT_Z_GRID) == {"svd": 1, "solve": 1}


def test_overflowing_pick_matrix_is_unsolvable():
    data = PickData((0.1, 0.2), (np.array([[1e308]]), np.array([[-1e308]])))
    with pytest.raises(OverflowError, match="Pick matrix overflows"):
        np_solve(data)
    # the overflow stays with its problem
    fine = PickData((0.1, 0.2), (np.array([[0.1]]), np.array([[0.2]])))
    over, solved = nevanlinna._solve_many([data, fine], 1e-9)
    assert isinstance(over, OverflowError)
    assert solved.target_residual <= 1e-8


def test_empty_targets_and_node_sets_are_rejected():
    with pytest.raises(ValueError, match="at least 1x1"):
        PickData((0.1,), (np.zeros((0, 0)),))
    with pytest.raises(ValueError, match="at least one node"):
        GammaNodes("gamma7", (), ())


# ---------------------------------------------------------------------------
# the stacked slice pass: a slice does not depend on its neighbours


def _slice_bits(sliced, values):
    """Everything a slice's checks read and its values come from, as bytes,
    with ``values``, its pair's ``(inner, sqrt(outer))`` at the
    contractivity grid; or the message of the exception that refused it."""
    if isinstance(sliced, Exception):
        return str(sliced)
    functions = (sliced.f11, sliced.f22, sliced.det_slice)
    bits = [c.tobytes() for f in functions for c in (f.numerator, f.denominator)]
    pair = sliced.pair
    if pair is None:
        return sliced.triangular, *bits
    return (
        sliced.triangular,
        *bits,
        repr(pair.unimodular_constant),
        pair.blaschke_zeros.tobytes(),
        pair.outer_roots.tobytes(),
        pair.den_roots.tobytes(),
        repr(pair.outer_scale),
        *(np.ascontiguousarray(v).tobytes() for v in values),
    )


def _grid_bits(curve, zs, det_denominator):
    """The :func:`_slice_bits` of each slice that ``_slice_grid`` builds at
    ``zs``, with the values that ``hardy._inner_outer_many`` hands back for
    its pair."""
    values = {}
    original = nevanlinna._inner_outer_many

    def recorded(*args):
        outcomes = original(*args)
        values.update(o for o in outcomes if not isinstance(o, Exception))
        return outcomes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nevanlinna, "_inner_outer_many", recorded)
        slices = nevanlinna._slice_grid(curve, zs, det_denominator)
    return [_slice_bits(s, values.get(getattr(s, "pair", None))) for s in slices]


def _criterion7_curve():
    a = ((0.5, 0.2, 0.0), (0.0, 0.4, 0.1), (0.1, 0.0, 0.3))
    entries = [[RationalFunction([0.0, a[i][j]]) for j in range(3)] for i in range(3)]
    return gamma_curve_from_entries(entries, "gamma7")


@pytest.mark.parametrize(
    "build, det_denominator, failed, triangular",
    [
        pytest.param(lambda: _curve(seed=4, m=2)[1], "corrected", [], [], id="rational-gamma7"),
        pytest.param(
            lambda: _curve(seed=4, variant="gamma5", m=2)[1],
            "printed",
            [0.6, -0.6, 0.6j],
            [],
            id="rational-gamma5-printed",
        ),
        pytest.param(_criterion7_curve, "corrected", [], [0.0], id="criterion7-gamma7"),
    ],
)
def test_a_slice_does_not_depend_on_its_neighbours(build, det_denominator, failed, triangular):
    # each z of the default grid alone, in the grid and in the reversed grid:
    # the same pair data and slice values to the last bit, or the same message
    curve, grid = build(), list(DEFAULT_Z_GRID)
    alone = [_grid_bits(curve, [z], det_denominator)[0] for z in grid]
    assert _grid_bits(curve, grid, det_denominator) == alone
    assert _grid_bits(curve, grid[::-1], det_denominator)[::-1] == alone
    assert [z for z, bits in zip(grid, alone) if isinstance(bits, str)] == failed
    assert all("not contractive" in alone[grid.index(z)] for z in failed)
    assert [z for z, bits in zip(grid, alone) if not isinstance(bits, str) and bits[0]] == triangular

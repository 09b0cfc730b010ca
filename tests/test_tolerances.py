"""The table of named tolerances: no threshold is written outside it, and
every entry decides its check on the side it says.

Each probe gives its check two inputs, one just inside the threshold and one
just outside (0.9 and 1.1 times it, or the nearest equivalent), and returns
the two decisions; inside is True.  Where a check has a default, the probe
leaves it to the default, so it also shows that the default is the entry.
"""

import ast
import contextlib
import inspect
import io
from pathlib import Path

import numpy as np
import pytest

from gammapick import cli, domains, hardy, kernels, linalg, lurking, nevanlinna, realization
from gammapick import tolerances as tt
from gammapick.domains import E311, GammaPoint, MuBound, in_gamma
from gammapick.hardy import InnerOuterPair, RationalFunction, blaschke_eval
from gammapick.kernels import SampleGrid, SampledKernel, tensor_grid, upper_e
from gammapick.lurking import RankOneFactor, UWResult, rank1_factor, torus_fit, uw_construct, verify_uw
from gammapick.nevanlinna import GammaCurve, PickInterpolant, build_slice_schur, np_solve
from gammapick.realization import RealizedSchurFunction, random_schur, verify_schur
from test_linalg import _kernel, _pick

SRC = Path(cli.__file__).parent
INSIDE, OUTSIDE = 0.9, 1.1


# ---------------------------------------------------------------------------
# no threshold outside the table


def _unnamed_literals(path: Path) -> list[str]:
    """Float literals ``0 < |x| < 1e-2`` of ``path``, but those on the right of
    a module-level assignment (the step constants and point sets of a module)."""
    tree = ast.parse(path.read_text())
    named = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
    }
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
        and 0.0 < abs(node.value) < 1e-2
        and id(node) not in named
    ]


def test_no_threshold_is_written_outside_the_table():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in _unnamed_literals(path)
    ]
    assert found == []


def test_the_lint_sees_an_inline_threshold(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("STEP = 1e-4\n\ndef f(x, tol=1e-9):\n    return abs(x) < 2e-3j.imag\n")
    assert _unnamed_literals(path) == ["m.py:3: 1e-09", "m.py:4: 0.002j"]


def test_every_entry_is_exported():
    names = sorted(n for n in vars(tt) if n.isupper())
    assert names == sorted(tt.__all__)


_DEFAULTS = [
    (domains.in_gamma, "MEMBER_TOL"),
    (domains.tetrablock_member, "MEMBER_TOL"),
    (SampledKernel.is_psd, "KERNEL_TOL"),
    (kernels.kernel_rank, "KERNEL_TOL"),
    (kernels.membership, "KERNEL_TOL"),
    (lurking.rank1_factor, "KERNEL_TOL"),
    (lurking.right_s, "KERNEL_TOL"),
    (lurking.uw_construct, "UW_TOL"),
    (lurking.verify_uw, "UW_TOL"),
    (nevanlinna.np_solve, "PICK_TOL"),
    (nevanlinna.certify_gamma7_interpolation, "PICK_TOL"),
    (nevanlinna.certify_gamma5_interpolation, "PICK_TOL"),
    (hardy.inner_outer, "SLICE_TOL"),
    (realization.verify_schur, "SCHUR_TOL"),
]


@pytest.mark.parametrize(
    "fn, entry", [pytest.param(fn, entry, id=fn.__qualname__) for fn, entry in _DEFAULTS]
)
def test_library_defaults_are_table_entries(fn, entry):
    assert inspect.signature(fn).parameters["tol"].default is getattr(tt, entry)


def test_cli_defaults_are_table_entries():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    want = {
        "gamma-check": tt.MEMBER_TOL,
        "upper-e": tt.KERNEL_TOL,
        "uw": tt.UW_TOL,
        "right-s": tt.KERNEL_TOL,
        "np": tt.PICK_TOL,
        "certify": tt.PICK_TOL,
        "verify-identities": tt.UW_TOL,
    }
    got = {name: p.get_default("tol") for name, p in sub.choices.items() if p.get_default("tol")}
    assert got.keys() == want.keys()
    assert all(got[name] is want[name] for name in want)


# ---------------------------------------------------------------------------
# the table walk: every entry on both sides of its threshold


def _raises(exc, fn) -> bool:
    try:
        fn()
    except exc:
        return True
    return False


def _both(decide):
    return decide(INSIDE), decide(OUTSIDE)


_GRID2 = SampleGrid(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))


def _constant_gamma7(values) -> GammaCurve:
    """A gamma7 curve of constant components ``values``: its slice at z = 0
    is ``f11 = x1``, ``f22 = x4``, ``det = x5``."""
    return GammaCurve("gamma7", tuple(RationalFunction([v]) for v in values))


def _member_tol():
    # mu of diag(c, 0, 0) is c
    return _both(lambda k: in_gamma(np.diag([1.0 + k * tt.MEMBER_TOL, 0.0, 0.0]), E311))


def _bracket_rtol():
    return _both(lambda k: MuBound(1.0 - k * tt.BRACKET_RTOL, 1.0).closed)


def _kernel_tol():
    # the floor is tol * max(1, top): at top = 1e-3 it is tol itself
    return _both(lambda k: _kernel(1e-3, -k * tt.KERNEL_TOL).is_psd())


def _hermitian_tol():
    gram = lambda k: np.array([[0.0, k * tt.HERMITIAN_TOL], [0.0, 0.0]])
    return _both(lambda k: not _raises(ValueError, lambda: SampledKernel(_GRID2, gram(k))))


def _state_cutoff():
    # the second eigenvalue is dropped from the state factor
    return _both(lambda k: linalg.Spectrum(np.diag([1.0, k * tt.STATE_CUTOFF])).factor().shape[1] == 1)


def _state_floor():
    # below the floor the cutoff is STATE_CUTOFF * STATE_FLOOR, above it
    # STATE_CUTOFF * top: a second eigenvalue 1.05 STATE_CUTOFF top is dropped
    # only below
    def dropped(k):
        top = k * tt.STATE_FLOOR
        spec = linalg.Spectrum(np.diag([top, 1.05 * tt.STATE_CUTOFF * top]))
        return spec.factor().shape[1] == 1

    return _both(dropped)


def _uw_tol():
    # one grid point with zero factors: the residual is the (0, 0) value
    grid = SampleGrid(((0.1, 0.2, 0.3),))
    zero = RankOneFactor(grid, [0.0])
    result = UWResult(None, zero, zero, zero, 0)

    def passed(k):
        values = np.zeros((1, 3, 3), dtype=complex)
        values[0, 0, 0] = k * tt.UW_TOL
        return verify_uw(result, values).passed

    return _both(passed)


def _gram_floor():
    # uw_construct at tol 1e-12, below the floor, with its isometry V shrunk
    # to (1 - c) V: as V maps right onto left, the fit misses by c max |left|
    triple = upper_e(random_schur(3, 2, seed=2), tensor_grid(4, 4, radius=0.9, seed=2))
    original = lurking.extend_isometry

    def built(k):
        def moved(right, left):
            top = float(np.abs(left).max())
            return (1.0 - k * tt.GRAM_FLOOR * max(1.0, top) / top) * original(right, left)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lurking, "extend_isometry", moved)
            return not _raises(lurking.GramInconsistencyError, lambda: uw_construct(triple, tol=1e-12))

    return _both(built)


def _phase_anchor():
    # v = (c e^{0.7i}, 1): an entry below the anchor leaves the phase to entry 1
    def anchored_on_second(k):
        v = np.array([k * tt.PHASE_ANCHOR * np.exp(0.7j), 1.0])
        values = rank1_factor(SampledKernel(_GRID2, np.outer(v, v.conj()))).values
        return values[1] == 1.0

    return _both(anchored_on_second)


def _torus_anchor():
    def refused(k):
        fv = np.zeros((1, 3, 3), dtype=complex)
        fv[0, :, 0] = 1.0
        xv = fv.copy()
        xv[0, 2, 0] = k * tt.TORUS_ANCHOR
        return _raises(ValueError, lambda: torus_fit(fv, xv))

    return _both(refused)


def _pick_tol():
    # the floor is tol * max(1, top): at top = 1e-3 it is tol itself
    pick = lambda k: _pick(1e-3, -k * tt.PICK_TOL)
    return _both(lambda k: not _raises(nevanlinna.UnsolvablePickError, lambda: np_solve(pick(k))))


def _target_tol():
    # the interpolant's values moved by c I miss every target by c
    original = PickInterpolant.values_of

    def solved(k):
        def moved(*args):
            return original(*args) + k * tt.TARGET_TOL * np.eye(2)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PickInterpolant, "values_of", staticmethod(moved))
            return not _raises(ArithmeticError, lambda: np_solve(_pick(0.5, 0.25)))

    return _both(solved)


def _split_rtol():
    pair = lambda k: [(1.0, 2.0 + k * tt.SPLIT_RTOL * 2.0)]
    return _both(lambda k: not _raises(ValueError, lambda: nevanlinna._split_pairs([2.0], pair(k))))


def _ratio_rtol():
    # den = 2 base in the first entry and 2 + d in the second: the bound on d
    # is RATIO_ATOL * 2 + RATIO_RTOL * 2, nearly all of it RATIO_RTOL
    base = np.array([1.0, 1.0], dtype=complex)
    bound = 2.0 * (tt.RATIO_ATOL + tt.RATIO_RTOL)
    den = lambda k: np.array([2.0, 2.0 + k * bound], dtype=complex)
    return _both(lambda k: nevanlinna._scalar_ratio(den(k), base) is not None)


def _ratio_atol():
    # where base vanishes only RATIO_ATOL times the largest coefficient counts
    base = np.array([1.0, 0.0], dtype=complex)
    den = lambda k: np.array([2.0, k * tt.RATIO_ATOL * 2.0], dtype=complex)
    return _both(lambda k: nevanlinna._scalar_ratio(den(k), base) is not None)


def _denominator_floor():
    # psi_lower3's denominator 1 - x4 z at z = 0.5 is c for x4 = 2 (1 - c)
    def vanishes(k):
        point = GammaPoint("gamma5", (0.0, 0.0, 0.0, 2.0 * (1.0 - k * tt.DENOMINATOR_FLOOR), 0.0))
        return _raises(ZeroDivisionError, lambda: nevanlinna.psi_lower3_eval(point, 0.5))

    return _both(vanishes)


def _circle_band():
    def refused(k):
        den = [1.0, -1.0 / (1.0 + k * tt.CIRCLE_BAND)]
        return _raises(ValueError, lambda: RationalFunction([1.0], den))

    return _both(refused)


def _poly_noise():
    # f11 f22 - det of the slice at z = 0 is 0.25 - (0.25 + e): it vanishes
    # when e is at most POLY_NOISE times the mass 0.5 + e
    def triangular(k):
        e = k * tt.POLY_NOISE * 0.5
        return build_slice_schur(_constant_gamma7([0.5, 0, 0, 0.5, 0.25 + e, 0, 0]), 0.0).triangular

    return _both(triangular)


def _trim_rtol():
    return _both(lambda k: RationalFunction([1.0, k * tt.TRIM_RTOL]).numerator.size == 1)


def _bare_zero():
    # a bare factor lam gives 0.5 at 0.5; a Blaschke factor about -0.5
    return _both(lambda k: blaschke_eval([k * tt.BARE_ZERO], 1.0, [0.5])[0] == 0.5)


def _disc_slack():
    point = lambda k: [1.0 + k * tt.DISC_SLACK]
    return _both(lambda k: not _raises(ValueError, lambda: blaschke_eval([], 1.0, point(k))))


def _unimodular_tol():
    pair = lambda k: InnerOuterPair(1.0 + k * tt.UNIMODULAR_TOL, [], [], [])
    return _both(lambda k: not _raises(ValueError, lambda: pair(k)))


def _slice_tol():
    # f = 0.5 has scale 1: the interior samples miss it by c
    f = RationalFunction([0.5])
    samples = lambda k: [(f(hardy.INTERIOR) + k * tt.SLICE_TOL, lambda: f(hardy.BOUNDARY_NODES))]
    checked = lambda k: hardy._only(hardy._inner_outer_many([f], tt.SLICE_TOL, samples(k)))
    return _both(lambda k: not _raises(ValueError, lambda: checked(k)))


def _contractive_slack():
    # a triangular slice diag(x1, 0) has norm x1
    curve = lambda k: _constant_gamma7([1.0 + k * tt.CONTRACTIVE_SLACK, 0, 0, 0, 0, 0, 0])
    return _both(lambda k: not _raises(ValueError, lambda: build_slice_schur(curve(k), 0.0)))



def _colligation(p) -> bool:
    """Whether ``p`` is accepted as a constant function's colligation."""
    k = len(p)
    empty = np.zeros((k, 0)), np.zeros((0, k)), np.zeros((0, 0))
    return not _raises(ValueError, lambda: RealizedSchurFunction(k, 0, np.array(p), *empty))


def _norm_slack():
    # diag(x, 0.5) fails the Gram test, so its norm x decides
    return _both(lambda k: _colligation(np.diag([1.0 + k * tt.NORM_SLACK, 0.5])))


def _gram_slack():
    # [[g]] with g**2 - 1 = c: certified with no norm computed at c <= GRAM_SLACK
    def certified(k):
        norms = []
        original = realization.operator_norm

        def counted(m):
            norms.append(m)
            return original(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(realization, "operator_norm", counted)
            accepted = _colligation([[np.sqrt(1.0 + k * tt.GRAM_SLACK)]])
        return accepted and not norms

    return _both(certified)


def _modal_kappa():
    # S = [[0, b], [0, 0.5]] has unit eigenvectors e1 and (b, 0.5) / |.|, a
    # basis of condition number sqrt((1 + x) / (1 - x)), x = b / |(b, 0.5)|
    def modal(k):
        kappa = k * tt.MODAL_KAPPA
        x = (kappa**2 - 1.0) / (kappa**2 + 1.0)
        s = np.array([[[0.0, 0.5 * x / np.sqrt(1.0 - x * x)], [0.0, 0.5]]], dtype=complex)
        mask, _, _ = realization._modal_forms(np.ones((1, 1, 2)), np.ones((1, 2, 1)), s)
        return bool(mask[0])

    return _both(modal)


def _schur_tol():
    f = lambda k: RealizedSchurFunction.from_checked(np.array([[1.0 + k * tt.SCHUR_TOL]]), 1, 0)
    return _both(lambda k: verify_schur(f(k)).passed)


def _sigma_gap():
    draw = lambda k: random_schur(1, 0, seed=0, max_sigma=1.0 - k * tt.SIGMA_GAP)
    return _both(lambda k: _raises(ValueError, lambda: draw(k)))


def _phase_floor():
    # a value of phase 1j where |g| = c: it counts in the phase spread above the floor
    def ignored(k):
        g = np.array([1.0, k * tt.PHASE_FLOOR])
        return cli._right_s_match(g * np.array([1.0, 1j]), g)[1] == 0.0

    return _both(ignored)


def _verify_identities(**patches) -> int:
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(cli, name, value)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(["verify-identities"])


def _torus_fit_tol():
    fit = lambda k: lambda *_: lurking.TorusFit((1, 1, 1), k * tt.TORUS_FIT_TOL)
    return _both(lambda k: _verify_identities(torus_fit=fit(k)) == 0)


def _se_sup_tol():
    sup = lambda k: lambda *_: (np.array([1.0 + k * tt.SE_SUP_TOL]),)
    return _both(lambda k: _verify_identities(se_values=sup(k)) == 0)


PROBES = {
    "MEMBER_TOL": _member_tol,
    "BRACKET_RTOL": _bracket_rtol,
    "KERNEL_TOL": _kernel_tol,
    "HERMITIAN_TOL": _hermitian_tol,
    "STATE_CUTOFF": _state_cutoff,
    "STATE_FLOOR": _state_floor,
    "UW_TOL": _uw_tol,
    "GRAM_FLOOR": _gram_floor,
    "PHASE_ANCHOR": _phase_anchor,
    "TORUS_ANCHOR": _torus_anchor,
    "PICK_TOL": _pick_tol,
    "TARGET_TOL": _target_tol,
    "SPLIT_RTOL": _split_rtol,
    "RATIO_RTOL": _ratio_rtol,
    "RATIO_ATOL": _ratio_atol,
    "DENOMINATOR_FLOOR": _denominator_floor,
    "CIRCLE_BAND": _circle_band,
    "POLY_NOISE": _poly_noise,
    "TRIM_RTOL": _trim_rtol,
    "BARE_ZERO": _bare_zero,
    "DISC_SLACK": _disc_slack,
    "UNIMODULAR_TOL": _unimodular_tol,
    "SLICE_TOL": _slice_tol,
    "CONTRACTIVE_SLACK": _contractive_slack,
    "NORM_SLACK": _norm_slack,
    "GRAM_SLACK": _gram_slack,
    "MODAL_KAPPA": _modal_kappa,
    "SCHUR_TOL": _schur_tol,
    "SIGMA_GAP": _sigma_gap,
    "PHASE_FLOOR": _phase_floor,
    "TORUS_FIT_TOL": _torus_fit_tol,
    "SE_SUP_TOL": _se_sup_tol,
}


@pytest.mark.parametrize("name", tt.__all__)
def test_every_entry_decides_on_both_sides(name):
    assert name in PROBES, f"table entry {name} has no probe"
    assert PROBES[name]() == (True, False)


def test_every_probe_has_its_entry():
    assert sorted(PROBES) == sorted(tt.__all__)

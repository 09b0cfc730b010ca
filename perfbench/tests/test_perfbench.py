"""Tests of the benchmark itself: seeded instances, answer checks, span arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from gammapick import cli

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _generate(tmp_path: Path, workload: str, seed: int, name: str) -> dict:
    directory = tmp_path / name
    directory.mkdir()
    return {k.name: k for k in workloads.generate(workload, seed, str(directory)).kinds}


def _summary(kind_name: str, instance) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(instance.argv)
    return checks.summarize(kind_name, code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_instances(tmp_path, workload):
    _generate(tmp_path, workload, 7, "a")
    _generate(tmp_path, workload, 7, "b")
    _generate(tmp_path, workload, 8, "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_screen_redraws_refused_instances_and_sets_them_aside(tmp_path):
    def refused(kind, instance):
        # refuse the first draw of every slot
        return "declined" if instance.argv[-1].endswith("-0.json") else None

    def generate(name, screen):
        (tmp_path / name).mkdir()
        return workloads.generate("interp", 5, str(tmp_path / name), screen)

    plain, screened = generate("a", None), generate("b", refused)
    generate("c", refused)
    pools, _ = workloads._interp()
    for pool, before, after in zip(pools, plain.kinds, screened.kinds):
        fixed = sum(1 for slot in pool.slots if slot.fixed)
        assert fixed >= 3
        # random slots come back as their second draw; fixed ones leave the pool
        assert len(after.instances) == len(before.instances) - fixed
        assert all(i.argv[-1].endswith("-1.json") for i in after.instances)
    assert len(screened.screened) == sum(len(k.instances) for k in plain.kinds)
    assert all(reason == "declined" for _, _, reason in screened.screened)
    assert _files(tmp_path / "b") == _files(tmp_path / "c")


def test_kernels_probe_uw_on_64_point_grids(tmp_path):
    generated = workloads.generate("kernels", 2, str(tmp_path))
    assert [k.name for k in generated.kinds] == ["uw", "right_s", "se"]
    assert [k.name for k in generated.probes] == ["uw_wide"]
    grid = json.loads(Path(generated.probes[0].instances[0].argv[-1]).read_text())["grid"]
    assert (grid["n_lambda"], grid["n_z"]) == (8, 8)


def test_local_reference_is_a_moving_median():
    assert run.local_reference([1.0, 5.0, 2.0, 3.0, 4.0], window=1) == [3.0, 2.0, 3.0, 3.0, 3.5]


def test_checker_flags_perturbed_gamma_check(tmp_path):
    kind = _generate(tmp_path, "membership", 3, "m")["gamma_check_e312"]
    near = kind.instances[1]
    assert near.expect["target"] is not None
    summary = _summary(kind.name, near)
    assert checks.check(kind.name, near.expect, summary) == ("ok", "")
    off = dict(summary, mu=summary["mu"] * (1 + 1e-4))
    assert checks.check(kind.name, near.expect, off)[0] == "wrong"
    flipped = dict(summary, member=not summary["member"])
    assert checks.check(kind.name, near.expect, flipped)[0] == "wrong"
    above_sigma = dict(summary, mu=near.expect["sigma"] * 1.01)
    assert checks.check(kind.name, dict(near.expect, target=None), above_sigma)[0] == "wrong"


def test_checker_flags_perturbed_se_values(tmp_path):
    kind = _generate(tmp_path, "kernels", 3, "k")["se"]
    instance = kind.instances[0]
    summary = _summary(kind.name, instance)
    assert checks.check(kind.name, instance.expect, summary) == ("ok", "")
    probes = [list(v) for v in summary["probe_values"]]
    probes[1][0] += 1e-6
    assert checks.check(kind.name, instance.expect, dict(summary, probe_values=probes))[0] == "wrong"
    assert checks.check(kind.name, instance.expect, dict(summary, sup_modulus=1.0 + 1e-6))[0] == "wrong"


def test_checker_knows_the_criterion7_answers(tmp_path):
    kind = _generate(tmp_path, "interp", 3, "i")["certify7"]
    scaled = next(i for i in kind.instances if i.expect.get("certified") is False)
    summary = _summary(kind.name, scaled)
    assert summary["code"] == 2
    assert checks.check(kind.name, scaled.expect, summary) == ("ok", "")
    claimed = dict(summary, code=0, certified=True)
    assert checks.check(kind.name, scaled.expect, claimed)[0] == "wrong"
    curve = next(i for i in kind.instances if i.expect.get("certified") is True)
    summary = _summary(kind.name, curve)
    assert checks.check(kind.name, curve.expect, summary) == ("ok", "")
    bad_row = dict(summary, rows=[[True, 1e-6]] + summary["rows"][1:])
    assert checks.check(kind.name, curve.expect, bad_row)[0] == "wrong"
    declined = dict(summary, slice_errors=["boom"])
    assert checks.check(kind.name, curve.expect, declined)[0] == "refused"


def test_checker_verdicts_on_exit_codes():
    assert checks.check("uw_wide", {}, {"code": 2, "error": "fitted map"})[0] == "refused"
    assert checks.check("uw", {}, {"code": 1, "error": "bad input"})[0] == "wrong"
    assert checks.check("right_s", {}, {"code": None, "error": "Traceback"})[0] == "wrong"
    assert checks.check("certify5", {}, {"code": 2, "error": "x"})[0] == "wrong"


def _span(op, parent, name, t0, t1, tag=None, ok=True):
    return (op, parent, name, tag, t0, t1, ok)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, -1, "cli.run", 0.0, 10.0),
        _span(0, 0, "kernels.upper_e", 1.0, 3.0),
        _span(0, 1, "fractional.se_values", 1.5, 2.0),
        _span(0, 0, "lurking.right_s", 2.5, 6.0),
        _span(0, 0, "linalg.eigh", 9.0, 11.0),
    ]
    # children of the root cover [1, 6] and [9, 10]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 3.5, 2.0])


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        _span(0, -1, "cli.run", 0.0, 0.010),
        _span(0, 0, "serialize.json_load", 0.000, 0.002),
        _span(0, 0, "nevanlinna.np_solve", 0.003, 0.005, ok=False),
        _span(0, 2, "linalg.eigh", 0.003, 0.004),
        _span(1, -1, "cli.run", 0.020, 0.024),
        _span(1, 4, "nevanlinna.np_solve", 0.021, 0.022),
        _span(1, 4, "hardy.inner_outer", 0.022, 0.023, tag="exact"),
    ]
    m = tracing.layer_metrics(spans, {0: 0, 1: 1}, count_ops=[0, 1])
    assert m["cli.self_ms_p50"] == pytest.approx(4.0)  # median of 6 ms and 2 ms
    assert m["nevanlinna.np_solve.calls_per_op"] == 1.0
    assert m["nevanlinna.np_solve.solved_share"] == 0.5
    assert m["hardy.inner_outer.exact_share"] == 1.0
    assert m["linalg.eigh_calls_per_op"] == 0.5
    assert m["linalg.decomp_ms_per_op"] == pytest.approx(0.5)
    assert m["serialize.from_json_ms_p50"] == pytest.approx(2.0)
    assert m["domains.mu_e311.ms_p50"] == 0.0


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    kind = _generate(tmp_path, "membership", 4, "m")["gamma_check_e312"]
    originals = (np.linalg.eigvals, cli.mu, cli.run, json.load)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        _summary(kind.name, kind.instances[0])
    finally:
        tracer.uninstall()
    assert (np.linalg.eigvals, cli.mu, cli.run, json.load) == originals
    names = [s[2] for s in tracer.spans]
    assert names[0] == "cli.run"
    mu_span = tracer.spans[names.index("domains.mu")]
    assert mu_span[3] == "E(3;2;1,2)"
    assert tracer.spans[mu_span[1]][2] == "cli.run"
    assert all(s[0] == 0 for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {**tracing.UNITS, **run.PROBE_UNITS}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

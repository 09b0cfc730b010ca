"""Benchmark of the gammapick CLI: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload membership|kernels|interp \\
        --seed N --seconds S --trace 0|1

The run writes the workload's instance files from the seed, screening out
the instances the program refuses and running the probes of known defects
once, starts set-up processes and one measured process (``child.py``),
checks every answer, and prints a report.  Latencies are given in reference
units (see ``reference.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The full record, with the per-kind latencies and the machine, goes
to ``.perfbench_out/<workload>-seed<N>-trace<T>.json`` for ``compare.py``;
a traced run also leaves its spans there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("membership", "kernels", "interp")
SETUP_PROCESSES = 5
# an op's time is divided by the median reference time of the cycles that
# ran within about this many seconds of its own
REFERENCE_SPAN_S = 1.0

# Per workload: the op kinds whose latencies make p50_ref, the geometric mean
# of the kinds' medians, so each kind weighs the same whatever its speed.
HEADLINE = {
    "membership": ("gamma_check_e311", "gamma_check_e312"),
    "kernels": ("uw", "right_s", "se"),
    "interp": ("certify7", "certify5"),
}

# per-kind latencies reported by name, as (kind, percentile)
NAMED = {
    "membership": (("gamma_check_e311", 50), ("gamma_check_e311", 90),
                   ("gamma_check_e312", 50), ("gamma_check_e312", 90)),
    "kernels": (("uw", 50), ("uw", 90), ("right_s", 50), ("se", 50)),
    "interp": (("certify7", 50), ("certify7", 90), ("certify5", 50), ("certify5", 90)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ref": "ref",
}

# per-layer metrics that come from the probes, not from spans
PROBE_UNITS = {"lurking.uw_construct.fail_share": "share"}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _gmean(values):
    if not values or any(v is None for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process failed:\n{proc.stderr.strip()}")
    return proc


def _verdict_once(cli, kind: str, instance) -> tuple[str, str]:
    """Run one instance in this process and check its answer."""
    from child import _call

    code, _, out, err = _call(cli, instance.argv)
    return checks.check(kind, instance.expect, checks.summarize(kind, code, out, err))


def prepare(workload: str, seed: int, workdir: Path):
    """Generate the instances, screening out the ones the program refuses,
    and run the probes once; returns (generated, probe results)."""
    # imports numpy and gammapick, so it waits until main has put src on the path
    from gammapick import cli
    from workloads import generate

    def refused(kind, instance):
        status, reason = _verdict_once(cli, kind, instance)
        return reason if status == "refused" else None

    generated = generate(workload, seed, str(workdir), refused)
    probes = {}
    for kind in generated.probes:
        verdicts = [_verdict_once(cli, kind.name, inst) for inst in kind.instances]
        probes[kind.name] = {
            "run": len(verdicts),
            **{s: sum(1 for v in verdicts if v[0] == s) for s in ("ok", "refused", "wrong")},
            "example": next((f"{s}: {r}" for s, r in verdicts if s != "ok"), ""),
        }
    return generated, probes


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """Generate, measure and check one run; returns (generated, probes, result, verdicts)."""
    generated, probes = prepare(workload, seed, workdir)
    kinds = generated.kinds
    plan = workdir / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "src": str(ROOT / "src"),
                "kinds": [
                    {"name": k.name, "instances": [inst.argv for inst in k.instances]}
                    for k in kinds
                ],
            }
        )
    )
    setup = [
        json.loads(_child([str(plan), "--setup-only"], 120).stdout)["setup_s"]
        for _ in range(SETUP_PROCESSES - 1)
    ]
    out = workdir / "result.json"
    child_args = [str(plan), "--seconds", str(seconds), "--trace", str(int(traced)), "--out", str(out)]
    if traced:
        child_args += ["--spans", str(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json")]
    _child(child_args, seconds + 120)
    result = json.loads(out.read_text())
    result["setup_samples"] = setup + [result["setup_s"]]

    verdicts = []
    for k, i, _, _, _, _, summary in result["records"]:
        verdicts.append(checks.check(kinds[k].name, kinds[k].instances[i].expect, summary))
    # the oracle is slow, so it checks the first report of a few matrices
    seen = set()
    for j, (k, i, _, _, _, _, summary) in enumerate(result["records"]):
        expect = kinds[k].instances[i].expect
        if not expect.get("oracle") or (k, i) in seen or verdicts[j][0] != "ok":
            continue
        seen.add((k, i))
        reference = checks.oracle_mu(expect)
        if abs(summary["mu"] - reference) > checks.MU_ORACLE_REL * reference:
            verdicts[j] = ("wrong", f"mu={summary['mu']!r} but the oracle gives {reference!r}")
    return generated, probes, result, verdicts


def local_reference(reference_s: list[float], window: int) -> list[float]:
    """Per cycle, the median reference time of the cycles within ``window``."""
    n = len(reference_s)
    return [
        statistics.median(reference_s[max(0, c - window): min(n, c + window + 1)])
        for c in range(n)
    ]


def summarize_run(workload, kinds, result, verdicts) -> dict:
    """Per-kind latencies and the end-to-end metrics of one run.

    A latency in ``ref`` units is the op's wall time over the median time
    of the reference unit around it (``local_reference``); the wall-clock
    figures are kept beside them for reading, not for comparing runs.
    """
    records = result["records"]
    loop_s = sum(result["reference_s"]) + sum(r[5] for r in records)
    cycles = len(result["reference_s"])
    speed = local_reference(result["reference_s"], max(1, round(REFERENCE_SPAN_S * cycles / loop_s)))
    per_kind = {}
    for k, kind in enumerate(kinds):
        mine = [j for j, r in enumerate(records) if r[0] == k and not r[3]]
        ok = [j for j in mine if verdicts[j][0] == "ok"]
        wall = [records[j][5] for j in ok]
        ref = [records[j][5] / speed[records[j][2]] for j in ok]
        per_kind[kind.name] = {
            "attempted": len(mine),
            "failed": sum(1 for j in mine if verdicts[j][0] != "ok"),
            "samples": len(ok),
            "p50_ref": percentile(ref, 50) if ok else None,
            "p90_ref": percentile(ref, 90) if ok else None,
            "p50_ms": 1e3 * percentile(wall, 50) if ok else None,
            "p90_ms": 1e3 * percentile(wall, 90) if ok else None,
        }
    named = {
        f"{name}_p{q}_ref": {
            "value": per_kind[name][f"p{q}_ref"],
            "unit": "ref",
            "samples": per_kind[name]["samples"],
        }
        for name, q in NAMED[workload]
    }
    headline = [per_kind[name] for name in HEADLINE[workload]]
    plain = [r for r in records if not r[3]]
    traced = [r for r in records if r[3]]
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ref": _gmean([kind["p50_ref"] for kind in headline]),
    }
    end_to_end = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    wall = {
        "reference_ms": 1e3 * statistics.median(result["reference_s"]),
        "ops_per_s": len(plain) / sum(r[5] for r in plain),
        "p50_ms": _gmean([kind["p50_ms"] for kind in headline]),
        "p90_ms": _gmean([kind["p90_ms"] for kind in headline]),
    }
    out = {"per_kind": per_kind, "named": named, "end_to_end": end_to_end, "wall": wall}
    if traced:
        out["traced_ops_per_s"] = len(traced) / sum(r[5] for r in traced)
    return out


def _report_lines(record: dict) -> list[str]:
    m = record["machine"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
        f"trace {record['trace']}",
        f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
        f"{m['blas']} with {m['blas_threads']} threads",
        f"ops: attempted {record['attempted']}, failed {record['failed']} "
        f"(fail_share {record['fail_share']:.4f}), wrong answers {record['wrong']}",
    ]
    for name, kind in record["per_kind"].items():
        lines.append(
            f"  {name:18s} attempted {kind['attempted']:5d}  failed {kind['failed']:5d}"
        )
    for name, reason in record["failure_examples"].items():
        lines.append(f"  first failure of {name}: {reason}")
    for item in record["screened"]:
        lines.append(f"  screened out of {item['kind']}: {item['file']}: {item['reason']}")
    for name, probe in record["probes"].items():
        lines.append(
            f"  probe {name}: run {probe['run']}, refused {probe['refused']}, "
            f"wrong {probe['wrong']}  {probe['example']}"
        )
    lines.append("end-to-end metrics (untraced ops):")
    for name, item in {**record["end_to_end"], **record["named"]}.items():
        samples = f"  (n={item['samples']})" if "samples" in item else ""
        value = "n/a" if item["value"] is None else f"{item['value']:.6g}"
        lines.append(f"  {name:28s} {value} {item['unit']}{samples}")
    lines.append(f"  {'fail_share':28s} {record['fail_share']:.6g} share")
    lines.append("wall clock, for reading only (the machine's speed drifts):")
    units = {"reference_ms": "ms", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms"}
    for name, value in record["wall"].items():
        lines.append(f"  {name:28s} {value:.6g} {units[name]}")
    if record.get("per_layer"):
        lines.append(
            f"per-layer metrics (traced ops; traced ops_per_s {record['traced_ops_per_s']:.6g} "
            f"against {record['wall']['ops_per_s']:.6g} for the same ops untraced):"
        )
        for name, value in record["per_layer"].items():
            lines.append(f"  {name:56s} {value:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/gammapick/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gammapick source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        generated, probes, result, verdicts = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = generated.kinds
    summary = summarize_run(args.workload, kinds, result, verdicts)
    if args.trace:
        # the share of uw on 64-point grids that uw_construct refuses
        uw_wide = probes.get("uw_wide")
        result["per_layer"]["lurking.uw_construct.fail_share"] = (
            uw_wide["refused"] / uw_wide["run"] if uw_wide else 0.0
        )
    failed = sum(1 for v in verdicts if v[0] != "ok")
    wrong = sum(1 for v in verdicts if v[0] == "wrong")
    examples = {}
    for (k, *_), (status, reason) in zip(result["records"], verdicts):
        if status != "ok":
            examples.setdefault(kinds[k].name, f"{status}: {reason}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": result["machine"],
        "correct": wrong == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "wrong": wrong,
        "fail_share": failed / len(verdicts),
        "failure_examples": examples,
        "screened": [
            {"kind": kind, "file": Path(inst.argv[-1]).name, "reason": reason}
            for kind, inst, reason in generated.screened
        ],
        "probes": probes,
        "setup_samples": result["setup_samples"],
        **summary,
        "per_layer": result.get("per_layer"),
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print("\n".join(_report_lines(record)))

    if args.trace:
        units = {**UNITS, **PROBE_UNITS}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in result["per_layer"].items()}
    else:
        metrics = summary["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

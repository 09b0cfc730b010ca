"""The measured process: set-up, then a closed loop with one client.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py PLAN --setup-only
    python3 perfbench/child.py PLAN --seconds S --trace 0|1 --out RESULT [--spans SPANS]

Set-up is the import of ``gammapick.cli`` plus one warm-up call per op kind.
The loop then calls ``gammapick.cli.run`` in process, one op at a time,
round-robin over the op kinds, until ``--seconds`` have passed; only the call
itself is timed.  Each report is reduced to a summary for the answer checks
right after its op, outside the timed region.

Every cycle starts with one call of ``reference.unit``, timed the same way,
so that ``run.py`` can give each op's time in units of the machine's speed
at that moment.

With ``--trace 1`` every cycle runs each op twice, once untraced and once
traced, alternating which goes first; the traced ops give the per-layer
metrics and the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import checks
import tracing


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # an escaped exception is a wrong answer, not a crash of the loop
            code = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    kinds = plan["kinds"]

    t0 = perf_counter()
    from gammapick import cli

    for kind in kinds:
        _call(cli, kind["instances"][0])
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import reference

    for _ in range(3):
        reference.unit()
    tracer = tracing.Tracer() if args.trace else None
    records = []  # [kind, instance, cycle, traced, code, seconds, summary]
    reference_s = []  # one per cycle
    deadline = perf_counter() + args.seconds
    cycle = 0
    while cycle == 0 or perf_counter() < deadline:
        reference_s.append(reference.unit())
        phases = ((False, True) if cycle % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in phases:
            if traced:
                tracer.install()
            for k, kind in enumerate(kinds):
                i = cycle % len(kind["instances"])
                if traced:
                    tracer.op = len(records)
                code, dt, out, err = _call(cli, kind["instances"][i])
                summary = checks.summarize(kind["name"], code, out, err)
                records.append([k, i, cycle, traced, code, dt, summary])
            if traced:
                tracer.uninstall()
        cycle += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cycles": cycle,
        "records": records,
        "reference_s": reference_s,
        "machine": machine(),
    }
    if tracer:
        traced = [j for j, r in enumerate(records) if r[3]]
        window = max(len(kind["instances"]) for kind in kinds)
        first_pass = [j for j in traced if records[j][2] < window]
        op_kinds = {j: records[j][0] for j in traced}
        result["per_layer"] = tracing.layer_metrics(tracer.spans, op_kinds, first_pass)
        plain = sum(r[5] for r in records if not r[3])
        result["per_layer"][tracing.OVERHEAD] = 100.0 * (
            sum(r[5] for r in records if r[3]) / plain - 1.0
        )
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

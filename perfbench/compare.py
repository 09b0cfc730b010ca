"""Compare two sets of benchmark runs: a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced run records that ``run.py`` writes to
``.perfbench_out/`` (``<workload>-seed<N>-trace0.json``); copy them aside
after each set.  For every workload and every metric, the end-to-end metrics
of ``BENCHMARK.json`` and the per-kind latencies, the script prints each
side's median and quartiles, the share of pairs the change won, and a
verdict:

- ``improved``: the change won at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the distance
  between the parent's quartiles;
- ``unresolved``: the spread of either side, as quartile distance over
  median, is wider than the metric's bound, and not every change run beats
  every parent run;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``within bound``: otherwise.

Runs pair up by seed when both sides used the same seeds, else by order.
A per-kind latency, median or 90th percentile, takes the bound of ``p50_ref``;
``fail_share`` and the wall-clock figures (``wall.*``, which drift with the
machine) have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(record: dict) -> dict[str, float]:
    values = {n: m["value"] for n, m in record["end_to_end"].items()}
    values.update({n: m["value"] for n, m in record["named"].items()})
    values["fail_share"] = record["fail_share"]
    values.update({f"wall.{n}": v for n, v in record["wall"].items()})
    return values


WALL_UNITS = {"wall.reference_ms": "ms", "wall.ops_per_s": "1/s", "wall.p50_ms": "ms", "wall.p90_ms": "ms"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, lower_is_better: bool, bound) -> tuple[str, float]:
    """Verdict for one metric and the share of pairs the change won."""
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if better(c, p))
    won = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "no bound", won
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if won >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", won
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won
    worse_by = (cm - pm) / abs(pm) if lower_is_better else (pm - cm) / abs(pm)
    if worse_by > bound:
        return "worse", won
    return "within bound", won


def _pairs(parent_runs, change_runs, name):
    by_seed = {r["seed"]: r for r in parent_runs}
    if {r["seed"] for r in change_runs} == set(by_seed):
        matched = [(by_seed[r["seed"]], r) for r in change_runs]
    else:
        matched = list(zip(parent_runs, change_runs))
    return [
        (metric_values(p)[name], metric_values(c)[name])
        for p, c in matched
        if metric_values(p)[name] is not None and metric_values(c)[name] is not None
    ]


def compare(parent_dir: Path, change_dir: Path, bench: dict) -> list[str]:
    spec = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        lines.append(f"workload {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        lines.append(
            f"  {'metric':26s} {'unit':6s} {'parent median [q1, q3]':32s} "
            f"{'change median [q1, q3]':32s} {'won':>5s}  verdict"
        )
        for name in metric_values(p_runs[0]):
            if name in spec:
                unit, lower, bound = spec[name]["unit"], spec[name]["better"] == "lower", spec[name]["bound"]
            elif name == "fail_share":
                unit, lower, bound = "share", True, None
            elif name in WALL_UNITS:
                unit, lower, bound = WALL_UNITS[name], name != "wall.ops_per_s", None
            else:
                unit, lower = "ref", True
                bound = spec["p50_ref"]["bound"]
            pv = [v for v in (metric_values(r)[name] for r in p_runs) if v is not None]
            cv = [v for v in (metric_values(r)[name] for r in c_runs) if v is not None]
            if not pv or not cv:
                lines.append(f"  {name:26s} {unit:6s} no samples")
                continue
            pairs = _pairs(p_runs, c_runs, name)
            result, won = verdict(pv, cv, pairs, lower, bound)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            lines.append(
                f"  {name:26s} {unit:6s} {pm:10.4g} [{p1:9.4g}, {p3:9.4g}]  "
                f"{cm:10.4g} [{c1:9.4g}, {c3:9.4g}]  {won:5.2f}  {result}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(Path(argv[0]), Path(argv[1]), bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the public functions of each layer, and the
``numpy.linalg`` functions every layer calls, with wrappers at the module
attributes where callers look them up; ``uninstall`` puts the originals back.
Nothing in the program changes.  A wrapper records one span per call: the op
it belongs to, the span that was open when it started (its parent), its name,
an optional tag, its start and end, and whether it returned or raised.  Spans
stay in memory until the run ends.

The layers are the modules of ``gammapick``; ``linalg`` also stands for the
``numpy.linalg`` boundary.  ``json.load`` as called by the CLI is counted in
``serialize``, because that is where instance decoding happens.
``serialize.complex_from_json`` and ``linalg.as_cmatrix`` are not wrapped: they
run once per scalar or per matrix (12000 times in one ``se`` op), a span per
call would cost more than the call, and their time shows in the caller's self
time instead.

This module imports only the standard library at module level, because the
measured process imports it before its set-up clock starts.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _structure_tag(args, kwargs, result):
    structure = args[1] if len(args) > 1 else kwargs["structure"]
    return structure.label()


def _points_tag(args, kwargs, result):
    return len(result[0])


def _exact_tag(args, kwargs, result):
    return "exact" if result.has_exact_outer else "herglotz"


# (module, attribute, span name, tag function): the public functions that the
# CLI reaches on the benchmark's op kinds.  A dotted attribute names a method,
# patched on its class; a plain one is patched in every gammapick module that
# imported it, and on the module itself for numpy.linalg and json.
TARGETS = (
    ("gammapick.cli", "run", "cli.run", None),
    ("json", "load", "serialize.json_load", None),
    ("gammapick.serialize", "cvector_from_json", "serialize.cvector_from_json", None),
    ("gammapick.serialize", "cmatrix_from_json", "serialize.cmatrix_from_json", None),
    ("gammapick.serialize", "gamma_nodes_from_json", "serialize.gamma_nodes_from_json", None),
    ("gammapick.serialize", "rational_from_json", "serialize.rational_from_json", None),
    ("gammapick.serialize", "curve_from_json", "serialize.curve_from_json", None),
    ("gammapick.domains", "mu", "domains.mu", _structure_tag),
    ("gammapick.realization", "RealizedSchurFunction.__post_init__",
     "realization.RealizedSchurFunction", None),
    ("gammapick.realization", "RealizedSchurFunction.evaluate_many",
     "realization.evaluate_many", None),
    ("gammapick.fractional", "se_values", "fractional.se_values", _points_tag),
    ("gammapick.kernels", "tensor_grid", "kernels.tensor_grid", None),
    ("gammapick.kernels", "upper_e", "kernels.upper_e", None),
    ("gammapick.kernels", "combine_k", "kernels.combine_k", None),
    ("gammapick.kernels", "kernel_rank", "kernels.kernel_rank", None),
    ("gammapick.kernels", "membership", "kernels.membership", None),
    ("gammapick.kernels", "SampledKernel.is_psd", "kernels.SampledKernel.is_psd", None),
    ("gammapick.lurking", "rank1_factor", "lurking.rank1_factor", None),
    ("gammapick.lurking", "uw_construct", "lurking.uw_construct", None),
    ("gammapick.lurking", "verify_uw", "lurking.verify_uw", None),
    ("gammapick.lurking", "torus_fit", "lurking.torus_fit", None),
    ("gammapick.lurking", "right_s", "lurking.right_s", None),
    ("gammapick.hardy", "RationalFunction.__post_init__", "hardy.RationalFunction", None),
    ("gammapick.hardy", "inner_outer", "hardy.inner_outer", _exact_tag),
    ("gammapick.hardy", "blaschke_eval", "hardy.blaschke_eval", None),
    ("gammapick.nevanlinna", "pick_matrix", "nevanlinna.pick_matrix", None),
    ("gammapick.nevanlinna", "np_solve", "nevanlinna.np_solve", None),
    ("gammapick.nevanlinna", "sample_curve", "nevanlinna.sample_curve", None),
    ("gammapick.nevanlinna", "slice_coordinates", "nevanlinna.slice_coordinates", None),
    ("gammapick.nevanlinna", "build_slice_schur", "nevanlinna.build_slice_schur", None),
    ("gammapick.nevanlinna", "reduce_gamma7", "nevanlinna.reduce_gamma7", None),
    ("gammapick.nevanlinna", "reduce_gamma5", "nevanlinna.reduce_gamma5", None),
    ("gammapick.nevanlinna", "certify_gamma7_interpolation", "nevanlinna.certify", None),
    ("gammapick.nevanlinna", "certify_gamma5_interpolation", "nevanlinna.certify", None),
    ("gammapick.linalg", "operator_norm", "linalg.operator_norm", None),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("numpy.linalg", "eigvals", "linalg.eigvals", None),
    ("numpy.linalg", "svd", "linalg.svd", None),
    ("numpy.linalg", "lstsq", "linalg.lstsq", None),
    ("numpy.linalg", "solve", "linalg.solve", None),
    ("numpy.linalg", "det", "linalg.det", None),
    ("numpy.linalg", "norm", "linalg.norm", None),
)

DECOMPOSITIONS = ("linalg.eigh", "linalg.eigvalsh", "linalg.eigvals", "linalg.svd", "linalg.lstsq")


class Tracer:
    """Span recorder; ``op`` is the index of the op the next spans belong to."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                label = tag(args, kwargs, result) if ok and tag else None
                spans[idx] = (self.op, parent, name, label, t0, t1, ok)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in list(sys.modules.items()) if n.startswith("gammapick") and m]
        for module_name, attr, name, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owners = [getattr(module, cls_name)]
            elif module_name.startswith("gammapick"):
                owners = [m for m in package if getattr(m, attr, None) is getattr(module, attr)]
            else:
                owners = [module]
            original = getattr(owners[0], attr)
            wrapper = self._wrap(name, original, tag)
            for owner in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def dump(self) -> list:
        """Spans as JSON-ready rows: op, parent, name, tag, start, end, ok."""
        return [list(s) for s in self.spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[4], s[5]
        covered = 0.0
        end = t0
        for c in sorted(children[i], key=lambda j: spans[j][4]):
            start, stop = max(spans[c][4], end), min(spans[c][5], t1)
            if stop > start:
                covered += stop - start
                end = stop
        out.append((t1 - t0) - covered)
    return out


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _share(flags) -> float:
    return sum(flags) / len(flags) if flags else 0.0


# name -> (statistic, span names, tag, unit).  Statistics: p50 / self_p50
# are medians over spans; calls is a count per op over the count window; ms
# and self_ms are totals per op; ok / tag shares are over spans.
PER_LAYER = {
    "cli.self_ms_p50": ("self_p50", ("cli.run",), None, "ms"),
    "serialize.from_json_ms_p50": ("layer_p50_heaviest_kind", ("serialize",), None, "ms"),
    "domains.mu.calls": ("calls", ("domains.mu",), None, "count"),
    "domains.mu_e311.ms_p50": ("p50", ("domains.mu",), "E(3;3;1,1,1)", "ms"),
    "domains.mu_e312.ms_p50": ("p50", ("domains.mu",), "E(3;2;1,2)", "ms"),
    "linalg.eigvals_calls_per_op": ("calls", ("linalg.eigvals",), None, "count"),
    "linalg.eigvals_ms_per_op": ("ms", ("linalg.eigvals",), None, "ms"),
    "realization.evaluate_many.calls_per_op": ("calls", ("realization.evaluate_many",), None, "count"),
    "realization.evaluate_many.self_ms_per_op":
        ("self_ms", ("realization.evaluate_many",), None, "ms"),
    "realization.RealizedSchurFunction.constructions_per_op":
        ("calls", ("realization.RealizedSchurFunction",), None, "count"),
    "fractional.se_values.ms_p50": ("p50", ("fractional.se_values",), None, "ms"),
    "fractional.se_values.us_per_point": ("us_per_tag", ("fractional.se_values",), None, "us"),
    "kernels.upper_e.ms_p50": ("p50", ("kernels.upper_e",), None, "ms"),
    "kernels.membership.ms_p50": ("p50", ("kernels.membership",), None, "ms"),
    "kernels.membership.calls_per_op": ("calls", ("kernels.membership",), None, "count"),
    "lurking.uw_construct.ms_p50": ("p50", ("lurking.uw_construct",), None, "ms"),
    "lurking.verify_uw.ms_p50": ("p50", ("lurking.verify_uw",), None, "ms"),
    "lurking.torus_fit.ms_p50": ("p50", ("lurking.torus_fit",), None, "ms"),
    "lurking.right_s.ms_p50": ("p50", ("lurking.right_s",), None, "ms"),
    "hardy.RationalFunction.constructions_per_op":
        ("calls", ("hardy.RationalFunction",), None, "count"),
    "hardy.RationalFunction.self_ms_per_op": ("self_ms", ("hardy.RationalFunction",), None, "ms"),
    "hardy.inner_outer.ms_p50": ("p50", ("hardy.inner_outer",), None, "ms"),
    "hardy.inner_outer.exact_share": ("tag_share", ("hardy.inner_outer",), "exact", "share"),
    "nevanlinna.build_slice_schur.ms_p50": ("p50", ("nevanlinna.build_slice_schur",), None, "ms"),
    "nevanlinna.build_slice_schur.calls_per_op":
        ("calls", ("nevanlinna.build_slice_schur",), None, "count"),
    "nevanlinna.np_solve.ms_p50": ("p50", ("nevanlinna.np_solve",), None, "ms"),
    "nevanlinna.np_solve.calls_per_op": ("calls", ("nevanlinna.np_solve",), None, "count"),
    "nevanlinna.np_solve.solved_share": ("ok_share", ("nevanlinna.np_solve",), None, "share"),
    "nevanlinna.certify.self_ms_p50": ("self_p50", ("nevanlinna.certify",), None, "ms"),
    "linalg.eigh_calls_per_op": ("calls", ("linalg.eigh", "linalg.eigvalsh"), None, "count"),
    "linalg.svd_calls_per_op": ("calls", ("linalg.svd",), None, "count"),
    "linalg.lstsq_calls_per_op": ("calls", ("linalg.lstsq",), None, "count"),
    "linalg.decomp_ms_per_op": ("ms", DECOMPOSITIONS, None, "ms"),
}

# traced ops' time over the same ops untraced, minus one
OVERHEAD = "trace.overhead_pct"
UNITS = {**{name: spec[3] for name, spec in PER_LAYER.items()}, OVERHEAD: "%"}


def layer_metrics(spans, op_kinds: dict, count_ops) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced ops.

    ``op_kinds`` maps each traced op to its op kind.  Counts per op use
    ``count_ops`` only, a fixed set of ops (one pass over every instance
    pool), so that a count repeats exactly from run to run.  Times use every
    traced op.
    """
    ops, count_ops = set(op_kinds), set(count_ops)
    self_t = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[2]].append(i)
    n_ops = max(len(ops), 1)
    n_count = max(len(count_ops), 1)
    out = {}
    for metric, (stat, names, tag, _) in PER_LAYER.items():
        idx = [i for n in names for i in by_name.get(n, ()) if spans[i][0] in ops]
        if tag is not None and stat != "tag_share":
            idx = [i for i in idx if spans[i][3] == tag]
        dur = [spans[i][5] - spans[i][4] for i in idx]
        if stat == "p50":
            value = _median_ms(dur)
        elif stat == "self_p50":
            value = _median_ms([self_t[i] for i in idx])
        elif stat == "calls":
            value = sum(1 for i in idx if spans[i][0] in count_ops) / n_count
        elif stat == "ms":
            value = 1e3 * sum(dur) / n_ops
        elif stat == "self_ms":
            value = 1e3 * sum(self_t[i] for i in idx) / n_ops
        elif stat == "ok_share":
            value = _share([spans[i][6] for i in idx])
        elif stat == "tag_share":
            value = _share([spans[i][3] == tag for i in idx if spans[i][6]])
        elif stat == "us_per_tag":
            points = sum(spans[i][3] for i in idx if spans[i][6])
            value = 1e6 * sum(dur) / points if points else 0.0
        elif stat == "layer_p50_heaviest_kind":
            value = _layer_p50_heaviest_kind(spans, op_kinds, names[0])
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[metric] = value
    return out


def _layer_p50_heaviest_kind(spans, op_kinds: dict, layer: str) -> float:
    """Median time per op inside ``layer``, for the op kind where it is largest.

    Time inside a layer is the time in its spans that are not nested in
    another span of the same layer.  Taking the heaviest kind keeps the
    metric on the ops that load the layer (``se`` for ``serialize``) instead
    of the median of a mix of kinds.
    """
    prefix = layer + "."
    per_op = dict.fromkeys(op_kinds, 0.0)
    for s in spans:
        if s[0] in per_op and s[2].startswith(prefix):
            if s[1] < 0 or not spans[s[1]][2].startswith(prefix):
                per_op[s[0]] += s[5] - s[4]
    by_kind = defaultdict(list)
    for op, t in per_op.items():
        by_kind[op_kinds[op]].append(t)
    return max((_median_ms(ts) for ts in by_kind.values()), default=0.0)

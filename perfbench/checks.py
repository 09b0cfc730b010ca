"""Answer checks for every op kind.

The measured process reduces each report to a small summary right after the
op, outside the timed region (``summarize``); ``run.py`` then checks
the summary against the facts the instance generator recorded (``check``).

A check gives one of three verdicts:

- ``ok``: the answer is right;
- ``refused``: the program declined with an error message on an instance
  that has a positive answer: exit code 2 from ``uw``, ``right-s`` or ``se``
  (the known ``uw_construct`` defect on 64-point grids is one), or a failed
  slice check of a valid curve in ``certify``;
- ``wrong``: exit code 1, an escaped exception, or an answer that fails a
  check.

Both ``refused`` and ``wrong`` count as failed ops; only ``wrong`` makes the
run incorrect.

This module imports only the standard library at module level, because the
measured process imports it before its set-up clock starts.
"""

from __future__ import annotations

import json

# acceptance thresholds for the subcommand reports
MU_ORACLE_REL = 1e-3
MU_HOMOGENEITY_REL = 1e-6
RIGHT_S_MODULUS = 1e-9
RIGHT_S_PHASE = 1e-8
SE_SUP = 1.0 + 1e-9
SE_PROBE = 1e-9
CERTIFY_RESIDUAL = 1e-8


def probe_indices(n: int) -> list[int]:
    """Positions of the ``se`` values compared against the reference."""
    return [0, n // 3, 2 * n // 3, n - 1]


def may_refuse(kind: str) -> bool:
    """Whether ``check`` can give ``refused`` for an op of this kind."""
    return not kind.startswith("gamma_check")


def summarize(kind: str, code, stdout: str, stderr: str) -> dict:
    """Reduce one op's exit code and report to the fields ``check`` reads."""
    out = {"code": code}
    if code not in (0, 2) or not stdout:
        out["error"] = (stderr.strip() or "no report")[-300:]
        return out
    report = json.loads(stdout)
    if "error" in report:
        out["error"] = str(report["error"])[:300]
        return out
    if kind.startswith("gamma_check"):
        out["member"] = report["member"]
        out["mu"] = report["mu"]
    elif kind in ("uw", "uw_wide"):
        out.update(
            {k: report[k] for k in ("passed", "verify_residual", "gram_match")}
        )
        out["tol"] = report["options"]["tol"]
    elif kind == "right_s":
        out.update({k: report[k] for k in ("max_modulus", "modulus_match", "phase_constancy")})
    elif kind == "se":
        values = report["values"]
        out["sup_modulus"] = report["sup_modulus"]
        out["n_values"] = len(values)
        out["max_abs"] = max((abs(complex(*v)) for v in values), default=0.0)
        out["probe_values"] = [values[i] for i in probe_indices(len(values))] if values else []
    elif kind.startswith("certify"):
        table = report if report["variant"] == "gamma7" else report["by_denominator"][
            report["options"]["det_denominator"]
        ]
        out["certified"] = report["certified"]
        out["rows"] = [[r["solvable"], r["target_residual"]] for r in table["rows"]]
        if "slice_checks" in report:
            out["slice_errors"] = [r.get("error") for r in report["slice_checks"] if not r["ok"]]
    return out


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def check(kind: str, expect: dict, summary: dict) -> tuple[str, str]:
    """Verdict (``ok``, ``refused`` or ``wrong``) and a reason for one op."""
    code = summary["code"]
    if code not in (0, 2):
        return "wrong", f"exit code {code}: {summary.get('error', '')}"
    if "error" in summary:
        if code == 2 and not kind.startswith(("gamma_check", "certify")):
            return "refused", summary["error"]
        return "wrong", summary["error"]
    if kind.startswith("gamma_check"):
        return _check_gamma(expect, summary)
    if kind in ("uw", "uw_wide"):
        if code != 0 or not summary["passed"]:
            return "wrong", "uw verification did not pass"
        worst = max(summary["verify_residual"], summary["gram_match"])
        if worst > summary["tol"]:
            return "wrong", f"uw residual {worst:.3e} above tol {summary['tol']:.1e}"
        return "ok", ""
    if kind == "right_s":
        if code != 0:
            return "wrong", f"exit code {code}"
        if summary["modulus_match"] > RIGHT_S_MODULUS:
            return "wrong", f"right-s modulus mismatch {summary['modulus_match']:.3e}"
        if summary["phase_constancy"] > RIGHT_S_PHASE:
            return "wrong", f"right-s phase spread {summary['phase_constancy']:.3e}"
        return "ok", ""
    if kind == "se":
        return _check_se(expect, summary)
    if kind.startswith("certify"):
        return _check_certify(expect, summary)
    raise ValueError(f"unknown op kind {kind!r}")


def _check_gamma(expect: dict, summary: dict) -> tuple[str, str]:
    value = summary["mu"]
    tol = 1e-9
    if summary["member"] != (value <= 1.0 + tol):
        return "wrong", f"member={summary['member']} disagrees with mu={value!r}"
    if (summary["code"] == 0) != summary["member"]:
        return "wrong", f"exit code {summary['code']} disagrees with member={summary['member']}"
    if not expect["rho"] * (1 - 1e-9) <= value <= expect["sigma"] * (1 + 1e-9):
        return "wrong", f"mu={value!r} outside [rho, sigma] = [{expect['rho']!r}, {expect['sigma']!r}]"
    target = expect.get("target")
    if target is not None and abs(value - target) > MU_HOMOGENEITY_REL * target:
        return "wrong", f"mu={value!r} but the rescaled matrix has mu {target!r}"
    return "ok", ""


def _check_se(expect: dict, summary: dict) -> tuple[str, str]:
    if summary["code"] != 0:
        return "wrong", f"exit code {summary['code']}"
    if summary["n_values"] != expect["points"]:
        return "wrong", f"{summary['n_values']} values for {expect['points']} points"
    if summary["sup_modulus"] > SE_SUP:
        return "wrong", f"sup modulus {summary['sup_modulus']!r} above 1 + 1e-9"
    if abs(summary["max_abs"] - summary["sup_modulus"]) > 1e-12:
        return "wrong", "sup_modulus does not match the reported values"
    for got, want in zip(summary["probe_values"], expect["probe_values"]):
        err = abs(_complex(got) - _complex(want))
        if err > SE_PROBE:
            return "wrong", f"se value off the reference by {err:.3e}"
    return "ok", ""


def _check_certify(expect: dict, summary: dict) -> tuple[str, str]:
    certified = summary["certified"]
    if (summary["code"] == 0) != certified:
        return "wrong", f"exit code {summary['code']} disagrees with certified={certified}"
    if certified:
        for solvable, resid in summary["rows"]:
            if not solvable or resid is None or resid > CERTIFY_RESIDUAL:
                return "wrong", f"certified with a row solvable={solvable} residual={resid}"
    if "certified" in expect and certified != expect["certified"]:
        return "wrong", f"certified={certified}, known answer {expect['certified']}"
    if expect.get("curve"):
        if "slice_errors" not in summary:
            return "wrong", "curve instance without slice checks"
        if summary["slice_errors"]:
            # the program declined to build a slice of a valid curve
            return "refused", f"slice check failed: {summary['slice_errors'][0]}"
    return "ok", ""


def oracle_mu(expect: dict) -> float:
    """Independent mu of an instance matrix from ``tests/oracles.py``."""
    import numpy as np
    from oracles import mu_oracle

    matrix = np.array([[_complex(v) for v in row] for row in expect["matrix"]])
    return float(mu_oracle(matrix, expect["label"]))

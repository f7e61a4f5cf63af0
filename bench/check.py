"""Output check: each study's operations against the benchmark's own
truth and against the checked-in reference of the workload's variant.

An operation is one Estimate returned by a captured functional call, one
CLI command (exit code and output rows), or one result of the limit
study.  It *fails* on an exception, a disallowed exit code, a missing
output, a non-finite value, a wrong divergence verdict, or a mismatch
with a reference that was itself right.  Verdicts come from the field
definitions: a jump of height J makes I_delta infinite for every
delta < J and every p >= 1.

The reference comparison is bitwise for Monte Carlo and closed-form
estimates and for Monte Carlo CLI rows (the reproducibility contract),
and within the run's own ``discrepancy + tail_bound`` for radial
estimates.  Rows and estimates that should diverge are judged by their
verdict only.  An operation that the reference got right and this run
gets wrong is a *regression*; a run is ``correct`` when it has none.
"""

from __future__ import annotations

import json
import math
import os
import statistics

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, variant: int):
    """The reference ops of one variant, by id, or None if none is recorded."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        ops = json.load(fh)["variants"].get(str(variant))
    return None if ops is None else {op["id"]: op for op in ops}


def _finite(*vals) -> bool:
    return all(v is not None and math.isfinite(v) for v in vals)


def truth_failure(op):
    """Why ``op`` is wrong by the benchmark's own truth, or None."""
    if op["kind"] == "cmd":
        if op["exit"] not in op["allowed"]:
            return "exit"
        return None if op["rows"] is not None else "missing_output"
    if op.get("error"):
        return "exception"
    if op["kind"] == "flag":
        return None
    if op["kind"] == "derived":
        return None if _finite(op["value"], op["err"]) else "non_finite"
    if op["expect"] == "diverged":
        return None if op["diverged"] else "verdict"
    if op["diverged"]:
        return "verdict"
    return None if _finite(op["value"], op["stderr"], op["disc"], op["tail"]) else "non_finite"


def matches(op, ref) -> bool:
    """Whether ``op`` agrees with its reference ``ref``."""
    kind = op["kind"]
    if kind == "cmd":
        allowed = op["allowed"]
        if op["exit"] != ref["exit"] and not (op["exit"] in allowed and ref["exit"] in allowed):
            return False
        if op["row_check"] == "none" or op["rows"] is None or ref["rows"] is None:
            return (op["rows"] is None) == (ref["rows"] is None)
        skip = set(op["skip"]) | set(ref["skip"])
        return (len(op["rows"]) == len(ref["rows"])
                and all(a == b for i, (a, b) in enumerate(zip(op["rows"], ref["rows"]))
                        if i not in skip))
    if kind == "est" and op["expect"] == "diverged":
        return True
    if op.get("error") or ref.get("error"):
        return op.get("error") == ref.get("error")
    if kind == "flag":
        return op["value"] == ref["value"]
    if kind == "derived":
        return abs(op["value"] - ref["value"]) <= op["err"]
    if op["diverged"] != ref["diverged"] or op["method"] != ref["method"]:
        return False
    if op["method"] == "radial":
        return abs(op["value"] - ref["value"]) <= op["disc"] + op["tail"]
    return op["value"] == ref["value"] and op["stderr"] == ref["stderr"]


def check_ops(ops, reference):
    """Per-op verdicts: list of (op id, failure reason or None, regression)."""
    out = []
    for op in ops:
        reason = truth_failure(op)
        ref = None if reference is None else reference.get(op["id"])
        regression = False
        if ref is not None and ref["truth"] is None:
            if not matches(op, ref):
                reason = reason or "mismatch"
                regression = True
            elif reason is not None:
                regression = True
        out.append((op["id"], reason, regression))
    return out


def err_budget_rel(ops) -> float:
    """Median of (3 stderr + discrepancy + tail_bound) / |value| over the
    estimates; closed forms count as 0.  Left out are estimates flagged
    divergent or that should be (a finite estimate of an infinite integral
    has no relative error; it counts as a wrong verdict instead), and
    estimates whose value is exactly 0."""
    ratios = []
    for op in ops:
        if (op["kind"] != "est" or op.get("error") or op["diverged"]
                or op["expect"] == "diverged"):
            continue
        if op["method"] == "closed_form":
            ratios.append(0.0)
        elif op["value"] != 0.0:
            ratios.append((3.0 * op["stderr"] + op["disc"] + op["tail"]) / abs(op["value"]))
    return statistics.median(ratios) if ratios else math.nan


# the parts of an operation that ``matches`` reads from a reference
_REFERENCE_KEYS = ("id", "exit", "rows", "skip", "error", "value", "stderr",
                   "diverged", "method")


def with_truth(ops) -> list:
    """``ops`` as stored in a reference: the compared parts and the truth verdict."""
    return [dict({k: op[k] for k in _REFERENCE_KEYS if k in op}, truth=truth_failure(op))
            for op in ops]

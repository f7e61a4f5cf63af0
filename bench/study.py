"""One study of one workload, in a fresh process.

Started by ``run.py`` with ``WORKERS`` unset.  Prints one JSON line: the
set-up and study times, CPU time, peak memory, the study's operations
(for the output check) and, with ``--trace 1``, the per-module metrics.

Set-up runs from process start (``--spawn``, a ``time.monotonic`` stamp
taken by the parent just before it started this process) through the
imports, config generation and validation, up to the first timed call.
The study runs from the first timed call to the last output written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time

import workloads
from tracer import Tracer, call_key

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# public functionals whose returned Estimates the output check and the
# error budget read, as bound in the module that calls them
_CAPTURE = {
    "radial_limit": ("limits", ("i_delta",)),
    "mc_family": ("inequalities", ("entropy_l2_estimate", "l2_norm_sq_estimate",
                                   "i_delta", "i_delta_magnetic_paired")),
    "jump_envelope": ("cli", ("i_delta", "i_delta_p", "f_functional")),
}


class Capture:
    """Records (function, arguments, result or exception) per call."""

    def __init__(self):
        self.calls = []

    def install(self, module, names):
        for name in names:
            setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        calls = self.calls

        def captured(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, args, exc))
                raise
            calls.append((name, args, out))
            return out

        return captured


def _estimate_op(op_id, est, expect):
    return {"id": op_id, "kind": "est", "expect": expect, "error": None,
            "value": float(est.value), "stderr": float(est.stderr),
            "disc": float(est.discrepancy), "tail": float(est.tail_bound),
            "diverged": bool(est.diverged), "method": est.method}


def _estimate_ops(calls, fields_mod, jump_of) -> list:
    """One op per returned Estimate, keyed by function, arguments and
    occurrence so that added or removed calls leave other ids unchanged."""
    ops, seen = [], {}
    for name, args, out in calls:
        key = call_key(fields_mod, name, args)
        seen[key] = seen.get(key, 0) + 1
        op_id = f"{key}#{seen[key]}"
        expect = "finite"
        if name in ("i_delta", "i_delta_p"):
            jump = jump_of(args[0])
            if jump is not None and args[1].delta < jump:
                expect = "diverged"
        if isinstance(out, Exception):
            ops.append({"id": op_id, "kind": "est", "expect": expect,
                        "error": type(out).__name__})
            continue
        parts = out if isinstance(out, tuple) else (out,)
        for j, est in enumerate(parts):
            ops.append(_estimate_op(op_id if len(parts) == 1 else f"{op_id}.{j}",
                                    est, expect))
    return ops


def _run_library(nl, inputs):
    """radial_limit: the small-delta limit study as library calls."""
    fields = [nl["fields"].field_from_dict(d) for d in inputs["fields"]]
    engine = nl["functionals"].EngineSpec(
        mc=nl["quadrature"].McSpec(master_seed=inputs["mc_seed"]),
        radial=nl["quadrature"].RadialSpec(**inputs["radial"]))
    deltas = inputs["deltas"]
    limits = nl["limits"]
    out = {}

    def study():
        for name, call in (
                ("qn", lambda: limits.estimate_qn(inputs["dim"], fields, engine, deltas)),
                ("upper_bound", lambda: limits.check_upper_bound(fields[0], deltas, engine)),
                ("recovery", lambda: limits.recover_classical_lsi(
                    fields[0], deltas, inputs["family_constant"], engine,
                    qn=getattr(out.get("qn"), "value", None)))):
            try:
                out[name] = call()
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                out[name] = exc

    def ops():
        res = []
        qn = out["qn"]
        res.append({"id": "qn", "kind": "derived", "error": _err(qn),
                    "value": None if _err(qn) else float(qn.value),
                    "err": None if _err(qn) else float(qn.error)})
        for name, attr in (("upper_bound", "grid_stable"), ("recovery", "dterm_monotone")):
            rep = out[name]
            res.append({"id": f"{name}.{attr}", "kind": "flag", "error": _err(rep),
                        "value": None if _err(rep) else bool(getattr(rep, attr))})
        return res

    return study, ops, lambda: 0


def _err(obj):
    return type(obj).__name__ if isinstance(obj, Exception) else None


def _run_cli(nl, inputs, workdir):
    """mc_family / jump_envelope: CLI commands, driven through ``cli.main``."""
    cli = nl["cli"]
    for cmd in inputs["commands"]:
        cli.validate_config(cmd["config"])
    argvs = workloads.write_configs(inputs, workdir)
    exits = []

    def study():
        for argv, _ in argvs:
            try:
                exits.append(cli.main(argv))
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                exits.append(f"exception:{type(exc).__name__}")

    def ops():
        res = []
        for i, (cmd, (_, out_dir), rc) in enumerate(zip(inputs["commands"], argvs, exits)):
            path = os.path.join(out_dir, cmd["config"]["output"]["csv"])
            rows, skip = None, []
            if os.path.exists(path):
                with open(path, newline="") as fh:
                    rows = fh.read().splitlines()
                # rows of expected-divergent estimates are judged by their verdict
                for j, row in enumerate(csv.DictReader(rows)):
                    if row.get("delta") and row.get("field_index"):
                        field = cmd["config"]["fields"][int(row["field_index"])]
                        jump = next((jv for d, jv in inputs["jumps"] if d == field), None)
                        if jump is not None and float(row["delta"]) < jump:
                            skip.append(j + 1)
            res.append({"id": f"cmd{i}:{cmd['command']}", "kind": "cmd",
                        "exit": rc, "allowed": cmd["allowed_exit"],
                        "row_check": cmd["row_check"], "rows": rows, "skip": skip})
        return res

    def out_bytes():
        return sum(os.path.getsize(os.path.join(d, f))
                   for _, d in argvs if os.path.isdir(d) for f in os.listdir(d))

    return study, ops, out_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nlsob
    if not os.path.abspath(nlsob.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported nlsob from {nlsob.__file__}, not from {src}")
    from nlsob import cli, fields, functionals, inequalities, limits, quadrature
    import numpy
    import scipy

    nl = {"fields": fields, "quadrature": quadrature, "functionals": functionals,
          "inequalities": inequalities, "limits": limits, "cli": cli}
    inputs = workloads.INPUTS[args.workload](args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    if inputs["kind"] == "cli":
        study, ops, out_bytes = _run_cli(nl, inputs, args.workdir)
    else:
        study, ops, out_bytes = _run_library(nl, inputs)
    jumps = {fields.descriptor_hash(fields.field_from_dict(d)): j
             for d, j in inputs["jumps"]}

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(dict(nl, nlsob=nlsob))
    capture = Capture()
    module, names = _CAPTURE[args.workload]
    capture.install(nl[module], names)

    t0 = time.monotonic()
    c0 = time.process_time()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    study()
    t1 = time.monotonic()
    c1 = time.process_time()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    layer = None
    if tracer:
        layer = tracer.metrics(out_bytes())
        layer["process.sys_s"] = r1.ru_stime - r0.ru_stime
        layer["process.minor_faults"] = r1.ru_minflt - r0.ru_minflt
    all_ops = ops() + _estimate_ops(capture.calls, fields,
                                    lambda u: jumps.get(fields.descriptor_hash(u)))
    result = {
        "setup_s": t0 - args.spawn,
        "study_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "ops": all_ops,
        "trace": layer,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

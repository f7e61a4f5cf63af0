"""Command-line front end: declarative JSON configs in, CSV/JSON out.

Subcommands: eval | check | sweep | constants | qn.  Runs are seeded and
bit-reproducible: the same (config, seed) produces byte-identical output
files.

Exit codes: 0 ok; 2 config error; 3 divergence flags present in eval
(rows are still written); 4 an inequality check failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from functools import partial
from types import SimpleNamespace
from typing import List, Optional

from .errors import ConfigError, PreconditionError
from .fields import (
    FIELD_SHAPES,
    ConstantPotential,
    LinearBPotential,
    LinearPhase,
    ZeroPotential,
    descriptor_hash,
    field_from_dict,
)
from .functionals import (
    EnergyParams,
    EngineSpec,
    KernelSpec,
    MonotoneEnvelope,
    dirichlet_energy_estimate,
    entropy_l2_estimate,
    f_functional,
    i_delta,
    i_delta_p,
    i_delta_request,
    j_delta_energy,
    j_energy,
    l2_norm_sq_estimate,
    log_moment_lp_estimate,
    prefetch_pairs,
)
from .inequalities import (FREE_CONSTANT_CHECKS, REPORTS, family_constant, prefetch_reports,
                           sweep_family)
from .limits import DEFAULT_DELTAS, delta_sweeps, estimate_qn
from .quadrature import Estimate, McSpec, RadialSpec

# Each name a config may use is defined once, in one table (the checks in
# inequalities.REPORTS); a table's keys are both the validation set and the
# dispatch.  Its lambdas look the library functions up at call time.


# functional -> (request, evaluation on (field, delta, built config)).  request:
# (field, delta, built config) -> the (name, arguments) of the memoized pair
# call the evaluation makes at that delta, which functionals.prefetch_pairs
# computes with the command's others; None for a functional of one row per
# field, evaluated at delta None (f_functional is memoized all the same)
_EVAL = {
    "l2_norm_sq": (None, lambda u, d, b: l2_norm_sq_estimate(u)),
    "dirichlet_energy": (None, lambda u, d, b: dirichlet_energy_estimate(u)),
    "entropy_l2": (None, lambda u, d, b: entropy_l2_estimate(u)),
    "log_moment_lp": (None, lambda u, d, b: log_moment_lp_estimate(u, b.p)),
    "j_energy": (None, lambda u, d, b: j_energy(u, EnergyParams(b.omega))),
    "f_functional": (None, lambda u, d, b: f_functional(u, b.envelope, b.p, b.engine)),
    "i_delta": (lambda u, d, b: i_delta_request(u, KernelSpec(d), b.engine),
                lambda u, d, b: i_delta(u, KernelSpec(d), b.engine)),
    "i_delta_p": (lambda u, d, b: i_delta_request(u, KernelSpec(d, p=b.p), b.engine),
                  lambda u, d, b: i_delta_p(u, KernelSpec(d, p=b.p), b.engine)),
    "j_delta_energy": (lambda u, d, b: i_delta_request(u, KernelSpec(d), b.engine),
                       lambda u, d, b: j_delta_energy(
                           u, EnergyParams(b.omega), KernelSpec(d), b.engine)),
}

_DEFAULT_FUNCTIONALS = ["l2_norm_sq", "dirichlet_energy", "entropy_l2", "i_delta"]

# kind -> (builder, required keys, optional keys), the format of fields.FIELD_SHAPES
_ENVELOPES = {
    "power": (lambda env: MonotoneEnvelope.power_law(float(env["q"])), {"q"}, set()),
    "threshold": (lambda env: MonotoneEnvelope.threshold(float(env["delta"]),
                                                         float(env.get("p", 2.0))),
                  {"delta"}, {"p"}),
}
_POTENTIALS = {
    "zero": (lambda pot, dim: ZeroPotential(dim), set(), set()),
    "constant": (lambda pot, dim: ConstantPotential(tuple(pot["vector"])), {"vector"}, set()),
    "linear_b": (lambda pot, dim: LinearBPotential(pot["matrix"]), {"matrix"}, set()),
}
_PHASES = {
    "linear": (lambda ph: LinearPhase(float(ph.get("offset", 0.0)), tuple(ph.get("wave", ()))),
               set(), {"offset", "wave"}),
}


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dim", "seed", "fields", "kernel", "engine", "functionals", "checks",
             "lambda", "omega", "a_values", "potential", "phase", "output"}
_KERNEL_KEYS = {"delta", "deltas", "p", "envelope"}
_ENGINE_KEYS = {"mode", "mc", "radial"}
_MC_KEYS = {f.name for f in dataclasses.fields(McSpec)} - {"master_seed"}  # seed comes from $.seed
_RADIAL_KEYS = {f.name for f in dataclasses.fields(RadialSpec)}
_OUTPUT_KEYS = {"csv", "json"}


def _check_keys(obj: dict, allowed: set, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} at {path}")


def _check_tagged(obj, tag: str, table: dict, path: str):
    """``obj[tag]`` names an entry (builder, required keys, optional keys) of
    ``table``, and ``obj`` has the entry's required keys and no other keys."""
    if not isinstance(obj, dict) or obj.get(tag) not in table:
        raise ConfigError(f"{path}.{tag} must be {' | '.join(table)}")
    _, required, optional = table[obj[tag]]
    _check_keys(obj, {tag} | required | optional, path)
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} at {path}")


def _check_field_dict(d: dict, path: str):
    _check_tagged(d, "shape", FIELD_SHAPES, path)
    if d["shape"] == "sum":
        if not isinstance(d["terms"], list):
            raise ConfigError(f"{path}.terms must be a list")
        for i, t in enumerate(d["terms"]):
            _check_field_dict(t, f"{path}.terms[{i}]")


def validate_config(cfg: dict) -> dict:
    """Schema validation; raises ConfigError before any computation."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "$")
    if "dim" not in cfg or not isinstance(cfg["dim"], int) or cfg["dim"] < 1:
        raise ConfigError("config needs an integer dim >= 1")
    seed = cfg.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("config needs an integer seed >= 0")
    if not isinstance(cfg.get("fields"), list) or not cfg["fields"]:
        raise ConfigError("config needs a nonempty 'fields' list")
    for i, d in enumerate(cfg["fields"]):
        _check_field_dict(d, f"$.fields[{i}]")
    kern = cfg.get("kernel", {})
    _check_keys(kern, _KERNEL_KEYS, "$.kernel")
    if "delta" in kern and "deltas" in kern:
        raise ConfigError("$.kernel: give either delta or deltas, not both")
    if "deltas" in kern and (not isinstance(kern["deltas"], list) or not kern["deltas"]):
        raise ConfigError("$.kernel.deltas must be a nonempty list")
    env = kern.get("envelope")
    if env is not None:
        _check_tagged(env, "kind", _ENVELOPES, "$.kernel.envelope")
    eng = cfg.get("engine", {})
    _check_keys(eng, _ENGINE_KEYS, "$.engine")
    _check_keys(eng.get("mc", {}), _MC_KEYS, "$.engine.mc")
    _check_keys(eng.get("radial", {}), _RADIAL_KEYS, "$.engine.radial")
    for key in ("functionals", "checks"):
        names = cfg.get(key, [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigError(f"$.{key} must be a list of names")
    for name in cfg.get("functionals", []):
        if name not in _EVAL:
            raise ConfigError(f"unknown functional {name!r}")
    if "f_functional" in cfg.get("functionals", []) and env is None:
        raise ConfigError("f_functional needs kernel.envelope")
    for name in cfg.get("checks", []):
        if name not in REPORTS:
            raise ConfigError(f"unknown check {name!r}")
    if "potential" in cfg:
        _check_tagged(cfg["potential"], "kind", _POTENTIALS, "$.potential")
    if "phase" in cfg:
        _check_tagged(cfg["phase"], "kind", _PHASES, "$.phase")
    _check_keys(cfg.get("output", {}), _OUTPUT_KEYS, "$.output")
    for key, path in cfg.get("output", {}).items():
        if not isinstance(path, str) or os.path.basename(path) in ("", ".", ".."):
            raise ConfigError(f"$.output.{key} must be a string that names a file, not {path!r}")
    return cfg


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects is a config error that
    names ``path``, the part of the config the value came from."""
    try:
        return make(*args, **kwargs)
    # OverflowError: an int beyond float range; TypeError: a value of the wrong JSON type
    except (ValueError, OverflowError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build(cfg: dict, seed: int) -> SimpleNamespace:
    """The objects of a validated config, built once per command."""
    kern, eng = cfg.get("kernel", {}), cfg.get("engine", {})
    env = kern.get("envelope")
    pot = cfg.get("potential", {"kind": "zero"})
    phase = cfg.get("phase", {"kind": "linear"})
    mc = _built("$.engine.mc", McSpec, seed, **eng.get("mc", {}))
    radial = _built("$.engine.radial", RadialSpec, **eng.get("radial", {}))
    b = SimpleNamespace(
        fields=[_built(f"$.fields[{i}]", field_from_dict, d) for i, d in enumerate(cfg["fields"])],
        deltas=[_built("$.kernel", lambda: KernelSpec(float(d)).delta)
                for d in kern.get("deltas", [kern.get("delta", 0.1)])],
        engine=_built("$.engine", EngineSpec, mc, radial, eng.get("mode", "auto")),
        envelope=env and _built("$.kernel.envelope", _ENVELOPES[env["kind"]][0], env),
        p=_built("$.kernel.p", float, kern.get("p", 2.0)),
        omega=_built("$.omega", float, cfg.get("omega", 0.0)),
        lam=_built("$.lambda", float, cfg.get("lambda", 1.0)),
        a_values=_built("$.a_values", lambda: [float(a) for a in cfg.get("a_values", [1.0])]),
        potential=_built("$.potential", _POTENTIALS[pot["kind"]][0], pot, cfg["dim"]),
        phase=_built("$.phase", _PHASES[phase["kind"]][0], phase))
    # an empty phase wave is constant in every dimension
    dims = [(f"$.fields[{i}]", f.dim) for i, f in enumerate(b.fields)] + [
        ("$.potential", b.potential.dim), ("$.phase", len(b.phase.wave) or cfg["dim"])]
    for path, dim in dims:
        if dim != cfg["dim"]:
            raise ConfigError(f"{path}: dim {dim}, config dim {cfg['dim']}")
    return b


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-nlsob-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: List[str], rows: List[dict]):
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue())


def _write_json(path: str, payload):
    # strict JSON: NaN and Infinity become null, and a row's status or a
    # report's degenerate flag carries the verdict
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    _atomic_write(path, json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_outputs(cfg: dict, out_dir: Optional[str], command: str, header: List[str],
                   rows: List[dict], payload: dict):
    """The CSV always, the JSON payload where the config names a path."""
    out = cfg.get("output", {})
    _write_csv(os.path.join(out_dir or "", out.get("csv", f"{command}.csv")), header, rows)
    if "json" in out:
        _write_json(os.path.join(out_dir or "", out["json"]), payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _eval_row(fi: int, fh: str, name: str, delta, outcome) -> dict:
    row = {"field_index": fi, "field_hash": fh, "functional": name,
           "delta": "" if delta is None else delta, "value": "",
           "stderr": "", "tail_bound": "", "method": "", "status": "ok",
           "n_effective": ""}
    if isinstance(outcome, Exception):
        row["status"] = f"error:{type(outcome).__name__}"
    elif isinstance(outcome, Estimate):
        row.update(value=outcome.value, stderr=outcome.stderr,
                   tail_bound=outcome.tail_bound, method=outcome.method,
                   n_effective=outcome.n_effective)
        if outcome.diverged:
            row["status"] = "diverged"
    else:
        # an energy combines several estimates and claims no error of its own
        row.update(value=float(outcome), method="derived")
    return row


def cmd_eval(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    b = _build(cfg, seed)
    header = ["field_index", "field_hash", "functional", "delta", "value",
              "stderr", "tail_bound", "method", "status", "n_effective"]
    rows = []
    names = cfg.get("functionals") or _DEFAULT_FUNCTIONALS
    prefetch_pairs(partial(_EVAL[name][0], u, d, b) for u in b.fields
                   for name in names if _EVAL[name][0] for d in b.deltas)
    for fi, u in enumerate(b.fields):
        fh = descriptor_hash(u)
        for name in names:
            request, evaluate = _EVAL[name]
            for d in b.deltas if request else [None]:
                try:
                    outcome = evaluate(u, d, b)
                except Exception as exc:  # noqa: BLE001 - per-row status
                    outcome = exc
                rows.append(_eval_row(fi, fh, name, d, outcome))

    _write_outputs(cfg, out_dir, "eval", header, rows, {"rows": rows})
    return 3 if any(r["status"] == "diverged" for r in rows) else 0


def cmd_check(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    b = _build(cfg, seed)
    header = ["inequality_id", "field_hash", "delta", "lhs", "rhs", "deficit",
              "constant", "stat_margin", "degenerate"]
    rows, details = [], []
    violated = False
    prefetch_reports(cfg.get("checks", []), b.fields, b)
    for check in cfg.get("checks", []):
        reports = [r for u in b.fields for r in REPORTS[check][1](u, b)]
        family = family_constant(reports)
        for report in reports:
            row = report.csv_row()
            if family is not None and report.rhs_builder is not None and not report.degenerate:
                row["deficit"] = report.deficit_at(family)
                row["rhs"] = report.rhs_builder(family)
                row["constant"] = family
                ok = report.holds(family)
            else:
                ok = report.degenerate or report.holds()
            violated = violated or not ok
            rows.append(row)
            details.append(report.detail())

    _write_outputs(cfg, out_dir, "check", header, rows, {"reports": details})
    return 4 if violated else 0


def _p2_kernel(b: SimpleNamespace, command: str):
    """The delta -> 0 study has the p = 2 indicator kernel only, so a config
    that asks for another kernel is an error, not a p = 2 run."""
    if b.p != 2.0 or b.envelope is not None:
        raise ConfigError(f"{command} takes the p = 2 kernel only: "
                          "kernel.p must be 2 and kernel.envelope absent")


def _grid(cfg: dict, b: SimpleNamespace) -> List[float]:
    """The delta grid of sweep and qn: the config's, largest first, or the
    study's default where the config gives none."""
    if {"delta", "deltas"} & set(cfg.get("kernel", {})):
        return sorted(b.deltas, reverse=True)
    return list(DEFAULT_DELTAS)


def cmd_sweep(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    b = _build(cfg, seed)
    _p2_kernel(b, "sweep")
    header = ["field_index", "field_hash", "delta", "value", "stderr", "ratio",
              "tail_bound"]
    rows, summary = [], []
    for fi, (u, sw) in enumerate(zip(b.fields, delta_sweeps(b.fields, _grid(cfg, b), b.engine))):
        fh = descriptor_hash(u)
        for d, est, ratio in zip(sw.deltas, sw.estimates, sw.ratios):
            rows.append({"field_index": fi, "field_hash": fh, "delta": d,
                         "value": est.value, "stderr": est.stderr, "ratio": ratio,
                         "tail_bound": est.tail_bound})
        summary.append({"field_index": fi, "field_hash": fh,
                        "dirichlet": sw.dirichlet,
                        "extrapolated_limit": sw.extrapolated_limit,
                        "extrapolation_error": sw.extrapolation_error,
                        "fitted_exponent": sw.fitted_exponent})
    _write_outputs(cfg, out_dir, "sweep", header, rows, {"sweeps": summary})
    return 0


def cmd_constants(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    checks = cfg.get("checks", [])
    fixed = [c for c in checks if c not in FREE_CONSTANT_CHECKS]
    if fixed or not checks:
        raise ConfigError("constants command needs checks with a free constant "
                          f"(FREE_CONSTANT_CHECKS: {', '.join(FREE_CONSTANT_CHECKS)}); "
                          f"got {checks}")
    b = _build(cfg, seed)
    header = ["inequality_id", "field_hash", "delta", "constant", "family_constant",
              "held_out", "held_ok"]
    rows, summary = [], []
    for check in checks:
        sw = sweep_family(b.fields, b.deltas, check, b.engine, seed=seed, lam=b.lam,
                          envelope=b.envelope)
        for idx, ((fi, d), rep) in enumerate(zip(sw.instances, sw.reports)):
            rows.append({
                "inequality_id": check,
                "field_hash": descriptor_hash(b.fields[fi]),
                "delta": d,
                "constant": rep.admissible_constant,
                "family_constant": sw.family_constant,
                "held_out": idx in sw.held_idx,
                "held_ok": sw.held_ok,
            })
        summary.append({"inequality_id": check, "family_constant": sw.family_constant,
                        "held_ok": sw.held_ok, "n_train": len(sw.train_idx),
                        "n_held": len(sw.held_idx),
                        "excluded": [list(e) for e in sw.excluded]})
    _write_outputs(cfg, out_dir, "constants", header, rows, {"families": summary})
    return 0


def cmd_qn(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    b = _build(cfg, seed)
    _p2_kernel(b, "qn")
    est = estimate_qn(cfg["dim"], b.fields, b.engine, _grid(cfg, b))
    header = ["dim", "estimate", "error", "candidate", "candidate_label",
              "consistent"]
    rows = [{"dim": est.dim, "estimate": est.value, "error": est.error,
             "candidate": est.analytic_candidate,
             "candidate_label": est.candidate_label, "consistent": est.consistent}]
    _write_outputs(cfg, out_dir, "qn", header, rows,
                   {"estimate": rows[0], "per_field": [list(p) for p in est.per_field]})
    return 0


_COMMANDS = {"eval": cmd_eval, "check": cmd_check, "sweep": cmd_sweep,
             "constants": cmd_constants, "qn": cmd_qn}


def _finite_number(text: str) -> float:
    # json reads NaN, Infinity and overflowing literals (1e999) as floats no config may hold
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsob",
        description="Evaluate nonlocal functionals and verify the "
                    "inequalities they control.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out-dir", default=None, help="prefix for output paths")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        validate_config(cfg)
        seed = args.seed if args.seed is not None else cfg["seed"]
        if seed < 0:  # the config's own seed passed validate_config
            raise ConfigError("--seed must be >= 0")
        return _COMMANDS[args.command](cfg, seed, args.out_dir)
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

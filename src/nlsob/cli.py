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
from typing import List, Optional

from .errors import ConfigError, PreconditionError
from .fields import (
    ComplexField,
    ConstantPotential,
    LinearBPotential,
    LinearPhase,
    ScalarField,
    VectorPotential,
    ZeroPotential,
    descriptor_hash,
    field_from_dict,
)
from .functionals import (
    EnergyParams,
    EngineSpec,
    KernelSpec,
    MonotoneEnvelope,
    dirichlet_energy,
    entropy_l2,
    f_functional,
    i_delta,
    i_delta_p,
    j_delta_energy,
    j_energy,
    l2_norm_sq,
    log_moment_lp,
)
from .inequalities import (
    FREE_CONSTANT_CHECKS,
    check_diamagnetic,
    check_euclidean_family,
    check_gauss_lsi,
    check_jensen,
    check_magnetic_lsi,
    check_small_set_bound,
    sweep_family,
)
from .limits import delta_sweep, estimate_qn
from .quadrature import Estimate, McSpec, RadialSpec

_EXPLICIT_CHECKS = ("gauss_lsi", "euclidean_family", "jensen", "small_set_bound",
                    "diamagnetic", "magnetic_lsi")
_FUNCTIONALS = ("l2_norm_sq", "dirichlet_energy", "entropy_l2", "log_moment_lp",
                "i_delta", "i_delta_p", "f_functional", "j_energy", "j_delta_energy")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# shape -> (keys field_from_dict cannot do without, optional keys)
_SHAPE_KEYS = {
    "gaussian": ({"dim", "rate"}, {"amplitude", "center"}),
    "bump": ({"dim", "radius"}, {"amplitude", "center"}),
    "indicator": ({"dim", "radius"}, {"amplitude", "center"}),
    "radial_profile": ({"dim", "knots", "values"}, {"center"}),
    "sum": ({"terms"}, {"dim"}),
    "constant": ({"dim"}, {"value"}),
    "exponential": ({"dim", "rate_vector"}, {"amplitude"}),
}

_TOP_KEYS = {"dim", "seed", "fields", "kernel", "engine", "functionals", "checks",
             "lambda", "omega", "a_values", "potential", "phase", "output"}
_KERNEL_KEYS = {"delta", "deltas", "p", "envelope"}
_ENVELOPE_KEYS = {"kind", "q", "delta", "p"}
_ENVELOPE_REQUIRED = {"power": {"q"}, "threshold": {"delta"}}
_ENGINE_KEYS = {"mode", "mc", "radial"}
_MC_KEYS = {f.name for f in dataclasses.fields(McSpec)} - {"master_seed"}  # seed comes from $.seed
_RADIAL_KEYS = {f.name for f in dataclasses.fields(RadialSpec)}
_OUTPUT_KEYS = {"csv", "json"}
_POTENTIAL_KEYS = {"kind", "vector", "matrix"}
_PHASE_KEYS = {"kind", "offset", "wave"}


def _check_keys(obj: dict, allowed: set, path: str, strict: bool):
    unknown = set(obj) - allowed
    if unknown:
        msg = f"unknown key(s) {sorted(unknown)} at {path}"
        if strict:
            raise ConfigError(msg)
        print(f"warning: {msg}", file=sys.stderr)


def _check_required(obj: dict, required: set, path: str):
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} at {path}")


def _check_field_dict(d: dict, path: str, strict: bool):
    if not isinstance(d, dict) or "shape" not in d:
        raise ConfigError(f"{path}: field descriptor must be an object with 'shape'")
    shape = d["shape"]
    if shape not in _SHAPE_KEYS:
        raise ConfigError(f"{path}: unknown shape {shape!r}")
    required, optional = _SHAPE_KEYS[shape]
    _check_keys(d, {"shape"} | required | optional, path, strict)
    _check_required(d, required, path)
    if shape == "sum":
        for i, t in enumerate(d.get("terms", [])):
            _check_field_dict(t, f"{path}.terms[{i}]", strict)


def validate_config(cfg: dict, strict: bool = True) -> dict:
    """Schema validation; raises ConfigError before any computation."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "$", strict)
    if "dim" not in cfg or not isinstance(cfg["dim"], int) or cfg["dim"] < 1:
        raise ConfigError("config needs an integer dim >= 1")
    seed = cfg.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("config needs an integer seed >= 0")
    if not isinstance(cfg.get("fields"), list) or not cfg["fields"]:
        raise ConfigError("config needs a nonempty 'fields' list")
    for i, d in enumerate(cfg["fields"]):
        _check_field_dict(d, f"$.fields[{i}]", strict)
    kern = cfg.get("kernel", {})
    _check_keys(kern, _KERNEL_KEYS, "$.kernel", strict)
    if "delta" in kern and "deltas" in kern:
        raise ConfigError("$.kernel: give either delta or deltas, not both")
    env = kern.get("envelope")
    if env is not None:
        _check_keys(env, _ENVELOPE_KEYS, "$.kernel.envelope", strict)
        if env.get("kind") not in _ENVELOPE_REQUIRED:
            raise ConfigError("$.kernel.envelope.kind must be 'power' or 'threshold'")
        _check_required(env, _ENVELOPE_REQUIRED[env["kind"]], "$.kernel.envelope")
    eng = cfg.get("engine", {})
    _check_keys(eng, _ENGINE_KEYS, "$.engine", strict)
    _check_keys(eng.get("mc", {}), _MC_KEYS, "$.engine.mc", strict)
    _check_keys(eng.get("radial", {}), _RADIAL_KEYS, "$.engine.radial", strict)
    if eng.get("mode", "auto") not in ("auto", "mc", "radial"):
        raise ConfigError("$.engine.mode must be auto | mc | radial")
    for name in cfg.get("functionals", []):
        if name not in _FUNCTIONALS:
            raise ConfigError(f"unknown functional {name!r}")
    for name in cfg.get("checks", []):
        if name not in FREE_CONSTANT_CHECKS + _EXPLICIT_CHECKS:
            raise ConfigError(f"unknown check {name!r}")
    if "potential" in cfg:
        _check_keys(cfg["potential"], _POTENTIAL_KEYS, "$.potential", strict)
    if "phase" in cfg:
        _check_keys(cfg["phase"], _PHASE_KEYS, "$.phase", strict)
    _check_keys(cfg.get("output", {}), _OUTPUT_KEYS, "$.output", strict)
    return cfg


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _build_fields(cfg: dict) -> List[ScalarField]:
    fields = [field_from_dict(d) for d in cfg["fields"]]
    for f in fields:
        if f.dim != cfg["dim"]:
            raise ConfigError("field dimension disagrees with config dim")
    return fields


def _build_deltas(cfg: dict) -> List[float]:
    kern = cfg.get("kernel", {})
    if "deltas" in kern:
        return [float(d) for d in kern["deltas"]]
    return [float(kern.get("delta", 0.1))]


def _build_envelope(cfg: dict) -> Optional[MonotoneEnvelope]:
    env = cfg.get("kernel", {}).get("envelope")
    if env is None:
        return None
    if env["kind"] == "power":
        return MonotoneEnvelope.power_law(float(env["q"]))
    return MonotoneEnvelope.threshold(float(env["delta"]), float(env.get("p", 2.0)))


def _build_engine(cfg: dict, seed: int) -> EngineSpec:
    eng = cfg.get("engine", {})
    mc = McSpec(master_seed=seed, **eng.get("mc", {}))
    radial = RadialSpec(**eng.get("radial", {}))
    return EngineSpec(mc=mc, radial=radial, mode=eng.get("mode", "auto"))


def _build_potential(cfg: dict, dim: int) -> VectorPotential:
    pot = cfg.get("potential")
    if pot is None or pot.get("kind") == "zero":
        return ZeroPotential(dim)
    if pot["kind"] == "constant":
        return ConstantPotential(tuple(pot["vector"]))
    if pot["kind"] == "linear_b":
        return LinearBPotential(pot["matrix"])
    raise ConfigError(f"unknown potential kind {pot.get('kind')!r}")


def _build_phase(cfg: dict) -> LinearPhase:
    ph = cfg.get("phase")
    if ph is None:
        return LinearPhase()
    return LinearPhase(float(ph.get("offset", 0.0)), tuple(ph.get("wave", ())))


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
    if out.get("json"):
        _write_json(os.path.join(out_dir or "", out["json"]), payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    fields = _build_fields(cfg)
    deltas = _build_deltas(cfg)
    engine = _build_engine(cfg, seed)
    envelope = _build_envelope(cfg)
    kern_p = float(cfg.get("kernel", {}).get("p", 2.0))
    omega = float(cfg.get("omega", 0.0))
    names = cfg.get("functionals") or ["l2_norm_sq", "dirichlet_energy",
                                       "entropy_l2", "i_delta"]
    header = ["field_index", "field_hash", "functional", "delta", "value",
              "stderr", "tail_bound", "method", "status", "n_effective"]
    rows = []
    any_diverged = False

    def push(fi, fh, name, delta, outcome):
        nonlocal any_diverged
        row = {"field_index": fi, "field_hash": fh, "functional": name,
               "delta": "" if delta is None else delta, "value": "",
               "stderr": "", "tail_bound": "", "method": "", "status": "ok",
               "n_effective": ""}
        if isinstance(outcome, Exception):
            row["status"] = f"error:{type(outcome).__name__}"
        else:
            est = outcome if isinstance(outcome, Estimate) else Estimate(float(outcome))
            row.update(value=est.value, stderr=est.stderr, tail_bound=est.tail_bound,
                       method=est.method, n_effective=est.n_effective)
            if est.diverged:
                row["status"] = "diverged"
                any_diverged = True
        rows.append(row)

    for fi, u in enumerate(fields):
        fh = descriptor_hash(u)
        for name in names:
            try:
                if name == "l2_norm_sq":
                    push(fi, fh, name, None, l2_norm_sq(u))
                elif name == "dirichlet_energy":
                    push(fi, fh, name, None, dirichlet_energy(u))
                elif name == "entropy_l2":
                    push(fi, fh, name, None, entropy_l2(u))
                elif name == "log_moment_lp":
                    push(fi, fh, name, None, log_moment_lp(u, kern_p))
                elif name == "j_energy":
                    push(fi, fh, name, None, j_energy(u, EnergyParams(omega)))
                elif name == "f_functional":
                    if envelope is None:
                        raise ConfigError("f_functional needs kernel.envelope")
                    push(fi, fh, name, None, f_functional(u, envelope, kern_p, engine))
                elif name in ("i_delta", "i_delta_p", "j_delta_energy"):
                    for d in deltas:
                        try:
                            if name == "i_delta":
                                out = i_delta(u, KernelSpec(d), engine)
                            elif name == "i_delta_p":
                                out = i_delta_p(u, KernelSpec(d, p=kern_p), engine)
                            else:
                                out = j_delta_energy(u, EnergyParams(omega),
                                                     KernelSpec(d), engine)
                            push(fi, fh, name, d, out)
                        except Exception as exc:  # noqa: BLE001 - per-row status
                            push(fi, fh, name, d, exc)
                else:
                    raise ConfigError(f"unhandled functional {name}")
            except ConfigError:
                raise
            except Exception as exc:  # noqa: BLE001 - per-row status
                push(fi, fh, name, None, exc)

    _write_outputs(cfg, out_dir, "eval", header, rows, {"rows": rows})
    return 3 if any_diverged else 0


def cmd_check(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    fields = _build_fields(cfg)
    deltas = _build_deltas(cfg)
    engine = _build_engine(cfg, seed)
    envelope = _build_envelope(cfg)
    lam = float(cfg.get("lambda", 1.0))
    a_values = [float(a) for a in cfg.get("a_values", [1.0])]
    potential = _build_potential(cfg, cfg["dim"])
    phase = _build_phase(cfg)
    checks = cfg.get("checks", [])
    header = ["inequality_id", "field_hash", "delta", "lhs", "rhs", "deficit",
              "constant", "stat_margin", "degenerate"]
    rows, details = [], []
    violated = False

    def emit(report, constant=None):
        nonlocal violated
        row = report.csv_row()
        if constant is not None and report.rhs_builder is not None:
            row["deficit"] = report.deficit_at(constant)
            row["rhs"] = report.rhs_builder(constant)
            row["constant"] = constant
            ok = report.holds(constant)
        else:
            ok = report.degenerate or report.holds()
        if not ok:
            violated = True
        rows.append(row)
        details.append(report.detail())

    for check in checks:
        if check in FREE_CONSTANT_CHECKS:
            sw = sweep_family(fields, deltas, check, engine, seed=seed, lam=lam,
                              envelope=envelope)
            for rep in sw.reports:
                if rep.degenerate:
                    emit(rep)
                else:
                    emit(rep, constant=sw.family_constant)
        elif check == "gauss_lsi":
            for u in fields:
                emit(check_gauss_lsi(u))
        elif check == "euclidean_family":
            for u in fields:
                for a in a_values:
                    emit(check_euclidean_family(u, a))
        elif check == "jensen":
            for u in fields:
                emit(check_jensen(u))
        elif check == "small_set_bound":
            for u in fields:
                for d in deltas:
                    emit(check_small_set_bound(u, d, lam))
        elif check == "diamagnetic":
            for u in fields:
                cu = ComplexField(u, phase)
                for d in deltas:
                    emit(check_diamagnetic(cu, potential, d, engine))
        elif check == "magnetic_lsi":
            # the constant is an output: every report is checked at the
            # family constant, as in the free-constant branch
            reps = [check_magnetic_lsi(ComplexField(u, phase), potential, d, engine)
                    for u in fields for d in deltas]
            family = max((r.admissible_constant for r in reps if not r.degenerate
                          and math.isfinite(r.admissible_constant)), default=None)
            for rep in reps:
                emit(rep, constant=None if rep.degenerate else family)

    _write_outputs(cfg, out_dir, "check", header, rows, {"reports": details})
    return 4 if violated else 0


def cmd_sweep(cfg: dict, seed: int, out_dir: Optional[str]) -> int:
    fields = _build_fields(cfg)
    deltas = sorted(_build_deltas(cfg), reverse=True)
    engine = _build_engine(cfg, seed)
    header = ["field_index", "field_hash", "delta", "value", "stderr", "ratio",
              "tail_bound"]
    rows, summary = [], []
    for fi, u in enumerate(fields):
        sw = delta_sweep(u, deltas, engine)
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
    fields = _build_fields(cfg)
    deltas = _build_deltas(cfg)
    engine = _build_engine(cfg, seed)
    envelope = _build_envelope(cfg)
    lam = float(cfg.get("lambda", 1.0))
    checks = [c for c in cfg.get("checks", []) if c in FREE_CONSTANT_CHECKS]
    if not checks:
        raise ConfigError("constants command needs at least one free-constant check")
    header = ["inequality_id", "field_hash", "delta", "constant", "family_constant",
              "held_out", "held_ok"]
    rows, summary = [], []
    for check in checks:
        sw = sweep_family(fields, deltas, check, engine, seed=seed, lam=lam,
                          envelope=envelope)
        for idx, ((fi, d), rep) in enumerate(zip(sw.instances, sw.reports)):
            rows.append({
                "inequality_id": check,
                "field_hash": descriptor_hash(fields[fi]),
                "delta": d,
                "constant": ("" if rep.admissible_constant is None
                             else rep.admissible_constant),
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
    fields = _build_fields(cfg)
    engine = _build_engine(cfg, seed)
    deltas = sorted(_build_deltas(cfg), reverse=True)
    if len(deltas) < 3:
        deltas = [0.2 * 2.0 ** (-k) for k in range(6)]
    est = estimate_qn(cfg["dim"], fields, engine, deltas)
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
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reject unknown config keys (default: on)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        validate_config(cfg, strict=args.strict)
        seed = args.seed if args.seed is not None else cfg["seed"]
        return _COMMANDS[args.command](cfg, seed, args.out_dir)
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The inputs of the three benchmark workloads, generated from a seed.

Inputs are plain JSON data (field descriptors, CLI configs).  The seed
selects one of ``VARIANTS`` input variants, so every seed has a checked-in
reference of its outputs (``bench/reference/<workload>.json``).  The
program only ever sees the generated descriptors and configs.

Field shapes vary with the seed only by a few percent around fixed
bases, so the figures of different seeds stay comparable.  The radial
grids are coarser than the library default (``n_r``/``n_s`` 12/16 instead
of 48/30; the reported discrepancy stays near 1e-3) so a whole study fits
several times into one benchmark run.  Monte Carlo runs use 192000
samples (the library default) on ``mc_family`` and 96000 on
``jump_envelope``, enough chunks for a steady standard error.
"""

from __future__ import annotations

import json
import os

import numpy as np

VARIANTS = 32
WORKLOADS = ("radial_limit", "mc_family", "jump_envelope")

_SALT = 0x6E6C736F  # "nlso"
_RADIAL = {"n_r": 12, "n_s": 16}
_P_SWEEP = (1.2, 1.5, 2.0, 3.0)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_SALT, WORKLOADS.index(workload), variant(seed)])


def _gauss(dim, rate, amp=1.0, center=None) -> dict:
    return {"shape": "gaussian", "dim": dim, "rate": rate, "amplitude": amp,
            "center": center or [0.0] * dim}


def _bump(dim, radius, amp=1.0, center=None) -> dict:
    return {"shape": "bump", "dim": dim, "radius": radius, "amplitude": amp,
            "center": center or [0.0] * dim}


def _indicator(dim, radius, amp, center) -> dict:
    return {"shape": "indicator", "dim": dim, "radius": radius, "amplitude": amp,
            "center": center}


def _profile(dim, knots, values) -> dict:
    return {"shape": "radial_profile", "dim": dim, "knots": knots, "values": values}


def _mc_seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31))


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _near(rng, base: float, rel: float = 0.05) -> float:
    """``base`` jittered by up to ``rel`` of itself."""
    return base * (1.0 + float(rng.uniform(-rel, rel)))


def _at(rng, base, reach: float = 0.05) -> list:
    return [b + float(v) for b, v in zip(base, rng.uniform(-reach, reach, len(base)))]


def radial_limit_inputs(seed: int) -> dict:
    """N=3 small-delta limit study on three monotone radial profiles."""
    rng = _rng("radial_limit", seed)
    s, h = _near(rng, 2.0), _near(rng, 1.0)
    # samples of the smooth decreasing bell h (1 - (r/s)^2)^2: the clamped
    # spline through them stays monotone, so the odd-N indicator path runs
    fields = [
        _gauss(3, _near(rng, 1.0)),
        _bump(3, _near(rng, 2.0), _near(rng, 1.0)),
        _profile(3, [s * k / 4.0 for k in range(5)],
                 [h * (1.0 - (k / 4.0) ** 2) ** 2 for k in range(5)]),
    ]
    return {"kind": "library", "dim": 3, "fields": fields,
            "deltas": [0.2 * 2.0 ** (-k) for k in range(4)],
            "mc_seed": _mc_seed(rng), "radial": dict(_RADIAL),
            # only shifts the logarithms the recovery study follows
            "family_constant": 0.05, "jumps": []}


def _cli(command: str, cfg: dict, *, row_check: str, allowed_exit) -> dict:
    return {"command": command, "config": cfg, "row_check": row_check,
            "allowed_exit": list(allowed_exit)}


def mc_family_inputs(seed: int) -> dict:
    """N=3 non-radial fields: family constants, then the magnetic checks."""
    rng = _rng("mc_family", seed)
    fields = [
        {"shape": "sum", "dim": 3, "terms": [
            _gauss(3, _near(rng, 1.0), 1.0, _at(rng, [0.3, 0.0, 0.0])),
            _gauss(3, _near(rng, 1.6), _near(rng, 0.65), _at(rng, [-0.3, 0.2, 0.0]))]},
        {"shape": "sum", "dim": 3, "terms": [
            _gauss(3, _near(rng, 1.0), _near(rng, 1.0), _at(rng, [0.0, 0.3, 0.0])),
            _bump(3, _near(rng, 1.7), _near(rng, 0.5), _at(rng, [0.0, -0.3, 0.1]))]},
    ]
    base = {"dim": 3, "fields": fields,
            "engine": {"mc": {"n_samples": 192000}}}
    b = _at(rng, [0.4, -0.3, 0.2], 0.1)
    potentials = [
        {"kind": "zero"},
        {"kind": "constant", "vector": _at(rng, [0.5, -0.3, 0.2], 0.1)},
        {"kind": "linear_b", "matrix": [[0.0, b[0], b[1]], [-b[0], 0.0, b[2]],
                                        [-b[1], -b[2], 0.0]]},
    ]
    phase = {"kind": "linear", "offset": 0.0, "wave": _at(rng, [0.3, 0.0, -0.2], 0.1)}
    # each command is its own experiment with its own seed, so one unlucky
    # stream does not set the whole study's error budget
    commands = [_cli("constants", dict(base, seed=_mc_seed(rng),
                                       kernel={"deltas": [0.2, 0.1, 0.05]},
                                       checks=["logsobolev_main"],
                                       output={"csv": "constants.csv"}),
                     row_check="bitwise", allowed_exit=(0,))]
    for pot in potentials:
        for check in ("diamagnetic", "magnetic_lsi"):
            # the diamagnetic ordering is exact, so a violation (exit 4) is wrong
            allowed = (0,) if check == "diamagnetic" else (0, 4)
            commands.append(_cli("check", dict(base, seed=_mc_seed(rng),
                                               kernel={"delta": 0.1},
                                               checks=[check], potential=pot,
                                               phase=phase,
                                               output={"csv": "check.csv"}),
                                 row_check="bitwise", allowed_exit=allowed))
    return {"kind": "cli", "commands": commands, "jumps": []}


def jump_envelope_inputs(seed: int) -> dict:
    """Jump fields across a p sweep (N=3), a ring profile and an envelope (N=4)."""
    rng = _rng("jump_envelope", seed)
    # one seed for all commands: the p sweep compares p on one sample stream
    mc_seed = _mc_seed(rng)
    jump = _near(rng, 1.0)
    indicator = _indicator(3, _near(rng, 1.0), jump, _at(rng, [0.1, 0.0, 0.0]))
    # the Gaussian lifts the mixed field above the jump, so at deltas past
    # the jump its integral is finite and nonzero
    mixed = {"shape": "sum", "dim": 3, "terms": [
        _indicator(3, _near(rng, 0.9), jump, _at(rng, [-0.1, 0.1, 0.0])),
        _gauss(3, _near(rng, 1.0), _near(rng, jump), _at(rng, [0.2, -0.1, 0.0]))]}
    engine = {"mc": {"n_samples": 96000}, "radial": dict(_RADIAL)}
    commands = []
    for p in _P_SWEEP:
        cfg = {"dim": 3, "seed": mc_seed, "fields": [indicator, mixed],
               "kernel": {"deltas": [jump * f for f in (0.25, 0.5, 1.25, 1.5)], "p": p},
               "engine": engine,
               "functionals": ["i_delta" if p == 2.0 else "i_delta_p"],
               "output": {"csv": "eval.csv"}}
        commands.append(_cli("eval", cfg, row_check="bitwise", allowed_exit=(0, 3)))
    # the N=4 shapes are fixed: the seed varies only their Monte Carlo stream,
    # which the radial engine does not use
    ring = _profile(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
    commands.append(_cli("eval", {"dim": 4, "seed": mc_seed, "fields": [ring],
                                  "kernel": {"deltas": [0.2, 0.1, 0.05]},
                                  "engine": engine, "functionals": ["i_delta"],
                                  "output": {"csv": "eval.csv"}},
                         row_check="none", allowed_exit=(0,)))
    commands.append(_cli("eval", {"dim": 4, "seed": mc_seed, "fields": [_gauss(4, 1.0)],
                                  "kernel": {"p": 2.0,
                                             "envelope": {"kind": "power", "q": 3.0}},
                                  "engine": engine, "functionals": ["f_functional"],
                                  "output": {"csv": "eval.csv"}},
                         row_check="none", allowed_exit=(0,)))
    # a jump of height J makes I_delta infinite for every delta < J, every p >= 1
    return {"kind": "cli", "commands": commands,
            "jumps": [[indicator, jump], [mixed, jump]]}


INPUTS = {"radial_limit": radial_limit_inputs, "mc_family": mc_family_inputs,
          "jump_envelope": jump_envelope_inputs}


def write_configs(inputs: dict, workdir: str) -> list:
    """Write each CLI config to ``workdir``; return (argv, out_dir) per command."""
    out = []
    for i, cmd in enumerate(inputs["commands"]):
        cdir = os.path.join(workdir, f"cmd{i}")
        os.makedirs(cdir, exist_ok=True)
        path = os.path.join(cdir, "config.json")
        with open(path, "w") as fh:
            json.dump(cmd["config"], fh)
        out_dir = os.path.join(cdir, "out")
        out.append(([cmd["command"], "--config", path, "--out-dir", out_dir], out_dir))
    return out

"""The small-delta study: sweeps, extrapolation, and recovery of the
classical logarithmic Sobolev form.

The nonlocal functional converges, as delta shrinks, to a constant
multiple of the Dirichlet energy.  The constant is estimated here by a
rate-agnostic power-law extrapolation of the ratio curve
r(delta) = I_delta(u) / |grad u|_2^2 on a geometric delta grid.

``gradient_limit_constant`` returns the analytic candidate
|S^{N-1}| / (2N), obtained from the near-diagonal expansion: for each
direction the radial kernel integral beyond delta/|grad u . sigma|
contributes |grad u . sigma|^2 / 2, and averaging the squared projection
over the sphere gives |grad u|^2 |S^{N-1}| / (2N).  This value is a
derived candidate, not an externally specified constant, and is labeled
as such in all outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DivergentIntegralError, PreconditionError
from .fields import ScalarField, descriptor_hash
from .functionals import (EngineSpec, KernelSpec, dirichlet_energy, i_delta, i_delta_request,
                          l2_norm_sq, prefetch_pairs)
from .quadrature import Estimate, sphere_surface

__all__ = [
    "DeltaSweep",
    "QnEstimate",
    "UpperBoundReport",
    "RecoveryReport",
    "gradient_limit_constant",
    "delta_sweep",
    "delta_sweeps",
    "estimate_qn",
    "check_upper_bound",
    "recover_classical_lsi",
]

_STABILITY_TOL = 0.05  # grid-doubling change of the sup ratio that still counts as stable
DEFAULT_DELTAS = tuple(0.2 * 2.0 ** (-k) for k in range(6))  # the study's grid, largest first


def gradient_limit_constant(dim: int) -> float:
    """Analytic candidate for the small-delta ratio limit (derived here,
    not an externally given value): |S^{N-1}| / (2N)."""
    return sphere_surface(dim) / (2.0 * dim)


@dataclass
class DeltaSweep:
    deltas: List[float]               # strictly decreasing
    estimates: List[Estimate]
    dirichlet: float
    ratios: List[float]
    extrapolated_limit: float
    extrapolation_error: float
    fitted_exponent: float


def _power_law_extrapolation(deltas, ratios):
    """Fit r = r0 + c delta^gamma on the last three points of a geometric grid."""
    d = np.asarray(deltas, dtype=float)
    r = np.asarray(ratios, dtype=float)

    def fit(i2):  # uses points i2-2, i2-1, i2 (finest last)
        da, db, dc = d[i2 - 2], d[i2 - 1], d[i2]
        ra, rb, rc = r[i2 - 2], r[i2 - 1], r[i2]
        rho = da / db
        if abs(db / dc - rho) > 1e-6 * rho:
            raise PreconditionError("delta grid must be geometric for extrapolation")
        d_ab = rb - ra
        d_bc = rc - rb
        if d_ab * d_bc <= 0 or d_bc == 0:
            return rc, 1.0, abs(d_bc)  # no consistent power law; report last value
        gamma = math.log(abs(d_ab / d_bc)) / math.log(rho)
        gamma = min(max(gamma, 0.05), 8.0)
        corr = d_bc / (rho ** gamma - 1.0)
        return rc + corr, gamma, abs(corr)

    r0, gamma, corr = fit(d.size - 1)
    if d.size >= 4:
        r0_alt, _, _ = fit(d.size - 2)
        err = max(abs(r0 - r0_alt), 0.1 * corr)
    else:
        err = 0.5 * corr
    return r0, gamma, err


def _prefetch(fields: Sequence[ScalarField], deltas: Sequence[float], engine: EngineSpec):
    """The i_delta of each field at each delta, computed together
    (``functionals.prefetch_pairs``); the calls then read them."""
    prefetch_pairs(lambda u=u, d=d: i_delta_request(u, KernelSpec(d), engine)
                   for u in fields for d in deltas)


def _sweep_grid(u: ScalarField, deltas: Sequence[float]) -> tuple:
    """(deltas as floats, Dirichlet energy) once the sweep's preconditions hold."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas) or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise PreconditionError("deltas must be positive and strictly decreasing")
    if len(deltas) < 3:
        raise PreconditionError(f"extrapolation needs at least three deltas, got {len(deltas)}")
    if not u.differentiable:
        raise PreconditionError("sweep needs a differentiable field")
    if deltas[0] >= 2.0 * u.sup_bound:
        raise PreconditionError("deltas must stay below the field's oscillation")
    energy = dirichlet_energy(u)
    if energy <= 0:
        raise PreconditionError("zero Dirichlet energy; ratio undefined")
    return deltas, energy


def delta_sweep(u: ScalarField, deltas: Sequence[float],
                engine: EngineSpec) -> DeltaSweep:
    """Evaluate the nonlocal functional along a decreasing delta grid and
    extrapolate the ratio against the Dirichlet energy to delta -> 0."""
    deltas, energy = _sweep_grid(u, deltas)
    _prefetch([u], deltas, engine)
    estimates = []
    for d in deltas:
        est = i_delta(u, KernelSpec(d), engine)
        if est.diverged:
            raise DivergentIntegralError(f"nonlocal functional diverged at delta={d}")
        estimates.append(est)
    ratios = [e.value / energy for e in estimates]
    r0, gamma, err = _power_law_extrapolation(deltas, ratios)
    stoch = 3.0 * math.sqrt(sum((e.stderr / energy) ** 2 for e in estimates[-3:]))
    return DeltaSweep(deltas, estimates, energy, ratios, r0, err + stoch, gamma)


def delta_sweeps(fields: Sequence[ScalarField], deltas: Sequence[float],
                 engine: EngineSpec) -> List[DeltaSweep]:
    """``delta_sweep`` of each field, with every field's preconditions
    checked before the first estimate and the estimates of all fields
    computed together."""
    for u in fields:
        _sweep_grid(u, deltas)
    _prefetch(fields, deltas, engine)
    return [delta_sweep(u, deltas, engine) for u in fields]


@dataclass
class QnEstimate:
    dim: int
    value: float
    error: float
    per_field: List[tuple]            # (field_hash, limit, error)
    analytic_candidate: float
    candidate_label: str
    consistent: bool


def estimate_qn(dim: int, fields: Sequence[ScalarField], engine: EngineSpec,
                deltas: Optional[Sequence[float]] = None) -> QnEstimate:
    """Pooled extrapolated ratio limit over several test fields, with the
    independently derived analytic candidate attached for comparison."""
    if len(fields) < 2:
        raise PreconditionError("estimate_qn needs at least two test fields")
    if any(u.dim != dim for u in fields):
        raise PreconditionError("field dimension mismatch")
    sweeps = delta_sweeps(fields, DEFAULT_DELTAS if deltas is None else deltas, engine)
    per_field = [(descriptor_hash(u), sw.extrapolated_limit, max(sw.extrapolation_error, 1e-12))
                 for u, sw in zip(fields, sweeps)]
    w = np.array([1.0 / e ** 2 for _, _, e in per_field])
    vals = np.array([v for _, v, _ in per_field])
    pooled = float(np.sum(w * vals) / np.sum(w))
    err_pool = float(1.0 / math.sqrt(np.sum(w)))
    spread = float(np.max(np.abs(vals - pooled)))
    consistent = all(
        abs(per_field[i][1] - per_field[j][1]) <= per_field[i][2] + per_field[j][2]
        for i in range(len(per_field)) for j in range(i + 1, len(per_field)))
    return QnEstimate(dim, pooled, max(err_pool, spread),
                      per_field, gradient_limit_constant(dim),
                      "derived from the near-diagonal expansion, not externally given",
                      consistent)


@dataclass
class UpperBoundReport:
    deltas: List[float]
    ratios: List[float]
    sup_ratio: float
    sup_refined: float
    relative_change: float
    grid_stable: bool


def check_upper_bound(u: ScalarField, deltas: Sequence[float],
                      engine: EngineSpec) -> UpperBoundReport:
    """Empirical lower bound on the constant in the gradient-domination
    bound: sup over the grid of I_delta / Dirichlet, with a grid-doubling
    stability check."""
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not deltas:
        raise PreconditionError("the upper-bound check needs at least one delta")
    energy = dirichlet_energy(u)
    if energy <= 0:
        raise PreconditionError("zero Dirichlet energy")

    # the refined grid is the base grid plus its midpoints; only those are new
    mids = {math.sqrt(a * b) for a, b in zip(deltas, deltas[1:])} - set(deltas)
    _prefetch([u], [*deltas, *mids], engine)

    def ratios_for(grid):
        out = []
        for d in grid:
            est = i_delta(u, KernelSpec(d), engine)
            if est.diverged:
                raise DivergentIntegralError(f"diverged at delta={d}")
            out.append(est.value / energy)
        return out

    base = ratios_for(deltas)
    sup0 = max(base)
    sup1 = max([sup0] + ratios_for(sorted(mids, reverse=True)))
    rel = abs(sup1 - sup0) / max(sup0, 1e-300)
    return UpperBoundReport(deltas, base, sup0, sup1, rel, rel < _STABILITY_TOL)


@dataclass
class RecoveryReport:
    deltas: List[float]
    rhs_values: List[float]
    residuals: List[float]            # rhs - (N/2) log(C I_delta)
    dterm_ratios: List[float]         # delta^{4/N} ||u||^{(2N-4)/N} / I_delta
    dterm_monotone: bool
    final_rhs: float
    classical_rhs: float              # (N/2) log(C qn dirichlet)
    final_gap: float


def recover_classical_lsi(u: ScalarField, deltas: Sequence[float],
                          family_constant: float, engine: EngineSpec,
                          qn: Optional[float] = None) -> RecoveryReport:
    """Follow the main inequality's right side along the sweep and verify
    the delta term washes out, leaving the classical gradient form."""
    n = u.dim
    sw = delta_sweep(u, deltas, engine)
    m = l2_norm_sq(u)
    c = family_constant
    rhs_vals, residuals, dterms = [], [], []
    for d, est in zip(sw.deltas, sw.estimates):
        dterm = d ** (4.0 / n) * m ** ((n - 2.0) / n)
        rhs = (n / 2.0) * math.log(c * (dterm + est.value))
        rhs_vals.append(rhs)
        residuals.append(rhs - (n / 2.0) * math.log(c * est.value))
        dterms.append(dterm / est.value)
    q = qn if qn is not None else gradient_limit_constant(n)
    classical = (n / 2.0) * math.log(c * q * sw.dirichlet)
    monotone = all(b < a for a, b in zip(dterms, dterms[1:]))
    return RecoveryReport(sw.deltas, rhs_vals, residuals, dterms, monotone,
                          rhs_vals[-1], classical,
                          abs(rhs_vals[-1] - classical) / abs(classical))

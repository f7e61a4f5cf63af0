"""Inequality checkers: LHS, RHS, deficit and admissible constants.

Unspecified constants are treated as outputs, never as assumed inputs:
each checker reports the smallest constant making its instance true, and
``family_constant`` takes the family supremum of the per-instance
constants; ``sweep_family`` re-validates it on a deterministic held-out
split.

``REPORTS``, read by the CLI and ``sweep_family``, maps each check name to
its pair request and one field's reports.  Checkers ask ``functionals``
for every volume quantity, ``i_delta``, envelope functional
(``f_functional``) and magnetic pair (``i_delta_magnetic_paired``) they
read; it memoizes each per process, keyed by the field's canonical
descriptor (a complex field's modulus's, for a volume quantity) and the
other arguments (an envelope by its value), sound as the volume integrals
run on fixed streams and the pair estimates on their engine's seed.  A
repeat across deltas, checks and commands returns the identical
``Estimate``.  An entry's request names the memoized pair call its reports
make at each delta (``functionals.i_delta_request`` for ``i_delta``), so
that ``prefetch_reports`` computes a command's together in one Monte
Carlo pass before the entries run.

Tolerance policy: inequalities involving Monte Carlo estimates are
asserted up to ``stat_margin`` (3x the combined standard errors,
linearized); deterministic instances carry a tiny floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .fields import ComplexField, ScalarField, VectorPotential, descriptor_hash
from .functionals import (
    EngineSpec,
    KernelSpec,
    MonotoneEnvelope,
    dirichlet_energy_estimate,
    entropy_l2_estimate,
    f_functional,
    gauss_lsi_sides,
    i_delta,
    i_delta_magnetic_paired,
    i_delta_request,
    l2_norm_sq_estimate,
    log_moment_lp_estimate,
    lp_power_integral,
    prefetch_pairs,
    restricted_power_integral,
)
from .quadrature import Estimate

__all__ = [
    "InequalityReport",
    "FamilySweep",
    "check_nonlocal_sobolev",
    "check_logsobolev_main",
    "check_envelope_lsi",
    "check_magnetic_lsi",
    "check_diamagnetic",
    "check_gauss_lsi",
    "check_euclidean_family",
    "check_small_set_bound",
    "jensen_gap",
    "jensen_gap_p",
    "sweep_family",
    "family_constant",
    "FREE_CONSTANT_CHECKS",
    "REPORTS",
    "prefetch_reports",
]

_FP_SLACK = 1e-9
_HOLDOUT_FRACTION = 0.2


@dataclass
class InequalityReport:
    """One inequality instance: sides, deficit, constant, provenance."""

    inequality_id: str
    lhs: float
    rhs: Optional[float] = None
    deficit: Optional[float] = None
    admissible_constant: Optional[float] = None
    stat_margin: float = 0.0
    inputs: dict = dc_field(default_factory=dict)
    degenerate: bool = False
    notes: str = ""
    rhs_builder: Optional[Callable[[float], float]] = dc_field(default=None, repr=False)

    def deficit_at(self, constant: float) -> float:
        if self.rhs_builder is None:
            raise PreconditionError(f"{self.inequality_id} has no free constant")
        return self.rhs_builder(constant) - self.lhs

    def holds(self, constant: Optional[float] = None) -> bool:
        d = self.deficit if constant is None else self.deficit_at(constant)
        if d is None:
            raise PreconditionError("no deficit available; pass a constant")
        return d >= -max(self.stat_margin, _FP_SLACK)

    def csv_row(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "field_hash": self.inputs.get("field_hash", ""),
            "delta": self.inputs.get("delta", ""),
            "lhs": self.lhs,
            "rhs": "" if self.rhs is None else self.rhs,
            "deficit": "" if self.deficit is None else self.deficit,
            "constant": "" if self.admissible_constant is None else self.admissible_constant,
            "stat_margin": self.stat_margin,
            "degenerate": self.degenerate,
        }

    def detail(self) -> dict:
        out = self.csv_row()
        out["inputs"] = self.inputs
        out["notes"] = self.notes
        return out


def _prov(u, delta=None, engine: Optional[EngineSpec] = None, **extra) -> dict:
    d = {"field_hash": descriptor_hash(u)}
    if delta is not None:
        d["delta"] = delta
    if engine is not None:
        d["mc_hash"] = descriptor_hash(engine.mc.to_dict())
        d["radial_hash"] = descriptor_hash(engine.radial.to_dict())
    d.update(extra)
    return d


_VACUOUS = "nonlocal term diverges; inequality vacuous"


def _vacuous(inequality_id: str, inputs: dict, notes: str = _VACUOUS) -> InequalityReport:
    return InequalityReport(inequality_id, lhs=0.0, rhs=math.inf, deficit=math.inf,
                            admissible_constant=0.0, inputs=inputs, degenerate=True,
                            notes=notes)


def _require_sobolev_dim(n: int, p: float = 2.0):
    if p == 2.0 and n < 3:
        raise PreconditionError("checkers need dimension N >= 3")
    if n <= p:
        raise PreconditionError(f"checkers need N > p (got N={n}, p={p})")


def _require_positive_lambda(lam: float):
    if lam <= 0:
        raise PreconditionError("lambda must be positive")


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def check_nonlocal_sobolev(u: ScalarField, delta: float, lam: float,
                           engine: EngineSpec) -> InequalityReport:
    """Restricted critical-exponent integral against a power of the
    nonlocal functional; the free constant is extracted per instance."""
    n = u.dim
    _require_sobolev_dim(n)
    _require_positive_lambda(lam)
    q = 2.0 * n / (n - 2.0)
    pw = n / (n - 2.0)
    inputs = _prov(u, delta, engine, llambda=lam)
    i_est = i_delta(u, KernelSpec(delta), engine)
    if i_est.diverged:
        return _vacuous("nonlocal_sobolev", inputs)
    lhs_est = restricted_power_integral(u, q, lam * delta)
    lhs = lhs_est.value
    amp = i_est.value ** pw
    if amp > 0:
        admissible = lhs / amp
    else:
        admissible = 0.0 if lhs <= 0 else math.inf
    builder = lambda c: c * amp
    sens = pw * i_est.value ** (pw - 1.0) if i_est.value > 0 else 0.0
    margin = 3.0 * math.hypot(lhs_est.stderr,
                              (admissible if math.isfinite(admissible) else 0.0)
                              * sens * i_est.stderr)
    return InequalityReport("nonlocal_sobolev", lhs=lhs,
                            admissible_constant=admissible, stat_margin=margin,
                            inputs=inputs, rhs_builder=builder,
                            degenerate=not math.isfinite(admissible))


def _log_sobolev(inequality_id: str, u, nonlocal_term: Callable[[], Estimate], beta: float,
                 norm_term: Callable[[float], float], inputs: dict,
                 diverged_note: str = _VACUOUS) -> InequalityReport:
    """ent + (N beta/4) log ||u||^2 against (N/2) log(C (norm_term(||u||^2)
    + nonlocal_term())) at the smallest admissible C."""
    n = u.dim
    _require_sobolev_dim(n)
    l2 = l2_norm_sq_estimate(u)
    ent = entropy_l2_estimate(u)
    nl_est = nonlocal_term()
    if nl_est.diverged:
        return _vacuous(inequality_id, inputs, diverged_note)
    m = l2.value
    mass_coef = n * beta / 4.0
    lhs = ent.value + mass_coef * math.log(m)
    denom = norm_term(m) + nl_est.value
    admissible = math.exp((2.0 / n) * lhs) / denom
    builder = lambda c: (n / 2.0) * math.log(c * denom)
    # first-order margin on the deficit at fixed constant
    s_lhs = math.hypot(ent.stderr, mass_coef * l2.stderr / max(m, 1e-300))
    s_rhs = (n / 2.0) * nl_est.stderr / max(denom, 1e-300)
    margin = 3.0 * math.hypot(s_lhs, s_rhs)
    return InequalityReport(inequality_id, lhs=lhs, admissible_constant=admissible,
                            stat_margin=margin, inputs=inputs, rhs_builder=builder)


def _delta_term(n: int, delta: float, m: float) -> float:
    return delta ** (4.0 / n) * m ** ((n - 2.0) / n)


def check_logsobolev_main(u: ScalarField, delta: float, engine: EngineSpec) -> InequalityReport:
    """Entropy bounded by (N/2) log of the nonlocal term plus a delta term."""
    return _log_sobolev("logsobolev_main", u, lambda: i_delta(u, KernelSpec(delta), engine),
                        2.0, lambda m: _delta_term(u.dim, delta, m), _prov(u, delta, engine))


def check_magnetic_lsi(u: ComplexField, A: VectorPotential, delta: float,
                       engine: EngineSpec) -> InequalityReport:
    """Magnetic variant: |u| in the entropy, covariant difference on the right."""
    return _log_sobolev("magnetic_lsi", u,
                        lambda: i_delta_magnetic_paired(u, A, KernelSpec(delta), engine)[0],
                        2.0, lambda m: _delta_term(u.dim, delta, m),
                        _prov(u.modulus, delta, engine, potential=A.to_dict()))


def check_envelope_lsi(u: ScalarField, envelope: MonotoneEnvelope,
                       engine: EngineSpec) -> InequalityReport:
    """Envelope-functional version with the ||u||^beta normalization."""
    envelope.validate()
    beta = envelope.beta
    return _log_sobolev("envelope_lsi", u, lambda: f_functional(u, envelope, 2.0, engine),
                        beta, lambda m: m ** (beta / 2.0),
                        _prov(u, None, engine, envelope=envelope.to_dict()),
                        diverged_note="envelope functional diverges")


def check_diamagnetic(u: ComplexField, A: VectorPotential, delta: float,
                      engine: EngineSpec) -> InequalityReport:
    """Paired common-random-number estimates; the ordering is sample-wise
    exact, so it is asserted with zero tolerance."""
    mag, base = i_delta_magnetic_paired(u, A, KernelSpec(delta), engine)
    inputs = _prov(u.modulus, delta, engine, potential=A.to_dict(),
                   phase=u.phase.to_dict())
    return InequalityReport("diamagnetic", lhs=base.value, rhs=mag.value,
                            deficit=mag.value - base.value, stat_margin=0.0,
                            inputs=inputs,
                            notes="paired ordering holds exactly by indicator inclusion")


def check_gauss_lsi(u: ScalarField) -> InequalityReport:
    lhs, rhs = gauss_lsi_sides(u)
    slack = 1e-7 * (1.0 + abs(lhs) + abs(rhs))
    return InequalityReport("gauss_lsi", lhs=lhs, rhs=rhs, deficit=rhs - lhs,
                            stat_margin=slack, inputs=_prov(u))


def check_euclidean_family(u: ScalarField, a: float) -> InequalityReport:
    """One-parameter Euclidean form; fully explicit, no free constant."""
    if a <= 0:
        raise PreconditionError("parameter a must be positive")
    n = u.dim
    l2 = l2_norm_sq_estimate(u)
    ent = entropy_l2_estimate(u)
    energy = dirichlet_energy_estimate(u).value
    lhs = l2.value * ent.value + n * (1.0 + math.log(a)) * l2.value
    rhs = (a * a / math.pi) * energy
    margin = 3.0 * math.hypot(l2.value * ent.stderr,
                              (ent.value + n * (1.0 + math.log(a))) * l2.stderr)
    margin = max(margin, 1e-9 * (1.0 + abs(lhs) + abs(rhs)))
    return InequalityReport("euclidean_family", lhs=lhs, rhs=rhs,
                            deficit=rhs - lhs, stat_margin=margin,
                            inputs=_prov(u, a=a))


def check_small_set_bound(u: ScalarField, delta: float, lam: float) -> InequalityReport:
    """Sublevel critical integral against (lam delta)^{4/(N-2)} after
    normalizing to unit L2 mass."""
    n = u.dim
    _require_sobolev_dim(n)
    q = 2.0 * n / (n - 2.0)
    l2 = l2_norm_sq_estimate(u)
    if l2.value <= 0:
        raise PreconditionError("zero field")
    v = u.amplify(1.0 / math.sqrt(l2.value))
    total = lp_power_integral(v, q)
    # the sublevel integral is the total minus the superlevel one
    above = restricted_power_integral(v, q, lam * delta)
    lhs = total.value - above.value
    rhs = (lam * delta) ** (4.0 / (n - 2.0))
    margin = max(3.0 * math.hypot(total.stderr, above.stderr), 1e-9 * (1.0 + abs(rhs)))
    return InequalityReport("small_set_bound", lhs=lhs, rhs=rhs,
                            deficit=rhs - lhs, stat_margin=margin,
                            inputs=_prov(u, delta, llambda=lam))


def jensen_gap(u: ScalarField) -> float:
    """log of the critical integral minus 2/(N-2) times the log-moment,
    for the unit-L2 normalization; nonnegative by Jensen."""
    return jensen_gap_p(u, 2.0)


def jensen_gap_p(u: ScalarField, p: float) -> float:
    """L^p variant of the Jensen gap, normalized to unit L^p mass."""
    n = u.dim
    if p <= 1:
        raise PreconditionError("p must be > 1")
    _require_sobolev_dim(n, p)
    mass = lp_power_integral(u, p)
    if mass.value <= 0:
        raise PreconditionError("zero field")
    v = u.amplify(mass.value ** (-1.0 / p))
    q = n * p / (n - p)
    crit = lp_power_integral(v, q)
    if crit.value <= 0:
        raise PreconditionError("critical integral vanished")
    return math.log(crit.value) - (p / (n - p)) * log_moment_lp_estimate(v, p).value


def check_jensen(u: ScalarField) -> InequalityReport:
    gap = jensen_gap(u)
    return InequalityReport("jensen", lhs=0.0, rhs=gap, deficit=gap,
                            stat_margin=1e-7 * (1.0 + abs(gap)), inputs=_prov(u))


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------

@dataclass
class FamilySweep:
    """Per-instance reports plus the family constant and held-out check."""

    inequality_id: str
    instances: List[tuple]            # (field_index, delta or None)
    reports: List[InequalityReport]
    train_idx: List[int]
    held_idx: List[int]
    family_constant: float
    held_ok: bool
    excluded: List[tuple]             # (instance index, reason)


def _euclidean_reports(u, ps) -> list:
    if any(a <= 0 for a in ps.a_values):  # before the volume, as check_euclidean_family does
        raise PreconditionError("parameter a must be positive")
    return [check_euclidean_family(u, a) for a in ps.a_values]


def _i_delta_request(u, d, ps):
    _require_sobolev_dim(u.dim)
    return i_delta_request(u, KernelSpec(d), ps.engine)


def _nonlocal_sobolev_request(u, d, ps):
    _require_positive_lambda(ps.lam)
    return _i_delta_request(u, d, ps)


def _envelope_request(u, d, ps):
    _require_sobolev_dim(u.dim)
    return "f_functional", (u, ps.envelope or MonotoneEnvelope.threshold(d), 2.0, ps.engine)


def _magnetic_request(u, d, ps):
    return "i_delta_magnetic_paired", (ComplexField(u, ps.phase), ps.potential, KernelSpec(d),
                                       ps.engine)


def _magnetic_lsi_request(u, d, ps):
    _require_sobolev_dim(u.dim)
    return _magnetic_request(u, d, ps)


# check -> (request, reports).  reports: (field, the CLI's built config or an
# object with the attributes the entry reads) -> the field's reports, one per
# delta (per a for euclidean_family).  request: (field, delta, that object) ->
# the (name, arguments) of the memoized pair call the reports make at that
# delta, or None for a check that makes none.  A request first tests what its
# checker tests before any estimate, so that a check that fails there runs no
# pass.  Entries look the checkers up at call time, so a rebinding of them
# reaches them.
REPORTS = {
    "logsobolev_main": (_i_delta_request, lambda u, ps: [
        check_logsobolev_main(u, d, ps.engine) for d in ps.deltas]),
    "nonlocal_sobolev": (_nonlocal_sobolev_request, lambda u, ps: [
        check_nonlocal_sobolev(u, d, ps.lam, ps.engine) for d in ps.deltas]),
    # a given envelope is one instance per field, else each delta's threshold
    "envelope_lsi": (_envelope_request, lambda u, ps: [
        check_envelope_lsi(u, env, ps.engine) for env in
        ([ps.envelope] if ps.envelope else [MonotoneEnvelope.threshold(d) for d in ps.deltas])]),
    "magnetic_lsi": (_magnetic_lsi_request, lambda u, ps: [
        check_magnetic_lsi(ComplexField(u, ps.phase), ps.potential, d, ps.engine)
        for d in ps.deltas]),
    "diamagnetic": (_magnetic_request, lambda u, ps: [
        check_diamagnetic(ComplexField(u, ps.phase), ps.potential, d, ps.engine)
        for d in ps.deltas]),
    "gauss_lsi": (None, lambda u, ps: [check_gauss_lsi(u)]),
    "euclidean_family": (None, _euclidean_reports),
    "small_set_bound": (None, lambda u, ps: [check_small_set_bound(u, d, ps.lam)
                                             for d in ps.deltas]),
    "jensen": (None, lambda u, ps: [check_jensen(u)]),
}
FREE_CONSTANT_CHECKS = ("logsobolev_main", "nonlocal_sobolev", "envelope_lsi")


def prefetch_reports(checks: Sequence[str], fields: Sequence[ScalarField], ps) -> None:
    """Compute in one Monte Carlo pass per engine the memoized pair
    estimates that the ``REPORTS`` entries of ``checks`` read on ``fields``
    (``functionals.prefetch_pairs``); the entries then read them."""
    prefetch_pairs(partial(REPORTS[c][0], u, d, ps)
                   for c in checks if REPORTS[c][0] for u in fields for d in ps.deltas)


def family_constant(reports: Sequence[InequalityReport]) -> Optional[float]:
    """The largest admissible constant over the non-degenerate reports
    with a free constant, or None if there are none."""
    return max((r.admissible_constant for r in reports
                if not r.degenerate and r.rhs_builder is not None), default=None)


def sweep_family(fields: Sequence[ScalarField], deltas: Sequence[float],
                 inequality_id: str, engine: EngineSpec, *, seed: int = 0,
                 lam: float = 1.0, envelope: Optional[MonotoneEnvelope] = None) -> FamilySweep:
    """Run one free-constant checker over its instances, one per field and
    delta, or one per field for envelope_lsi with a given ``envelope``; the
    family constant is the supremum of the per-instance admissible
    constants, re-validated end to end on a deterministic 20% held-out
    subset.

    The split is deterministic in ``seed``.  Diverged instances are
    excluded from the constant and reported.
    """
    if inequality_id not in FREE_CONSTANT_CHECKS:
        raise PreconditionError(f"{inequality_id!r} has no free constant to sweep")
    if not fields:
        raise PreconditionError("empty field family")
    ps = SimpleNamespace(deltas=deltas, engine=engine, lam=lam, envelope=envelope)
    prefetch_reports([inequality_id], fields, ps)
    per_field = [REPORTS[inequality_id][1](u, ps) for u in fields]
    labels = [None] if inequality_id == "envelope_lsi" and envelope else deltas
    instances = [(fi, d) for fi, rs in enumerate(per_field) for d, _ in zip(labels, rs)]
    reports = [r for rs in per_field for r in rs]
    excluded = [(i, r.notes or "degenerate") for i, r in enumerate(reports) if r.degenerate]
    usable = [i for i, r in enumerate(reports) if not r.degenerate]
    if not usable:
        raise PreconditionError("every instance was degenerate")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(usable))
    n_held = max(1, int(math.ceil(_HOLDOUT_FRACTION * len(usable)))) if len(usable) > 1 else 0
    held_idx = sorted(usable[perm[i]] for i in range(n_held))
    train_idx = sorted(set(usable) - set(held_idx))
    family = family_constant(reports)
    held_ok = all(reports[i].holds(family) for i in held_idx)
    return FamilySweep(inequality_id, instances, reports, train_idx, held_idx,
                       family, held_ok, excluded)

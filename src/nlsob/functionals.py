"""Evaluators for the nonlocal functionals, entropies and energies.

The pair functionals all share one dispatch: radial fields with a finite
Lipschitz bound go to the deterministic radial engine, everything else
to the stratified MC engine.  Fields with jump discontinuities (infinite
Lipschitz bound) are decided exactly from their jump spheres, see
``_jump_free_radius``: with J the largest jump, delta < J gives value inf,
method "exact", diverged=True without sampling; delta > J on disjoint or
nested spheres gives one exactly truncated MC run; anything else raises
UnsupportedOperationError.

Conventions: 0 * log 0 = 0 throughout; the Gauss measure is
exp(-pi |x|^2) dx, a probability measure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Union

import numpy as np

from . import quadrature as quad
from .errors import (
    DivergentIntegralError,
    PreconditionError,
    UnsupportedOperationError,
    ZeroFieldError,
)
from .fields import (
    ComplexField,
    ConstantField,
    ScalarField,
    VectorPotential,
    row_sq_norms,
)
from .quadrature import (
    Estimate,
    McSpec,
    MonotoneEnvelope,
    PairContext,
    RadialRequest,
    RadialSpec,
    ball_volume,
    mc_pair_integrate_many,
    radial_pair_integrate,
    sphere_surface,
)

__all__ = [
    "KernelSpec",
    "MonotoneEnvelope",
    "EnergyParams",
    "EngineSpec",
    "default_engine",
    "i_delta",
    "i_delta_p",
    "f_functional",
    "i_delta_magnetic",
    "i_delta_magnetic_paired",
    "prefetch_pairs",
    "l2_norm_sq",
    "l2_norm_sq_estimate",
    "dirichlet_energy",
    "dirichlet_energy_estimate",
    "entropy_l2",
    "entropy_l2_estimate",
    "ent_mu",
    "log_moment_lp",
    "log_moment_lp_estimate",
    "gauss_lsi_sides",
    "j_energy",
    "j_delta_energy",
    "lp_power_integral",
    "restricted_power_integral",
    "xlogx",
]


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """delta, kernel exponent p; no functional reads ``envelope``, kept as to_dict hashes it."""

    delta: float
    p: float = 2.0
    envelope: Optional[MonotoneEnvelope] = None

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise PreconditionError("delta must be positive and finite")
        if not 1 <= self.p < math.inf:
            raise PreconditionError("kernel exponent p must be finite and >= 1")

    def to_dict(self) -> dict:
        return {"delta": self.delta, "p": self.p,
                "envelope": self.envelope.to_dict() if self.envelope else None}


@dataclass(frozen=True)
class EnergyParams:
    omega: float = 0.0


@dataclass(frozen=True)
class EngineSpec:
    """Which pair engine to use and with what parameters.  ``mode`` "auto"
    sends radial fields with a finite Lipschitz bound to the radial engine,
    the rest to Monte Carlo; "mc" sends every field to Monte Carlo, the
    radial engine's cross-engine oracle."""

    mc: McSpec
    radial: RadialSpec = RadialSpec()
    mode: str = "auto"  # auto | mc

    def __post_init__(self):
        if self.mode not in ("auto", "mc"):
            raise PreconditionError(f"unknown engine mode {self.mode!r}")


def default_engine(seed: int, mode: str = "auto", **mc_overrides) -> EngineSpec:
    return EngineSpec(mc=McSpec(master_seed=seed, **mc_overrides), mode=mode)


_MEMO_SIZE = 1024  # entries of the process-wide memo; past it the oldest goes
_MEMO: dict = {}
_MEMOIZED: dict = {}  # memoized function's name -> (its key function, its route or None)


def _memo_key(name: str, *args, **kwargs) -> tuple:
    """The memo key of the call ``name(*args, **kwargs)``: the name, the
    field's class, its canonical descriptor ``json.dumps(to_dict(),
    sort_keys=True)`` and the rest that the key function returns."""
    u, rest = _MEMOIZED[name][0](*args, **kwargs)
    return (name, type(u), json.dumps(u.to_dict(), sort_keys=True), rest)


def _remember(key: tuple, value) -> None:
    if len(_MEMO) >= _MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    _MEMO[key] = value


def _memoized(key: Callable, routed: bool = False) -> Callable:
    """Decorator: ``fn(*args)`` made once per process for each key.

    ``key(*args)`` returns (field, rest); see ``_memo_key``.  A ``routed``
    fn is a pair functional's route, which takes its engine last: the
    call's value is ``_resolve`` of the route on that engine's McSpec.
    Sound by the reproducibility contract: volume quantities run on fixed
    nodes or the fixed ``quadrature._DEFAULT_VOLUME_SPEC`` stream, pair
    functionals on the engine's own seed, so equal keys give equal bits.
    A failure is not kept: every failing call raises anew.
    """
    def decorate(fn):
        _MEMOIZED[fn.__name__] = (key, fn if routed else None)

        @functools.wraps(fn)
        def memo(*args, **kwargs):
            k = _memo_key(fn.__name__, *args, **kwargs)
            if k not in _MEMO:
                value = fn(*args, **kwargs)
                _remember(k, _resolve([value], args[-1].mc)[0] if routed else value)
            return _MEMO[k]
        return memo
    return decorate


def xlogx(v: np.ndarray) -> np.ndarray:
    """t log t with the continuous extension 0 log 0 = 0."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)


# ---------------------------------------------------------------------------
# pair functional dispatch
# ---------------------------------------------------------------------------

def _envelope_tail_power(field: ScalarField, q: float, eps0: float) -> float:
    """Bound on the integral of |u|^q over {|x| > R(eps0)} via the envelope."""
    if eps0 <= 0:
        return 0.0
    ts = np.geomspace(eps0 * 1e-12, eps0, 160)
    vols = np.array([ball_volume(field.dim, field.decay_radius(float(t))) for t in ts])
    integrand = q * ts ** (q - 1.0) * vols
    return float(np.trapezoid(integrand, ts))


def _jump_free_radius(u: ScalarField, level: float, weight) -> Optional[float]:
    """Decide a pair functional of a field with jumps from its jump spheres.

    ``weight`` maps |u(x) - u(y)| to the numerator and vanishes on
    [0, level].  Pairs straddling a jump J at distance rho have
    |u(x) - u(y)| -> J, so a weight positive below J makes the integral
    infinite (int rho^{-p} d rho): None.  Otherwise returns rho0 > 0 below
    which pairs contribute exactly 0: rho0 is at most the smallest gap
    between spheres, so a closer pair crosses at most one and
    |u(x) - u(y)| <= J + L_s rho < level (L_s from ``u.jumps()``).
    Raises UnsupportedOperationError where neither holds provably.
    """
    spheres, lip_s = u.jumps()
    if not spheres:
        raise UnsupportedOperationError(f"{type(u).__name__} has no Lipschitz bound and no jumps")
    jump = max(abs(h) for _, _, h in spheres)
    if level < jump:
        mid = 0.5 * (level + jump)
        if float(weight(np.array([mid]))[0]) > 0.0:
            return None
        raise UnsupportedOperationError(
            f"the numerator vanishes at {mid}, below the jump {jump}: convergence is undecided")
    rho0 = (level - jump) / lip_s if lip_s > 0.0 else math.inf
    for (c1, r1, _), (c2, r2, _) in combinations(spheres, 2):
        d = math.dist(c1, c2)
        rho0 = min(rho0, max(d - r1 - r2, abs(r1 - r2) - d))  # > 0 iff disjoint or nested
    if rho0 <= 0.0:
        raise UnsupportedOperationError(
            f"threshold {level} equals the jump of a field whose jump-free part "
            "varies, or jump spheres cross or touch: convergence is undecided")
    return rho0


def _pair_route(u: ScalarField, p: float, envelope: MonotoneEnvelope, engine: EngineSpec):
    """The route of the integral of F(|u(x) - u(y)|) / |x - y|^{N+p} for a
    real field, F = ``envelope`` (``MonotoneEnvelope.threshold`` for the
    indicator functionals): an Estimate where no engine pass is needed (0
    in closed form, divergence at a jump), or the request of an engine
    pass, which ``_resolve`` runs: the radial engine's ``RadialRequest``,
    whose preconditions are checked and scalar geometry derived here, or
    the MC engine's context."""
    dim = u.dim
    lip = u.lipschitz_bound
    zero_below = envelope.zero_below

    # exact shortcuts: a constant field has |u(x)-u(y)| = 0, and if the
    # oscillation 2 sup|u| cannot exceed the threshold the set is empty
    if lip == 0.0 or (zero_below > 0 and zero_below >= 2.0 * u.sup_bound):
        return Estimate(0.0, 0.0, 0, 0.0, "closed_form")

    prof = u.radial_profile()
    if engine.mode != "mc" and prof is not None and math.isfinite(lip):
        q_mass = 0.0 if zero_below > 0 else lp_power_integral(u, envelope.small_t_power).value
        return RadialRequest(prof, p, envelope, engine.radial, dim, q_mass, field=u)

    # Monte Carlo path
    np_exp = -(dim + p)

    if not math.isfinite(lip):
        rho0 = _jump_free_radius(u, zero_below, envelope)
        if rho0 is None:
            return Estimate(math.inf, method="exact", diverged=True)

    def integrand(x, y, rho, vx, vy):
        return envelope(np.abs(vy - vx)) * rho ** np_exp

    if zero_below > 0:
        x_radius = u.decay_radius(zero_below / 2.0)
        extra_tail = 0.0
        # exact: pairs closer than rho0 (inf for one sphere with L_s = 0) add 0
        cutoff = zero_below / lip if math.isfinite(lip) else rho0
        h_tail_scale = envelope.sup_value
    else:
        # lip is finite: without a zero region the weight is positive below
        # every jump, so a field with jumps was decided above
        sup = u.sup_bound
        eps_x = 1e-5 * max(sup, 1e-12)
        x_radius = u.decay_radius(eps_x)
        q = envelope.small_t_power
        # |h|-tail: F(|du|) <= F(2 sup |u|) out there
        h_tail_scale = float(np.asarray(envelope(np.array([2.0 * sup]))).ravel()[0])
        cutoff = 1e-4 * max(x_radius, 1e-6)
        # excluded inner region, bounded through the L2 modulus of continuity
        energy = dirichlet_energy(u)
        inner_excl = (lip ** (q - 2.0) * energy * sphere_surface(dim)
                      * cutoff ** (q - p) / (q - p))
        outer_x = (2.0 ** q * _envelope_tail_power(u, q, eps_x)
                   * sphere_surface(dim) * cutoff ** (-p) / p)
        extra_tail = inner_excl + outer_x

    # on the half-domain |u(y)| <= |u(x)|, |u(x) - u(y)| <= 2 |u(x)| (also in
    # floating point), so samples with |u(x)| <= zero_below / 2 add exactly 0
    return PairContext(dim, x_radius, p, h_tail_scale, (integrand,),
                       inner_cutoff=cutoff, symmetric=True, values=u.evaluate,
                       extra_tail=extra_tail,
                       zero_floor=zero_below / 2.0 if zero_below > 0 else None)


def _pass_key(route):
    """The engine pass a route joins: MC contexts of one dimension, radial
    requests of one field object, kernel p, RadialSpec and dimension; None
    for a value."""
    if isinstance(route, PairContext):
        return PairContext, route.dim
    if isinstance(route, RadialRequest):
        return RadialRequest, id(route.field), route.kernel_p, route.spec, route.dim
    return None


def _resolve(routes: list, spec: McSpec) -> list:
    """The values of ``routes``, in order: an Estimate, or a pair of them,
    as it is, and each request from one run of its pass per ``_pass_key``:
    the MC contexts on ``spec``, one estimate per integrand or a tuple of
    them for a context of several, and the radial requests of one field in
    one ``radial_pair_integrate``.  A lone memo miss is a batch of one."""
    passes = {}
    for r in routes:
        passes.setdefault(_pass_key(r), []).append(r)
    values = {}
    for key, group in passes.items():
        if key is None:
            continue
        if key[0] is RadialRequest:
            values.update(zip(map(id, group), radial_pair_integrate(group)))
            continue
        ests = iter(mc_pair_integrate_many(group, spec))
        for ctx in group:
            parts = tuple(next(ests) for _ in ctx.integrands)
            values[id(ctx)] = parts if len(parts) > 1 else parts[0]
    return [values.get(id(r), r) for r in routes]


@_memoized(lambda u, envelope, p, engine: (u, (envelope, p, engine)), routed=True)
def f_functional(u: ScalarField, envelope: MonotoneEnvelope, p: float,
                 engine: EngineSpec) -> Estimate:
    """Envelope functional: integral of F(|u(x)-u(y)|) / |x-y|^{N+p}."""
    if envelope.zero_below == 0.0 and envelope.small_t_power <= p:
        raise PreconditionError("envelope must vanish faster than t^p near 0 for integrability")
    return _pair_route(u, p, envelope, engine)


def i_delta_request(u: ScalarField, k: KernelSpec, engine: EngineSpec) -> tuple:
    """The ``prefetch_pairs`` request of ``i_delta_p(u, k, engine)``: the
    (name, arguments) of its ``f_functional`` call of the threshold envelope."""
    return "f_functional", (u, MonotoneEnvelope.threshold(k.delta, k.p), k.p, engine)


def i_delta_p(u: ScalarField, k: KernelSpec, engine: EngineSpec) -> Estimate:
    """General-p variant: kernel delta^p / |x-y|^{N+p} on {|u(x)-u(y)| > delta}."""
    return f_functional(*i_delta_request(u, k, engine)[1])


def i_delta(u: ScalarField, k: KernelSpec, engine: EngineSpec) -> Estimate:
    """The nonlocal functional with kernel delta^2 / |x-y|^{N+2}: ``i_delta_p``
    at p = 2, the same memo entry."""
    if k.p != 2.0:
        raise PreconditionError("i_delta is the p = 2 kernel; use i_delta_p")
    return i_delta_p(u, k, engine)


# ---------------------------------------------------------------------------
# magnetic functional
# ---------------------------------------------------------------------------

def i_delta_magnetic(u: ComplexField, A: VectorPotential, k: KernelSpec,
                     engine: EngineSpec) -> Estimate:
    """Magnetic variant built from the covariant difference
    exp(i (x-y) . A((x+y)/2)) u(y) - u(x)."""
    return i_delta_magnetic_paired(u, A, k, engine)[0]


@_memoized(lambda u, A, k, engine: (
    u, (type(A), json.dumps(A.to_dict(), sort_keys=True), k.delta, k.p, engine)), routed=True)
def i_delta_magnetic_paired(u: ComplexField, A: VectorPotential, k: KernelSpec,
                            engine: EngineSpec):
    """(magnetic estimate, estimate for |u|) on one shared sample stream;
    (0, 0) in closed form where delta is past the oscillation of |u|.

    The pointwise bound ||u(x)| - |u(y)|| <= |Psi(x,x) - Psi(x,y)| makes
    the indicator inclusion hold sample by sample, so the returned pair
    is ordered with zero tolerance.
    """
    if k.p != 2.0:
        raise PreconditionError("the magnetic functional uses the p = 2 kernel")
    mod = u.modulus
    if k.delta >= 2.0 * mod.sup_bound:
        z = Estimate(0.0, 0.0, 0, 0.0, "closed_form")
        return z, z
    if not math.isfinite(mod.lipschitz_bound):
        raise PreconditionError("magnetic functional needs a Lipschitz modulus")
    dim, delta = u.dim, k.delta
    env = MonotoneEnvelope.threshold(delta)
    rx = engine.mc.x_radius if engine.mc.x_radius is not None else mod.decay_radius(delta / 2.0)
    floor = 0.5 * delta * (1.0 - 1e-12)  # margin: |Psi| can round above |u(x)| + |u(y)|

    def mag_integrand(x, y, rho, mx, my):
        out = np.zeros(len(rho))  # 0 where |u(x)| + |u(y)| >= |Psi(x,y) - u(x)| is <= 2 floor
        hot = np.flatnonzero(np.abs(mx) + np.abs(my) > 2.0 * floor)
        x, y, mx, my = x.take(hot, axis=0), y.take(hot, axis=0), mx[hot], my[hot]
        phi = np.einsum("ij,ij->i", x - y, A.evaluate(0.5 * (x + y)))
        # u = |u| exp(i phase), rebuilt from the modulus as ComplexField.evaluate does
        uy = my * np.exp(1j * u.phase(y))
        ux = mx * np.exp(1j * u.phase(x))
        dpsi = np.abs(np.exp(1j * phi) * uy - ux)
        out[hot] = env(dpsi) * rho[hot] ** (-(dim + 2.0))
        return out

    def mod_integrand(x, y, rho, mx, my):
        return env(np.abs(np.abs(my) - np.abs(mx))) * rho ** (-(dim + 2.0))

    # |Psi(x,y) - Psi(x,x)| <= slope(c) |x - y| for x within rx and pairs closer than c
    # (|wave| bounds the phase's gradient): the largest c with c slope(c) <= delta
    slope = lambda c: (mod.lipschitz_bound + mod.sup_bound
                       * (A.local_bound(rx + 0.5 * c) + math.hypot(*u.phase.wave)))
    lo, hi = 0.0, (delta / slope(0.0) if slope(0.0) > 0 else 0.0)
    for _ in range(32):  # bisection (slope grows with c), to 2^-32 of the first bracket
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * slope(mid) <= delta else (lo, mid)
    return PairContext(dim, rx, 2.0, env.sup_value,
                       (mag_integrand, mod_integrand), inner_cutoff=lo, symmetric=True,
                       values=mod.evaluate, zero_floor=floor)


# ---------------------------------------------------------------------------
# one engine pass for the pair estimates of a command
# ---------------------------------------------------------------------------

def prefetch_pairs(requests: Iterable[Callable[[], tuple]]) -> None:
    """Compute together the pair estimates that memoized calls will read.

    Each request, called, gives the (name, arguments) of one call of
    ``f_functional`` or ``i_delta_magnetic_paired``; a name of no memoized
    pair functional raises ValueError.  The routes of the requests not
    kept already are resolved together, by ``_resolve``: those that reach
    the MC engine in one engine pass per (McSpec, dimension), whose
    contexts share their streams, the radial requests in one radial pass
    per (field object, kernel p, RadialSpec, dimension), such as all the
    thresholds of one field's delta sweep, and the others (closed form,
    divergence at a jump) as they are.  Each call's value is kept under
    that call's memo key, so the call reads it, and equals that of the
    call alone, bit for bit.  A request that raises, such as a radial
    threshold that fails its own preconditions, or a pass that raises, is
    left to its own call.
    """
    groups = {}
    for request in requests:
        try:
            name, args = request()
        except Exception:  # noqa: BLE001 - the call raises it again
            continue
        if _MEMOIZED.get(name, (None, None))[1] is None:
            raise ValueError(f"request {name!r} names no memoized pair functional")
        try:
            key = _memo_key(name, *args)
            if key not in _MEMO:
                route = _MEMOIZED[name][1](*args)
                engine = args[-1]  # every pair functional takes its engine last
                groups.setdefault((engine.mc, _pass_key(route)), {})[key] = route
        except Exception:  # noqa: BLE001 - the call raises it again
            continue
    for (spec, _), members in groups.items():
        try:
            values = _resolve(list(members.values()), spec)
        except Exception:  # noqa: BLE001 - each call meets its own failure
            continue
        for key, value in zip(members, values):
            _remember(key, value)


# ---------------------------------------------------------------------------
# volume quantities: L2 mass, Dirichlet energy, Lp, log-moments, entropy
# ---------------------------------------------------------------------------

def _real_part(u: Union[ScalarField, ComplexField]) -> ScalarField:
    return u.modulus if isinstance(u, ComplexField) else u


def _closed_form_or_quadrature(closed_form: Callable[[], Optional[float]],
                               quadrature: Callable[[], Estimate]) -> Estimate:
    """The one rule of every volume quantity: the field's closed form, or
    the divergence it raises, where there is one; the quadrature otherwise.
    Tests reach the quadrature itself through
    ``quadrature.lebesgue_volume_integral`` and ``dirichlet_quadrature``."""
    val = closed_form()
    return quadrature() if val is None else Estimate(val, method="closed_form")


@_memoized(lambda u, q: (u, q))
def lp_power_integral(u: ScalarField, q: float) -> Estimate:
    """Integral of |u|^q over R^N."""
    return _closed_form_or_quadrature(
        lambda: u.lp_power_closed_form(q),
        lambda: quad.lebesgue_volume_integral(u, (lambda v: np.abs(v) ** q,), q)[0])


@_memoized(lambda u, q, level: (u, (q, level)))
def restricted_power_integral(u: ScalarField, q: float, level: float) -> Estimate:
    """Integral of |u|^q over the superlevel set {|u| > level}."""
    if level <= 0:
        raise PreconditionError("level must be positive")
    if level >= u.sup_bound:
        return Estimate(0.0, method="closed_form")
    prof = u.radial_profile()
    if prof is not None:
        r_hi = prof.decay_radius(level)  # superlevel set sits inside this radius
        g, dg = prof.g, prof.dg
        absg = lambda r: np.abs(g(np.asarray(r, dtype=float)))
        absdg = None if dg is None else (lambda r: np.sign(g(r)) * dg(r))
        xs = np.linspace(0.0, max(r_hi, 1e-12), 2048)
        total = 0.0
        for _, e1, e2 in zip(*quad._excess_intervals(absg, absdg, np.zeros(1), level, xs,
                                                     absg(xs))):
            nodes, w = quad.panel_nodes(
                quad.uniform_panels(e1, e2, 24, splits=prof.knots), 8)
            total += float(np.sum(w * np.abs(g(nodes)) ** q * nodes ** (u.dim - 1)))
        return Estimate(sphere_surface(u.dim) * total, method="radial")
    def fn(v):
        a = np.abs(v)
        return np.where(a > level, a ** q, 0.0)

    return quad.volume_integrate((fn,), u, u.evaluate)[0]


@_memoized(lambda u, p: (_real_part(u), p))
def log_moment_lp_estimate(u: Union[ScalarField, ComplexField], p: float) -> Estimate:
    """Integral of |u|^p log |u|^p, with 0 log 0 = 0."""
    f = _real_part(u)
    return _closed_form_or_quadrature(
        lambda: f.log_moment_closed_form(p),
        lambda: quad.lebesgue_volume_integral(f, (lambda v: xlogx(np.abs(v) ** p),), p)[0])


def log_moment_lp(u, p: float) -> float:
    return log_moment_lp_estimate(u, p).value


@_memoized(lambda u: (_real_part(u), None))
def l2_norm_sq_estimate(u: Union[ScalarField, ComplexField]) -> Estimate:
    """Integral of |u|^2 over R^N."""
    f = _real_part(u)
    return _closed_form_or_quadrature(
        f.l2_norm_sq_closed_form,
        lambda: quad.lebesgue_volume_integral(f, (lambda v: v * v,), 2.0)[0])


def l2_norm_sq(u) -> float:
    return l2_norm_sq_estimate(u).value


@_memoized(lambda u: (u, None))
def dirichlet_energy_estimate(u: ScalarField) -> Estimate:
    """Integral of |grad u|^2 over R^N."""
    if not u.differentiable:
        raise UnsupportedOperationError("Dirichlet energy is infinite for jump fields")
    return _closed_form_or_quadrature(u.dirichlet_closed_form,
                                      lambda: quad.dirichlet_quadrature(u))


def dirichlet_energy(u: ScalarField) -> float:
    return dirichlet_energy_estimate(u).value


@_memoized(lambda u: (_real_part(u), None))
def entropy_l2_estimate(u: Union[ScalarField, ComplexField]) -> Estimate:
    """Entropy of the normalized density u^2 / ||u||^2 (scale invariant)."""
    f = _real_part(u)
    m = l2_norm_sq_estimate(f).value
    if m <= 0.0:
        raise ZeroFieldError("entropy undefined for the zero field")
    return _closed_form_or_quadrature(
        f.entropy_l2_closed_form,
        lambda: quad.lebesgue_volume_integral(f, (lambda v: xlogx(v * v / m),), 2.0)[0])


def entropy_l2(u) -> float:
    return entropy_l2_estimate(u).value


def ent_mu(f: Union[ScalarField, float], mu: str = "lebesgue", *,
           square: bool = False, dim: Optional[int] = None) -> float:
    """Normalized f log f integral plus (N/2) log of the total mass.

    ``mu`` is 'lebesgue' or 'gauss' (the probability e^{-pi|x|^2} dx).
    With ``square=True`` the argument field enters as f = u^2.
    """
    if mu not in ("lebesgue", "gauss"):
        raise PreconditionError("mu must be 'lebesgue' or 'gauss'")
    if isinstance(f, (int, float)):
        if dim is None:
            raise PreconditionError("dim required for a bare constant")
        f = ConstantField(dim, float(f))
    n = f.dim
    if mu == "lebesgue" and square:
        return entropy_l2(f) + (n / 2.0) * math.log(l2_norm_sq(f))
    if mu == "lebesgue":
        # a field without decay, such as a nonzero constant, has infinite
        # mass: the volume integrals below raise DivergentIntegralError
        base = _real_part(f)
        mass, flogf = (e.value for e in quad.lebesgue_volume_integral(
            base, (lambda v: v, xlogx), 1.0))
    else:
        vals = lambda pts: (f.evaluate(pts) ** 2 if square else f.evaluate(pts))
        mass, flogf = _gauss_expectation(f, (lambda v: v, xlogx), values=vals)
    if mass <= 0:
        raise ZeroFieldError("||f||_{1,mu} must be positive")
    # int (f/m) log(f/m) = int f log f / m - log m
    return flogf / mass - math.log(mass) + (n / 2.0) * math.log(mass)


# ---------------------------------------------------------------------------
# Gauss-measure quantities
# ---------------------------------------------------------------------------

_GAUSS_MC_SPEC = McSpec(master_seed=271828182, n_samples=384000, chunk_size=4800)


def _gauss_expectation(field, fns: tuple, values) -> list:
    """Integrals of fn(values(x)) against the probability measure
    e^{-pi |x|^2} dx, one per fn, all on the same nodes or the same Monte
    Carlo samples."""
    # each fn reads (values, Gauss weight), both computed once per node set
    weighted = tuple(lambda vw, f=f: f(vw[0]) * vw[1] for f in fns)
    n = field.dim
    prof = field.radial_profile()
    if prof is not None and not np.any(field.center):
        r_max = 6.0
        try:
            r_max = max(r_max, field.decay_radius(1e-9 * max(field.sup_bound, 1.0)))
        except (UnsupportedOperationError, OverflowError):
            pass
        e1 = np.eye(n)[0]
        return quad.radial_volume_value(
            weighted, n, r_max, knots=prof.knots, n_panels=96,
            values=lambda r: (values(r[:, None] * e1[None, :]), np.exp(-math.pi * r * r)))
    # the proposal is the Gauss measure itself: a centred normal of
    # variance 1 / (2 pi) per coordinate
    return [e.value for e in quad.mc_volume_value(
        weighted, n, [(np.zeros(n), 1.0 / math.sqrt(2.0 * math.pi))], _GAUSS_MC_SPEC,
        lambda pts: (values(pts), np.exp(-math.pi * row_sq_norms(pts))))]


def gauss_lsi_sides(u: ScalarField) -> tuple:
    """(lhs, rhs) of the Gauss-measure logarithmic Sobolev inequality,
    with lhs = int u^2 log(u^2 / m0) dG = int u^2 log u^2 dG - m0 log m0,
    m0 = ||u||^2_G, and rhs = (1/pi) int |grad u|^2 dG, all three integrals
    on one set of samples."""
    if not u.differentiable:
        raise UnsupportedOperationError("both sides need a differentiable field")
    sides = u.gauss_lsi_closed_form()
    if sides is not None:
        return sides
    m0, ulogu, grad = _gauss_expectation(
        u, (lambda v: v[0], lambda v: xlogx(v[0]), lambda v: row_sq_norms(v[1])),
        values=lambda pts: (u.evaluate(pts) ** 2, u.gradient(pts)))
    if m0 <= 0:
        raise ZeroFieldError("zero field")
    return ulogu - m0 * math.log(m0), grad / math.pi


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def j_energy(u: ScalarField, params: EnergyParams) -> float:
    """(1/2) |grad u|^2_2 + ((omega+1)/2) ||u||_2^2 - (1/2) int u^2 log u^2."""
    return (0.5 * dirichlet_energy(u) + 0.5 * (params.omega + 1.0) * l2_norm_sq(u)
            - 0.5 * log_moment_lp(u, 2.0))


def j_delta_energy(u: ScalarField, params: EnergyParams, k: KernelSpec,
                   engine: EngineSpec) -> float:
    """Nonlocal energy: i_delta replaces the Dirichlet term (no 1/2 factor).
    The volume terms are read only once i_delta is finite."""
    i = i_delta(u, k, engine)
    if i.diverged:
        raise DivergentIntegralError("nonlocal term diverges for this field")
    return i.value + 0.5 * (params.omega + 1.0) * l2_norm_sq(u) - 0.5 * log_moment_lp(u, 2.0)

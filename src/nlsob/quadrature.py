"""Integration engines for singular pair integrals and volume integrals.

Two pair engines share one Estimate type:

* ``mc_pair_integrate_many``: stratified importance-sampling Monte Carlo.
  The outer point x is drawn uniformly from a ball about the origin sized
  by the field's decay envelope; the offset h = y - x is drawn
  log-uniformly in radius (density proportional to ``|h|^-N``) inside
  radial strata, matching the kernel's scale invariance.  Randomness is
  keyed per (master_seed, chunk, stratum): the stream of
  ``SeedSequence([master_seed, c, k])`` ->
  PCG64, whose states ``_pcg64_states`` derives itself (NEP 19 fixes them
  across numpy versions; ``test_stream_states_match_default_rng`` checks
  them).  One pass takes several contexts of one dimension, such as the
  pair estimates of one command: each chunk draws the union of their
  strata once and computes the radii and unit directions once, and each
  context evaluates its field once at its x and once at its y.  Partial
  sums are reduced stratum by stratum, then chunk by chunk, in ascending
  order.  Chunks run serially, so a result is bit-identical for a given
  McSpec, whichever contexts share its pass, also where it skips work
  adding 0: strata below a valid cutoff, y sides below
  ``PairContext.zero_floor``, integrands where the symmetric weight is 0.

* ``radial_pair_integrate``: deterministic quadrature for radial fields.
  The pair integral reduces to (r, s, theta) with surface factor
  ``|S^{N-1}| |S^{N-2}| r^{N-1} s^{N-1} sin(theta)^{N-2}``; the theta
  integral is evaluated via the substitution t = |x-y|^2, which turns it
  into a 1D integral on [(r-s)^2, (r+s)^2].  At N = 3, and wherever
  (N+p)/2 is an integer of at least N-1, that integral has a closed form;
  other N use a rule graded in log t, which resolves each pair's
  near-diagonal layer.  All three radial paths (monotone indicator,
  generic indicator carving, smooth envelope) lay out one row of s-panels
  per r-node, or per (r-node, admissible s-interval), and integrate all
  rows in one array pass, on one graded s-template built once per grid
  size and mapped onto each row; a smooth envelope's row maps it onto
  both sides of its r-node, [0, r] and [r, s_max].  The indicator paths
  cut the s-sets at level crossings.  A decreasing profile with a closed-form
  inverse (``RadialProfile1D.level_radius``: Gaussians, smooth bumps)
  gives each crossing directly; every other crossing is bracketed on a
  probe grid and solved by one safeguarded Newton, started on a
  decreasing profile at the secant point of its grid cell.  With a step
  envelope (``MonotoneEnvelope.step``) the carved rows of a decreasing
  profile integrate the kernel alone: their s-nodes all lie past the
  crossing, so neither the profile nor the envelope is evaluated there.
  At N = 3 those rows are exact in s: each row's s-integral of the
  kernel is elementary, so they take no s-nodes and run no theta-kernel.

Both report rigorous tail bounds for the truncated regions where the
field metadata permits one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DivergentIntegralError, PreconditionError
from .fields import RadialProfile1D, ball_volume, row_sq_norms, sorted_unique

__all__ = [
    "Estimate",
    "McSpec",
    "RadialSpec",
    "MonotoneEnvelope",
    "PairContext",
    "mc_pair_integrate_many",
    "radial_pair_integrate",
    "volume_integrate",
    "ball_volume",
    "sphere_surface",
]


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# result type and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A numerical value with error accounting.

    stderr is 0 for deterministic engines; ``tail_bound`` bounds the mass
    lost to domain truncation; ``discrepancy`` is the grid-refinement
    difference reported by the deterministic engine.
    """

    value: float
    stderr: float = 0.0
    n_effective: int = 0
    tail_bound: float = 0.0
    method: str = "closed_form"
    diverged: bool = False
    discrepancy: float = 0.0


def _require_counts(spec, names):
    for name in names:
        v = getattr(spec, name)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise PreconditionError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo sampling plan.

    ``chunk_size`` must divide ``n_samples`` and be divisible by
    ``radial_strata`` so per-stratum allocation is identical in every
    chunk.
    ``h_max`` and ``x_radius``, normally derived from field metadata,
    can be pinned explicitly for common-random-number pairing.
    """

    master_seed: int
    n_samples: int = 192000
    chunk_size: int = 4800
    outer_radius_eps: float = 1e-5
    radial_strata: int = 24
    h_max: Optional[float] = None
    x_radius: Optional[float] = None

    def __post_init__(self):
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise PreconditionError("master_seed must be a nonnegative integer")
        _require_counts(self, ("n_samples", "chunk_size", "radial_strata"))
        if self.n_samples < self.chunk_size:
            raise PreconditionError("n_samples must be >= chunk_size")
        if self.n_samples % self.chunk_size != 0:
            raise PreconditionError("chunk_size must divide n_samples")
        if self.chunk_size % self.radial_strata != 0:
            raise PreconditionError("radial_strata must divide chunk_size")
        if not 0 < self.outer_radius_eps < math.inf:
            raise PreconditionError("outer_radius_eps must be positive and finite")
        for name in ("h_max", "x_radius"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise PreconditionError(f"{name} must be positive and finite, got {v!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RadialSpec:
    """Grid sizes for the reduced (r, s, theta) quadrature.  At N = 3 the
    carved rows of a step on a decreasing profile are exact in s: they read
    no ``n_s``, and their discrepancy is the r-rule's alone."""

    n_r: int = 48
    n_s: int = 30
    n_theta: int = 96
    r_max: float = 0.0  # 0 -> derived from the field's decay envelope

    def __post_init__(self):
        _require_counts(self, ("n_r", "n_s", "n_theta"))
        if not 0 <= self.r_max < math.inf:
            raise PreconditionError("r_max must be finite and >= 0 (0: derived)")

    def to_dict(self) -> dict:
        return asdict(self)


def _int_pow(x: float, p: float) -> float:
    """x**p by repeated multiplication for small integer p.

    Keeps exact power-of-two scaling relations, which the amplitude-law
    common-random-number identities rely on.
    """
    if float(p).is_integer() and 1 <= p <= 8:
        out = 1.0
        for _ in range(int(p)):
            out *= x
        return out
    return x ** p


# the grid end and the tolerance of MonotoneEnvelope.validate
_VALIDATE_T_MAX = 4.0
_VALIDATE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MonotoneEnvelope:
    """Non-decreasing envelope F with sub-homogeneity F(t s) <= t^beta F(s):
    the numerator F(|u(x) - u(y)|) that both pair engines read.

    ``envelope(t)`` is F(t).  ``power_law(q)`` and ``threshold(delta, p)``
    (delta^p 1{t > delta}, the numerator of I_delta, its general-p variant
    and the magnetic functional) keep ``fn`` None and compute F from their
    fields, so envelopes are values and ``f_functional`` memoizes by them;
    an ``fn`` compares by identity, whatever its own ``==`` says.
    ``small_t_power`` is the q with F(t) = O(t^q) near 0.  ``zero_below``
    marks an exact zero region F = 0 on [0, zero_below].  Where it is
    positive, the radial engine carves the admissible s-sets at level
    crossings, the MC engine draws no pair closer than zero_below / L, and
    both scale their outer tail bounds by ``sup_value``, the sup of F;
    where it is 0, both bound what they truncate through |u|^q, and the
    radial engine maps the graded s-template onto one row per r-node.
    ``step``, set by ``threshold`` alone, is the promise
    F = sup_value * 1{t > zero_below}: the radial engine's rows carved from
    a decreasing profile integrate the kernel alone, times sup_value.
    ``to_dict`` leaves ``step`` out, so the descriptor hashes do not see it.
    An envelope built from an ``fn`` is validated when it is built;
    ``power_law`` and ``threshold`` are valid by their parameter checks.
    """

    fn: Optional[Callable[[np.ndarray], np.ndarray]]
    beta: float
    name: str
    small_t_power: float
    zero_below: float = 0.0
    sup_value: float = math.inf
    step: bool = False

    def __post_init__(self):
        if self.fn is not None:
            self.validate()

    def _key(self) -> tuple:
        # id(fn) is taken now, while both sides hold their fn: equal ids are one object
        return (id(self.fn), self.beta, self.name, self.small_t_power, self.zero_below,
                self.sup_value, self.step)

    def __eq__(self, other):
        return type(other) is MonotoneEnvelope and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def power_law(q: float) -> "MonotoneEnvelope":
        if not 1 <= q < math.inf:
            raise PreconditionError("power-law envelope needs a finite q >= 1")
        return MonotoneEnvelope(fn=None, beta=q, name=f"power:{q}", small_t_power=q)

    @staticmethod
    def threshold(delta: float, p: float = 2.0) -> "MonotoneEnvelope":
        if not 0 < delta < math.inf:
            raise PreconditionError("threshold envelope needs a positive finite delta")
        if not 1 <= p < math.inf:
            raise PreconditionError("threshold envelope needs a finite p >= 1")
        return MonotoneEnvelope(fn=None, beta=p, name=f"threshold:{delta}", small_t_power=p,
                                zero_below=delta, sup_value=_int_pow(delta, p), step=True)

    def __call__(self, t) -> np.ndarray:
        if self.fn is not None:
            return self.fn(t)
        t = np.asarray(t, dtype=float)
        return np.where(t > self.zero_below, self.sup_value, 0.0) if self.step else t ** self.beta

    def validate(self) -> None:
        """Monotonicity plus, where ``zero_below`` is 0, sub-homogeneity on a
        50x50 grid over [0, _VALIDATE_T_MAX].

        An F that is 0 on [0, zero_below] and positive somewhere is never
        sub-homogeneous (F(s) = 0 < F(t s) for s = zero_below and some
        t > 1); its engines bound their tails by ``sup_value`` instead.
        The sub-homogeneity tolerance is relative to the right side, so
        rounding in large values of F does not count as a violation.
        """
        ts = np.linspace(0.0, _VALIDATE_T_MAX, 50)
        vals = self(ts)
        if np.any(vals < -_VALIDATE_TOL):
            raise PreconditionError(f"envelope {self.name} takes negative values")
        if np.any(np.diff(vals) < -_VALIDATE_TOL):
            raise PreconditionError(f"envelope {self.name} is not non-decreasing")
        if not self.zero_below:
            t, s = ts[:, None], ts[None, :]
            lhs = self(t * s)
            rhs = t ** self.beta * self(np.broadcast_to(s, lhs.shape))
            if np.any(lhs > rhs + _VALIDATE_TOL * np.maximum(np.abs(rhs), 1.0)):
                raise PreconditionError(
                    f"envelope {self.name} violates sub-homogeneity with beta={self.beta}")

    def to_dict(self) -> dict:
        return {"name": self.name, "beta": self.beta,
                "small_t_power": self.small_t_power, "zero_below": self.zero_below}


# ---------------------------------------------------------------------------
# small deterministic quadrature helpers
# ---------------------------------------------------------------------------

# the lower halves of the Gauss-Legendre rules the engines use, nodes then
# weights, bit for bit as numpy.polynomial.legendre.leggauss gives them (its
# rules are exactly symmetric); they spare a study that module's import
_GL_HALVES = {
    4: ("-0x1.b8e6dbcf63985p-1 -0x1.5c23fd9dd3dfcp-2",
        "0x1.64340f7e7b666p-2 0x1.4de5f840c24cdp-1"),
    6: ("-0x1.dd6ca4e80a01dp-1 -0x1.528a09655c95ep-1 -0x1.e8b12d03675c5p-3",
        "0x1.5edf601e2dbf5p-3 0x1.716b7b5794c1ep-2 0x1.df24d499545e8p-2"),
    8: ("-0x1.ebab1cb0acc66p-1 -0x1.97e4ab249f41ep-1 -0x1.0d129583284b4p-1 "
        "-0x1.77ac94f3c7344p-3",
        "0x1.9ea1d04ca03aep-4 0x1.c76fb531d2b94p-3 0x1.413c50a25560ep-2 "
        "0x1.736360b19933dp-2"),
}


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    if order in _GL_HALVES:
        x, w = (np.array([float.fromhex(v) for v in half.split()])
                for half in _GL_HALVES[order])
        x, w = np.concatenate([x, -x[::-1]]), np.concatenate([w, w[::-1]])
    else:
        x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


def panel_nodes(panels: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on a union of panels given by breakpoints.

    A 2-D ``panels`` holds one breakpoint row per union and gives one row
    of nodes/weights each.
    """
    xi, wi = _gl_rule(order)
    a = panels[..., :-1, None]
    width = np.diff(panels, axis=-1)[..., None]
    shape = panels.shape[:-1] + (-1,)
    return (a + width * xi).reshape(shape), (width * wi).reshape(shape)


def uniform_panels(a: float, b: float, n: int, splits: Sequence[float] = ()) -> np.ndarray:
    """``n`` equal panels on [a, b], split at the ``splits`` strictly inside."""
    inner = np.asarray([k for k in splits if a < k < b], dtype=float)
    return sorted_unique(np.concatenate([np.linspace(a, b, n + 1), inner]))


# ---------------------------------------------------------------------------
# chunked Monte Carlo scaffolding
# ---------------------------------------------------------------------------

def _reduce_triples(triples, scale: float):
    """Ordered reduction of per-chunk (sum, sumsq, count) into value/stderr/ess.

    ``scale`` multiplies the raw mean (stratification factor).  stderr is
    computed from chunk means, which are iid replicas of the estimator.
    """
    s_tot = 0.0
    q_tot = 0.0
    n_tot = 0
    means = []
    for s, q, n in triples:  # ascending chunk order
        s_tot += s
        q_tot += q
        n_tot += n
        means.append(scale * s / n)
    value = scale * s_tot / n_tot
    c = len(means)
    if c >= 2:
        m = np.asarray(means)
        stderr = float(np.sqrt(np.sum((m - value) ** 2) / (c * (c - 1))))
    else:
        # single chunk: fall back to the per-sample variance
        var = max(q_tot / n_tot - (s_tot / n_tot) ** 2, 0.0)
        stderr = scale * math.sqrt(var / n_tot)
    ess = int((s_tot * s_tot) / q_tot) if q_tot > 0 else 0
    return value, stderr, ess


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """``v / |v|`` row by row (a zero row stays zero)."""
    norms = np.sqrt(row_sq_norms(v))
    return v / np.where(norms > 0, norms, 1.0)[:, None]


def _offset_rows(origin: np.ndarray, scale: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """``origin + scale[:, None] * unit``, one origin per row, bit-equal to
    that broadcast form at half its cost, one column at a time."""
    out = np.empty_like(unit)
    for j in range(unit.shape[1]):
        np.add(origin[:, j], scale * unit[:, j], out=out[:, j])
    return out


def _ordered_sum(row_sums: np.ndarray) -> float:
    """Left-to-right sum, the order in which strata were drawn."""
    total = 0.0
    for v in row_sums.tolist():
        total += v
    return total


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _pcg64_states(master_seed: int, keys: np.ndarray):
    """The PCG64 ``state`` of ``np.random.default_rng([master_seed, *key])``
    for each row of the integer array ``keys`` (entries below 2**32), all
    hashed in one array pass: SeedSequence's mixing and ``generate_state``
    (numpy's bit_generator.pyx, fixed by NEP 19), then PCG64's
    ``pcg_setseq_128_srandom_r`` (O'Neill 2014)."""
    keys = np.asarray(keys, dtype=np.uint32).reshape(len(keys), -1)
    seed = int(master_seed)  # 0 is one word, as in numpy's _int_to_uint32_array
    entropy = [np.full(len(keys), seed >> b & _M32, dtype=np.uint32)
               for b in range(0, max(seed.bit_length(), 1), 32)] + list(keys.T)
    hc, mult = 0x43B0D7E5, 0x931E8875  # SeedSequence's INIT_A and MULT_A

    def hashmix(v):
        nonlocal hc
        v, hc = v ^ hc, hc * mult & _M32
        v = v * hc
        return v ^ (v >> 16)

    def mix(x, y):
        v = 0xCA01F9DD * x - 0x4973F715 * y
        return v ^ (v >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * entropy[0]) for i in range(4)]
    for src in range(max(4, len(entropy))):  # the pool's own words, then the rest
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src] if src < 4 else entropy[src]))
    hc, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64) hashes with these
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1).astype("<u4")
    for row in words.view("<u8"):  # little-endian word pairs, one key at a time
        init_hi, init_lo, seq_hi, seq_lo = row.tolist()
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        state = ((inc + (init_hi << 64 | init_lo)) * 0x2360ED051FC65DA44385DF649FCCF645
                 + inc) & _M128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


# ---------------------------------------------------------------------------
# Monte Carlo pair engine
# ---------------------------------------------------------------------------

@dataclass
class PairContext:
    """Geometry and workload description for the MC pair engine, which
    draws x in the ball of radius ``x_radius`` about the origin.

    ``integrands`` are maps (x_pts, y_pts, |y-x|, v(x), v(y)) ->
    nonnegative values; they include the kernel.  ``values`` is the field
    map v they read, evaluated by the engine once at x and once at y per
    chunk (without it the integrands get None).  ``numerator`` and
    ``kernel_p`` describe the kernel's decay (numerator / |h|^{N+p}) and
    are used only to derive the outer truncation radius and its rigorous
    tail bound.  When ``symmetric`` is set the integrand must be symmetric
    under swapping x and y; the engine then restricts to the half-domain
    |v(x)| >= |v(y)|, doubles, and skips the y side of a sample with |v(x)|
    <= ``zero_floor``, where every integrand must vanish on that half.  No
    pair closer than ``inner_cutoff`` is drawn, so each such pair must add 0
    (delta / L for the real functionals; for the magnetic one the largest c
    with c (L + sup|u| (A_c + |grad phase|)) <= delta, A_c the sup of |A| on
    |x| <= x_radius + c/2).  At inf no stratum is drawn: the estimate is 0 with the outer tail
    bound, labelled "mc" until the benchmark re-record relabels it exact.
    """

    dim: int
    x_radius: float
    kernel_p: float
    numerator: float
    integrands: tuple
    inner_cutoff: float = 0.0
    symmetric: bool = False
    values: Optional[Callable[[np.ndarray], np.ndarray]] = None
    extra_tail: float = 0.0
    zero_floor: Optional[float] = None


def _derive_h_max(ctx: PairContext, spec: McSpec):
    vol = ball_volume(ctx.dim, ctx.x_radius)
    omega = sphere_surface(ctx.dim)
    fac = 2.0 if ctx.symmetric else 1.0
    p = ctx.kernel_p
    if spec.h_max is not None:
        h = spec.h_max
    else:
        h = (fac * vol * omega * ctx.numerator / (p * spec.outer_radius_eps)) ** (1.0 / p)
        cut = ctx.inner_cutoff if math.isfinite(ctx.inner_cutoff) else 0.0
        h = max(h, 4.0 * ctx.x_radius, 10.0 * cut, 1e-12)
    tail = fac * vol * omega * ctx.numerator * h ** (-p) / p
    return h, tail


@dataclass
class _Stratified:
    """One context's part of a pass: its tail bound, per integrand the
    (sum, sumsq, count) of each chunk so far, its strata ``first`` .. K-1
    (none where ``first`` is K) and their lower edges, log widths and
    sample weights, one entry per stratum."""

    ctx: PairContext
    tail: float
    triples: list
    first: int
    lo: Optional[np.ndarray] = None
    lw: Optional[np.ndarray] = None
    weight: Optional[np.ndarray] = None


def _stratify(ctx: PairContext, spec: McSpec) -> _Stratified:
    rx = spec.x_radius if spec.x_radius is not None else ctx.x_radius
    ctx = replace(ctx, x_radius=rx)
    k_strata = spec.radial_strata
    plan = _Stratified(ctx, ctx.extra_tail, [[] for _ in ctx.integrands], k_strata)
    if rx <= 0:
        return plan
    h_max, h_tail = _derive_h_max(ctx, spec)
    plan.tail = h_tail + ctx.extra_tail
    edges = np.geomspace(h_max * 1e-9, h_max, k_strata + 1)
    # the drawn strata, those reaching past the cutoff, are a suffix
    plan.first = int(np.count_nonzero(~(edges[1:] > ctx.inner_cutoff)))
    plan.lo = edges[plan.first:-1]
    plan.lw = np.log(edges[1:] / edges[:-1])[plan.first:]
    plan.weight = ball_volume(ctx.dim, rx) * (plan.lw * sphere_surface(ctx.dim))
    return plan


def _chunk_sums(plan: _Stratified, spec: McSpec, xr: np.ndarray, xunit: np.ndarray,
                hu: np.ndarray, hunit: np.ndarray):
    """Add one chunk's (sum, sumsq, count) per integrand to ``plan``, from
    the rows of its strata: ``xr`` (uniform draws to the power 1/N) and
    ``xunit`` place x in the ball, ``hu`` and ``hunit`` place y around x."""
    ctx, n = plan.ctx, plan.ctx.dim
    x = (ctx.x_radius * xr)[:, None] * xunit
    vx = None if ctx.values is None else ctx.values(x)
    live = np.arange(len(x))  # rows with a y side
    if ctx.zero_floor is not None:
        live = np.flatnonzero(np.abs(vx) > ctx.zero_floor)
        x, vx = x.take(live, axis=0), vx[live]
    m = spec.chunk_size // spec.radial_strata
    k = live // m  # each row's stratum, counted from the context's first
    rho = plan.lo[k] * np.exp(plan.lw[k] * hu[live])
    y = _offset_rows(x, rho, hunit.take(live, axis=0))
    vy = None if ctx.values is None else ctx.values(y)
    if ctx.symmetric:
        # the half-domain |v(x)| >= |v(y)|, doubled below; the other rows add 0
        keep = np.flatnonzero(np.abs(vx) >= np.abs(vy))
        x, y, rho, vx, vy = (x.take(keep, axis=0), y.take(keep, axis=0), rho[keep],
                             vx[keep], vy[keep])
        live, k = live[keep], k[keep]
    base = plan.weight[k] * rho ** n
    if ctx.symmetric:
        base *= 2.0
    for f, out in zip(ctx.integrands, plan.triples):
        zeta = np.zeros((len(xr) // m, m))  # the skipped rows add 0
        zeta.ravel()[live] = f(x, y, rho, vx, vy) * base
        out.append((_ordered_sum(zeta.sum(axis=1)),
                    _ordered_sum((zeta * zeta).sum(axis=1)), spec.chunk_size))


def mc_pair_integrate_many(contexts: Sequence[PairContext], spec: McSpec) -> list:
    """Stratified MC estimates of every integrand of every context, all on
    one sample stream; a flat list in (context, integrand) order.

    Sharing the stream makes pointwise integrand orderings carry over to
    the estimates exactly (common random numbers).  The contexts must
    share their dimension.  Each chunk draws the strata of all contexts
    once, into consecutive rows of one buffer (a context's strata are a
    suffix of them, so its rows are the buffer's tail), and computes the
    x radii and the unit directions once; each context then evaluates its
    field at its own x and y, and its integrands on the rows of nonzero
    weight, and takes the sums stratum by stratum in ascending order.  A
    context's estimates are those of a pass of that context alone, bit for
    bit.
    """
    if len({ctx.dim for ctx in contexts}) > 1:
        raise PreconditionError("contexts of one pass must share their dimension")
    k_strata = spec.radial_strata
    plans = [_stratify(ctx, spec) for ctx in contexts]
    drawn = [plan for plan in plans if plan.first < k_strata]
    if drawn:
        n = drawn[0].ctx.dim
        first = min(plan.first for plan in drawn)
        strata = np.arange(first, k_strata)
        m = spec.chunk_size // k_strata
        n_chunks = spec.n_samples // spec.chunk_size
        states = _pcg64_states(spec.master_seed, np.column_stack(
            [np.repeat(np.arange(n_chunks), strata.size), np.tile(strata, n_chunks)]))
        rng = np.random.Generator(np.random.PCG64(0))
        xdir, hdir = np.empty((2, strata.size * m, n))
        xu, hu = np.empty((2, strata.size * m))
        for c in range(n_chunks):
            for i in range(strata.size):
                # the stream of default_rng([master_seed, c, strata[i]])
                rng.bit_generator.state = next(states)
                rows = slice(i * m, (i + 1) * m)
                rng.standard_normal(out=xdir[rows])
                rng.random(out=xu[rows])
                rng.standard_normal(out=hdir[rows])
                rng.random(out=hu[rows])
            xr, xunit, hunit = xu ** (1.0 / n), _unit_rows(xdir), _unit_rows(hdir)
            for plan in drawn:
                tail = slice((plan.first - first) * m, None)
                _chunk_sums(plan, spec, xr[tail], xunit[tail], hu[tail], hunit[tail])
    return [Estimate(*_reduce_triples(t, float(k_strata)), plan.tail, "mc") if t
            else Estimate(0.0, 0.0, 0, plan.tail, "mc")
            for plan in plans for t in plan.triples]


# ---------------------------------------------------------------------------
# theta-reduced kernel for the radial engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _xi_rule(order: int):
    """Nodes, their distances to 1 and weights on [0, 1] for the graded
    theta rule in xi = log(t/lo) / log(hi/lo).

    In xi the t^{-(n+p)/2} layer at the lower endpoint, at whatever
    depth the pair puts it, becomes an exponential decay at a rate near
    (1+p)/2 log(hi/lo), which sixteen uniform panels resolve; for even N
    the integrand also carries half-power factors at both endpoints,
    which grading down to 1e-16 resolves.  The upper half mirrors the
    lower one, so no node's distance to 1 rounds to 0.
    """
    ratio = math.sqrt(10.0)
    half = [0.0]
    v = 1e-16
    while v < 0.5:
        half.append(v)
        v *= ratio
    x, w = panel_nodes(sorted_unique(np.concatenate([half, np.linspace(0.0, 0.5, 9)])), order)
    return (np.concatenate([x, 1.0 - x[::-1]]), np.concatenate([1.0 - x, x[::-1]]),
            np.concatenate([w, w[::-1]]))


def _terminating_kernel(r: np.ndarray, s: np.ndarray, n: int, nu: int) -> np.ndarray:
    """beta_N (A/D)^{nu-n+1} D^{-nu} P(z) of ``theta_reduced_kernel``; 0 where r s = 0."""
    a = 0.5 * (n - nu)
    b = a - 0.5
    degree = int(-a) if a == int(a) else int(-b)  # where P = 2F1(a, b; n/2; z) stops
    sq = r * r + s * s
    dd = np.abs((r - s) * (r + s))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sphere_surface(n) / sphere_surface(n - 1) * dd ** -float(nu)
        if nu > n - 1:
            out *= (sq / dd) ** (nu - n + 1)
        if degree:
            z = (2.0 * r * s / sq) ** 2
            poly = 1.0
            for k in reversed(range(degree)):
                poly = 1.0 + (a + k) * (b + k) / ((0.5 * n + k) * (k + 1)) * z * poly
            out *= poly
    return np.where(r * s > 0.0, out, 0.0)


_KERNEL_BLOCK = 1 << 16  # elements per temporary in _graded_kernel


def theta_reduced_kernel(r, s, n: int, p: float, order: int = 6) -> np.ndarray:
    """Integral over theta in [0, pi] of sin(theta)^{n-2} / d^{n+p},
    with d^2 = r^2 + s^2 - 2 r s cos(theta); +inf on the diagonal r = s
    and 0 where r s = 0.

    Uses t = d^2:  T = (2 r s)^{-(n-2)} * int ((t-a)(b-t))^{(n-3)/2} t^{-nu} dt
    over [a, b] = [(r-s)^2, (r+s)^2], with nu = (n+p)/2.  Three
    evaluations, none of which cancels:

    * n = 3: the integrand is the pure power t^{-nu}, in closed form
      a^{-k} (1 - (b/a)^{-k}) / (2 k r s) with k = (1+p)/2, written with
      log1p/expm1 and b - a = 4 r s.
    * integer nu >= n-1: T = beta_N A^{-nu} 2F1(nu/2, (nu+1)/2; n/2; z)
      with A = r^2+s^2, z = (2rs/A)^2 and beta_N = B(1/2, (n-1)/2).
      Euler's transformation (DLMF 15.8.1) turns it into
      beta_N (A/D)^{nu-n+1} D^{-nu} P(z), D = |(r-s)(r+s)|, where P is a
      terminating 2F1 with positive coefficients (P = 1 at n = 4, p = 2,
      so T = pi / (2 D^3)).
    * otherwise the graded ``order``-point rule in xi = log(t/a) /
      log(b/a), applied to blocks of pairs.  Against the exact values,
      for r s / (r-s)^2 from 1e-10 up to |r-s|/r = 1e-15, it is good to
      3e-8 relative at order 6 and 1e-10 at order 8 for n >= 4 (2e-7 and
      1e-8 at n = 2, whose endpoint factors are inverse square roots).
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    nu = 0.5 * (n + p)
    if n == 3:
        k = 0.5 * (1.0 + p)
        a = (r - s) ** 2
        rs = r * s
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a ** -k * -np.expm1(-k * np.log1p(4.0 * rs / a)) / (2.0 * k * rs)
        return np.where(rs > 0.0, out, 0.0)
    if nu == int(nu) and nu >= n - 1:
        return _terminating_kernel(r, s, n, int(nu))
    return _graded_kernel(r, s, n, p, order)


def _kernel_rows_3d(r: np.ndarray, lo: np.ndarray, hi: float, p: float) -> np.ndarray:
    """Integral over s in [lo[i], hi] of s^2 theta_reduced_kernel(r[i], s, 3, p),
    for r[i] < lo[i] <= hi: (F(hi) - F(lo[i])) / ((1+p) r[i]) with
    F(s) = ((s-r)^{1-p} - (s+r)^{1-p}) / (1-p) - (r/p) ((s-r)^{-p} + (s+r)^{-p}),
    the first term written with expm1/log1p (-log1p(2r/(s-r)) at p = 1).
    Both terms are negative, so F cancels nowhere."""
    def antiderivative(s):
        u = s - r
        ell = np.log1p(2.0 * r / u)  # log((s+r)/(s-r))
        near = -ell if p == 1.0 else u ** (1.0 - p) * -np.expm1((1.0 - p) * ell) / (1.0 - p)
        return near - r / p * (u ** -p + (s + r) ** -p)
    return (antiderivative(hi) - antiderivative(lo)) / ((1.0 + p) * r)


def _graded_kernel(r: np.ndarray, s: np.ndarray, n: int, p: float, order: int) -> np.ndarray:
    """The graded ``order``-point rule of ``theta_reduced_kernel``, for any n and p."""
    nu = 0.5 * (n + p)
    r, s = np.broadcast_arrays(r, s)
    shape = r.shape
    rf = r.ravel()
    sf = s.ravel()
    a = (rf - sf) ** 2
    b = (rf + sf) ** 2
    rs = rf * sf
    out = np.zeros_like(rf)
    xi, xc, w = _xi_rule(order)
    e = (n - 3) / 2.0
    ok = (b > a) & (rs > 0.0)  # b = a when r s is below the rounding of r^2 + s^2
    out[ok & (a == 0.0)] = math.inf
    rows = np.flatnonzero(ok & (a > 0.0))
    ell = np.log1p(4.0 * rs / np.where(a > 0.0, a, 1.0))  # log(b / a), as b - a = 4 r s
    # blocks of rows keep each (rows x nodes) temporary near 0.5 MB
    step = max(1, _KERNEL_BLOCK // xi.size)
    for i in range(0, rows.size, step):
        j = rows[i:i + step]
        # in place: each fresh temporary of this size costs page faults
        x = ell[j, None] * xi
        integ = np.expm1(x)
        integ *= a[j, None]  # t - a
        bt = np.multiply(-ell[j, None], xc)
        np.expm1(bt, out=bt)
        bt *= -b[j, None]  # b - t
        integ *= bt
        integ **= e
        # t^{-nu} dt = a^{1-nu} exp((1-nu) x) log(b/a) dxi
        x *= 1.0 - nu
        integ *= np.exp(x, out=x)
        out[j] = (integ @ w) * ell[j] * a[j] ** (1.0 - nu) * (2.0 * rs[j]) ** (2.0 - n)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# level crossings for exact indicator geometry
# ---------------------------------------------------------------------------

_XTOL, _RTOL = 1e-14, 1e-15  # tolerance of every level-crossing solve
_PROBE_POINTS = 2048  # dense part of the bracketing grid


def _probe_grid(lo: float, hi: float, bulk: float) -> np.ndarray:
    """Bracketing grid: dense where the profile has structure, geometric
    beyond (profiles are monotone out there, so sparse brackets suffice)."""
    dense = np.linspace(lo, min(bulk, hi), _PROBE_POINTS)
    if bulk >= hi:
        return dense
    far = np.geomspace(max(bulk, 1e-12), hi, 128)
    return sorted_unique(np.concatenate([dense, far, [hi]]))


def _level_crossings(g, dg, levels: np.ndarray, xs: np.ndarray, vals: np.ndarray):
    """All roots of g(s) = levels[i] on the grid ``xs`` (``vals`` = g(xs)),
    for every i at once: the grid cells where g - levels[i] changes sign,
    solved by ``_crossing_roots`` on ``dg`` = g' (or None), plus the grid
    points where it is 0.  Returns (i, root) arrays, by i and then by root."""
    above = vals > levels[:, None]
    below = vals < levels[:, None]
    i, j = np.nonzero((above[:, :-1] & below[:, 1:]) | (below[:, :-1] & above[:, 1:]))
    lo, hi = np.where(above[i, j], xs[np.stack([j, j + 1])], xs[np.stack([j + 1, j])])
    roots = _crossing_roots(g, dg, levels[i], lo, hi) if j.size else xs[j]
    iz, jz = np.nonzero(vals == levels[:, None])
    i, roots = np.concatenate([i, iz]), np.concatenate([roots, xs[jz]])
    order = np.lexsort((roots, i))
    return i[order], roots[order]


def _crossing_roots(g, dg, level: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    x0: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve g(s) = level[i] between lo[i] and hi[i] for every i at once.

    Each bracket must hold a single crossing, g(lo[i]) > level[i] >= g(hi[i]),
    with lo[i] on either side of hi[i].  Safeguarded Newton on ``dg`` as in
    ``rtsafe`` (*Numerical Recipes* 9.4), started at ``x0`` (the midpoints
    when None): a bisection step replaces any Newton step that leaves the
    bracket or is not under half the step before last, and every step when
    ``dg`` is None.  An entry stops once its step is within _XTOL + _RTOL |s|.
    That fixes the root to the tolerance only where g is steep: g(s) - level
    is known to about ulp(level), so where |g'| is small the last Newton
    step can stop up to ulp(level) / |g'| from the true crossing.  A NaN
    value raises ValueError.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    x = 0.5 * (lo + hi) if x0 is None else np.array(x0, dtype=float)
    step = step_old = np.abs(hi - lo)
    done = np.zeros(lo.shape, dtype=bool)
    for _ in range(200):
        f = g(x) - level
        if np.isnan(f).any():
            raise ValueError("function value is NaN; the root solve cannot continue")
        lo = np.where(f > 0.0, x, lo)
        hi = np.where(f < 0.0, x, hi)
        x_new = 0.5 * (lo + hi)
        if dg is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                newton = x - f / dg(x)
            # x is an end of the bracket; a Newton step rounding to 0 is converged
            use = ((newton >= np.minimum(lo, hi)) & (newton <= np.maximum(lo, hi))
                   & (np.abs(newton - x) <= 0.5 * step_old))
            x_new = np.where(use, newton, x_new)
        x_new = np.where(done | (f == 0.0), x, x_new)
        step_old, step, x = step, np.abs(x_new - x), x_new
        done |= step <= _XTOL + _RTOL * np.abs(x)
        if done.all():
            return x
    raise RuntimeError("level-crossing solve did not converge")


# bench/tracer.py, run by CI's three traced studies, hooks the solver by this
# name; ROADMAP item 1 repoints the tracer and drops the alias
brentq = _crossing_roots


def _decreasing_crossings(g, dg, levels: np.ndarray, xs: np.ndarray,
                          vals: np.ndarray) -> np.ndarray:
    """The s with g(s) = levels[i] for a decreasing g, given on the grid
    ``xs`` by ``vals`` = g(xs) with vals[0] > levels[i] >= vals[-1]: the
    first grid value at or below a level ends the one cell that brackets
    its crossing, and each solve starts at the secant point of its cell."""
    j = np.searchsorted(-vals, -levels)
    lo, hi = xs[j - 1], xs[j]
    secant = lo + (vals[j - 1] - levels) / (vals[j - 1] - vals[j]) * (hi - lo)
    return _crossing_roots(g, dg, levels, lo, hi, np.minimum(secant, hi))


def _excess_intervals(g, dg, a_vals: np.ndarray, delta: float, xs: np.ndarray,
                      vals: np.ndarray):
    """Maximal intervals of {s in [xs[0], xs[-1]]: |g(s) - a_vals[i]| > delta}
    for every i at once, cut at the crossings of a_vals[i] +- delta found on
    the grid ``xs`` (``vals`` = g(xs), ``dg`` = g' or None).  Returns
    (i, start, end) arrays, by i and then by start."""
    m = a_vals.size
    i, roots = _level_crossings(g, dg, np.concatenate([a_vals + delta, a_vals - delta]),
                                xs, vals)
    rows = np.concatenate([np.arange(m), i % m, np.arange(m)])
    cuts = np.concatenate([np.full(m, xs[0]), roots, np.full(m, xs[-1])])
    order = np.lexsort((cuts, rows))
    rows, cuts = rows[order], cuts[order]
    # the pieces between consecutive distinct cuts of a row, kept where the
    # profile at the midpoint is more than delta away
    piece = (rows[1:] == rows[:-1]) & (cuts[1:] > cuts[:-1])
    row, e1, e2 = rows[:-1][piece], cuts[:-1][piece], cuts[1:][piece]
    keep = np.abs(g(0.5 * (e1 + e2)) - a_vals[row]) > delta
    row, e1, e2 = row[keep], e1[keep], e2[keep]
    # a piece starting within rounding of the row's last kept end extends it
    start = np.ones(row.size, dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (np.abs(e2[:-1] - e1[1:])
                                         >= 1e-14 * max(1.0, xs[-1]))
    first = np.flatnonzero(start)
    last = np.append(first[1:], row.size)[:first.size] - 1  # none when no piece is kept
    return row[first], e1[first], e2[last]


# ---------------------------------------------------------------------------
# radial pair engine
# ---------------------------------------------------------------------------

def _pair_prefactor(n: int) -> float:
    return sphere_surface(n) * sphere_surface(n - 1)


@lru_cache(maxsize=32)
def _unit_rule(n: int, order: int, graded: bool):
    """Breakpoints, Gauss nodes and weights on [0, 1] of the s-template or
    of the r-rule (``n`` uniform panels), built once per (n, order).  The
    template's panels double in width from 2^-n at each end, each ladder
    kept to its own half."""
    if graded:
        left = np.cumsum(np.append(0.0, 2.0 ** -np.arange(n, 0, -1.0)))
        right = 1.0 - left
        bps = sorted_unique(np.concatenate([left[left < 0.5], right[right > 0.5]]))
    else:
        bps = uniform_panels(0.0, 1.0, n)
    rule = (bps, *panel_nodes(bps, order))
    for a in rule:  # every caller shares these arrays
        a.flags.writeable = False
    return rule


def _s_rows(lo: np.ndarray, hi: np.ndarray, n_s: int, order: int, knots: np.ndarray):
    """Nodes and weights of the graded s-template on every row [lo[i], hi[i]]:
    the unit rule mapped affinely (nodes lo + (hi - lo) tau, weights
    (hi - lo) omega), or, for a profile with knots, the template's
    breakpoints mapped onto the row with the knots clipped in (a knot
    outside a row's range gives a zero-width panel)."""
    bps, tau, omega = _unit_rule(n_s, order, True)
    width = (hi - lo)[:, None]
    if not knots.size:
        return lo[:, None] + width * tau, width * omega
    bps = lo[:, None] + width * bps[None, :]
    inner = knots[(knots > lo.min()) & (knots < hi.max())]
    if inner.size:
        bps = np.sort(np.concatenate(
            [bps, np.clip(inner[None, :], lo[:, None], hi[:, None])], axis=1), axis=1)
    return panel_nodes(bps, order)


def _integrate_rows(rn: np.ndarray, rw: np.ndarray, sn: np.ndarray, sw: np.ndarray,
                    w_vals: Optional[np.ndarray], kernel_p: float, dim: int, order: int,
                    far: Optional[float] = None):
    """Sum over rows (r-node rn[i], r-weight rw[i], s-nodes sn[i] with
    weights sw[i]) of the r-weighted s-integral of w_vals x theta-kernel x
    s^{N-1}, in one array pass; ``w_vals`` None integrates the kernel
    alone.  With ``far`` it returns the s > far part as well."""
    t_vals = theta_reduced_kernel(rn[:, None], sn, dim, kernel_p, order=order)
    if w_vals is None:
        f = sw * t_vals
    else:
        # a pair of weight exactly 0 contributes 0, even where the kernel is +inf
        with np.errstate(invalid="ignore"):
            f = np.where(w_vals == 0.0, 0.0, sw * w_vals * t_vals)
    f *= sn ** (dim - 1)
    scale = rw * rn ** (dim - 1)
    total = float(np.sum(scale * np.sum(f, axis=1)))
    if far is None:
        return total
    return total, float(np.sum(scale * np.sum(np.where(sn > far, f, 0.0), axis=1)))


def _carving_grid(profile: RadialProfile1D, delta: float, s_max: float):
    """What the indicator path computes once for both resolutions: the
    probe grid on [0, s_max], the profile on it, and the reach of the
    r-integral, 0 when no pair is admissible.  A decreasing profile's
    r-integral ends at the last crossing of delta; otherwise it ends
    where g has decayed below delta / 2.  A decreasing profile with a
    ``level_radius`` needs no grid: the grid is None and the profile is
    given at 0 and s_max only."""
    r_half = profile.decay_radius(delta / 2.0)
    if r_half <= 0.0:
        return None, None, 0.0
    if profile.monotone_decreasing and profile.level_radius is not None:
        ends = profile.g(np.array([0.0, s_max]))
        if not ends[0] > delta >= ends[-1]:
            return None, ends, 0.0
        return None, ends, min(float(profile.level_radius(np.array([delta]))[0]), s_max)
    bulk = min(profile.decay_radius(1e-4 * delta), s_max)
    xs = _probe_grid(0.0, s_max, bulk)
    vals = profile.g(xs)
    if not profile.monotone_decreasing:
        return xs, vals, min(r_half, s_max)
    if not vals[0] > delta >= vals[-1]:
        return xs, vals, 0.0
    top = _decreasing_crossings(profile.g, profile.dg, np.array([delta]), xs, vals)
    return xs, vals, float(top[0])


def _radial_indicator_value(profile: RadialProfile1D, kernel_p: float,
                            envelope: MonotoneEnvelope, spec: RadialSpec, dim: int,
                            order: int, grid) -> float:
    """Indicator path: the admissible s-set of every r-node is carved
    exactly, and the graded s-panel template is mapped onto each piece.
    A step on a decreasing profile at N = 3 instead takes each row's
    s-integral in closed form (``_kernel_rows_3d``), reads no ``spec.n_s``,
    and leaves the discrepancy to the r-rule alone.
    ``grid`` is ``_carving_grid(profile, envelope.zero_below, spec.r_max)``."""
    xs, vals, r_top = grid
    if r_top <= 0.0:
        return 0.0
    g = profile.g
    delta = envelope.zero_below
    s_max = spec.r_max
    knots = profile.knots
    if knots.size:
        r_nodes, r_w = panel_nodes(uniform_panels(0.0, r_top, spec.n_r, splits=knots), order)
    else:  # the unit r-rule scaled onto [0, r_top]
        _, tau, omega = _unit_rule(spec.n_r, order, False)
        r_nodes, r_w = r_top * tau, r_top * omega
    g_r = g(r_nodes)

    if profile.monotone_decreasing:
        # unordered pairs: 2 * { r < s, g(r) - g(s) > delta }, one row per r-node
        target = g_r - delta
        # where g(s_max) >= target the admissible s lie beyond s_max,
        # which the tail bound covers
        keep = vals[-1] < target
        if not keep.any():
            return 0.0
        if xs is None:  # closed form; the clip guards a target within rounding of g(s_max)
            s2 = np.minimum(profile.level_radius(target[keep]), s_max)
        else:
            s2 = _decreasing_crossings(g, profile.dg, target[keep], xs, vals)
        if envelope.step and dim == 3:  # each row's s-integral in closed form
            rn = r_nodes[keep]
            total = float(np.sum(r_w[keep] * rn * rn * _kernel_rows_3d(rn, s2, s_max, kernel_p)))
            return 2.0 * _pair_prefactor(dim) * envelope.sup_value * total
        sn, sw = _s_rows(s2, np.full_like(s2, s_max), spec.n_s, order, knots)
        # a step is sup_value past each row's crossing, on every s-node
        w_vals = None if envelope.step else envelope(np.abs(g_r[keep][:, None] - g(sn)))
        total = _integrate_rows(r_nodes[keep], r_w[keep], sn, sw, w_vals, kernel_p, dim, order)
        numerator = envelope.sup_value if w_vals is None else 1.0
        return 2.0 * _pair_prefactor(dim) * numerator * total

    # generic path: r over [0, r_top], one row per (r-node, excess interval)
    # in s over [0, s_max]; the region {r > r_top, s <= r_top} equals by
    # symmetry the portion of the main integral with s > r_top, which is
    # added once more.
    idx, lo, hi = _excess_intervals(g, profile.dg, g_r, delta, xs, vals)
    if not idx.size:
        return 0.0
    sn, sw = _s_rows(lo, hi, spec.n_s, order, knots)
    total, extra = _integrate_rows(r_nodes[idx], r_w[idx], sn, sw,
                                   envelope(np.abs(g_r[idx][:, None] - g(sn))),
                                   kernel_p, dim, order, r_top)
    return _pair_prefactor(dim) * (total + extra)


def _radial_smooth_value(profile: RadialProfile1D, kernel_p: float,
                         envelope: MonotoneEnvelope, spec: RadialSpec, dim: int,
                         order: int, r_range: float) -> float:
    """Smooth envelopes: r over [0, r_range], s over [0, spec.r_max] with the
    s > r_range portion added twice.  Each r-node's row is the graded
    s-template mapped onto [0, r] and onto [r, r_max], split at the profile's
    knots and at r_range (the doubling is a jump of the s-integrand): every
    breakpoint lies inside the row, so no panel has zero width and no
    s-node lands on r."""
    s_max = spec.r_max
    r_nodes, r_w = panel_nodes(uniform_panels(0.0, r_range, spec.n_r, splits=profile.knots),
                               order)
    bps = _unit_rule(spec.n_s, order, True)[0]
    cuts = sorted_unique(np.append(profile.knots, r_range))
    cuts = cuts[(cuts > 0.0) & (cuts < s_max)]
    rn = r_nodes[:, None]
    rows = np.concatenate([rn * bps[:-1], rn + (s_max - rn) * bps,
                           np.broadcast_to(cuts, (rn.size, cuts.size))], axis=1)
    sn, sw = panel_nodes(np.sort(rows, axis=1), order)
    g = profile.g
    total, extra = _integrate_rows(r_nodes, r_w, sn, sw,
                                   envelope(np.abs(g(r_nodes)[:, None] - g(sn))),
                                   kernel_p, dim, order, r_range)
    return _pair_prefactor(dim) * (total + extra)


def radial_pair_integrate(profile: RadialProfile1D, kernel_p: float,
                          envelope: MonotoneEnvelope, spec: RadialSpec,
                          dim: int, q_mass: float = 0.0) -> Estimate:
    """Deterministic integral of F(|g(|x|) - g(|y|)|) / |x - y|^{N+p},
    F = ``envelope``, for a radial field of profile g.

    Runs the quadrature at the requested and at halved resolution and
    reports the difference as ``discrepancy``; stderr is 0.  ``spec.r_max``
    = 0 is derived from the profile's decay.  A smooth envelope bounds its
    far tail through ``q_mass``, the integral of |u|^q, q = small_t_power.
    """
    if dim < 2:
        raise PreconditionError("radial reduction needs dimension >= 2")
    if envelope.zero_below > 0:
        if not math.isfinite(profile.lipschitz):
            raise PreconditionError("indicator path needs a finite Lipschitz bound")
        r_half = profile.decay_radius(envelope.zero_below / 2.0)

        def far_mass(r_in: float, gap: float) -> float:
            """Bound on the pairs with |x| < r_in, |x - y| > gap."""
            return (2.0 * ball_volume(dim, r_in) * sphere_surface(dim)
                    * envelope.sup_value * gap ** (-kernel_p) / kernel_p)

        if spec.r_max <= 0:
            mass = far_mass(r_half, 1.0)
            atol = max(1e-6, 1e-5 * mass)
            spec = replace(spec, r_max=max(4.0 * r_half + 1.0,
                                           (mass / atol) ** (1.0 / kernel_p)))
        # rigorous bound on the mass beyond s_max
        r_half = min(r_half, spec.r_max)
        gap = spec.r_max - r_half
        if gap <= 0.25 * spec.r_max:
            raise PreconditionError("r_max leaves no room beyond the field's bulk")
        tail = far_mass(r_half, gap)
        value = partial(_radial_indicator_value,
                        grid=_carving_grid(profile, envelope.zero_below, spec.r_max))
    else:
        if not q_mass > 0.0 and profile.sup > 0.0:
            raise PreconditionError("a smooth envelope needs q_mass, the integral of |u|^q")
        # smooth envelope: symmetric weight with slowly decaying pair tails
        eps_x = 1e-9 * max(profile.sup, 1e-30)
        r_range = profile.decay_radius(eps_x)
        q = envelope.small_t_power
        far_mass = 2.0 ** q * q_mass * sphere_surface(dim) / kernel_p
        atol = max(1e-8, 1e-4 * far_mass)
        s_range = r_range + (far_mass / atol) ** (1.0 / kernel_p)
        if spec.r_max > 0:
            s_range = spec.r_max
            r_range = min(r_range, s_range)
        # residuals: pairs beyond s_range, plus the far near-diagonal corner
        tail = (2.0 * far_mass * max(s_range - r_range, 1e-12) ** (-kernel_p)
                + 4.0 * _pair_prefactor(dim) * profile.lipschitz ** kernel_p
                * (2.0 * eps_x) ** (q - kernel_p) * (s_range - r_range) / kernel_p)
        spec = replace(spec, r_max=s_range)
        value = partial(_radial_smooth_value, r_range=r_range)
    half_spec = replace(spec, n_r=max(4, spec.n_r // 2), n_s=max(6, spec.n_s - 4))
    # one Gauss order for r-panels, s-panels and the graded theta rule
    full = value(profile, kernel_p, envelope, spec, dim, 6)
    half = value(profile, kernel_p, envelope, half_spec, dim, 4)
    return Estimate(full, 0.0, 0, tail, "radial", False, 2.0 * abs(full - half))


# ---------------------------------------------------------------------------
# volume integrals
# ---------------------------------------------------------------------------

def radial_volume_value(fns: tuple, dim: int, r_max: float, values,
                        knots: Sequence[float] = (), n_panels: int = 64) -> list:
    """Deterministic integrals over R^N of radial integrands fn(values(|x|)),
    one per fn, by 8-point Gauss rules on ``n_panels`` panels: shared
    nodes and one ``values`` of them."""
    panels = uniform_panels(0.0, r_max, n_panels, splits=knots)
    nodes, w = panel_nodes(panels, 8)
    v = values(nodes)
    return [sphere_surface(dim) * float(np.sum(w * f(v) * nodes ** (dim - 1))) for f in fns]


def mc_volume_value(fns: tuple, dim: int, components, spec: McSpec, values) -> list:
    """Plain importance-sampled volume integrals of fn(values(x)) with a
    Gaussian mixture proposal, one per fn, all on one sample stream, one
    proposal density and one ``values`` of the points per chunk."""
    comps = [(np.asarray(c, dtype=float), float(s)) for c, s in components]
    k = len(comps)
    m = spec.chunk_size
    centers = np.stack([c for c, _ in comps])
    sigmas = np.array([s for _, s in comps])
    norms = np.array([(2.0 * math.pi * s * s) ** (dim / 2.0) for _, s in comps])
    chunks = []
    rng = np.random.Generator(np.random.PCG64(0))
    z = np.empty((m, dim))
    for state in _pcg64_states(spec.master_seed, np.arange(spec.n_samples // m)):
        rng.bit_generator.state = state  # the stream of default_rng([master_seed, chunk])
        pick = rng.integers(0, k, size=m)
        rng.standard_normal(out=z)
        x = sigmas.take(pick)[:, None] * z
        x += centers.take(pick, axis=0)
        q = np.zeros(m)  # the proposal density
        for (c, s), nc in zip(comps, norms):
            q += np.exp(-0.5 * row_sq_norms(x, c) / (s * s)) / nc
        q /= k
        v = values(x)
        chunks.append([(float(zeta.sum()), float((zeta * zeta).sum()), m)
                       for zeta in (f(v) / q for f in fns)])
    return [Estimate(*_reduce_triples(t, 1.0), 0.0, "mc") for t in zip(*chunks)]


_DEFAULT_VOLUME_SPEC = McSpec(master_seed=1812051820, n_samples=192000,
                              chunk_size=4800)


def volume_integrate(fns: tuple, field, values, tail_eps: float = 1e-9) -> list:
    """Integrals over R^N of fn(values(points)), one per fn, on shared nodes
    with one ``values`` per node set.

    The field supplies geometry only: a radial field routes to the
    deterministic radial rule (the integrands must then be radial about
    the field's center); anything else is integrated by MC under a
    mixture proposal adapted to the field.  Non-decaying fields are
    rejected since no sound truncation exists.
    """
    if not field.decays:
        raise DivergentIntegralError("field has no decay envelope; integral not truncatable")
    prof = field.radial_profile()
    if prof is None:
        return mc_volume_value(fns, field.dim, field.proposal_components(),
                               _DEFAULT_VOLUME_SPEC, values)
    if prof.support_radius < math.inf:
        r_max = prof.support_radius
    else:
        r_max = prof.decay_radius(tail_eps * max(prof.sup, 1.0))
        if not math.isfinite(r_max):
            raise DivergentIntegralError("field does not decay below the tail tolerance")
    center, e1 = field.center, np.eye(field.dim)[0]
    return [Estimate(v, 0.0, 0, 0.0, "radial") for v in radial_volume_value(
        fns, field.dim, max(r_max, 1e-12), knots=prof.knots,
        values=lambda r: values(center[None, :] + r[:, None] * e1[None, :]))]


def lebesgue_volume_integral(field, fns: tuple, power_hint: float) -> list:
    """Integrals of fn(u(x)) dx, one per fn, on the field's own evaluations,
    as in ``volume_integrate``; the tail tolerance follows |u|^power_hint."""
    eps = (1e-14) ** (1.0 / power_hint) * max(field.sup_bound, 1.0)
    return volume_integrate(fns, field, field.evaluate, tail_eps=min(eps, 1e-6))


def dirichlet_quadrature(field) -> Estimate:
    """Quadrature fallback for the Dirichlet energy."""
    prof = field.radial_profile()
    if prof is not None and prof.dg is not None:
        # g' vanishes where g has settled, which need not be where g decays
        r_max = (prof.support_radius if prof.support_radius < math.inf
                 else prof.flat_radius(1e-8 * max(prof.sup, 1.0)))
        (val,) = radial_volume_value((lambda d: d ** 2,), field.dim, max(r_max, 1e-12),
                                     prof.dg, knots=prof.knots)
        return Estimate(val, 0.0, 0, 0.0, "radial")
    return volume_integrate((row_sq_norms,), field, field.gradient)[0]

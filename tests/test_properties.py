"""Property tests on randomly drawn fields: jump fields (a Gaussian plus
one to three disjoint or nested indicator balls), smooth two-term sums
for the exact laws of the Monte Carlo engine, Gaussian sums for the
gauge oracle of the magnetic functional, non-monotone radial
profiles for the level crossings of the radial engine, Gaussians and
bumps for its closed-form crossings, and monotone radial fields for its
plain indicator weight and its agreement with the Monte Carlo engine."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import nlsob as nl  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from nlsob import functionals  # noqa: E402
from nlsob.inequalities import check_diamagnetic  # noqa: E402
from nlsob.quadrature import (  # noqa: E402
    _XTOL, _RTOL, MonotoneEnvelope, PairContext, RadialSpec, _excess_intervals,
    _level_crossings, _probe_grid, radial_pair_integrate)


class Counting(nl.FiniteSumField):
    points = 0

    def evaluate(self, x):
        Counting.points += len(x)
        return super().evaluate(x)


@st.composite
def jump_cases(draw):
    """(field, jump spheres as (center, radius, height), smallest gap
    between two spheres, delta, p); delta is never a jump height."""
    k = draw(st.integers(1, 3))
    radii = [draw(st.floats(0.3, 1.2))]
    gaps = [draw(st.floats(0.01, 0.8)) for _ in range(k - 1)]
    if draw(st.booleans()):  # nested, each ball shifted inside the next
        centers = [(draw(st.floats(-0.3, 0.3)), 0.0, 0.0)]
        for g in gaps:
            shift = draw(st.floats(0.0, 0.5))
            radii.append(radii[-1] + g + shift)
            centers.append((centers[-1][0] + shift, 0.0, 0.0))
    else:  # disjoint along the first axis
        radii += [draw(st.floats(0.3, 1.2)) for _ in gaps]
        xs = [0.0]
        for i, g in enumerate(gaps):
            xs.append(xs[-1] + radii[i] + g + radii[i + 1])
        centers = [(x, 0.0, 0.0) for x in xs]
    heights = [draw(st.floats(0.2, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
               for _ in range(k)]
    gauss = nl.GaussianField(3, draw(st.floats(0.5, 2.0)), draw(st.floats(0.1, 1.2)),
                             tuple(draw(st.floats(-0.5, 0.5)) for _ in range(3)))
    field = Counting([gauss] + [nl.IndicatorField(3, r, h, c)
                                for c, r, h in zip(centers, radii, heights)])
    jump = max(abs(h) for h in heights)
    # just above the jump, rho0 = (delta - J) / L_s falls below the MC's own cutoff
    factor = draw(st.one_of(st.floats(0.1, 0.98), st.floats(1.001, 1.05),
                            st.floats(1.05, 3.0)))
    return (field, gauss, list(zip(centers, radii, heights)), min(gaps, default=math.inf),
            factor * jump, draw(st.floats(1.0, 3.0)))


@settings(max_examples=100, deadline=None)
@given(case=jump_cases(), seed=st.integers(0, 2 ** 31 - 1))
def test_verdict_is_delta_below_jump(case, seed):
    u, gauss, spheres, gap, delta, p = case
    jump = max(abs(h) for _, _, h in spheres)
    cutoffs = []
    run = functionals.mc_pair_integrate_many

    def recording(contexts, spec):
        cutoffs.extend(ctx.inner_cutoff for ctx in contexts)
        return run(contexts, spec)

    Counting.points = 0
    functionals._MEMO.clear()  # a repeated example runs the engine again
    with mock.patch.object(functionals, "mc_pair_integrate_many", recording):
        est = nl.i_delta_p(u, nl.KernelSpec(delta, p),
                           nl.default_engine(seed, mode="mc", n_samples=4800))
    assert est.diverged == (delta < jump)
    if delta < jump:
        assert est.value == math.inf and Counting.points == 0 and not cutoffs
        return
    assert 0.0 <= est.value < math.inf
    rho0 = min((delta - jump) / gauss.lipschitz_bound, gap)
    # the gap is the drawn one; the rounded centers may move it by ulps
    assert all(0.0 < c <= rho0 * (1.0 + 1e-12) for c in cutoffs)

    # the truncation is exact: pairs closer than rho0 across a sphere stay
    # within delta of each other
    rng = np.random.default_rng(seed)
    m = 2000
    for c, r, _ in spheres:
        d = rng.standard_normal((m, 3))
        x = np.asarray(c) + r * (1.0 + rng.uniform(-0.05, 0.05, (m, 1))) * \
            d / np.linalg.norm(d, axis=1, keepdims=True)
        h = rng.standard_normal((m, 3))
        rho = rng.uniform(0.0, min(rho0, 1.0), (m, 1))
        y = x + rho * h / np.linalg.norm(h, axis=1, keepdims=True)
        assert np.all(np.abs(u.evaluate(y) - u.evaluate(x)) <= delta)


@st.composite
def two_term_fields(draw, signed=True):
    """A sum of two N=3 Gaussians or smooth bumps at drawn centers."""
    terms = []
    for _ in range(2):
        amp = draw(st.floats(0.2, 1.5))
        if signed:
            amp *= draw(st.sampled_from([1.0, -1.0]))
        center = tuple(draw(st.floats(-0.8, 0.8)) for _ in range(3))
        if draw(st.booleans()):
            terms.append(nl.GaussianField(3, draw(st.floats(0.5, 3.0)), amp, center))
        else:
            terms.append(nl.SmoothBumpField(3, draw(st.floats(0.8, 2.0)), amp, center))
    return nl.FiniteSumField(terms)


@st.composite
def potentials(draw):
    entry = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        return nl.ConstantPotential(tuple(draw(entry) for _ in range(3)))
    a, b, c = draw(entry), draw(entry), draw(entry)
    return nl.LinearBPotential([[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]])


@settings(max_examples=60, deadline=None)
@given(modulus=two_term_fields(signed=False), A=potentials(),
       offset=st.floats(-3.0, 3.0), wave=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       delta=st.floats(0.05, 0.6), seed=st.integers(0, 2 ** 31 - 1))
def test_diamagnetic_ordering_exact(modulus, A, offset, wave, delta, seed):
    u = nl.ComplexField(modulus, nl.LinearPhase(offset, wave))
    rep = check_diamagnetic(u, A, delta, nl.default_engine(seed, mode="mc", n_samples=4800))
    assert rep.deficit >= 0.0


@st.composite
def gaussian_sums(draw):
    """A sum of one to three positive N=3 Gaussians at drawn centers."""
    return nl.FiniteSumField([
        nl.GaussianField(3, draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 1.5)),
                         tuple(draw(st.floats(-0.8, 0.8)) for _ in range(3)))
        for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=30, deadline=None)
@given(modulus=gaussian_sums(), offset=st.floats(-3.0, 3.0),
       wave=st.tuples(*[st.floats(-2.0, 2.0)] * 3), frac=st.floats(0.05, 0.6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_magnetic_gauge_oracle(modulus, offset, wave, frac, seed):
    # with A = w and the phase offset + w.x, the covariant difference is
    # exp(i phase(x)) (g(y) - g(x)), so the magnetic functional is the one
    # of the modulus, which the paired run estimates on the same samples;
    # delta below the tallest term's amplitude leaves it nonzero
    u = nl.ComplexField(modulus, nl.LinearPhase(offset, wave))
    delta = frac * max(t.amplitude for t in modulus.terms)
    A, k = nl.ConstantPotential(wave), nl.KernelSpec(delta)
    engine = nl.default_engine(seed, mode="mc", n_samples=9600)
    mag = nl.i_delta_magnetic(u, A, k, engine)
    mod = nl.i_delta_magnetic_paired(u, A, k, engine)[1]
    assert mod.value > 0.0
    assert abs(mag.value - mod.value) <= 1e-12 * mod.value


@settings(max_examples=30, deadline=None)
@given(u=two_term_fields(), delta=st.floats(0.05, 0.6), seed=st.integers(0, 2 ** 31 - 1))
def test_mc_amplitude_law_bitwise(u, delta, seed):
    # i_delta(t u, t delta) = t^2 i_delta(u, delta) for power-of-two t on
    # one sample stream: the geometry is pinned, since the decay radius of
    # t u at t delta / 2 need not equal that of u at delta / 2 to the bit
    eng = nl.default_engine(seed, mode="mc", n_samples=9600)
    eng = replace(eng, mc=replace(eng.mc, h_max=64.0, x_radius=u.decay_radius(delta / 2.0)))
    base = nl.i_delta(u, nl.KernelSpec(delta), eng)
    for t in (0.5, 2.0, 4.0):
        est = nl.i_delta(u.amplify(t), nl.KernelSpec(t * delta), eng)
        assert est.value == t * t * base.value
        assert est.stderr == t * t * base.stderr


@st.composite
def pair_contexts(draw):
    """An N=3 MC pair context on a drawn two-term field, with one or two
    integrands, an outer radius that may be <= 0, an inner cutoff that may
    leave no stratum (inf, or past a pinned h_max of 4), a zero floor or
    none, symmetric or not."""
    u = draw(two_term_fields())
    delta = draw(st.floats(0.05, 0.6))
    p = draw(st.sampled_from([1.5, 2.0]))

    def step(x, y, rho, vx, vy):
        return np.where(np.abs(vy - vx) > delta, delta ** p, 0.0) * rho ** -(3.0 + p)

    def smooth(x, y, rho, vx, vy):
        return np.abs(vy - vx) ** 3 * rho ** -(3.0 + p)

    return PairContext(
        3, np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)]),
        draw(st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(0.2, 3.0))), p, delta ** p,
        (step, smooth)[:draw(st.integers(1, 2))],
        inner_cutoff=draw(st.one_of(st.just(0.0), st.floats(1e-6, 8.0), st.just(math.inf))),
        symmetric=draw(st.booleans()), values=u.evaluate,
        extra_tail=draw(st.floats(0.0, 1.0)),
        zero_floor=draw(st.sampled_from([None, 0.5 * delta])))


def _bits(est):
    return (est.value.hex(), est.stderr.hex(), est.n_effective, est.tail_bound.hex(),
            est.method)


@settings(max_examples=60, deadline=None)
@given(contexts=st.lists(pair_contexts(), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 31 - 1), h_max=st.sampled_from([None, 4.0]),
       x_radius=st.sampled_from([None, None, 1.5]))
def test_shared_pass_matches_each_context_alone(contexts, seed, h_max, x_radius):
    # the contexts of one pass draw each (chunk, stratum) stream once, the
    # union of their strata, and each context's estimates are those of a
    # pass of it alone, to the bit
    from nlsob import quadrature
    spec = nl.McSpec(master_seed=seed, n_samples=1920, chunk_size=960, h_max=h_max,
                     x_radius=x_radius)
    keys, states = [], quadrature._pcg64_states

    def recording(master_seed, key_rows):
        keys.extend(map(tuple, np.asarray(key_rows).tolist()))
        return states(master_seed, key_rows)

    with mock.patch.object(quadrature, "_pcg64_states", recording):
        shared = quadrature.mc_pair_integrate_many(contexts, spec)
    alone = [e for ctx in contexts for e in quadrature.mc_pair_integrate_many([ctx], spec)]
    assert [_bits(e) for e in shared] == [_bits(e) for e in alone]
    assert len(shared) == sum(len(ctx.integrands) for ctx in contexts)
    assert len(keys) == len(set(keys))
    if keys:
        first = min(k for _, k in keys)
        assert sorted(keys) == [(c, k) for c in range(2) for k in range(first, 24)]


@st.composite
def ring_profiles(draw):
    """A non-monotone clamped-cubic profile on 4 to 7 knots, with a probe
    grid like the radial engine's (dense on the support, geometric beyond)
    and the profile's values there."""
    n = draw(st.integers(4, 7))
    knots = np.cumsum([0.0] + [draw(st.floats(0.2, 1.0)) for _ in range(n - 1)])
    values = [draw(st.floats(-1.0, 1.5)) for _ in range(n - 1)] + [0.0]
    prof = nl.RadialProfileField(3, knots, values).radial_profile()
    assume(not prof.monotone_decreasing)
    xs = _probe_grid(0.0, 1.5 * knots[-1], knots[-1])
    return prof, xs, prof.g(xs)


def exact_pieces(prof, a, b):
    """The pieces of the clamped cubic behind ``prof`` that meet [a, b], as
    (start, end, coefficients in powers of r - start, highest first), its
    doubles taken exactly as mpmath numbers."""
    import mpmath
    spline = prof.g.__self__._spline
    x = [mpmath.mpf(float(v)) for v in spline.x]
    return [(x[i], x[i + 1], [mpmath.mpf(float(c)) for c in spline.c[:, i]])
            for i in range(len(x) - 1) if x[i] <= b and x[i + 1] >= a]


def exact_crossings(prof, level, a, b):
    """Where the exact piecewise cubic behind ``prof`` equals ``level`` on
    [a, b], in 60-digit arithmetic."""
    import mpmath
    out = []
    with mpmath.workdps(60):
        for x0, x1, coef in exact_pieces(prof, a, b):
            coef = coef[:-1] + [coef[-1] - mpmath.mpf(float(level))]
            while len(coef) > 1 and coef[0] == 0:
                coef.pop(0)
            roots = mpmath.polyroots(coef, maxsteps=200, extraprec=200) if len(coef) > 1 else []
            out += [float(x0 + z.real) for z in map(mpmath.mpc, roots)
                    if abs(z.imag) <= 1e-40 and max(a, x0) <= x0 + z.real <= min(b, x1)]
    return out


def exact_residual(prof, level, t):
    """|p(t) - level| for the exact piecewise cubic p behind ``prof``, which
    is 0 beyond its last knot."""
    import mpmath
    with mpmath.workdps(60):
        value = sum(mpmath.polyval(coef, mpmath.mpf(float(t)) - x0)
                    for x0, _, coef in exact_pieces(prof, t, t)[:1])
        return float(abs(value - mpmath.mpf(float(level))))


@settings(max_examples=100, deadline=None)
@given(case=ring_profiles(), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_level_crossings_match_brentq(case, fracs):
    # each cell of the probe grid where g - level changes sign holds one
    # root, the one scipy's brentq finds on that cell, to 1e-12 where the
    # crossing is well conditioned; where g is flat (a level next to an
    # extremum) g tells roots apart only to about ulp(level) / |g'|.  The
    # grid points where g equals the level are roots themselves.  At a level
    # one ulp below the largest grid value, the rounded g at that grid point
    # lies above the level while the exact spline crosses it 1e-12 to one
    # side, so brentq on the cell on the other side can stop on that rounding
    # instead of the cell's crossing.  Where the root found differs from
    # brentq's, brentq's must be a root only to rounding (the exact spline
    # within 8 ulp of the level there) and the root found a crossing of the
    # exact spline in the cell, to 1e-12 + 8 ulp / |g'| and at most half the cell
    prof, xs, vals = case
    g = prof.g
    levels = vals.min() + np.array(fracs) * (vals.max() - vals.min())
    i, roots = _level_crossings(g, prof.dg, levels, xs, vals)
    for k, level in enumerate(levels):
        d = vals - level
        # signs, not the product d[:-1] * d[1:], which underflows to 0 at a
        # subnormal level next to the support's end (found at level 2e-313)
        cells = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
        expect = sorted([(brentq(lambda t: float(g(np.array([t]))[0]) - level,
                                 xs[j], xs[j + 1], xtol=_XTOL, rtol=_RTOL),
                          xs[j], xs[j + 1]) for j in cells]
                        + [(x, x, x) for x in xs[d == 0.0]])
        got = roots[i == k]
        assert got.size == len(expect)
        for r, (ref, a, b) in zip(got, expect):
            with np.errstate(divide="ignore"):
                flat = 8.0 * np.spacing(max(abs(level), 1.0)) / abs(prof.dg(np.array([ref]))[0])
                own = 8.0 * np.spacing(max(abs(level), 1.0)) / abs(prof.dg(np.array([r]))[0])
            assert a <= r <= b
            if abs(r - ref) > 1e-12 + flat:
                assert exact_residual(prof, level, ref) <= 8.0 * np.spacing(max(abs(level), 1.0))
                tol = min(1e-12 + own, 0.5 * (b - a))
                assert min(abs(t - r) for t in exact_crossings(prof, level, a, b)) <= tol


@settings(max_examples=100, deadline=None)
@given(case=ring_profiles(), where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       delta=st.floats(0.01, 0.5))
def test_excess_intervals_exceed_delta(case, where, delta):
    # on every interval kept for r, |g(s) - g(r)| > delta at its midpoint
    prof, xs, vals = case
    g = prof.g
    a_vals = g(np.array(where) * xs[-1])
    row, lo, hi = _excess_intervals(g, prof.dg, a_vals, delta, xs, vals)
    assert np.all(lo < hi)
    assert np.all(np.abs(g(0.5 * (lo + hi)) - a_vals[row]) > delta)


@st.composite
def closed_form_shapes(draw):
    """A Gaussian or a smooth bump of positive amplitude: decreasing
    profiles with a ``level_radius``."""
    amp = draw(st.floats(1e-3, 1e3))
    size = draw(st.floats(1e-2, 1e2))  # the Gaussian's rate or the bump's radius
    dim = draw(st.integers(2, 4))
    if draw(st.booleans()):
        return nl.GaussianField(dim, size, amp)
    return nl.SmoothBumpField(dim, size, amp)


@settings(max_examples=300, deadline=None)
@given(field=closed_form_shapes(),
       frac=st.one_of(st.floats(1e-290, 1.0),  # down to the bump's s -> R
                      st.integers(0, 64).map(lambda k: 1.0 - k * 2.0 ** -53),  # near g(0)
                      st.floats(1e-290, 1e-30)))
def test_level_radius_inverts_the_profile(field, frac):
    # level_radius(l) is the exact root to a few ulps (50-digit mpmath;
    # next to g(0) a plain log(l / amp) was off by up to 464 ulps), and
    # g(level_radius(l)) = l to a few ulps of l, plus the few ulps of s
    # that g's slope turns into s |g'(s)| ulps of g; that term dominates
    # far out, where g is ill conditioned (the bump's s -> R as l -> 0)
    import mpmath
    prof = field.radial_profile()
    level = frac * prof.sup
    s = prof.level_radius(np.array([level]))
    assert s.shape == (1,)
    assert 0.0 <= s[0] <= prof.support_radius
    with mpmath.workdps(50):
        ell = mpmath.log(mpmath.mpf(level) / mpmath.mpf(field.amplitude))
        exact = float(mpmath.sqrt(-ell / field.rate) if isinstance(field, nl.GaussianField)
                      else field.radius * mpmath.sqrt(-ell / (1 - ell)))
    assert abs(s[0] - exact) <= 4.0 * np.spacing(exact)
    slope = abs(prof.dg(s)[0]) * s[0]
    assert abs(prof.g(s)[0] - level) <= 8.0 * np.finfo(float).eps * (level + slope)


@settings(max_examples=60, deadline=None)
@given(field=closed_form_shapes(), frac=st.floats(1e-3, 1.95))
def test_closed_form_crossings_match_newton(field, frac):
    # the radial i_delta on closed-form crossings against the same on the
    # probe grid and the safeguarded Newton, forced by dropping level_radius:
    # equal to 1e-12 relative, plus what the Newton's own error on the
    # r-range's end r_top moves a value of size ~ r_top^N by: its step
    # tolerance, and the ulp(delta) / |g'(r_top)| to which g tells roots
    # apart.  That term dominates for delta next to g(0), where g is flat:
    # at a bump's delta = 0.99999 g(0), r_top = 3.2e-3 and the Newton one
    # is off by 8e-12 relative (the closed form is exact there to rounding,
    # against 50-digit mpmath)
    engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
    delta = frac * field.sup_bound
    k = nl.KernelSpec(delta)
    got = nl.i_delta(field, k, engine)
    functionals._MEMO.clear()  # the reference computes anew, on the patched profile
    profile = type(field).radial_profile
    with mock.patch.object(type(field), "radial_profile",
                           lambda u: replace(profile(u), level_radius=None)):
        ref = nl.i_delta(field, k, engine)
    assert got.method == ref.method == "radial"
    if delta >= field.sup_bound:  # no admissible pair
        assert got.value == ref.value == 0.0
        return
    prof = field.radial_profile()
    r_top = prof.level_radius(np.array([delta]))
    newton = _XTOL + _RTOL * r_top[0] + 8.0 * np.spacing(delta) / abs(prof.dg(r_top)[0])
    tol = (1e-12 + field.dim * newton / r_top[0]) * abs(ref.value)
    assert abs(got.value - ref.value) <= tol
    assert abs(got.discrepancy - ref.discrepancy) <= 4.0 * tol


@st.composite
def monotone_profiles(draw):
    """A Gaussian, a smooth bump or a clamped spline through samples of
    the decreasing bell h (1 - (r/s)^2)^2, in dimension 2 to 4."""
    dim = draw(st.integers(2, 4))
    amp = draw(st.floats(1e-2, 1e2))
    size = draw(st.floats(0.1, 10.0))
    kind = draw(st.sampled_from(["gauss", "bump", "spline"]))
    if kind == "gauss":
        return nl.GaussianField(dim, size, amp)
    if kind == "bump":
        return nl.SmoothBumpField(dim, size, amp)
    n = draw(st.integers(3, 7))
    field = nl.RadialProfileField(dim, [size * k / n for k in range(n + 1)],
                                  [amp * (1.0 - (k / n) ** 2) ** 2 for k in range(n + 1)])
    assume(field.radial_profile().monotone_decreasing)
    return field


@settings(max_examples=60, deadline=None)
@given(field=monotone_profiles(), frac=st.floats(1e-3, 0.99),
       p=st.sampled_from([1.5, 2.0, 3.0]))
def test_plain_indicator_weight_matches_explicit(field, frac, p):
    # a step envelope integrates the carved rows' kernel alone and scales
    # by delta^p once; the same F from a function weighs every s-node: at
    # N = 2, 4 both run the s-template, the same integral to rounding.  At
    # N = 3 the step's rows are exact in s, and the function's template is
    # off by its own error.  At n_s = 10 its finest panel, 2^-10 of a row,
    # is coarser than the near-diagonal layer of a row at small delta, and
    # the template is then off by up to 24x; at n_s = 30 its error measured
    # at most 9.8e-10 of the value, and that of its half order (n_s = 26),
    # which enters the discrepancy, at most 2.6e-6
    prof = field.radial_profile()
    delta = frac * prof.sup
    num = delta ** p
    spec = RadialSpec(n_r=8, n_s=10)  # coarse: the graded theta rule at N = 2, 4 is slow
    plain = MonotoneEnvelope(fn=None, beta=p, name="plain", small_t_power=p,
                             zero_below=delta, sup_value=num, step=True)
    explicit = replace(plain, fn=lambda t: np.where(t > delta, num, 0.0), step=False)
    got = radial_pair_integrate(prof, p, plain, spec, field.dim)
    if field.dim == 3:
        spec = replace(spec, n_s=30)
    ref = radial_pair_integrate(prof, p, explicit, spec, field.dim)
    assert got.value > 0.0
    if field.dim != 3:
        assert abs(got.value - ref.value) <= 1e-13 * ref.value
        assert abs(got.discrepancy - ref.discrepancy) <= 1e-13 * ref.value
        return
    assert abs(got.value - ref.value) <= 2e-9 * ref.value
    assert abs(got.discrepancy - ref.discrepancy) <= 5e-6 * ref.value
    assert abs(got.value - ref.value) <= min(got.discrepancy + got.tail_bound,
                                             ref.discrepancy + ref.tail_bound)


def test_n3_radial_claims_cover_the_truth():
    # |value - truth| <= discrepancy + tail_bound for the step rows of
    # decreasing profiles at N = 3, on the benchmark's 12/16 grid and on the
    # default 48/30.  The truth is the same engine at n_r = 800 (its rows
    # are exact in s, so only the r-rule converges).  The r-rule converges
    # like n_r^-1.2 there, so the truth's own 400-vs-800 gap is a few
    # percent of a 48/30 claim: it must stay under 5% of the claim, and it
    # is charged to the estimate
    rng = np.random.default_rng(20170933)
    for kind in ("gauss", "bump", "spline"):
        for _ in range(15):
            amp = rng.uniform(0.5, 2.0)
            if kind == "gauss":
                field = nl.GaussianField(3, rng.uniform(0.5, 2.0), amp)
            elif kind == "bump":
                field = nl.SmoothBumpField(3, rng.uniform(1.0, 3.0), amp)
            else:
                n, size = int(rng.integers(4, 7)), rng.uniform(1.5, 3.0)
                field = nl.RadialProfileField(
                    3, [size * k / n for k in range(n + 1)],
                    [amp * (1.0 - (k / n) ** 2) ** 2 for k in range(n + 1)])
            prof = field.radial_profile()
            assert prof.monotone_decreasing
            p = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
            delta = math.exp(rng.uniform(math.log(0.005), math.log(0.5))) * prof.sup
            env = MonotoneEnvelope.threshold(delta, p)
            truth = radial_pair_integrate(prof, p, env, RadialSpec(n_r=800), 3)
            gap = 0.5 * truth.discrepancy
            for spec in (RadialSpec(n_r=12, n_s=16), RadialSpec()):
                est = radial_pair_integrate(prof, p, env, spec, 3)
                claim = est.discrepancy + est.tail_bound
                case = (field.to_dict(), p, delta, spec.n_r)
                assert gap <= 0.05 * claim, case
                assert abs(est.value - truth.value) + gap <= claim, case


def _seeded_monotone_cases(rng):
    """Three Gaussians, three bumps and three monotone splines, each in a
    random dimension 2 to 4 with one delta below its sup."""
    cases = []
    for kind in ("gauss", "bump", "spline"):
        for _ in range(3):
            dim = int(rng.integers(2, 5))
            amp = rng.uniform(0.5, 2.0)
            if kind == "gauss":
                field = nl.GaussianField(dim, rng.uniform(0.5, 2.0), amp)
            elif kind == "bump":
                field = nl.SmoothBumpField(dim, rng.uniform(1.0, 3.0), amp)
            else:
                n, size = int(rng.integers(4, 7)), rng.uniform(1.5, 3.0)
                field = nl.RadialProfileField(
                    dim, [size * k / n for k in range(n + 1)],
                    [amp * (1.0 - (k / n) ** 2) ** 2 for k in range(n + 1)])
            cases.append((field, rng.uniform(0.05, 0.6) * field.sup_bound))
    return cases


def test_radial_and_mc_agree_within_their_budgets():
    # The radial i_delta and the MC one (48k samples in 40 chunks, four
    # seeds) differ by at most k stderr + discrepancy + both tail bounds.
    # The MC error is a mean of 40 iid chunk means of a bounded integrand,
    # so (estimate - truth) / stderr is near Student t with 39 degrees of
    # freedom; k is its two-sided quantile at 1e-3 / 36, so that by the
    # union bound the 36 comparisons false-alarm with probability <= 1e-3
    # (k = 4.75).  The discrepancy and the tail bounds are the engines'
    # own claims on their deterministic errors.
    from scipy.stats import t as student
    seeds = (1, 2, 3, 4)
    cases = _seeded_monotone_cases(np.random.default_rng(20170901))
    chunks = 40
    k = float(student.ppf(1.0 - 1e-3 / (2 * len(cases) * len(seeds)), chunks - 1))
    radial_engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
    for field, delta in cases:
        assert field.radial_profile().monotone_decreasing
        kern = nl.KernelSpec(delta)
        radial = nl.i_delta(field, kern, radial_engine)
        assert radial.method == "radial" and radial.value > 0.0
        for seed in seeds:
            mc = nl.i_delta(field, kern, nl.default_engine(
                seed, mode="mc", n_samples=48000, chunk_size=48000 // chunks))
            assert mc.method == "mc" and mc.stderr > 0.0
            budget = (k * mc.stderr + radial.discrepancy + radial.tail_bound
                      + mc.tail_bound)
            assert abs(radial.value - mc.value) <= budget, (field.to_dict(), delta, seed)

"""Functional evaluators: exact laws, reductions, entropies, energies."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import nlsob as nl
from nlsob.errors import (DivergentIntegralError, PreconditionError,
                          UnsupportedOperationError, ZeroFieldError)
from nlsob.functionals import (
    EnergyParams,
    dirichlet_energy,
    dirichlet_energy_estimate,
    KernelSpec,
    MonotoneEnvelope,
    default_engine,
    ent_mu,
    entropy_l2,
    entropy_l2_estimate,
    f_functional,
    gauss_lsi_sides,
    i_delta,
    i_delta_magnetic_paired,
    i_delta_p,
    j_delta_energy,
    j_energy,
    l2_norm_sq,
    l2_norm_sq_estimate,
    log_moment_lp,
    log_moment_lp_estimate,
    lp_power_integral,
    restricted_power_integral,
    xlogx,
)
from nlsob.quadrature import RadialSpec, dirichlet_quadrature, lebesgue_volume_integral

from conftest import rel_err


def pinned_mc_engine(seed=42, h_max=64.0, x_radius=None, n_samples=96000):
    eng = default_engine(seed, mode="mc", n_samples=n_samples)
    return replace(eng, mc=replace(eng.mc, h_max=h_max, x_radius=x_radius))


class TestIDelta:
    def test_constant_field_zero(self, engine):
        est = i_delta(nl.ConstantField(3, 2.5), KernelSpec(0.1), engine)
        assert est.value == 0.0 and not est.diverged

    def test_oscillation_shortcut(self, engine, gauss3):
        # delta >= 2 sup|u| empties the indicator set
        est = i_delta(gauss3, KernelSpec(2.0), engine)
        assert est.value == 0.0 and est.method == "closed_form"

    def test_p_must_be_two(self, engine, gauss3):
        with pytest.raises(PreconditionError):
            i_delta(gauss3, KernelSpec(0.1, p=3.0), engine)

    def test_cross_engine_agreement(self, gauss3, engine, engine_mc):
        r = i_delta(gauss3, KernelSpec(0.1), engine)
        m = i_delta(gauss3, KernelSpec(0.1), engine_mc)
        assert r.method == "radial" and m.method == "mc"
        assert abs(r.value - m.value) <= 3.0 * m.stderr + r.discrepancy + r.tail_bound

    def test_indicator_diverges(self, engine, indicator3):
        est = i_delta(indicator3, KernelSpec(0.5), engine)
        assert est.diverged
        assert est.value == math.inf and est.method == "exact"

    def test_p2_matches_i_delta_bitwise(self, gauss3, engine_mc_small):
        a = i_delta(gauss3, KernelSpec(0.1), engine_mc_small)
        b = i_delta_p(gauss3, KernelSpec(0.1, p=2.0), engine_mc_small)
        assert a.value == b.value

    @pytest.mark.parametrize("route", ["mc", "radial", "diverged", "closed_form"])
    def test_i_delta_is_i_delta_p_at_p2(self, engine, route):
        # one memo entry on every route: i_delta returns the very Estimate
        # that i_delta_p keeps
        from nlsob import functionals
        u, delta = {
            "mc": (nl.FiniteSumField([nl.GaussianField(3, 1.0, 1.0, (0.3, 0.0, 0.0)),
                                      nl.GaussianField(3, 1.6, 0.65, (-0.3, 0.2, 0.0))]), 0.1),
            "radial": (nl.GaussianField(3, 1.0), 0.1),
            "diverged": (nl.IndicatorField(3, 1.0), 0.5),
            "closed_form": (nl.GaussianField(3, 1.0), 2.0)}[route]
        engine = replace(engine, mc=replace(engine.mc, n_samples=4800))
        a = i_delta(u, KernelSpec(delta), engine)
        assert a is i_delta_p(u, KernelSpec(delta, p=2.0), engine)
        assert list(functionals._MEMO.values()) == [a]
        assert a.method == {"mc": "mc", "radial": "radial", "diverged": "exact",
                            "closed_form": "closed_form"}[route]


class CountingIndicator(nl.IndicatorField):
    points = 0

    def evaluate(self, x):
        CountingIndicator.points += len(x)
        return super().evaluate(x)


class TestJumpVerdicts:
    """Divergence of jump fields, decided from their jump spheres."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_indicator_diverges_at_every_seed(self, p, seed):
        CountingIndicator.points = 0
        est = i_delta_p(CountingIndicator(3, 1.0), KernelSpec(0.5, p),
                        default_engine(seed, mode="mc"))
        assert est.diverged and est.value == math.inf
        assert CountingIndicator.points == 0

    def test_power_envelope_diverges(self, engine):
        CountingIndicator.points = 0
        est = f_functional(CountingIndicator(3, 1.0), MonotoneEnvelope.power_law(3.0),
                           2.0, engine)
        assert est.diverged and est.value == math.inf
        assert CountingIndicator.points == 0

    def test_threshold_envelope_follows_delta(self):
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0), nl.GaussianField(3, 1.0)])
        small = default_engine(3, n_samples=4800)
        assert f_functional(f, MonotoneEnvelope.threshold(0.5), 2.0, small).diverged
        est = f_functional(f, MonotoneEnvelope.threshold(1.25), 2.0, small)
        assert not est.diverged and 0.0 < est.value < math.inf

    def test_crossing_spheres_diverge_below_the_jump(self, engine):
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0),
                               nl.IndicatorField(3, 1.0, 0.5, (1.0, 0.0, 0.0))])
        assert i_delta(f, KernelSpec(0.9), engine).diverged

    def test_crossing_spheres_unsupported_above_the_jump(self, engine):
        # opposite jumps meet on the crossing circle: |u(x) - u(y)| reaches 2
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0),
                               nl.IndicatorField(3, 1.0, -1.0, (1.0, 0.0, 0.0))])
        with pytest.raises(UnsupportedOperationError):
            i_delta(f, KernelSpec(1.5), engine)

    def test_touching_spheres_unsupported(self, engine):
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0),
                               nl.IndicatorField(3, 1.0, -1.0, (2.0, 0.0, 0.0))])
        with pytest.raises(UnsupportedOperationError):
            i_delta(f, KernelSpec(1.5), engine)

    def test_delta_at_the_jump(self, engine):
        # a pure jump never exceeds its own height; a varying part may
        assert i_delta(nl.IndicatorField(3, 1.0), KernelSpec(1.0),
                       default_engine(3, n_samples=4800)).value == 0.0
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0), nl.GaussianField(3, 1.0)])
        with pytest.raises(UnsupportedOperationError):
            i_delta(f, KernelSpec(1.0), engine)

    # the outer tail bound of the old run, which drew a whole plan of zeros
    PARENT_TAILS = {
        (1.0, 1.2): "0x1.4f8b588e368f1p-17", (1.0, 2.0): "0x1.4f8b588e368f2p-17",
        (1.0, 3.0): "0x1.4f8b588e368f7p-17", (1.25, 1.2): "0x1.4f8b588e368f0p-17",
        (1.25, 2.0): "0x1.4f8b588e368f1p-17", (1.25, 3.0): "0x1.4f8b588e368f7p-17",
        (1.5, 1.2): "0x1.4f8b588e368f0p-17", (1.5, 2.0): "0x1.4f8b588e368f1p-17",
        (1.5, 3.0): "0x1.4f8b588e368f6p-17",
    }

    @pytest.mark.parametrize("delta, p", sorted(PARENT_TAILS))
    def test_single_jump_at_or_above_delta_draws_nothing(self, delta, p):
        # one sphere, no Lipschitz part: no pair exceeds delta >= J, so
        # the run has no stratum to draw and keeps its tail bound's bits
        CountingIndicator.points = 0
        est = i_delta_p(CountingIndicator(3, 1.0), KernelSpec(delta, p),
                        default_engine(3, mode="mc", n_samples=4800))
        assert CountingIndicator.points == 0
        assert (est.value, est.stderr, est.n_effective, est.method) == (0.0, 0.0, 0, "mc")
        assert est.tail_bound.hex() == self.PARENT_TAILS[delta, p]

    def test_no_lipschitz_bound_and_no_jumps_unsupported(self, engine):
        # spheres whose heights cancel leave no jump to decide from
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0), nl.IndicatorField(3, 1.0, -1.0),
                               nl.GaussianField(3, 1.0)])
        with pytest.raises(UnsupportedOperationError):
            i_delta(f, KernelSpec(0.5), engine)


class TestExactLaws:
    def test_amplitude_law_bitwise(self, gauss3):
        # I_delta(t u) = t^p I_{delta/t}(u) for power-of-two t, shared stream
        delta, t = 0.1, 2.0
        u2 = gauss3.amplify(t)
        eng = pinned_mc_engine(x_radius=u2.decay_radius(delta / 2.0))
        for p in (2.0, 3.0):
            a = i_delta_p(u2, KernelSpec(delta, p=p), eng)
            b = i_delta_p(gauss3, KernelSpec(delta / t, p=p), eng)
            assert a.value == t ** p * b.value

    def test_amplitude_law_radial_ring(self):
        # I_{t delta}(t u) = t^2 I_delta(u) on the generic radial path at a
        # tiny amplitude, on a pinned grid so both sides share their r_max
        ring = nl.RadialProfileField(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
        eng = replace(default_engine(1), radial=nl.RadialSpec(n_r=12, n_s=16, r_max=8.0))
        t = 1e-15
        for delta in (0.2, 0.1):
            a = i_delta(ring.amplify(t), KernelSpec(t * delta), eng)
            b = i_delta(ring, KernelSpec(delta), eng)
            assert rel_err(a.value, t * t * b.value) <= 1e-13

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_dilation_law_radial(self, gauss3, engine, lam):
        delta = 0.1
        base = i_delta(gauss3, KernelSpec(delta), engine)
        dil = i_delta(gauss3.dilate(lam), KernelSpec(delta), engine)
        expect = lam ** (3 - 2) * base.value
        tol = 2e-3 * expect + 2 * (base.discrepancy + dil.discrepancy
                                   + base.tail_bound + dil.tail_bound)
        assert abs(dil.value - expect) <= tol

    def test_dilation_law_general_p(self, gauss3, engine):
        # exponent N - p; at p = 3 = N the functional is dilation invariant
        base = i_delta_p(gauss3, KernelSpec(0.1, p=3.0), engine)
        dil = i_delta_p(gauss3.dilate(2.0), KernelSpec(0.1, p=3.0), engine)
        assert rel_err(dil.value, base.value) < 5e-3

    def test_translation_invariance(self, gauss3, engine_mc):
        base = i_delta(gauss3, KernelSpec(0.1), engine_mc)
        moved = i_delta(gauss3.translate([0.7, -0.3, 0.2]), KernelSpec(0.1),
                        engine_mc)
        assert abs(moved.value - base.value) <= 3.0 * math.hypot(base.stderr,
                                                                 moved.stderr)


class TestEnvelopes:
    @pytest.mark.parametrize("make", [
        lambda: KernelSpec(math.nan),
        lambda: KernelSpec(math.inf),
        lambda: KernelSpec(0.0),
        lambda: KernelSpec(0.1, p=math.nan),
        lambda: KernelSpec(0.1, p=math.inf),
        lambda: KernelSpec(0.1, p=0.5),
        lambda: MonotoneEnvelope.power_law(math.nan),
        lambda: MonotoneEnvelope.power_law(math.inf),
        lambda: MonotoneEnvelope.power_law(0.5),
        lambda: MonotoneEnvelope.threshold(math.nan),
        lambda: MonotoneEnvelope.threshold(-0.1),
        lambda: MonotoneEnvelope.threshold(0.1, 0.5),
        lambda: MonotoneEnvelope.threshold(0.1, 0.0),
        lambda: MonotoneEnvelope.threshold(0.1, -2.0),
        lambda: MonotoneEnvelope.threshold(0.1, math.nan),
        lambda: MonotoneEnvelope.threshold(0.1, math.inf),
        lambda: default_engine(1, mode="radial"),
    ], ids=["delta-nan", "delta-inf", "delta-0", "p-nan", "p-inf", "p-half", "q-nan",
            "q-inf", "q-half", "threshold-nan", "threshold-negative", "threshold-p-half",
            "threshold-p-0", "threshold-p-negative", "threshold-p-nan", "threshold-p-inf",
            "mode-radial"])
    def test_invalid_parameters_rejected(self, make):
        # a NaN delta used to pass (NaN <= 0 is false), and its threshold
        # envelope then took the smooth-envelope branch of _pair_functional.
        # A threshold p below 1 used to give finite values (p = 0.5, 0 and
        # -2 all did), p = NaN a NaN numerator, which as a memo key would
        # never equal itself.  The engine modes are auto and mc; "radial"
        # was one no caller set
        with pytest.raises(PreconditionError):
            make()

    def test_reduction_consistency_bitwise(self, gauss3, bump3, engine, engine_mc_small):
        # I_delta and its general-p variant are the envelope functional of
        # the threshold envelope: one memo entry, the very same Estimate, on
        # both engines, on a non-radial sum, on a field whose jump lies
        # below delta (finite, one exactly truncated MC run) or above it
        # (diverged, decided exactly) at p = 1.5, and past the oscillation
        # (0 in closed form)
        from nlsob import functionals
        gsum = nl.FiniteSumField([gauss3, bump3.amplify(0.5).translate([0.0, 0.3, 0.0])])
        jumpy = nl.FiniteSumField([nl.IndicatorField(3, 0.9, 1.0, (-0.1, 0.1, 0.0)),
                                   nl.GaussianField(3, 1.0, 1.0, (0.2, -0.1, 0.0))])
        cases = [(gauss3, 0.1, 2.0, eng, "finite") for eng in (engine, engine_mc_small)]
        cases += [(gsum, 0.1, 2.0, engine_mc_small, "finite"),
                  (jumpy, 1.25, 1.5, engine_mc_small, "finite"),
                  (jumpy, 0.5, 1.5, engine_mc_small, "diverged"),
                  (gauss3, 2.5, 2.0, engine_mc_small, "zero")]
        for u, delta, p, eng, expect in cases:
            functionals._MEMO.clear()
            a = f_functional(u, MonotoneEnvelope.threshold(delta, p), p, eng)
            b = (i_delta if p == 2.0 else i_delta_p)(u, KernelSpec(delta, p=p), eng)
            assert a is b and len(functionals._MEMO) == 1
            assert {"finite": 0.0 < b.value < math.inf and not b.diverged,
                    "diverged": b.diverged and b.value == math.inf,
                    "zero": b.value == 0.0 and b.method == "closed_form"}[expect]

    def test_envelopes_are_values(self, gauss3, engine):
        # the two kinds are equal by parameters, so they are sound memo keys;
        # an envelope of an arbitrary fn equals only one holding that object
        from nlsob import functionals
        thr, pw = MonotoneEnvelope.threshold, MonotoneEnvelope.power_law
        assert thr(0.1, 1.5) == thr(0.1, 1.5) and hash(thr(0.1, 1.5)) == hash(thr(0.1, 1.5))
        assert pw(3.0) == pw(3.0) and hash(pw(3.0)) == hash(pw(3.0))
        assert thr(0.1) == thr(0.1, 2.0)
        assert len({thr(0.1), thr(0.2), thr(0.1, 3.0), pw(3.0), pw(4.0)}) == 5
        cube = lambda t: np.asarray(t, float) ** 3
        make = lambda fn: MonotoneEnvelope(fn=fn, beta=3.0, name="cube", small_t_power=3.0)
        assert make(cube) == make(cube)
        assert make(cube) != make(lambda t: np.asarray(t, float) ** 3) != pw(3.0)
        # one memo entry per envelope value: a new power_law(3) reads the
        # first one's estimate, a new fn is a new entry with the same bits
        a = f_functional(gauss3, pw(3.0), 2.0, engine)
        assert f_functional(gauss3, pw(3.0), 2.0, engine) is a
        b = f_functional(gauss3, make(cube), 2.0, engine)
        assert f_functional(gauss3, make(cube), 2.0, engine) is b
        c = f_functional(gauss3, make(lambda t: np.asarray(t, float) ** 3), 2.0, engine)
        assert sum(k[0] == "f_functional" for k in functionals._MEMO) == 3 and a == b == c

    def test_callable_objects_compare_by_identity(self, gauss3):
        # an fn compares by identity, whatever its own == says: one defining
        # __eq__ but not __hash__ used to make the memo key unhashable
        # (TypeError), and two distinct callables equal by their == would
        # have shared one memo entry
        from nlsob import functionals

        class Cube:
            def __call__(self, t):
                return np.asarray(t, float) ** 3

            def __eq__(self, other):
                return isinstance(other, Cube)

        engine = replace(default_engine(1), radial=RadialSpec(n_r=8, n_s=10))
        make = lambda fn: MonotoneEnvelope(fn=fn, beta=3.0, name="cube", small_t_power=3.0)
        first, second = Cube(), Cube()
        assert first == second and make(first) != make(second)
        assert make(first) == make(first) and hash(make(first)) == hash(make(first))
        functionals._MEMO.clear()
        a = f_functional(gauss3, make(first), 2.0, engine)
        assert f_functional(gauss3, make(first), 2.0, engine) is a
        b = f_functional(gauss3, make(second), 2.0, engine)
        assert b is not a and b == a
        assert sum(k[0] == "f_functional" for k in functionals._MEMO) == 2

    def test_deep_copy_of_an_fn_is_a_new_key(self):
        # fn's identity is taken when comparing, not stored at construction:
        # a deep copy of an envelope of a callable object holds a new object,
        # so it is another key, while a lambda, which deepcopy keeps, is the
        # same key
        import copy

        class Cube:
            def __call__(self, t):
                return np.asarray(t, float) ** 3

        env = MonotoneEnvelope(fn=Cube(), beta=3.0, name="cube", small_t_power=3.0)
        dup = copy.deepcopy(env)
        assert dup.fn is not env.fn and dup != env
        lam = replace(env, fn=lambda t: np.asarray(t, float) ** 3)
        assert copy.deepcopy(lam) == lam and hash(copy.deepcopy(lam)) == hash(lam)

    def test_threshold_equals_its_pickle_from_another_process(self):
        # two thresholds of equal parameters compare and hash equal, also
        # when one was pickled by another process, whose None has another id
        import os
        import pickle
        import subprocess
        import sys
        script = ("import pickle, sys; from nlsob.quadrature import MonotoneEnvelope as M; "
                  "print(pickle.dumps(M.threshold(0.1, 2.0)).hex())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(nl.__file__)), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True)
        loaded = pickle.loads(bytes.fromhex(out.stdout.strip()))
        fresh = MonotoneEnvelope.threshold(0.1, 2.0)
        assert loaded == fresh and hash(loaded) == hash(fresh)

    def test_envelope_descriptors_are_unchanged(self):
        # the benchmark hashes to_dict into the op id of an f_functional call
        assert MonotoneEnvelope.threshold(0.1, 1.5).to_dict() == {
            "name": "threshold:0.1", "beta": 1.5, "small_t_power": 1.5, "zero_below": 0.1}
        assert MonotoneEnvelope.power_law(3.0).to_dict() == {
            "name": "power:3.0", "beta": 3.0, "small_t_power": 3.0, "zero_below": 0.0}

    def test_kinds_compute_the_functions_they_replaced(self):
        # F of each kind from its fields, bit for bit the lambdas the kinds held
        t = np.linspace(0.0, 4.0, 97)
        for delta, p in ((0.1, 2.0), (0.3, 1.5), (1.0, 3.0)):
            num = MonotoneEnvelope.threshold(delta, p).sup_value
            assert np.array_equal(MonotoneEnvelope.threshold(delta, p)(t),
                                  np.where(t > delta, num, 0.0))
        for q in (1.0, 2.5, 3.0):
            assert np.array_equal(MonotoneEnvelope.power_law(q)(t), t ** q)

    def test_only_the_threshold_envelope_is_a_step(self):
        # step = True lets the radial engine take the plain indicator weight;
        # the descriptor leaves it out, so no hash moves
        thr = MonotoneEnvelope.threshold(0.1)
        assert thr.step and not MonotoneEnvelope.power_law(3.0).step
        assert "step" not in thr.to_dict()

    def test_zero_envelope(self, gauss3, engine):
        env = MonotoneEnvelope(fn=lambda t: np.zeros_like(np.asarray(t, float)),
                               beta=2.0, name="zero", small_t_power=3.0)
        assert f_functional(gauss3, env, 2.0, engine).value == 0.0

    def test_power_law_cross_engine(self, gauss3, engine, engine_mc):
        env = MonotoneEnvelope.power_law(3.0)
        r = f_functional(gauss3, env, 2.0, engine)
        m = f_functional(gauss3, env, 2.0, engine_mc)
        assert abs(r.value - m.value) <= 3.0 * m.stderr + r.tail_bound + m.tail_bound

    def test_subhomogeneity_validation_rejects(self):
        # an envelope is validated where it is built
        with pytest.raises(PreconditionError, match="violates sub-homogeneity"):
            MonotoneEnvelope(fn=lambda t: np.asarray(t, float) ** 3,
                             beta=2.0, name="bad-beta", small_t_power=3.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(PreconditionError, match="not non-decreasing"):
            MonotoneEnvelope(fn=lambda t: np.sin(np.asarray(t, float)) ** 2,
                             beta=2.0, name="wiggle", small_t_power=2.0)

    def test_small_t_integrability_guard(self, gauss3, engine):
        env = MonotoneEnvelope.power_law(2.0)  # q = p = 2: not integrable
        with pytest.raises(PreconditionError):
            f_functional(gauss3, env, 2.0, engine)

    def test_power_law_subhomogeneity_saturates(self):
        env = MonotoneEnvelope.power_law(3.0)
        assert env(np.array([2.0]))[0] == 2.0 ** 3 * env(np.array([1.0]))[0]
        env.validate()  # power laws satisfy it with equality

    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0, 5.0])
    def test_power_law_validates(self, q):
        # F(ts) and t^q F(s) reach 16^q on the grid; rounding is no violation
        MonotoneEnvelope.power_law(q).validate()

    def test_subhomogeneity_violation_still_raises(self):
        with pytest.raises(PreconditionError, match="violates sub-homogeneity"):
            MonotoneEnvelope(fn=lambda t: np.asarray(t, float) ** 2,
                             beta=1.0, name="square-beta-1", small_t_power=2.0)


class TestMagnetic:
    def test_zero_potential_reduces_bitwise(self, gauss3, engine_mc_small):
        cf = nl.ComplexField(gauss3)
        mag, base = i_delta_magnetic_paired(cf, nl.ZeroPotential(3),
                                            KernelSpec(0.1), engine_mc_small)
        plain = i_delta(gauss3, KernelSpec(0.1), engine_mc_small)
        assert mag.value == base.value == plain.value

    def test_zero_field(self, engine_mc_small):
        cf = nl.ComplexField(nl.GaussianField(3, 1.0, 0.0))
        mag, _ = i_delta_magnetic_paired(cf, nl.ZeroPotential(3),
                                         KernelSpec(0.1), engine_mc_small)
        assert mag.value == 0.0

    def test_paired_ordering_exact(self, engine_mc_small):
        M = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for A in (nl.ZeroPotential(3), nl.ConstantPotential((0.5, -1.0, 0.2)),
                  nl.LinearBPotential(M)):
            for phase in (nl.LinearPhase(), nl.LinearPhase(0.4, (2.0, 0.0, -1.0))):
                cf = nl.ComplexField(nl.GaussianField(3, 1.0), phase)
                mag, base = i_delta_magnetic_paired(cf, A, KernelSpec(0.1),
                                                    engine_mc_small)
                assert base.value <= mag.value

    @pytest.mark.parametrize("w", [5.0, 20.0])
    def test_cutoff_covers_the_phase_gradient(self, w):
        # u = |u| exp(i w x_1) turns at rate sup|u| w; a cutoff blind to it
        # skipped strata that add to the integral (67.81 for 83.69 +- 9.8 at
        # w = 5, 222.4 for 985.3 +- 52 at w = 20)
        from dataclasses import replace

        from nlsob.quadrature import mc_pair_integrate_many
        two_gauss = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                                       nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
        u = nl.ComplexField(two_gauss, nl.LinearPhase(0.0, (w, 0.0, 0.0)))
        A, engine = nl.ZeroPotential(3), nl.default_engine(7, mode="mc", n_samples=48000)
        est = i_delta_magnetic_paired(u, A, KernelSpec(0.1), engine)[0]
        ctx = i_delta_magnetic_paired.__wrapped__(u, A, KernelSpec(0.1), engine)  # its route
        every = mc_pair_integrate_many([replace(ctx, inner_cutoff=0.0)], engine.mc)[0]
        assert ctx.inner_cutoff > 0.0
        assert (est.value.hex(), est.stderr.hex()) == (every.value.hex(), every.stderr.hex())

    def test_pointwise_diamagnetic_inequality(self, gauss3, rng):
        # the covariant difference dominates the difference of moduli
        M = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        A = nl.LinearBPotential(M)
        cf = nl.ComplexField(gauss3, nl.LinearPhase(0.2, (1.0, 0.5, 0.0)))
        x = rng.normal(size=(500, 3))
        y = x + rng.normal(scale=0.5, size=(500, 3))
        phi = np.einsum("ij,ij->i", x - y, A.evaluate(0.5 * (x + y)))
        dpsi = np.abs(np.exp(1j * phi) * cf.evaluate(y) - cf.evaluate(x))
        dmod = np.abs(np.abs(gauss3.evaluate(x)) - np.abs(gauss3.evaluate(y)))
        assert np.all(dmod <= dpsi + 1e-14)


class TestEntropy:
    def test_gaussian_closed_form(self, gauss3):
        expect = -1.5 - 1.5 * math.log(math.pi / 2.0)
        assert rel_err(entropy_l2(gauss3), expect) < 1e-14

    def test_quadrature_matches(self, gauss3):
        expect = -1.5 - 1.5 * math.log(math.pi / 2.0)
        assert rel_err(entropy_quadrature(gauss3), expect) < 1e-6

    def test_scale_invariance(self, gauss3):
        base = entropy_quadrature(gauss3)
        scaled = entropy_quadrature(gauss3.amplify(7.3))
        assert rel_err(scaled, base) < 1e-10

    def test_indicator_closed_form(self, indicator3):
        assert rel_err(entropy_l2(indicator3),
                       -math.log(4.0 * math.pi / 3.0)) < 1e-14

    def test_complex_uses_modulus(self, gauss3):
        cf = nl.ComplexField(gauss3, nl.LinearPhase(1.0, (3.0, 0.0, 0.0)))
        assert entropy_l2(cf) == entropy_l2(gauss3)

    def test_zero_field_rejected(self):
        with pytest.raises(ZeroFieldError):
            entropy_l2(nl.GaussianField(3, 1.0, 0.0))

    def test_bump_support_lower_bound(self, bump3, profile3):
        # normalized entropy of a compactly supported field is at least
        # -log(volume of support)
        from nlsob.quadrature import ball_volume
        for f in (bump3, profile3):
            vol = ball_volume(3, f.radial_profile().support_radius)
            assert entropy_l2(f) >= -math.log(vol) - 1e-9


def entropy_quadrature(u):
    """The quadrature that ``entropy_l2`` falls back to, run on a field with
    a closed form: the entropy's integral against the closed-form mass."""
    m = l2_norm_sq(u)
    return lebesgue_volume_integral(u, (lambda v: xlogx(v * v / m),), 2.0)[0].value


def log_moment_quadrature(u, p):
    return lebesgue_volume_integral(u, (lambda v: xlogx(np.abs(v) ** p),), p)[0].value


# (Estimate path, float function or None, the field's closed form, the quadrature)
# of every volume quantity
VOLUME_QUANTITIES = {
    "l2_norm_sq": (l2_norm_sq_estimate, l2_norm_sq, lambda u: u.l2_norm_sq_closed_form(),
                   lambda u: lebesgue_volume_integral(u, (lambda v: v * v,), 2.0)[0]),
    "dirichlet_energy": (dirichlet_energy_estimate, dirichlet_energy,
                         lambda u: u.dirichlet_closed_form(), dirichlet_quadrature),
    "lp_power_integral": (
        lambda u: lp_power_integral(u, 3.0), None, lambda u: u.lp_power_closed_form(3.0),
        lambda u: lebesgue_volume_integral(u, (lambda v: np.abs(v) ** 3.0,), 3.0)[0]),
    "log_moment_lp": (
        lambda u: log_moment_lp_estimate(u, 2.0), lambda u: log_moment_lp(u, 2.0),
        lambda u: u.log_moment_closed_form(2.0),
        lambda u: lebesgue_volume_integral(u, (lambda v: xlogx(np.abs(v) ** 2.0),),
                                           2.0)[0]),
    # the normalising mass comes first, and so does its divergence
    "entropy_l2": (
        entropy_l2_estimate, entropy_l2,
        lambda u: (l2_norm_sq(u), u.entropy_l2_closed_form())[1],
        lambda u: lebesgue_volume_integral(
            u, (lambda v, m=l2_norm_sq(u): xlogx(v * v / m),), 2.0)[0]),
}


def _outcome(fn, u):
    """What ``fn(u)`` returns, or the type of what it raises."""
    try:
        return fn(u)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc)


def _bits(outcome):
    return outcome if isinstance(outcome, type) else (
        outcome.value, outcome.stderr, outcome.n_effective, outcome.method)


class TestVolumeRule:
    """One rule for every volume quantity: the field's closed form, or the
    divergence it raises, where there is one; the quadrature otherwise.
    ``auto`` checks the whole rule, ``closed_form`` and ``quadrature`` each
    of its two branches."""

    GAUSS = nl.GaussianField(3, 1.0, 0.8)
    NO_CLOSED_FORM = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                                        nl.SmoothBumpField(3, 1.5, 0.8, (0.7, 0.0, 0.0))])
    NON_DECAYING = nl.ConstantField(3, 1.0)

    @pytest.mark.parametrize("branch", ["auto", "closed_form", "quadrature"])
    @pytest.mark.parametrize("name", sorted(VOLUME_QUANTITIES))
    def test_rule(self, name, branch):
        from unittest import mock

        from nlsob import quadrature
        estimate, as_float, closed_form, integrate = VOLUME_QUANTITIES[name]
        for u in (self.GAUSS, self.NO_CLOSED_FORM, self.NON_DECAYING):
            closed = _outcome(closed_form, u)
            if branch == "auto":
                got = _outcome(estimate, u)
                expect = _bits(_outcome(integrate, u)) if closed is None else (
                    closed if isinstance(closed, type) else (closed, 0.0, 0, "closed_form"))
                assert _bits(got) == expect  # bit for bit
                if as_float is not None:
                    value = _outcome(as_float, u)
                    assert value == (got if isinstance(got, type) else got.value)
            elif branch == "closed_form":
                if u is not self.NON_DECAYING:  # every closed form of GAUSS, none of the sum
                    assert (closed is None) == (u is self.NO_CLOSED_FORM)
                if closed is not None:  # a closed form runs no volume pass
                    with mock.patch.object(quadrature, "radial_volume_value",
                                           side_effect=AssertionError), \
                            mock.patch.object(quadrature, "mc_volume_value",
                                              side_effect=AssertionError):
                        got = _outcome(estimate, u)
                    assert got is closed if isinstance(closed, type) else (
                        got.method == "closed_form" and got.value == closed)
            else:
                got = _outcome(integrate, u)
                if u is self.NON_DECAYING:
                    # no truncation for u, while grad u = 0 has settled everywhere
                    assert _bits(got) == ((0.0, 0.0, 0, "radial") if name == "dirichlet_energy"
                                          else DivergentIntegralError)
                else:
                    assert got.method == ("radial" if u is self.GAUSS else "mc")
                if closed is None:
                    assert _bits(_outcome(estimate, u)) == _bits(got)


class TestEntMu:
    def test_constant_one_gauss(self):
        assert abs(ent_mu(1.0, "gauss", dim=3)) < 1e-12

    def test_constant_gauss(self):
        c = 2.7
        assert rel_err(ent_mu(c, "gauss", dim=3), 1.5 * math.log(c)) < 1e-12

    def test_lebesgue_consistency_identity(self, gauss3):
        lhs = ent_mu(gauss3, "lebesgue", square=True) - entropy_quadrature(gauss3)
        rhs = 1.5 * math.log(nl.l2_norm_sq(gauss3))
        assert rel_err(lhs, rhs) < 1e-8

    def test_constant_lebesgue_rejected(self):
        with pytest.raises(DivergentIntegralError):
            ent_mu(1.0, "lebesgue", dim=3)

    def test_unknown_measure(self, gauss3):
        with pytest.raises(PreconditionError):
            ent_mu(gauss3, "haar")

    def test_lebesgue_square_is_entropy_l2(self, gauss3):
        # the closed-form entropy of u^2 / ||u||^2, not a second quadrature
        assert ent_mu(gauss3, "lebesgue", square=True) == (
            entropy_l2(gauss3) + 1.5 * math.log(l2_norm_sq(gauss3)))

    def test_gauss_one_sample_pass(self):
        # the mass and int f log f dG come from one Monte Carlo pass
        from unittest import mock

        from nlsob import quadrature
        from nlsob.functionals import _GAUSS_MC_SPEC, _gauss_expectation, xlogx
        u = nl.GaussianField(3, 1.0, 1.0, (0.5, 0.0, 0.0))
        assert np.any(u.center)  # off centre: the Monte Carlo branch
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            got = ent_mu(u, "gauss")
        assert [c.args[3].n_samples for c in spy.call_args_list] == [_GAUSS_MC_SPEC.n_samples]
        (mass,) = _gauss_expectation(u, (lambda v: v,), u.evaluate)
        (two_pass,) = _gauss_expectation(u, (lambda v: xlogx(v / mass),), u.evaluate)
        assert rel_err(got, two_pass + 1.5 * math.log(mass)) < 1e-12


    def test_lebesgue_one_sample_pass(self):
        # the mass and int f log f come from one Monte Carlo pass, with
        # the bits of two separate volume integrals, and both read one field
        # evaluation per sample
        from unittest import mock

        from nlsob import quadrature

        class Counting(nl.FiniteSumField):
            points = 0

            def evaluate(self, x):
                Counting.points += len(x)
                return super().evaluate(x)

        u = Counting([nl.GaussianField(3, 1.0, 1.0, (0.3, 0, 0)),
                      nl.GaussianField(3, 1.6, 0.65, (-0.3, 0.2, 0))])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            got = ent_mu(u)
        assert [len(c.args[0]) for c in spy.call_args_list] == [2]
        assert got.hex() == "-0x1.1aaf3d17e90a0p-3"
        assert Counting.points == spy.call_args_list[0].args[3].n_samples


    @pytest.mark.parametrize("square", [False, True])
    def test_gauss_one_field_evaluation_per_sample(self, square):
        # the Monte Carlo pass of ent_mu(u, "gauss") evaluates u once per
        # sample, with the bits of two passes of their own
        from unittest import mock

        from nlsob import quadrature
        from nlsob.functionals import _gauss_expectation, xlogx

        class Counting(nl.FiniteSumField):
            points = 0

            def evaluate(self, x):
                Counting.points += len(x)
                return super().evaluate(x)

        u = Counting([nl.GaussianField(3, 1.0, 1.0, (0.3, 0, 0)),
                      nl.GaussianField(3, 1.6, 0.65, (-0.3, 0.2, 0))])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            got = ent_mu(u, "gauss", square=square)
        assert Counting.points == spy.call_args_list[0].args[3].n_samples == 384000
        f = (lambda pts: u.evaluate(pts) ** 2) if square else u.evaluate
        (mass,) = _gauss_expectation(u, (lambda v: v,), f)
        (flogf,) = _gauss_expectation(u, (xlogx,), f)
        assert got == flogf / mass - math.log(mass) + 1.5 * math.log(mass)

class TestLogMoment:
    def test_p2_matches_u2logu2(self, gauss3):
        assert rel_err(log_moment_lp(gauss3, 2.0),
                       -1.5 * (math.pi / 2.0) ** 1.5) < 1e-14

    def test_quadrature_path(self, gauss3):
        assert rel_err(log_moment_quadrature(gauss3, 2.0),
                       -1.5 * (math.pi / 2.0) ** 1.5) < 1e-6

    def test_amplitude_two_closed_form(self):
        # int (2g)^2 log (2g)^2 = 4 (pi/2)^{3/2} (2 log 2 - 3/2)
        expect = 4.0 * (math.pi / 2.0) ** 1.5 * (2.0 * math.log(2.0) - 1.5)
        got = log_moment_lp(nl.GaussianField(3, 1.0, 2.0), 2.0)
        assert rel_err(got, expect) < 1e-14
        got_q = log_moment_quadrature(nl.GaussianField(3, 1.0, 2.0), 2.0)
        assert rel_err(got_q, expect) < 1e-6

    def test_sup_below_one_is_nonpositive(self, bump3):
        for p in (1.5, 2.0, 3.0):
            assert log_moment_lp(bump3.amplify(0.9), p) <= 0.0


class TestRestrictedIntegrals:
    def test_above_closed_form(self, gauss3):
        from scipy.special import gammainc
        q, level = 6.0, 0.1
        r2 = math.log(1.0 / level)
        expect = (math.pi / q) ** 1.5 * gammainc(1.5, q * r2)
        got = restricted_power_integral(gauss3, q, level).value
        assert rel_err(got, expect) < 1e-8

    def test_level_above_sup(self, gauss3):
        assert restricted_power_integral(gauss3, 6.0, 2.0).value == 0.0

    def test_q2_is_l2_norm_sq(self):
        # at q = 2 a sum of Gaussians keeps the closed form of its L2 mass
        u = nl.FiniteSumField([nl.GaussianField(3, 1.0),
                               nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
        got, l2 = lp_power_integral(u, 2.0), l2_norm_sq_estimate(u)
        assert got.method == l2.method == "closed_form" and got.value == l2.value


class TestGaussMeasure:
    def test_constant_equality(self):
        lhs, rhs = gauss_lsi_sides(nl.ConstantField(3, 1.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_gaussian_strict_deficit(self, gauss3):
        lhs, rhs = gauss_lsi_sides(gauss3)
        # hand-derived closed forms with beta = 2 + pi
        beta = 2.0 + math.pi
        m0 = (math.pi / beta) ** 1.5
        m2 = m0 * 1.5 / beta
        assert rel_err(lhs, -2.0 * m2 - m0 * math.log(m0)) < 1e-12
        assert rel_err(rhs, 4.0 / math.pi * m2) < 1e-12
        assert rhs > lhs

    def test_radial_quadrature_path(self, bump3):
        lhs, rhs = gauss_lsi_sides(bump3)
        assert rhs >= lhs  # the inequality itself

    def test_off_center_gaussian(self):
        f = nl.GaussianField(3, 1.0, 1.0, (0.5, 0.0, 0.0))
        lhs, rhs = gauss_lsi_sides(f)
        assert rhs >= lhs

    def test_indicator_rejected(self, indicator3):
        with pytest.raises(UnsupportedOperationError):
            gauss_lsi_sides(indicator3)

    def test_one_sample_stream(self):
        # m0, int u^2 log u^2 dG and rhs share one MC stream: m0 and rhs keep
        # the bits of their own passes, and lhs = int u^2 log u^2 dG - m0 log m0
        # equals int u^2 log(u^2 / m0) dG up to rounding
        from unittest import mock

        from nlsob import quadrature
        from nlsob.fields import row_sq_norms
        from nlsob.functionals import _GAUSS_MC_SPEC, _gauss_expectation, xlogx
        u = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
        assert u.gauss_lsi_closed_form() is None and u.radial_profile() is None
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            lhs, rhs = gauss_lsi_sides(u)
        assert [c.args[3].n_samples for c in spy.call_args_list] == [_GAUSS_MC_SPEC.n_samples]
        # each quantity in a pass of its own, on the same samples
        (m0,) = _gauss_expectation(u, (lambda v: v ** 2,), u.evaluate)
        (grad,) = _gauss_expectation(u, (row_sq_norms,), u.gradient)
        (ulogu,) = _gauss_expectation(u, (lambda v: xlogx(v ** 2),), u.evaluate)

        def u2log(v):
            v2 = v ** 2
            return np.where(v2 > 0, v2 * (np.log(np.where(v2 > 0, v2, 1.0)) - math.log(m0)), 0.0)

        assert rhs == grad / math.pi
        assert lhs == ulogu - m0 * math.log(m0)
        (three_pass,) = _gauss_expectation(u, (u2log,), u.evaluate)
        assert abs(lhs - three_pass) <= 1e-12 * (abs(ulogu) + abs(m0 * math.log(m0)))
        assert rhs >= lhs

    def test_one_field_evaluation_per_sample(self):
        # the three integrals read one evaluation of u per sample
        from unittest import mock

        from nlsob import quadrature

        class Counting(nl.FiniteSumField):
            points = 0

            def evaluate(self, x):
                Counting.points += len(x)
                return super().evaluate(x)

        u = Counting([nl.GaussianField(3, 1.0, 0.6),
                      nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            sides = gauss_lsi_sides(u)
        assert Counting.points == spy.call_args_list[0].args[3].n_samples == 384000
        assert sides[1] >= sides[0]
        # a concentric sum takes the radial rule: one evaluation per node
        from nlsob.functionals import _gauss_expectation
        Counting.points = 0
        v = Counting([nl.GaussianField(3, 1.0, 0.6), nl.SmoothBumpField(3, 1.5, 0.4)])
        assert v.radial_profile() is not None and v.gauss_lsi_closed_form() is None
        gauss_lsi_sides(v)
        nodes, Counting.points = Counting.points, 0
        _gauss_expectation(v, (lambda w: w,), v.evaluate)
        assert nodes == Counting.points > 0


class TestEnergies:
    def test_omega_minus_one_drops_mass_term(self, gauss3):
        e = nl.dirichlet_energy(gauss3)
        lm = log_moment_lp(gauss3, 2.0)
        assert rel_err(j_energy(gauss3, EnergyParams(-1.0)),
                       0.5 * e - 0.5 * lm) < 1e-12

    def test_gaussian_closed_value(self, gauss3):
        # (1/2)(3 (pi/2)^{3/2}) + (1/2)(pi/2)^{3/2} + (1/2)(3/2)(pi/2)^{3/2}
        c = (math.pi / 2.0) ** 1.5
        expect = 0.5 * 3.0 * c + 0.5 * c + 0.75 * c
        assert rel_err(j_energy(gauss3, EnergyParams(0.0)), expect) < 1e-12

    def test_j_delta_finite_across_sweep(self, gauss3, engine):
        vals = [j_delta_energy(gauss3, EnergyParams(0.0), KernelSpec(d), engine)
                for d in (0.4, 0.2, 0.1)]
        assert all(math.isfinite(v) for v in vals)

    def test_j_delta_dominated_by_gradient_bound(self, gauss3, engine):
        # the nonlocal term stays below a gradient multiple along the sweep
        from nlsob.limits import gradient_limit_constant
        e = nl.dirichlet_energy(gauss3)
        cap = 1.2 * gradient_limit_constant(3) * e
        for d in (0.4, 0.2, 0.1, 0.05):
            est = i_delta(gauss3, KernelSpec(d), engine)
            assert est.value <= cap

    def test_j_delta_diverged_raises(self, indicator3, engine):
        with pytest.raises(DivergentIntegralError):
            j_delta_energy(indicator3, EnergyParams(0.0), KernelSpec(0.5), engine)


class TestMemo:
    """Each deterministic estimate is made once per process, keyed by the
    field's canonical descriptor and the call's other arguments."""

    SUM = {"shape": "sum", "dim": 3, "terms": [
        {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
        {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
         "center": [0.0, -0.3, 0.1]}]}

    def test_equal_and_complex_fields_reuse_the_volume_estimates(self):
        # a freshly built equal field, and a complex field with that field
        # as its modulus, read the first field's estimates: no pass, and
        # the identical Estimate objects
        from unittest import mock

        from nlsob import quadrature
        u = nl.field_from_dict(self.SUM)
        calls = (l2_norm_sq_estimate, entropy_l2_estimate,
                 lambda f: log_moment_lp_estimate(f, 2.0))
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            first = [c(u) for c in calls]
            assert spy.call_count == 3
            again = [c(nl.field_from_dict(self.SUM)) for c in calls]
            w = nl.ComplexField(nl.field_from_dict(self.SUM), nl.LinearPhase(0.1, (0.3, 0.0, -0.2)))
            complex_ = [c(w) for c in calls]
        assert spy.call_count == 3
        assert all(a is b is c for a, b, c in zip(first, again, complex_))
        assert first[0].method == "mc"

    def test_changed_coefficient_or_seed_is_computed_anew(self):
        # one coefficient more or a different master_seed is another key;
        # the same seed again is not
        from unittest import mock

        from nlsob import functionals, quadrature
        u = nl.field_from_dict(self.SUM)
        moved = dict(self.SUM, terms=[self.SUM["terms"][0],
                                      dict(self.SUM["terms"][1], amplitude=0.51)])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            a, b = l2_norm_sq_estimate(u), l2_norm_sq_estimate(nl.field_from_dict(moved))
        assert spy.call_count == 2 and a.value != b.value
        with mock.patch.object(functionals, "mc_pair_integrate_many",
                               wraps=functionals.mc_pair_integrate_many) as spy:
            ests = [i_delta(u, KernelSpec(0.1), default_engine(seed, n_samples=4800))
                    for seed in (1, 2, 1)]
        assert spy.call_count == 2
        assert ests[0] is ests[2] and ests[0].value != ests[1].value

    def test_failures_are_raised_on_every_call(self):
        # a failure is not kept: a field that does not decay reaches the
        # quadrature, and raises, on each call; the zero field's entropy
        # raises each time, over its one kept (zero) L² mass
        from unittest import mock

        from nlsob import quadrature
        flat = nl.FiniteSumField([nl.ConstantField(3, 0.5), nl.GaussianField(3, 1.0)])
        with mock.patch.object(quadrature, "volume_integrate",
                               wraps=quadrature.volume_integrate) as spy:
            for _ in range(2):
                with pytest.raises(DivergentIntegralError):
                    l2_norm_sq_estimate(flat)
        assert spy.call_count == 2
        zero = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.0, (0.3, 0.0, 0.0)),
                                  nl.SmoothBumpField(3, 1.5, 0.0, (-0.3, 0.0, 0.0))])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            for _ in range(2):
                with pytest.raises(ZeroFieldError):
                    entropy_l2_estimate(zero)
        assert spy.call_count == 1
        assert l2_norm_sq_estimate(zero).value == 0.0

    def test_size_is_capped(self, monkeypatch):
        # past the cap the oldest entry goes
        from nlsob import functionals
        monkeypatch.setattr(functionals, "_MEMO_SIZE", 2)
        fields = [nl.GaussianField(3, rate) for rate in (1.0, 2.0, 3.0)]
        for f in fields:
            dirichlet_energy_estimate(f)
        assert len(functionals._MEMO) == 2
        assert [k[2] for k in functionals._MEMO] == [
            json.dumps(f.to_dict(), sort_keys=True) for f in fields[1:]]

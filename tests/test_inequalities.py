"""Checkers: constants as outputs, consistency invariants, orderings."""

import math

import numpy as np
import pytest

import nlsob as nl
from nlsob import functionals
from nlsob.errors import PreconditionError
from nlsob.functionals import KernelSpec, MonotoneEnvelope
from nlsob.inequalities import (
    check_diamagnetic,
    check_euclidean_family,
    check_gauss_lsi,
    check_logsobolev_main,
    check_magnetic_lsi,
    check_nonlocal_sobolev,
    check_small_set_bound,
    check_envelope_lsi,
    jensen_gap,
    jensen_gap_p,
    sweep_family,
)

from conftest import rel_err


def normalized_gaussian(rate, dim=3):
    g = nl.GaussianField(dim, rate)
    return g.amplify(1.0 / math.sqrt(nl.l2_norm_sq(g)))


class TestNonlocalSobolev:
    def test_empty_superlevel_set(self, engine):
        # sup|u| <= lambda delta makes the left side vanish: C = 0 works
        small = nl.GaussianField(3, 1.0, 0.05)
        rep = check_nonlocal_sobolev(small, 0.1, 1.0, engine)
        assert rep.lhs == 0.0 and rep.admissible_constant == 0.0

    def test_gaussian_instance(self, gauss3, engine):
        rep = check_nonlocal_sobolev(gauss3, 0.1, 1.0, engine)
        from scipy.special import gammainc
        expect_lhs = (math.pi / 6.0) ** 1.5 * gammainc(1.5, 6.0 * math.log(10.0))
        assert rel_err(rep.lhs, expect_lhs) < 1e-8
        assert math.isfinite(rep.admissible_constant) and rep.admissible_constant > 0
        assert rel_err(rep.rhs_builder(rep.admissible_constant), rep.lhs) < 1e-9

    def test_monotone_in_lambda(self, gauss3, engine):
        r1 = check_nonlocal_sobolev(gauss3, 0.1, 1.0, engine)
        r2 = check_nonlocal_sobolev(gauss3, 0.1, 2.0, engine)
        assert r2.lhs <= r1.lhs

    def test_constant_as_function_of_lambda(self, gauss3, engine):
        # the default lambda sweep: smaller superlevel set, smaller constant
        reps = [check_nonlocal_sobolev(gauss3, 0.1, lam, engine)
                for lam in (0.5, 1.0, 2.0)]
        cs = [r.admissible_constant for r in reps]
        assert cs[0] >= cs[1] >= cs[2] >= 0.0

    def test_diverged_is_degenerate(self, indicator3, engine):
        rep = check_nonlocal_sobolev(indicator3, 0.5, 1.0, engine)
        assert rep.degenerate and rep.deficit == math.inf

    def test_requires_dim_three(self, engine):
        with pytest.raises(PreconditionError):
            check_nonlocal_sobolev(nl.GaussianField(2, 1.0), 0.1, 1.0, engine)


class TestLogSobolevMain:
    def test_lhs_closed_form(self, gauss3, engine):
        rep = check_logsobolev_main(gauss3, 0.1, engine)
        ent = -1.5 - 1.5 * math.log(math.pi / 2.0)
        expect = ent + 1.5 * math.log((math.pi / 2.0) ** 1.5)
        assert rel_err(rep.lhs, expect) < 1e-12

    def test_admissible_constant_consistency(self, gauss3, engine):
        rep = check_logsobolev_main(gauss3, 0.1, engine)
        assert abs(rep.deficit_at(rep.admissible_constant)) < 1e-9 * (1 + abs(rep.lhs))

    def test_rhs_builder_strictly_increasing(self, gauss3, engine):
        rep = check_logsobolev_main(gauss3, 0.1, engine)
        cs = np.geomspace(0.1 * rep.admissible_constant,
                          10.0 * rep.admissible_constant, 24)
        vals = [rep.rhs_builder(c) for c in cs]
        assert np.all(np.diff(vals) > 0)

    def test_scaling_consistency(self, gauss3, engine):
        # the constant for (t u, delta) equals the constant for (u, delta/t)
        delta, t = 0.2, 2.0
        a = check_logsobolev_main(gauss3.amplify(t), delta, engine)
        b = check_logsobolev_main(gauss3, delta / t, engine)
        assert rel_err(a.admissible_constant, b.admissible_constant) < 1e-3

    def test_diverged_degenerate(self, indicator3, engine):
        rep = check_logsobolev_main(indicator3, 0.5, engine)
        assert rep.degenerate


class TestEnvelopeLsi:
    def test_power_law_gaussian(self, gauss3, engine):
        rep = check_envelope_lsi(gauss3, MonotoneEnvelope.power_law(3.0), engine)
        assert math.isfinite(rep.admissible_constant)
        assert abs(rep.deficit_at(rep.admissible_constant)) < 1e-9

    def test_unit_norm_reduces_lhs_to_entropy_term(self, engine):
        u = normalized_gaussian(1.0)
        rep = check_envelope_lsi(u, MonotoneEnvelope.power_law(3.0), engine)
        # ||u||_2 = 1 makes the norm term vanish: lhs = entropy integral
        from nlsob.functionals import entropy_l2
        assert rel_err(rep.lhs, entropy_l2(u)) < 1e-9

    def test_threshold_envelope_allowed(self, gauss3, engine):
        rep = check_envelope_lsi(gauss3, MonotoneEnvelope.threshold(0.1), engine)
        assert math.isfinite(rep.admissible_constant)


class TestMagneticLsi:
    def test_zero_potential_matches_plain(self, gauss3, engine_mc_small):
        cf = nl.ComplexField(gauss3)
        a = check_magnetic_lsi(cf, nl.ZeroPotential(3), 0.1, engine_mc_small)
        b = check_logsobolev_main(gauss3, 0.1, engine_mc_small)
        assert a.lhs == b.lhs
        assert a.admissible_constant == b.admissible_constant

    def test_constant_ordering_under_shared_samples(self, gauss3, engine_mc_small):
        M = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        cf = nl.ComplexField(gauss3)
        mag = check_magnetic_lsi(cf, nl.LinearBPotential(M), 0.1, engine_mc_small)
        plain = check_logsobolev_main(gauss3, 0.1, engine_mc_small)
        # larger nonlocal term on the right -> smaller admissible constant
        assert mag.admissible_constant <= plain.admissible_constant

    def test_phase_changes_functional_not_lhs(self, gauss3, engine_mc_small):
        z = nl.ZeroPotential(3)
        a = check_magnetic_lsi(nl.ComplexField(gauss3), z, 0.1, engine_mc_small)
        b = check_magnetic_lsi(
            nl.ComplexField(gauss3, nl.LinearPhase(0.0, (4.0, 0.0, 0.0))),
            z, 0.1, engine_mc_small)
        assert a.lhs == b.lhs
        assert a.admissible_constant != b.admissible_constant


class TestDiamagnetic:
    def test_trivial_case_zero_deficit(self, gauss3, engine_mc_small):
        rep = check_diamagnetic(nl.ComplexField(gauss3), nl.ZeroPotential(3),
                                0.1, engine_mc_small)
        assert rep.deficit == 0.0

    def test_ordering_zero_tolerance(self, engine_mc_small):
        M = np.array([[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        moduli = [nl.GaussianField(3, 1.0), nl.SmoothBumpField(3, 2.0)]
        pots = [nl.ZeroPotential(3), nl.ConstantPotential((1.0, 0.0, 0.0)),
                nl.LinearBPotential(M)]
        for m in moduli:
            for A in pots:
                rep = check_diamagnetic(nl.ComplexField(m), A, 0.1, engine_mc_small)
                assert rep.deficit >= 0.0
                assert rep.stat_margin == 0.0

    def test_strict_deficit_with_field(self, gauss3, engine_mc):
        M = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rep = check_diamagnetic(nl.ComplexField(gauss3), nl.LinearBPotential(M),
                                0.1, engine_mc)
        from nlsob.functionals import i_delta_magnetic_paired
        mag, base = i_delta_magnetic_paired(nl.ComplexField(gauss3),
                                            nl.LinearBPotential(M),
                                            KernelSpec(0.1), engine_mc)
        assert rep.deficit > 3.0 * math.hypot(mag.stderr, base.stderr)


class TestExplicitInequalities:
    def test_gauss_lsi_constant_equality(self):
        rep = check_gauss_lsi(nl.ConstantField(3, 1.0))
        assert rep.deficit == 0.0

    def test_euclidean_family_optimum(self):
        u = normalized_gaussian(math.pi / 2.0)
        rep = check_euclidean_family(u, 1.0)
        assert abs(rep.deficit) <= 1e-6

    def test_euclidean_family_off_optimum(self):
        u = normalized_gaussian(math.pi / 2.0)
        rep = check_euclidean_family(u, 2.0)
        assert rep.deficit > 0.0

    def test_euclidean_optimum_location(self):
        # minimum over a sits at a^2 = pi / (2 rate) within a grid step,
        # and the deficit vanishes at that stationary point
        rate = 1.3
        u = normalized_gaussian(rate)
        grid = np.geomspace(0.3, 3.0, 41)
        deficits = [check_euclidean_family(u, a).deficit for a in grid]
        a_best = grid[int(np.argmin(deficits))]
        a_star = math.sqrt(math.pi / (2.0 * rate))
        step = grid[1] / grid[0]
        assert a_star / step <= a_best <= a_star * step
        assert abs(check_euclidean_family(u, a_star).deficit) < 1e-6

    def test_small_set_bound_gaussian(self, gauss3):
        rep = check_small_set_bound(gauss3, 0.1, 1.0)
        assert rep.deficit >= 0.0

    def test_small_set_large_delta_trivial(self, gauss3):
        rep = check_small_set_bound(gauss3, 50.0, 1.0)
        assert rep.deficit > 0.0  # rhs explodes, lhs is the whole integral

    def test_small_set_pointwise_justification(self, rng):
        # |u|^{2N/(N-2)} <= (lam delta)^{4/(N-2)} u^2 on the sublevel set
        u = normalized_gaussian(1.0)
        lam, delta, n = 1.0, 0.1, 3
        pts = rng.normal(scale=2.0, size=(100, 3))
        vals = np.abs(u.evaluate(pts))
        sub = vals <= lam * delta
        lhs = vals[sub] ** (2.0 * n / (n - 2.0))
        rhs = (lam * delta) ** (4.0 / (n - 2.0)) * vals[sub] ** 2
        assert np.all(lhs <= rhs * (1 + 1e-12))


class TestJensen:
    def test_gaussian_value(self, gauss3):
        # closed form: (3/2) log(pi/6) - (9/2) log(pi/2) + 2(3/2)(1 + log(pi/2))
        expect = (1.5 * math.log(math.pi / 6.0) - 4.5 * math.log(math.pi / 2.0)
                  - 2.0 * (-1.5 - 1.5 * math.log(math.pi / 2.0)))
        assert rel_err(jensen_gap(gauss3), expect) < 1e-12

    def test_scale_invariant(self, gauss3):
        assert rel_err(jensen_gap(gauss3.amplify(11.0)), jensen_gap(gauss3)) < 1e-10

    def test_indicator_equality_case(self, indicator3):
        assert abs(jensen_gap(indicator3)) < 1e-12

    def test_nonnegative_on_family(self, bump3, profile3):
        fields = [nl.GaussianField(3, a) for a in (0.5, 1.0, 2.0)] + [bump3, profile3]
        for f in fields:
            assert jensen_gap(f) >= -1e-7

    def test_p_variant(self, gauss3):
        for p in (1.5, 2.0, 2.5):
            assert jensen_gap_p(gauss3, p) >= -1e-7

    def test_p2_matches_plain(self, gauss3):
        assert rel_err(jensen_gap_p(gauss3, 2.0), jensen_gap(gauss3)) < 1e-10

    def test_requires_n_above_p(self, gauss3):
        with pytest.raises(PreconditionError):
            jensen_gap_p(gauss3, 3.0)


class TestFamilySweep:
    def test_single_instance(self, gauss3, engine):
        sw = sweep_family([gauss3], [0.1], "logsobolev_main", engine, seed=3)
        assert sw.family_constant == sw.reports[0].admissible_constant
        assert sw.held_idx == []

    def test_dilate_family(self, gauss3, engine):
        fields = [gauss3.dilate(lam) for lam in (0.5, 1.0, 2.0)]
        sw = sweep_family(fields, [0.1], "logsobolev_main", engine, seed=5)
        assert math.isfinite(sw.family_constant)
        assert sw.held_ok

    def test_split_deterministic(self, gauss3, engine):
        fields = [gauss3, gauss3.dilate(2.0)]
        a = sweep_family(fields, [0.1, 0.2], "logsobolev_main", engine, seed=9)
        functionals._MEMO.clear()
        b = sweep_family(fields, [0.1, 0.2], "logsobolev_main", engine, seed=9)
        assert a.held_idx == b.held_idx
        assert a.family_constant == b.family_constant

    def test_diverged_excluded(self, gauss3, indicator3, engine):
        sw = sweep_family([gauss3, indicator3], [0.5], "logsobolev_main",
                          engine, seed=1)
        assert len(sw.excluded) == 1
        assert math.isfinite(sw.family_constant)

    def test_unknown_id_rejected(self, gauss3, engine):
        with pytest.raises(PreconditionError):
            sweep_family([gauss3], [0.1], "diamagnetic", engine)

    def test_preconditions_before_volume_pair(self, gauss3, engine):
        # a dimension or envelope that admits no check fails before any
        # volume pass, as a checker called alone does
        from unittest import mock

        from nlsob import quadrature
        u2 = nl.FiniteSumField([nl.GaussianField(2, 1.0, 1.0, (0.0, 0.3)),
                                nl.SmoothBumpField(2, 1.7, 0.5, (0.0, -0.3))])
        wiggle = MonotoneEnvelope(fn=lambda t: np.sin(np.asarray(t, float)) ** 2,
                                  beta=2.0, name="wiggle", small_t_power=2.0)
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            for check in ("logsobolev_main", "envelope_lsi"):
                with pytest.raises(PreconditionError, match="N >= 3"):
                    sweep_family([u2], [0.1], check, engine)
            with pytest.raises(PreconditionError, match="not non-decreasing"):
                sweep_family([gauss3], [0.1], "envelope_lsi", engine, envelope=wiggle)
        assert spy.call_count == 0

    @pytest.mark.parametrize("check", ["logsobolev_main", "envelope_lsi"])
    def test_one_volume_pair_per_field(self, check):
        # every delta's report reads the field's one L² mass and entropy,
        # with the bits of a checker called alone on an empty memo
        from unittest import mock

        from nlsob import quadrature
        u = nl.FiniteSumField([nl.GaussianField(3, 1.0, 1.0, (0.0, 0.3, 0.0)),
                               nl.SmoothBumpField(3, 1.7, 0.5, (0.0, -0.3, 0.1))])
        engine = nl.default_engine(3, mode="mc", n_samples=4800)
        deltas = [0.2, 0.1, 0.05]
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            sw = sweep_family([u], deltas, check, engine, seed=1)
        assert spy.call_count == 2
        functionals._MEMO.clear()
        alone = {"logsobolev_main": lambda d: check_logsobolev_main(u, d, engine),
                 "envelope_lsi": lambda d: check_envelope_lsi(
                     u, MonotoneEnvelope.threshold(d), engine)}[check]
        for d, rep in zip(deltas, sw.reports):
            ref = alone(d)
            assert (rep.lhs, rep.admissible_constant, rep.stat_margin) == (
                ref.lhs, ref.admissible_constant, ref.stat_margin)

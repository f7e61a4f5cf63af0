"""Small-delta behavior: sweeps, extrapolation, recovery."""

import math

import pytest

import nlsob as nl
from nlsob.errors import DivergentIntegralError, PreconditionError
from nlsob.limits import (
    check_upper_bound,
    delta_sweep,
    estimate_qn,
    gradient_limit_constant,
    recover_classical_lsi,
)

from conftest import rel_err

DELTAS = [0.2 * 2.0 ** (-k) for k in range(6)]


@pytest.fixture(scope="module")
def gauss_sweep(engine, gauss3):
    return delta_sweep(gauss3, DELTAS, engine)


class TestCandidateConstant:
    def test_values(self):
        assert rel_err(gradient_limit_constant(3), 2.0 * math.pi / 3.0) < 1e-15
        assert rel_err(gradient_limit_constant(4), 2.0 * math.pi ** 2 / 8.0) < 1e-15


class TestDeltaSweep:
    def test_rejects_constant_field(self, engine):
        with pytest.raises(PreconditionError):
            delta_sweep(nl.ConstantField(3, 1.0), DELTAS, engine)

    def test_rejects_oversized_delta(self, engine, gauss3):
        with pytest.raises(PreconditionError, match="below the field's oscillation"):
            delta_sweep(gauss3, [3.0, 1.5, 0.75], engine)

    def test_rejects_nondecreasing_grid(self, engine, gauss3):
        with pytest.raises(PreconditionError, match="strictly decreasing"):
            delta_sweep(gauss3, [0.1, 0.2, 0.05], engine)

    @pytest.mark.parametrize("deltas", [[], [0.1], [0.2, 0.1]])
    def test_short_grid_rejected_before_any_estimate(self, engine, gauss3, deltas):
        # the extrapolation fits three points: fewer deltas are an error
        # raised before the first pair estimate
        from unittest import mock

        from nlsob import limits
        with mock.patch.object(limits, "i_delta", wraps=limits.i_delta) as spy:
            for sweep in (lambda: delta_sweep(gauss3, deltas, engine),
                          lambda: recover_classical_lsi(gauss3, deltas, 0.05, engine)):
                with pytest.raises(PreconditionError, match="at least three deltas"):
                    sweep()
        assert spy.call_count == 0

    def test_ratios_increase_toward_candidate(self, gauss_sweep):
        r = gauss_sweep.ratios
        assert all(b > a for a, b in zip(r, r[1:]))
        assert rel_err(gauss_sweep.extrapolated_limit,
                       gradient_limit_constant(3)) < 0.02

    def test_drop_coarsest_within_error(self, engine, gauss3, gauss_sweep):
        shorter = delta_sweep(gauss3, DELTAS[1:], engine)
        assert (abs(shorter.extrapolated_limit - gauss_sweep.extrapolated_limit)
                <= gauss_sweep.extrapolation_error)

    def test_dilation_invariance_of_limit(self, engine, gauss3, gauss_sweep):
        other = delta_sweep(gauss3.dilate(2.0), DELTAS, engine)
        tol = gauss_sweep.extrapolation_error + other.extrapolation_error + 1e-3
        assert abs(other.extrapolated_limit - gauss_sweep.extrapolated_limit) <= tol

    def test_diverging_field_aborts(self, engine, indicator3, bump3):
        # the jump field fails the differentiability precondition outright
        with pytest.raises((PreconditionError, DivergentIntegralError)):
            delta_sweep(indicator3, [0.5, 0.25, 0.125], engine)
        # a differentiable field whose nonlocal term diverges aborts too
        spiky = nl.FiniteSumField([bump3, nl.IndicatorField(3, 0.5)])
        assert not spiky.differentiable  # sanity: also caught up front
        with pytest.raises((PreconditionError, DivergentIntegralError)):
            delta_sweep(spiky, [0.5, 0.25, 0.125], engine)


class TestExtrapolation:
    @pytest.mark.parametrize("ratios,expect", [
        # d_ab * d_bc < 0: the last value, gamma 1, error half the last step
        ([1.0, 1.2, 1.1], (1.1, 1.0, 0.5 * abs(1.1 - 1.2))),
        # d_bc == 0
        ([1.0, 1.1, 1.1], (1.1, 1.0, 0.0)),
        # four deltas, both fits without a power law: the error is the
        # spread of the two fits' last values, here the last step
        ([1.0, 1.2, 1.1, 1.15], (1.15, 1.0, abs(1.15 - 1.1))),
    ], ids=["3-sign-change", "3-flat", "4-sign-change"])
    def test_no_consistent_power_law_reports_the_last_ratio(self, ratios, expect):
        from nlsob.limits import _power_law_extrapolation
        deltas = [0.2 * 2.0 ** (-k) for k in range(len(ratios))]
        assert _power_law_extrapolation(deltas, ratios) == expect


class TestEstimateQn:
    def test_needs_two_fields(self, engine, gauss3):
        with pytest.raises(PreconditionError):
            estimate_qn(3, [gauss3], engine)

    def test_pooled_estimate(self, engine, gauss3):
        est = estimate_qn(3, [gauss3, gauss3.dilate(1.5)], engine, DELTAS)
        assert rel_err(est.value, est.analytic_candidate) < 0.02
        assert est.consistent
        assert "derived" in est.candidate_label


class TestUpperBound:
    def test_sup_finite_and_stable(self, engine, gauss3):
        rep = check_upper_bound(gauss3, [0.2 * 2.0 ** (-k) for k in range(4)], engine)
        assert math.isfinite(rep.sup_ratio)
        assert rep.grid_stable
        assert rep.relative_change < 0.05

    def test_sup_dominates_extrapolated_limit(self, engine, gauss3, gauss_sweep):
        rep = check_upper_bound(gauss3, DELTAS, engine)
        # the grid sup sits within the extrapolation gap of the limit point
        floor = gauss_sweep.extrapolated_limit - max(
            3.0 * gauss_sweep.extrapolation_error,
            0.02 * gauss_sweep.extrapolated_limit)
        assert rep.sup_ratio >= floor

    def test_empty_grid_rejected(self, engine, gauss3):
        with pytest.raises(PreconditionError, match="at least one delta"):
            check_upper_bound(gauss3, [], engine)

    def test_dilates_share_ratio_curve(self, engine, gauss3):
        a = check_upper_bound(gauss3, [0.2, 0.1, 0.05], engine)
        b = check_upper_bound(gauss3.dilate(2.0), [0.2, 0.1, 0.05], engine)
        for ra, rb in zip(a.ratios, b.ratios):
            assert rel_err(ra, rb) < 5e-3


class TestRecovery:
    def test_delta_term_washes_out(self, engine, gauss3):
        rep = recover_classical_lsi(gauss3, DELTAS, family_constant=0.05,
                                    engine=engine)
        assert rep.dterm_monotone
        assert all(b < a for a, b in zip(rep.residuals, rep.residuals[1:]))
        assert rep.final_gap < 0.01

    def test_lhs_is_delta_independent(self, gauss3):
        # the left side never saw delta; nothing to sweep there
        from nlsob.functionals import entropy_l2
        ent = entropy_l2(gauss3)
        assert ent == entropy_l2(gauss3)


def test_upper_bound_then_recovery_run_the_engine_once_per_delta(engine, gauss3):
    # check_upper_bound re-reads its base grid and adds the midpoints, and
    # recover_classical_lsi sweeps the base grid again: the radial engine
    # runs once per distinct delta, where it ran once per call (11 times)
    from unittest import mock

    from nlsob import functionals
    deltas = DELTAS[:4]
    with mock.patch.object(functionals, "radial_pair_integrate",
                           wraps=functionals.radial_pair_integrate) as spy:
        check_upper_bound(gauss3, deltas, engine)
        recover_classical_lsi(gauss3, deltas, 0.05, engine)
    assert spy.call_count == len(deltas) + len(deltas) - 1 == 7


def test_qn_routes_each_radial_estimate_once(engine):
    # estimate_qn requests every estimate of its fields, then each sweep
    # requests its own, then makes its calls: a radial request is resolved
    # where it is first routed, so each (field, delta) is routed once, as
    # without requests, and later requests and calls read the memo
    from unittest import mock

    from nlsob import functionals
    fields = [nl.GaussianField(3, 1.0), nl.SmoothBumpField(3, 2.0)]
    with mock.patch.object(functionals, "_pair_route", wraps=functionals._pair_route) as spy:
        estimate_qn(3, fields, engine, DELTAS[:3])
    assert spy.call_count == 6

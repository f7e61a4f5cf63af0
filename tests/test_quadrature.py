"""Engines: theta reduction, shell-workload oracles, reproducibility,
stderr calibration, tail soundness."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq

import nlsob as nl
from nlsob.errors import PreconditionError
from nlsob.quadrature import (
    _RTOL,
    _XTOL,
    _carving_grid,
    _crossing_roots,
    _decreasing_crossings,
    _graded_kernel,
    _kernel_rows_3d,
    _pcg64_states,
    _radial_indicator_value,
    McSpec,
    MonotoneEnvelope,
    PairContext,
    RadialSpec,
    ball_volume,
    mc_pair_integrate_many,
    mc_volume_value,
    radial_pair_integrate,
    sphere_surface,
    theta_reduced_kernel,
    volume_integrate,
)

from conftest import rel_err

def explicit_indicator(delta, num):
    """num * 1{t > delta} from a function, which the radial engine reads at
    every pair, unlike the step of ``MonotoneEnvelope.threshold``."""
    return MonotoneEnvelope(fn=lambda t: np.where(t > delta, num, 0.0), beta=2.0,
                            name="explicit", small_t_power=2.0, zero_below=delta,
                            sup_value=num)


SHELL_EXACT = 2.0 * math.pi ** 2  # ball volume x shell kernel mass, computed below


def shell_exact_oracle():
    """Independent derivation: vol(B_1) * |S^2| * int_1^2 r^-5 r^2 dr."""
    radial, _ = integrate.quad(lambda r: r ** -5.0 * r ** 2, 1.0, 2.0)
    return (4.0 * math.pi / 3.0) * 4.0 * math.pi * radial


def shell_integrand(x, y, rho, vx, vy):
    inside = np.linalg.norm(x, axis=1) <= 1.0
    window = (rho >= 1.0) & (rho <= 2.0)
    return np.where(inside & window, rho ** -5.0, 0.0)


def shell_context():
    return PairContext(dim=3, x_radius=1.0, kernel_p=2.0,
                       numerator=1.0, integrands=(shell_integrand,),
                       inner_cutoff=1.0)


def test_shell_oracle_value():
    assert rel_err(shell_exact_oracle(), SHELL_EXACT) < 1e-12


class TestThetaKernel:
    # the last pair has r s below the rounding of r^2 + s^2
    @pytest.mark.parametrize("r,s,p", [(1.0, 1.7, 2.0), (1.0, 1.0001, 2.0),
                                       (0.3, 4.0, 3.0), (2.0, 2.1, 2.0), (1e-300, 1.0, 2.0)])
    def test_matches_closed_form_n3(self, r, s, p):
        assert rel_err(float(theta_reduced_kernel(r, s, 3, p)),
                       self.theta_quad(r, s, p)) < 1e-12

    @staticmethod
    def theta_direct(r, s, n, p):
        """The theta integral by adaptive quadrature, split at the angular
        width of the near-diagonal peak."""
        layer = abs(r - s) / math.sqrt(r * s)
        pts = [layer, 10.0 * layer] if 10.0 * layer < math.pi else None
        val, _ = integrate.quad(
            lambda th: math.sin(th) ** (n - 2)
            * ((r - s) ** 2 + 4.0 * r * s * math.sin(0.5 * th) ** 2) ** (-(n + p) / 2.0),
            0.0, math.pi, points=pts, limit=500, epsabs=0.0, epsrel=1e-13)
        return val

    # N != 3 with a non-terminating series ((N+p)/2 not an integer, or below
    # N - 1) keeps the graded rule; the points near and far from the
    # diagonal check its order convergence
    @pytest.mark.parametrize("r,s,n,p", [(0.8, 2.2, 4, 3.0), (1.1, 1.3, 4, 3.0),
                                         (0.5, 3.0, 5, 2.0), (1.0, 1.7, 5, 2.0),
                                         (1.0, 1.0001, 5, 2.0), (0.3, 4.0, 6, 2.0),
                                         (2.0, 2.1, 5, 2.0)])
    def test_matches_direct_quadrature(self, r, s, n, p):
        ref = self.theta_direct(r, s, n, p)
        assert rel_err(float(theta_reduced_kernel(r, s, n, p, order=6)), ref) < 1e-6
        assert rel_err(float(theta_reduced_kernel(r, s, n, p, order=8)), ref) < 1e-8

    @staticmethod
    def theta_hyp2f1(r, s, n, p):
        """beta_N A^{-nu} 2F1(nu/2, (nu+1)/2; N/2; (B/A)^2) at 50 digits,
        with A = r^2 + s^2, B = 2 r s and nu = (N+p)/2."""
        with mpmath.workdps(50):
            r, s = mpmath.mpf(r), mpmath.mpf(s)
            big, nu = r * r + s * s, mpmath.mpf(n + p) / 2
            val = (mpmath.beta(0.5, mpmath.mpf(n - 1) / 2) * big ** -nu
                   * mpmath.hyp2f1(nu / 2, (nu + 1) / 2, mpmath.mpf(n) / 2,
                                   (2 * r * s / big) ** 2))
            return float(val)

    @staticmethod
    def q_grid():
        """(r, s) with r s / (r - s)^2 in [1e-10, 1e10], on both sides of r."""
        pairs = []
        for q in np.logspace(-10.0, 10.0, 11):
            lo = 2 * q / ((2 * q + 1) + math.sqrt(4 * q + 1))  # the root s/r < 1
            for r in (0.37, 1.0, 5.3):
                pairs += [(r, r * lo), (r, r / lo)]
        return pairs

    # (N, p) with integer nu = (N+p)/2 >= N - 1: the terminating series
    TERMINATING = [(2, 2.0), (2, 6.0), (4, 2.0), (4, 4.0), (4, 6.0), (5, 3.0), (6, 4.0)]

    @pytest.mark.parametrize("n,p", TERMINATING)
    def test_terminating_series_against_hyp2f1(self, n, p):
        for r, s in self.q_grid():
            got = float(theta_reduced_kernel(r, s, n, p))
            assert rel_err(got, self.theta_hyp2f1(r, s, n, p)) <= 1e-13, (r, s)

    @pytest.mark.parametrize("n,p", TERMINATING)
    def test_terminating_series_symmetric_and_infinite_on_diagonal(self, n, p):
        r = np.array([0.3, 1.0, 2.5, 7.0])
        s = np.array([[0.9], [1.0 + 1e-9], [40.0]])
        assert np.array_equal(theta_reduced_kernel(r, s, n, p),
                              theta_reduced_kernel(s, r, n, p))
        assert theta_reduced_kernel(1.3, 1.3, n, p) == math.inf

    @pytest.mark.parametrize("n,p", TERMINATING)
    @pytest.mark.parametrize("r,s", [(0.8, 2.2), (1.1, 1.3), (1.0, 1.7), (0.5, 3.0)])
    def test_terminating_series_matches_graded_rule(self, r, s, n, p):
        graded = float(_graded_kernel(r, s, n, p, order=8))
        assert rel_err(float(theta_reduced_kernel(r, s, n, p)), graded) < 1e-8

    # the graded rule used to resolve the t^{-nu} layer only down to 1e-16
    # of [lo, hi] and lost every digit for |r - s| / r below about 1e-8
    @pytest.mark.parametrize("n,p", [(4, 3.0), (5, 2.0), (4, 1.5), (6, 3.0)])
    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    def test_graded_rule_next_to_diagonal(self, n, p, gap):
        for r in (0.37, 1.0, 5.3):
            ref = self.theta_hyp2f1(r, r * (1.0 + gap), n, p)
            for order, tol in ((6, 1e-6), (8, 1e-8)):
                got = float(theta_reduced_kernel(r, r * (1.0 + gap), n, p, order=order))
                assert rel_err(got, ref) < tol, (r, order)

    @pytest.mark.parametrize("n,p", [(4, 3.0), (5, 2.0)], ids=["4", "5"])
    def test_graded_rule_blocked_array_matches_pointwise(self, n, p):
        # a (rows x s-nodes) array spans several of the kernel's row blocks;
        # nu = (n + p) / 2 is not an integer, so both go through the graded rule
        rng = np.random.default_rng(3)
        r = rng.uniform(0.1, 3.0, (40, 30))
        s = rng.uniform(0.1, 3.0, (1, 30))
        got = theta_reduced_kernel(r, s, n, p)
        ref = [float(theta_reduced_kernel(ri, si, n, p))
               for ri, si in zip(r.ravel(), np.broadcast_to(s, r.shape).ravel())]
        assert got.shape == r.shape
        assert np.allclose(got.ravel(), ref, rtol=1e-14, atol=0.0)

    @staticmethod
    def theta_quad(r, s, p):
        """The n = 3 theta integral by adaptive quadrature in log(theta),
        with d^2 = (r-s)^2 + 4 r s sin^2(theta/2) free of cancellation."""
        m = (3.0 + p) / 2.0
        a = (r - s) ** 2
        layer = abs(r - s) / math.sqrt(r * s)  # angular width of the near-diagonal peak
        u_lo = math.log(1e-9 * min(layer, 1.0))
        u_hi = math.log(math.pi)

        def f(u):
            th = math.exp(u)
            return th * math.sin(th) * (a + 4.0 * r * s * math.sin(0.5 * th) ** 2) ** -m

        pts = [math.log(layer)] if u_lo < math.log(layer) < u_hi else None
        val, _ = integrate.quad(f, u_lo, u_hi, points=pts, epsabs=0.0,
                                epsrel=1e-13, limit=500)
        return val

    # the third pair has r s / (r - s)^2 = 1.7e-10, where a plain
    # difference of powers a^{1-m} - b^{1-m} loses every digit and
    # (r+s)^2 - (r-s)^2 all but 7
    N3_CASES = [(1.0, 1.7), (0.7, 0.7 * (1.0 + 1e-8)), (1.3e-5, 7.7e4)]

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r,s", N3_CASES)
    @pytest.mark.parametrize("as_array", [False, True])
    def test_closed_form_n3_against_quad(self, r, s, p, as_array):
        if as_array:
            # the branch is elementwise: an r column against an s row
            grid = theta_reduced_kernel(np.full((2, 1), r), np.full((1, 3), s), 3, p)
            assert grid.shape == (2, 3) and np.all(grid == grid[0, 0])
            got = float(grid[0, 0])
        else:
            got = float(theta_reduced_kernel(r, s, 3, p))
        assert got > 0.0
        assert rel_err(got, self.theta_quad(r, s, p)) < 1e-12

    def test_diagonal_n3_is_infinite(self):
        assert theta_reduced_kernel(1.3, 1.3, 3, 2.0) == math.inf


class TestRadialEngine:
    def test_zero_condition(self):
        prof = nl.GaussianField(3, 1.0).radial_profile()
        w = MonotoneEnvelope(fn=np.zeros_like, beta=2.0, name="zero", small_t_power=2.0,
                             zero_below=0.1, sup_value=0.01)
        est = radial_pair_integrate(prof, 2.0, w, RadialSpec(r_max=30.0), 3)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_discrepancy_covers_refinement(self):
        prof = nl.GaussianField(3, 1.0).radial_profile()
        w = explicit_indicator(0.1, 0.01)
        spec = RadialSpec(n_r=48, n_s=30, r_max=60.0)
        est = radial_pair_integrate(prof, 2.0, w, spec, 3)
        double = radial_pair_integrate(prof, 2.0, w,
                                       replace(spec, n_r=96, n_s=36), 3)
        assert abs(double.value - est.value) < est.discrepancy

    @staticmethod
    def watch_kernel(monkeypatch):
        """Per theta-kernel call: (pairs with s == r, infinite values)."""
        import nlsob.quadrature as quad
        kernel = quad.theta_reduced_kernel
        calls = []

        def watched(r, s, *args, **kwargs):
            out = kernel(r, s, *args, **kwargs)
            rr, ss = np.broadcast_arrays(r, s)
            calls.append((int(np.sum(rr == ss)), int(np.sum(np.isinf(out)))))
            return out

        monkeypatch.setattr(quad, "theta_reduced_kernel", watched)
        return calls

    def test_zero_weight_on_diagonal_pair(self, monkeypatch):
        # with the base grid's midpoint at r, the s-panels around an r-node
        # used to end in a one-ulp panel whose Gauss nodes rounded onto r,
        # where the N = 3 kernel is +inf; no s-node may land there now
        from nlsob.functionals import lp_power_integral
        calls = self.watch_kernel(monkeypatch)
        field = nl.GaussianField(3, 1.0)
        est = radial_pair_integrate(field.radial_profile(), 2.0,
                                    MonotoneEnvelope.power_law(3.0),
                                    RadialSpec(n_r=8, n_s=30, r_max=40.0), 3,
                                    lp_power_integral(field, 3.0).value)
        assert calls and sum(c[1] for c in calls) == 0
        assert math.isfinite(est.value) and est.value > 0.0
        assert math.isfinite(est.discrepancy)

    def test_no_s_node_on_its_r_node(self, monkeypatch):
        # 113 of 214078 kernel pairs had s == r here before the s-panels
        # dropped breakpoints within 64 ulp of r.  The reference is the
        # same functional on the 192/40 and 288/60 grids, which agree to
        # 2e-14; the default-grid value must lie within its own discrepancy
        calls = self.watch_kernel(monkeypatch)
        est = nl.f_functional(nl.GaussianField(3, 1.0), nl.MonotoneEnvelope.power_law(3.0),
                              2.0, nl.default_engine(1))
        assert len(calls) > 0 and sum(c[0] for c in calls) == 0
        assert abs(est.value - 18.6672173995969) <= est.discrepancy

    @pytest.mark.parametrize("dim", [3, 4])
    def test_symmetric_far_coarse_value_within_its_discrepancy(self, dim):
        # the s > r_range doubling is a jump of the s-integrand; before the
        # s-panels broke there, the N = 4 value at 12/16 was off the 48/30
        # one by 5.6e-3 against a discrepancy of 2.4e-3
        env = nl.MonotoneEnvelope.power_law(3.0)
        field = nl.GaussianField(dim, 1.0)
        coarse = nl.f_functional(field, env, 2.0, replace(
            nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16)))
        fine = nl.f_functional(field, env, 2.0, nl.default_engine(1))
        assert abs(coarse.value - fine.value) <= coarse.discrepancy

    @pytest.mark.parametrize("delta,pinned", [(0.2, 172.51729877939974),
                                              (0.1, 176.70043354446688),
                                              (0.05, 178.4176046015034)])
    def test_non_monotone_ring(self, delta, pinned):
        # the N = 4 ring of the jump_envelope benchmark runs the generic
        # carving path; the pinned 12/16 values guard its row layout
        ring = nl.RadialProfileField(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
        assert not ring.radial_profile().monotone_decreasing
        engine = nl.default_engine(1)
        coarse, fine = (nl.i_delta(ring, nl.KernelSpec(delta), replace(
            engine, radial=RadialSpec(n_r=n_r, n_s=n_s))) for n_r, n_s in ((12, 16), (96, 36)))
        assert rel_err(coarse.value, pinned) <= 1e-12
        assert abs(coarse.value - fine.value) <= coarse.discrepancy

    def test_generic_carving_bits(self):
        # bits of the generic carving path, its crossings solved by the
        # safeguarded Newton of _crossing_roots on the spline's derivative
        from nlsob.functionals import restricted_power_integral
        ring = nl.RadialProfileField(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
        engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
        for delta, value, disc in ((0.2, "0x1.5908db62b790ap+7", "0x1.0e87ee288fc40p+2"),
                                   (0.05, "0x1.64d5d045343b5p+7", "0x1.0e5b5ccd79800p-1")):
            est = nl.i_delta(ring, nl.KernelSpec(delta), engine)
            assert (est.value.hex(), est.discrepancy.hex()) == (value, disc)
        ring3 = nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
        est = restricted_power_integral(ring3, 3.0, 0.3)
        assert (est.method, est.value.hex()) == ("radial", "0x1.e244fe0699b94p+2")

    def test_oscillation_below_delta_carves_nothing(self):
        # g stays within [-0.034, 0.25], so no pair differs by 0.3, yet
        # 2 sup |g| = 0.5 > 0.3 passes the oscillation shortcut; an empty
        # carve used to end in an IndexError
        ring = nl.RadialProfileField(3, [0.0, 1.0, 2.0, 3.0], [0.25, 0.0, 0.0, 0.0])
        assert not ring.radial_profile().monotone_decreasing
        est = nl.i_delta(ring, nl.KernelSpec(0.3), nl.default_engine(1))
        assert (est.value, est.method) == (0.0, "radial")

    def test_dim_one_unsupported(self):
        prof = nl.GaussianField(3, 1.0).radial_profile()
        with pytest.raises(PreconditionError):
            radial_pair_integrate(prof, 2.0, MonotoneEnvelope.power_law(3.0),
                                  RadialSpec(r_max=4.0), 1, 1.0)

    def test_smooth_envelope_derives_its_s_range(self):
        # r_max 0 is derived for a smooth envelope too, from the integral of
        # |u|^q: the engine alone gives f_functional's estimate bit for bit,
        # and without that integral it has no tail bound to give
        from nlsob.functionals import lp_power_integral
        field = nl.GaussianField(3, 1.0)
        env = MonotoneEnvelope.power_law(3.0)
        spec = RadialSpec(n_r=12, n_s=16)
        est = radial_pair_integrate(field.radial_profile(), 2.0, env, spec, 3,
                                    lp_power_integral(field, 3.0).value)
        ref = nl.f_functional(field, env, 2.0, replace(nl.default_engine(1), radial=spec))
        assert [x.hex() for x in (est.value, est.discrepancy, est.tail_bound)] == [
            x.hex() for x in (ref.value, ref.discrepancy, ref.tail_bound)]
        assert est.value > 0.0 and est.tail_bound > 0.0
        with pytest.raises(PreconditionError, match="q_mass"):
            radial_pair_integrate(field.radial_profile(), 2.0, env, spec, 3)

    def test_radial_bits(self):
        # bits of the N = 4 smooth-envelope rows of the jump_envelope
        # benchmark, and of the monotone carving path with a step, whose rows
        # take their s-integral in closed form at N = 3, and with the same F
        # built from a function, whose rows still run the s-template
        spec = RadialSpec(n_r=12, n_s=16)
        engine = replace(nl.default_engine(1), radial=spec)
        g4, g3 = nl.GaussianField(4, 1.0), nl.GaussianField(3, 1.0)
        smooth = nl.f_functional(g4, MonotoneEnvelope.power_law(3.0), 2.0, engine)
        # the value of the per-r-node s-panels these rows replaced, which
        # the shared s-template moved by 5.7e-9, inside its discrepancy + tail bound
        old = float.fromhex("0x1.e01a2df2afdb6p+4")
        assert abs(smooth.value - old) <= (float.fromhex("0x1.e40a2bd020000p-12")
                                           + float.fromhex("0x1.1cebacef1fd75p-6"))
        step = nl.i_delta(g3, nl.KernelSpec(0.1), engine)
        # the s-template's value, which the closed form moved by 1.0e-9
        # relative, inside the template's own discrepancy + tail bound
        old = float.fromhex("0x1.817c409fe7c72p+3")
        assert abs(step.value - old) <= (float.fromhex("0x1.18435831dc000p-9")
                                         + float.fromhex("0x1.cef4cffae2bebp-16"))
        cases = [
            (smooth, ("0x1.e01a2df437eb3p+4", "0x1.bf387a2220000p-12", "0x1.1cebacef1fd75p-6")),
            (step, ("0x1.817c40a68f929p+3", "0x1.271dc9867a000p-9", "0x1.cef4cffae2bebp-16")),
            (radial_pair_integrate(g3.radial_profile(), 2.0, explicit_indicator(0.1, 0.1 * 0.1),
                                   spec, 3),
             ("0x1.817c409fe7c71p+3", "0x1.18435831de000p-9", "0x1.cef4cffae2bebp-16"))]
        for est, bits in cases:
            assert est.method == "radial"
            assert (est.value.hex(), est.discrepancy.hex(), est.tail_bound.hex()) == bits


def _monotone_profiles():
    return {"gauss": nl.GaussianField(3, 1.0).radial_profile(),
            "bump": nl.SmoothBumpField(3, 2.0).radial_profile(),
            "cubic": nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                                           [1.0, 0.9, 0.55, 0.2, 0.0]).radial_profile()}


class TestMonotonePath:
    S_MAX = 8.0

    @pytest.mark.parametrize("name", ["gauss", "bump", "cubic"])
    @pytest.mark.parametrize("newton", [True, False])
    def test_vectorized_roots_match_brentq(self, name, newton):
        prof = _monotone_profiles()[name]
        g = prof.g
        s_max = self.S_MAX
        r = np.linspace(0.01, 1.9, 40)
        dg = prof.dg if newton else None
        for delta in (0.3, 0.05, 0.004):
            level = g(r) - delta
            ok = g(np.array([s_max]))[0] < level
            got = _crossing_roots(g, dg, level[ok], r[ok], s_max)
            # the same crossings of -g, an increasing profile, with the
            # bracket's upper end s_max passed first
            neg_dg = None if dg is None else (lambda s: -dg(s))
            flipped = _crossing_roots(lambda s: -g(s), neg_dg, -level[ok], s_max, r[ok])
            for rn, lv, x, y in zip(r[ok], level[ok], got, flipped):
                ref = brentq(lambda t: float(g(np.array([t]))[0]) - lv, rn, s_max,
                             xtol=_XTOL, rtol=_RTOL)
                assert abs(x - ref) <= 1e-13 and abs(y - ref) <= 1e-13

    @pytest.mark.parametrize("name,dim", [("gauss", 3), ("bump", 3), ("cubic", 3),
                                          ("gauss", 4)])
    def test_batched_matches_generic_path(self, name, dim):
        # the generic interval-carving path also handles monotone profiles.
        # Library default grid: at n_r=12, n_s=16 the generic path itself
        # understates its error on the bump at delta=0.05 (36.906 with
        # discrepancy 0.036, against 36.832 from the batched path at 48/30).
        # At N = 4 the batched pass feeds the graded theta rule one 2-D
        # (r-node x s-node) array, which the kernel works through in blocks
        prof = _monotone_profiles()[name]
        generic = replace(prof, monotone_decreasing=False)
        for delta in (0.2, 0.05):
            w = explicit_indicator(delta, delta * delta)
            spec = RadialSpec(r_max=40.0)
            a = radial_pair_integrate(prof, 2.0, w, spec, dim)
            b = radial_pair_integrate(generic, 2.0, w, spec, dim)
            assert a.value > 0.0
            assert abs(a.value - b.value) <= a.discrepancy + b.discrepancy

    def test_closed_form_crossings_solve_nothing(self):
        # a Gaussian and a bump invert g in closed form: their indicator
        # path builds no probe grid and makes no Newton solve, while the
        # spline profile still brackets and solves its crossings
        from unittest import mock

        import nlsob.quadrature as quad
        engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
        fields = {"gauss": nl.GaussianField(3, 1.0), "bump": nl.SmoothBumpField(3, 2.0),
                  "cubic": nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                                                 [1.0, 0.9, 0.55, 0.2, 0.0])}
        for name, field in fields.items():
            prof = field.radial_profile()
            assert prof.monotone_decreasing
            assert (prof.level_radius is None) == (name == "cubic")
            assert (_carving_grid(prof, 0.1, 8.0)[0] is None) == (name != "cubic")
            with mock.patch.object(quad, "_crossing_roots", wraps=quad._crossing_roots) as spy:
                est = nl.i_delta(field, nl.KernelSpec(0.1), engine)
            assert est.method == "radial" and est.value > 0.0
            assert (spy.call_count > 0) == (name == "cubic")

    def test_no_level_radius_off_the_decreasing_shapes(self):
        # a negative amplitude makes g increase, and a concentric sum has no
        # closed-form inverse: both keep the probe grid
        for field in (nl.GaussianField(3, 1.0, -1.0), nl.SmoothBumpField(3, 2.0, -0.5),
                      nl.FiniteSumField([nl.GaussianField(3, 1.0), nl.GaussianField(3, 2.0)])):
            assert field.radial_profile().level_radius is None

    @pytest.mark.parametrize("name", ["gauss", "bump", "cubic"])
    def test_carved_rows_read_no_profile_at_s_nodes(self, name):
        # with a step envelope every s-node of a carved row lies past its
        # crossing, so the profile sees only 1-D arrays: r-nodes and carving
        # points, never the (row x s-node) array an envelope from a function
        # reads.  A closed-form inverse leaves
        # the r-nodes of both resolutions (12 x 6 and 6 x 4) and g(0), g(r_max).
        # At N = 3 the step's rows are exact in s, while the function's run
        # the s-template, which is off by 5.5e-10 to 7.8e-10 relative here
        prof = _monotone_profiles()[name]
        shapes = []

        def g(s):
            shapes.append(np.shape(s))
            return prof.g(s)

        delta = 0.1
        spec = RadialSpec(n_r=12, n_s=16, r_max=self.S_MAX)
        est = radial_pair_integrate(replace(prof, g=g), 2.0, MonotoneEnvelope.threshold(delta),
                                    spec, 3)
        assert est.value > 0.0 and all(len(shape) == 1 for shape in shapes)
        if name != "cubic":
            assert sum(shape[0] for shape in shapes) == 2 + 72 + 24
        shapes.clear()
        ref = radial_pair_integrate(replace(prof, g=g), 2.0,
                                    explicit_indicator(delta, delta * delta), spec, 3)
        assert any(len(shape) == 2 for shape in shapes)
        assert rel_err(est.value, ref.value) <= 1.5e-9

    def test_secant_start_no_more_profile_values(self):
        # each crossing of the spline solved from the secant point of its
        # grid cell lies within the Brent oracle's tolerance, and the batch
        # takes no more profile evaluations than from the cells' midpoints
        prof = _monotone_profiles()["cubic"]
        calls = [0]

        def g(s):
            calls[0] += 1
            return prof.g(s)

        for delta in (0.3, 0.05, 0.004):
            xs, vals, _ = _carving_grid(prof, delta, self.S_MAX)
            level = prof.g(np.linspace(0.01, 1.9, 40)) - delta
            level = level[vals[-1] < level]
            j = np.searchsorted(-vals, -level)
            calls[0] = 0
            secant = _decreasing_crossings(g, prof.dg, level, xs, vals)
            n_secant, calls[0] = calls[0], 0
            _crossing_roots(g, prof.dg, level, xs[j - 1], xs[j])
            assert n_secant <= calls[0]
            for lv, x, lo, hi in zip(level, secant, xs[j - 1], xs[j]):
                ref = brentq(lambda t: float(prof.g(np.array([t]))[0]) - lv, lo, hi,
                             xtol=_XTOL, rtol=_RTOL)
                assert abs(x - ref) <= 2.0 * (_XTOL + _RTOL * abs(ref))

    def test_no_admissible_s_within_r_max(self):
        # g(r) - 0.6 < 0.4 < g(0.9) for every r-node: each admissible s
        # lies beyond r_max, in the tail bound's share
        prof = _monotone_profiles()["gauss"]
        w = MonotoneEnvelope(fn=np.ones_like, beta=2.0, name="one", small_t_power=2.0,
                             zero_below=0.6, sup_value=1.0)
        spec = RadialSpec(n_r=4, n_s=6, r_max=0.9)
        grid = _carving_grid(prof, 0.6, spec.r_max)
        assert _radial_indicator_value(prof, 2.0, w, spec, 3, 6, grid) == 0.0


class TestStepRowsAtN3:
    """At N = 3 every carved row of a step integrates s^2 T(r, s) over
    [s(r), r_max] in closed form (``_kernel_rows_3d``); the theta-kernel
    is not run there."""

    @staticmethod
    def _quad_row(r, lo, hi, p):
        # scipy's quad of s^2 theta_reduced_kernel on pieces whose distance
        # to the diagonal doubles from one to the next.  Its own nodes round
        # to ulp(r), which moves the steep near end by about
        # (1 + p) eps r / (lo - r) relative: 1e-12 at lo - r = 5e-4 r
        ends = [lo]
        while r + 2.0 * (ends[-1] - r) < hi:
            ends.append(r + 2.0 * (ends[-1] - r))
        ends.append(hi)

        def f(s):
            return s * s * float(theta_reduced_kernel(r, s, 3, p))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                       for a, b in zip(ends[:-1], ends[1:]))

    def test_row_integral_matches_quad(self):
        # rows far from the diagonal (r / lo <= 1e-3), next to it
        # (lo - r <= 1e-3 r) and in between, for each p
        rng = np.random.default_rng(20170933)
        for p in (1.0, 1.2, 1.5, 2.0, 3.0):
            for kind in range(12):
                r = rng.uniform(0.01, 3.0)
                lo = r * {0: 10.0 ** rng.uniform(3.0, 5.0),
                          1: 1.0 + 10.0 ** rng.uniform(-3.3, -3.0),
                          2: rng.uniform(1.001, 20.0)}[kind % 3]
                hi = lo * rng.uniform(1.5, 50.0)
                got = _kernel_rows_3d(np.array([r]), np.array([lo]), hi, p)[0]
                assert rel_err(got, self._quad_row(r, lo, hi, p)) <= 1e-12, (p, r, lo, hi)

    def test_row_integral_next_to_the_diagonal_matches_mpmath(self):
        # closer to the diagonal than a double-precision quad resolves:
        # 40-digit mpmath on the exact integrand, in pieces as above
        rng = np.random.default_rng(7)
        for p in (1.0, 1.5, 3.0):
            r = rng.uniform(0.1, 3.0)
            lo = r * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0))
            hi = lo * rng.uniform(2.0, 50.0)
            with mpmath.workdps(40):
                rr, pp = mpmath.mpf(r), mpmath.mpf(p)

                def f(s):
                    return s * ((s - rr) ** -(1 + pp) - (s + rr) ** -(1 + pp)) / ((1 + pp) * rr)
                u, pts = mpmath.mpf(lo) - rr, [mpmath.mpf(lo)]
                while rr + 2 * u < hi:
                    u *= 2
                    pts.append(rr + u)
                ref = mpmath.quad(f, pts + [mpmath.mpf(hi)])
            got = _kernel_rows_3d(np.array([r]), np.array([lo]), hi, p)[0]
            assert rel_err(got, float(ref)) <= 1e-14, (p, r, lo, hi)

    def test_step_runs_no_theta_kernel(self):
        # i_delta and i_delta_p of decreasing profiles at N = 3, a spline
        # among them: every carved row in closed form
        from unittest import mock

        import nlsob.quadrature as quad
        engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
        for field in (nl.GaussianField(3, 1.0), nl.SmoothBumpField(3, 2.0),
                      nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                                            [1.0, 0.9, 0.55, 0.2, 0.0])):
            for k in (nl.KernelSpec(0.1), nl.KernelSpec(0.05, 1.5)):
                with mock.patch.object(quad, "theta_reduced_kernel",
                                       wraps=quad.theta_reduced_kernel) as spy:
                    est = nl.i_delta_p(field, k, engine)
                assert est.method == "radial" and est.value > 0.0
                assert spy.call_count == 0

    def test_pinned_claim_covers_the_truth(self):
        # GaussianField(3, 1.0), p = 1.5, delta = 0.2 at 12/16, against
        # 22.936464398771868 from scipy's nested quad of the pair integral
        # (a theta-graded ray quadrature gives the same).  The value is off
        # by 1.21e-3.  With the s-template the claim was 3.81e-4: its half
        # order's s-rule error cancelled most of the r-rule's.  The r-rule
        # alone now claims 1.41e-2
        engine = replace(nl.default_engine(1), radial=RadialSpec(n_r=12, n_s=16))
        est = nl.i_delta_p(nl.GaussianField(3, 1.0), nl.KernelSpec(0.2, 1.5), engine)
        assert est.method == "radial"
        assert abs(est.value - 22.936464398771868) <= est.discrepancy + est.tail_bound


class TestBrentOracle:
    """The one level-crossing solver against ``scipy.optimize.brentq``: on
    a mixed batch, every root lies within twice the solve's tolerance of
    the one scipy finds for that bracket alone."""

    @staticmethod
    def family(x, kind, c):
        """Elementwise f(x) of bracket kind ``kind`` and parameter ``c``."""
        with np.errstate(all="ignore"):
            return np.select(
                [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
                [np.cos(x) - c, x ** 3 - c, np.exp(x) - c, x * x - c,
                 np.tanh(40.0 * (x - c))],
                x - c)

    @staticmethod
    def derivative(x, kind, c):
        with np.errstate(all="ignore"):
            return np.select(
                [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
                [-np.sin(x), 3.0 * x * x, np.exp(x), 2.0 * x,
                 40.0 / np.cosh(40.0 * (x - c)) ** 2],
                np.ones_like(x))

    def batch(self, rng, m):
        kind = rng.integers(0, 6, m)
        c = rng.uniform(0.1, 0.9, m)
        a = np.zeros(m)
        b = np.full(m, 3.0)
        c[kind == 2] += 1.0  # exp(x) = c within [0, 3]
        sq = kind == 3
        b[sq] = np.sqrt(c[sq])
        c[sq] = b[sq] * b[sq]  # root on the bracket's end
        flip = rng.random(m) < 0.3
        a[flip], b[flip] = b[flip], a[flip].copy()
        return kind, c, a, b

    @pytest.mark.parametrize("newton", [True, False])
    def test_mixed_batch_within_tolerance(self, newton):
        rng = np.random.default_rng(11)
        kind, c, a, b = self.batch(rng, 300)
        # upper end first; where the root is the upper end itself
        # (x^2 = c at b) the solve runs down to it from below
        upper = self.family(a, kind, c) > self.family(b, kind, c)
        lo, hi = np.where(upper, a, b), np.where(upper, b, a)
        dg = (lambda x: self.derivative(x, kind, c)) if newton else None
        got = _crossing_roots(lambda x: self.family(x, kind, c), dg, np.zeros(kind.size),
                              lo, hi)
        for i in range(kind.size):
            ref = brentq(lambda t: float(self.family(np.array([t]), kind[i:i + 1],
                                                     c[i:i + 1])[0]),
                         a[i], b[i], xtol=_XTOL, rtol=_RTOL)
            assert abs(got[i] - ref) <= 2.0 * (_XTOL + _RTOL * abs(ref))

    def test_nan_value(self):
        f = lambda x: np.where(x > 0.4, np.nan, x - 0.25)
        with pytest.raises(ValueError):
            brentq(lambda t: float(f(np.array([t]))[0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            _crossing_roots(f, None, np.zeros(1), np.ones(1), np.zeros(1))

    @pytest.mark.parametrize("newton", [True, False])
    def test_converges_at_triple_root(self, newton):
        # Brent's interpolation steps shrink only slowly at a triple root,
        # and scipy's brentq needs more than its 100 steps to the
        # tolerance; bisection halves the bracket, and the safeguarded
        # Newton steps shrink it by 2/3 each
        f = lambda x: (x - 0.3) ** 3
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, xtol=_XTOL, rtol=_RTOL)
        dg = (lambda x: 3.0 * (x - 0.3) ** 2) if newton else None
        got = _crossing_roots(f, dg, np.zeros(2), np.ones(2), np.zeros(2))
        assert np.all(np.abs(got - 0.3) <= 2.0 * (_XTOL + _RTOL * 0.3))


class TestMcEngine:
    def test_zero_integrand(self):
        ctx = replace(shell_context(),
                      integrands=(lambda x, y, rho, vx, vy: np.zeros(len(x)),))
        est = mc_pair_integrate_many([ctx], McSpec(master_seed=1, n_samples=9600,
                                                   chunk_size=4800))[0]
        assert est.value == 0.0 and est.stderr == 0.0

    def test_shell_within_three_sigma(self):
        est = mc_pair_integrate_many([shell_context()],
                                     McSpec(master_seed=7, n_samples=192000,
                                            chunk_size=4800, h_max=4.0))[0]
        assert abs(est.value - SHELL_EXACT) <= 3.0 * est.stderr

    def test_unbiased_coverage_300_seeds(self):
        # >= 99% of 300 independent seeds land within 3 stderr of the truth
        hits = 0
        for seed in range(300):
            est = mc_pair_integrate_many([shell_context()],
                                         McSpec(master_seed=seed, n_samples=57600,
                                                chunk_size=480, radial_strata=24,
                                                h_max=4.0))[0]
            hits += abs(est.value - SHELL_EXACT) <= 3.0 * est.stderr
        assert hits >= 297

    def test_infinite_cutoff_keeps_h_max_and_tail(self):
        from nlsob.quadrature import _derive_h_max
        spec = McSpec(master_seed=1, n_samples=4800, chunk_size=4800)
        ctx = replace(shell_context(), inner_cutoff=0.0)
        assert (_derive_h_max(replace(ctx, inner_cutoff=math.inf), spec)
                == _derive_h_max(ctx, spec))

    def test_infinite_cutoff_draws_nothing(self):
        from nlsob.quadrature import _derive_h_max

        def never(x, y, rho, vx, vy):
            raise AssertionError("no pair may be drawn")
        spec = McSpec(master_seed=1, n_samples=4800, chunk_size=4800)
        ctx = replace(shell_context(), inner_cutoff=0.0, integrands=(never,))
        _, tail = _derive_h_max(ctx, spec)
        est = mc_pair_integrate_many([replace(ctx, inner_cutoff=math.inf)], spec)[0]
        assert est == nl.Estimate(0.0, 0.0, 0, tail, "mc") and tail > 0.0

    def test_bitwise_reproducible(self):
        spec = McSpec(master_seed=33, n_samples=48000, chunk_size=4800, h_max=4.0)
        a = mc_pair_integrate_many([shell_context()], spec)[0]
        b = mc_pair_integrate_many([shell_context()], spec)[0]
        assert (a.value, a.stderr, a.n_effective) == (b.value, b.stderr, b.n_effective)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 70),
                          st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64])),
           keys=st.integers(1, 2).flatmap(lambda width: st.lists(
               st.lists(st.integers(0, 2 ** 32 - 1), min_size=width, max_size=width),
               min_size=1, max_size=4)))
    def test_stream_states_match_default_rng(self, seed, keys):
        # the engines seed their generator from these states; the oracle
        # is numpy's own SeedSequence -> PCG64 seeding of the same key
        got = list(_pcg64_states(seed, np.array(keys, dtype=np.int64)))
        assert got == [np.random.default_rng([seed, *key]).bit_generator.state
                       for key in keys]

    def test_engines_build_no_seed_sequence(self, monkeypatch):
        # every stream is set by state; the one PCG64(0) each engine call
        # makes is seeded inside numpy, which these names do not see
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.random, "default_rng", counted(np.random.default_rng))
        monkeypatch.setattr(np.random, "SeedSequence", counted(np.random.SeedSequence))
        spec = McSpec(master_seed=5, n_samples=9600, chunk_size=4800, h_max=4.0)
        mc_pair_integrate_many([shell_context()], spec)
        mc_volume_value((lambda pts: np.ones(len(pts)),), 3, [(np.zeros(3), 1.0)], spec,
                        lambda pts: pts)
        assert calls == []

    def test_exact_zero_cutoff_invariance(self):
        # a Lipschitz workload: any inner_cutoff in [0, delta/L] is bitwise
        # equivalent because the excluded region evaluates to exactly zero
        g = nl.GaussianField(3, 1.0)
        delta = 0.2
        cut = delta / g.lipschitz_bound

        def integrand(x, y, rho, vx, vy):
            du = np.abs(vy - vx)
            return np.where(du > delta, delta * delta, 0.0) * rho ** -5.0

        def run(c):
            ctx = PairContext(dim=3, x_radius=g.decay_radius(delta / 2.0), kernel_p=2.0,
                              numerator=delta * delta, integrands=(integrand,),
                              inner_cutoff=c, symmetric=True, values=g.evaluate)
            return mc_pair_integrate_many([ctx], McSpec(master_seed=11, n_samples=48000,
                                                        chunk_size=4800, h_max=40.0))[0]

        vals = {run(c).value for c in (0.0, 0.25 * cut, 0.5 * cut, cut)}
        assert len(vals) == 1

    def test_tail_bound_soundness(self):
        # doubling H changes the estimate by less than tail bound plus noise
        spec_h = McSpec(master_seed=3, n_samples=192000, chunk_size=4800, h_max=8.0)
        spec_2h = replace(spec_h, h_max=16.0)
        g = nl.GaussianField(3, 1.0)
        delta = 0.2

        def integrand(x, y, rho, vx, vy):
            du = np.abs(vy - vx)
            return np.where(du > delta, delta * delta, 0.0) * rho ** -5.0

        ctx = PairContext(dim=3, x_radius=g.decay_radius(delta / 2.0), kernel_p=2.0,
                          numerator=delta * delta, integrands=(integrand,),
                          inner_cutoff=delta / g.lipschitz_bound, symmetric=True,
                          values=g.evaluate)
        a = mc_pair_integrate_many([ctx], spec_h)[0]
        b = mc_pair_integrate_many([ctx], spec_2h)[0]
        assert abs(b.value - a.value) <= a.tail_bound + 3.0 * math.hypot(a.stderr, b.stderr)
        # deterministic version of the same statement via the radial engine
        prof = g.radial_profile()
        w = explicit_indicator(delta, delta * delta)
        ra = radial_pair_integrate(prof, 2.0, w, RadialSpec(r_max=30.0), 3)
        rb = radial_pair_integrate(prof, 2.0, w, RadialSpec(r_max=60.0), 3)
        assert abs(rb.value - ra.value) <= ra.tail_bound + ra.discrepancy + rb.discrepancy

    def test_common_stream_ordering_transfers(self):
        # pointwise-dominated integrands give ordered estimates exactly
        f1 = shell_integrand

        def f2(x, y, rho, vx, vy):
            return 0.5 * f1(x, y, rho, vx, vy)

        ests = mc_pair_integrate_many(
            [replace(shell_context(), integrands=(f1, f2))],
            McSpec(master_seed=9, n_samples=48000, chunk_size=4800, h_max=4.0))
        assert ests[1].value <= ests[0].value
        assert ests[1].value == 0.5 * ests[0].value  # exact halving, shared samples

    def test_contexts_of_one_pass_share_their_dimension(self):
        flat = replace(shell_context(), dim=2)
        with pytest.raises(PreconditionError, match="share their dimension"):
            mc_pair_integrate_many([shell_context(), flat], McSpec(master_seed=1, n_samples=4800))


class TestPinnedBits:
    """MC estimates pinned to the last bit, each recorded before the change
    that could have moved it (numpy 2.4, x86-64).  The reproducibility
    contract promises these bits for a given McSpec; a different numpy
    build can move them through its exp/log kernels."""

    ENGINE = nl.default_engine(7, mode="mc", n_samples=48000)
    TWO_GAUSS = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                                   nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])

    @staticmethod
    def bits(est):
        return est.value.hex(), est.stderr.hex(), est.n_effective

    def test_i_delta_two_gaussians(self):
        est = nl.i_delta(self.TWO_GAUSS, nl.KernelSpec(0.2), self.ENGINE)
        assert self.bits(est) == ("0x1.04d34ded115abp+3", "0x1.18bb2c33e8c88p-1", 205)

    def test_magnetic_paired_linear_b(self):
        u = nl.ComplexField(self.TWO_GAUSS, nl.LinearPhase(0.3, (0.5, -0.2, 0.1)))
        A = nl.LinearBPotential([[0.0, 0.7, 0.0], [-0.7, 0.0, 0.2], [0.0, -0.2, 0.0]])
        mag, mod = nl.i_delta_magnetic_paired(u, A, nl.KernelSpec(0.15), self.ENGINE)
        assert self.bits(mag) == ("0x1.3e6c9734fc966p+3", "0x1.52f615f2b5e7dp-1", 228)
        assert self.bits(mod) == ("0x1.1133357ffd2c5p+3", "0x1.137450f42d09bp-1", 208)

    def test_l2_norm_sq_volume_mc(self):
        from nlsob.functionals import l2_norm_sq_estimate
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.SmoothBumpField(3, 1.5, 0.8, (0.7, 0.0, 0.0))])
        est = l2_norm_sq_estimate(f)
        assert est.method == "mc"
        assert self.bits(est) == ("0x1.dadf4336a6c43p+1", "0x1.ef8ddcd4391ecp-8", 88581)

    # (value, stderr, n_effective) of dirichlet_energy_estimate, lp_power_integral(., 3),
    # log_moment_lp_estimate(., 2), entropy_l2_estimate, restricted_power_integral(., 3, 0.3),
    # then ent_mu(., "gauss") and gauss_lsi_sides: MC on a non-radial sum, the
    # deterministic radial rule on a bump
    VOLUME_BITS = {
        "mc": (nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                                  nl.SmoothBumpField(3, 1.5, 0.8, (0.7, 0.0, 0.0))]), (
            ("0x1.daf6f5c47707bp+3", "0x1.4840c898255fbp-5", 66247),
            ("0x1.7acb2a79344c3p+1", "0x1.c352e4cd5c9fbp-8", 73007),
            ("-0x1.37830b13c173ap+1", "0x1.024d6535ca943p-7", 63632),
            ("-0x1.f78dbb121494dp+0", "0x1.04a41dbc9a654p-8", 100137),
            ("0x1.74d2c4093e2e1p+1", "0x1.ca1ae451eefddp-8", 70786),
            "-0x1.e0d85d173aa0cp-3", ("0x1.7350a7a157a5ap-3", "0x1.86c105f06f7bdp-2"))),
        "radial": (nl.SmoothBumpField(3, 1.5), (
            ("0x1.a34e9e15768ccp+3", "0x0.0p+0", 0),
            ("0x1.a8e7d652a7246p+0", "0x0.0p+0", 0),
            ("-0x1.04ede1aed6e9bp+1", "0x0.0p+0", 0),
            ("-0x1.b981befe04eccp+0", "0x0.0p+0", 0),
            ("0x1.a2d4cb8f981b4p+0", "0x0.0p+0", 0),
            "-0x1.7bef5dadb62f5p-2", ("0x1.26fc36e70c606p-4", "0x1.84ae8a98089dcp-3"))),
    }

    @pytest.mark.parametrize("kind", sorted(VOLUME_BITS))
    def test_volume_quantities(self, kind):
        from nlsob import functionals as fn
        f, (dirichlet, lp3, logm, ent, above, ent_gauss, lsi) = self.VOLUME_BITS[kind]
        ests = (fn.dirichlet_energy_estimate(f), fn.lp_power_integral(f, 3.0),
                fn.log_moment_lp_estimate(f, 2.0), fn.entropy_l2_estimate(f),
                fn.restricted_power_integral(f, 3.0, 0.3))
        assert {e.method for e in ests} == {kind}
        assert [self.bits(e) for e in ests] == [dirichlet, lp3, logm, ent, above]
        assert fn.ent_mu(f, "gauss").hex() == ent_gauss
        assert tuple(v.hex() for v in fn.gauss_lsi_sides(f)) == lsi

    def test_gauss_expectation_mc(self):
        from nlsob.functionals import _gauss_expectation
        f = self.TWO_GAUSS
        (val,) = _gauss_expectation(f, (lambda v: v ** 2,), f.evaluate)
        # the Gauss weight over the proposal density (the same Gaussian) is 1
        # only up to rounding, so the last bits are the volume engine's
        assert val.hex() == "0x1.271bbc9a06eeap-2"

    def test_convergent_jump_field(self):
        # jump 1 at delta 1.25: pairs closer than 0.25 / L_s contribute 0, and
        # the run truncated below that keeps the bits of the earlier probe
        f = nl.FiniteSumField([nl.IndicatorField(3, 1.0),
                               nl.GaussianField(3, 1.0, 1.0, (0.3, 0.0, 0.0))])
        est = nl.i_delta_p(f, nl.KernelSpec(1.25, 2.0), self.ENGINE)
        assert self.bits(est) == ("0x1.31a905388ba30p+7", "0x1.f735b1b7eb788p+1", 442)
        assert not est.diverged

    def test_restricted_power_integral_mc(self):
        from nlsob.functionals import restricted_power_integral
        above = restricted_power_integral(self.TWO_GAUSS, 3.0, 0.3)
        assert self.bits(above) == ("0x1.1ad546216efcbp-1", "0x1.169ad08980ddbp-10", 128199)

    class Recording(nl.FiniteSumField):
        """A sum that keeps what each of its evaluate calls returned."""

        def __init__(self, terms):
            super().__init__(terms)
            self.returned = []

        def evaluate(self, x):
            self.returned.append(super().evaluate(x))
            return self.returned[-1]

    @staticmethod
    def assert_floor_counts(f, spec, drawn, delta):
        # each chunk evaluates x, then y: one x-side value per drawn sample,
        # and a y side for exactly the samples with |u(x)| > delta / 2
        xs, ys = f.returned[0::2], f.returned[1::2]
        assert len(xs) == len(ys) == spec.n_samples // spec.chunk_size
        assert sum(map(len, xs)) == drawn
        assert [len(v) for v in ys] == [np.count_nonzero(np.abs(v) > delta / 2.0) for v in xs]
        assert 0 < sum(map(len, ys)) < drawn

    def test_two_field_evaluations_per_sample(self):
        f = self.Recording(self.TWO_GAUSS.terms)
        delta, h_max, spec = 0.2, 8.0, McSpec(master_seed=3, n_samples=48000, h_max=8.0)
        nl.i_delta(f, nl.KernelSpec(delta), nl.EngineSpec(mc=spec, mode="mc"))
        edges = np.geomspace(h_max * 1e-9, h_max, spec.radial_strata + 1)
        active = np.count_nonzero(edges[1:] > delta / f.lipschitz_bound)
        drawn = spec.n_samples * active // spec.radial_strata
        assert 0 < drawn < spec.n_samples
        self.assert_floor_counts(f, spec, drawn, delta)

    def test_jump_field_samples_no_stratum_below_rho0(self):
        # pairs closer than rho0 = (delta - J) / L_s contribute exactly 0, so
        # a stratum wholly below rho0 must not cost a field evaluation
        f = self.Recording([nl.IndicatorField(3, 1.0),
                            nl.GaussianField(3, 1.0, 1.0, (0.3, 0.0, 0.0))])
        delta, h_max, spec = 1.25, 8.0, McSpec(master_seed=3, n_samples=48000, h_max=8.0)
        est = nl.i_delta(f, nl.KernelSpec(delta), nl.EngineSpec(mc=spec, mode="mc"))
        assert not est.diverged and est.value > 0.0
        spheres, lip_s = f.jumps()
        rho0 = (delta - spheres[0][2]) / lip_s
        edges = np.geomspace(h_max * 1e-9, h_max, spec.radial_strata + 1)
        drawn = spec.n_samples * np.count_nonzero(edges[1:] > rho0) // spec.radial_strata
        assert 0 < drawn < spec.n_samples
        self.assert_floor_counts(f, spec, drawn, delta)

    def test_one_field_evaluation_per_volume_sample(self):
        from nlsob.functionals import restricted_power_integral
        from nlsob.quadrature import _DEFAULT_VOLUME_SPEC

        class Counting(nl.FiniteSumField):
            points = 0

            def evaluate(self, x):
                Counting.points += len(x)
                return super().evaluate(x)

        est = restricted_power_integral(Counting(self.TWO_GAUSS.terms), 3.0, 0.3)
        assert est.method == "mc"
        assert Counting.points == _DEFAULT_VOLUME_SPEC.n_samples


class TestOneL2PerInstance:
    """The entropy normalises by the memo's L² estimate: made before it or
    by it, the entropy keeps its bits."""

    # the Gaussian+bump sum of TestPinnedBits.test_l2_norm_sq_volume_mc
    FIELD = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.SmoothBumpField(3, 1.5, 0.8, (0.7, 0.0, 0.0))])

    def test_entropy_with_given_l2_bitwise(self):
        from nlsob import functionals
        from nlsob.functionals import entropy_l2_estimate, l2_norm_sq_estimate
        l2_norm_sq_estimate(self.FIELD)
        a = entropy_l2_estimate(self.FIELD)
        functionals._MEMO.clear()
        b = entropy_l2_estimate(self.FIELD)
        assert a.method == "mc"
        assert (a.value.hex(), a.stderr.hex()) == (b.value.hex(), b.stderr.hex())

    def test_logsobolev_main_makes_two_volume_passes(self):
        from unittest import mock

        from nlsob import quadrature
        from nlsob.inequalities import check_logsobolev_main
        engine = nl.default_engine(7, mode="mc", n_samples=4800)
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            check_logsobolev_main(self.FIELD, 0.2, engine)
        # one for the L² mass, one for the entropy
        assert spy.call_count == 2


def per_stratum_reference(ctx, spec):
    """The MC pair engine as a loop over chunks and strata, one field
    evaluation and one partial sum per stratum and integrand, with the y
    side computed on every sample (no zero floor): the batched engine must
    reproduce its (value, stderr, n_effective) bit for bit, one triple per
    integrand."""
    from nlsob.quadrature import _derive_h_max, _reduce_triples
    unit = lambda v: v / np.sqrt(np.sum(v * v, axis=1))[:, None]
    n, rx = ctx.dim, ctx.x_radius
    h_max, _ = _derive_h_max(ctx, spec)
    k_strata = spec.radial_strata
    edges = np.geomspace(h_max * 1e-9, h_max, k_strata + 1)
    log_widths = np.log(edges[1:] / edges[:-1])
    m = spec.chunk_size // k_strata
    vol, omega = ball_volume(n, rx), sphere_surface(n)
    triples = [[] for _ in ctx.integrands]
    for c in range(spec.n_samples // spec.chunk_size):
        acc = [[0.0, 0.0] for _ in ctx.integrands]
        for k in np.nonzero(edges[1:] > ctx.inner_cutoff)[0]:
            rng = np.random.default_rng([spec.master_seed, c, int(k)])
            xdir, xu = rng.standard_normal((m, n)), rng.random(m)
            hdir, hu = rng.standard_normal((m, n)), rng.random(m)
            x = rx * (xu ** (1.0 / n))[:, None] * unit(xdir)
            rho = edges[k] * np.exp(log_widths[k] * hu)
            y = x + rho[:, None] * unit(hdir)
            base = vol * (log_widths[k] * omega) * rho ** n
            vx, vy = ctx.values(x), ctx.values(y)
            base = base * np.where(np.abs(vx) >= np.abs(vy), 2.0, 0.0)
            for f, a in zip(ctx.integrands, acc):
                zeta = f(x, y, rho, vx, vy) * base
                a[0] += float(zeta.sum())
                a[1] += float((zeta * zeta).sum())
        for t, (s_acc, q_acc) in zip(triples, acc):
            t.append((s_acc, q_acc, spec.chunk_size))
    return [_reduce_triples(t, float(k_strata)) for t in triples]


@pytest.mark.parametrize("seed", [0, 5, 21])
def test_batched_chunk_matches_per_stratum_loop(seed):
    g = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                           nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
    delta = 0.2

    def integrand(x, y, rho, vx, vy):
        return np.where(np.abs(vy - vx) > delta, delta * delta, 0.0) * rho ** -5.0

    ctx = PairContext(dim=3, x_radius=g.decay_radius(delta / 2.0),
                      kernel_p=2.0, numerator=delta * delta, integrands=(integrand,),
                      inner_cutoff=delta / g.lipschitz_bound, symmetric=True,
                      values=g.evaluate)
    spec = McSpec(master_seed=seed, n_samples=14400, chunk_size=4800)
    est = mc_pair_integrate_many([ctx], spec)[0]
    assert [(est.value, est.stderr, est.n_effective)] == per_stratum_reference(ctx, spec)


def engine_call(call):
    """The one (context, spec, estimates) that ``call`` runs the MC pair
    engine with, through the name the functionals module calls, on an
    empty memo (hypothesis may repeat an example)."""
    from unittest import mock

    from nlsob import functionals
    functionals._MEMO.clear()
    seen, real = [], functionals.mc_pair_integrate_many

    def spy(contexts, spec):
        (ctx,) = contexts
        seen.append((ctx, spec, real(contexts, spec)))
        return seen[-1][2]

    with mock.patch.object(functionals, "mc_pair_integrate_many", spy):
        call()
    assert len(seen) == 1
    return seen[0]


def assert_every_stratum_bits(ctx, spec, ests):
    """The engine's estimates equal the per-stratum loop's with no zero
    floor and every stratum drawn, on the engine's own h_max: the cutoff
    and the floor skip only work that adds exactly 0."""
    from nlsob.quadrature import _derive_h_max
    full = replace(ctx, zero_floor=None, inner_cutoff=0.0)
    ref = per_stratum_reference(full, replace(spec, h_max=_derive_h_max(ctx, spec)[0]))
    assert [(e.value, e.stderr, e.n_effective) for e in ests] == ref


@st.composite
def two_term_sums(draw):
    """A Gaussian plus a Gaussian or a bump, off centre, with amplitudes of
    either sign: a non-radial field for the MC engine."""
    at = lambda: tuple(draw(st.floats(-0.4, 0.4)) for _ in range(3))
    amp = lambda: draw(st.floats(0.3, 1.2)) * draw(st.sampled_from([1.0, -1.0]))
    first = nl.GaussianField(3, draw(st.floats(0.6, 2.0)), abs(amp()), at())
    second = draw(st.sampled_from(["gaussian", "bump"]))
    if second == "gaussian":
        other = nl.GaussianField(3, draw(st.floats(0.6, 2.0)), amp(), at())
    else:
        other = nl.SmoothBumpField(3, draw(st.floats(0.8, 2.0)), amp(), at())
    return nl.FiniteSumField([first, other])


def potentials():
    entries = st.floats(-0.8, 0.8)
    antisym = st.tuples(entries, entries, entries).map(
        lambda b: [[0.0, b[0], b[1]], [-b[0], 0.0, b[2]], [-b[1], -b[2], 0.0]])
    return st.one_of(st.just(nl.ZeroPotential(3)),
                     st.tuples(entries, entries, entries).map(nl.ConstantPotential),
                     antisym.map(nl.LinearBPotential))


_ORACLE_MC = dict(n_samples=9600, chunk_size=4800)


class TestEngineOracle:
    """Each functional's MC run against ``per_stratum_reference`` with no
    zero floor and every stratum drawn, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(u=two_term_sums(), delta=st.floats(0.05, 0.4), seed=st.integers(0, 2 ** 31 - 1))
    def test_i_delta(self, u, delta, seed):
        engine = nl.default_engine(seed, mode="mc", **_ORACLE_MC)
        ctx, spec, ests = engine_call(lambda: nl.i_delta(u, nl.KernelSpec(delta), engine))
        assert_every_stratum_bits(ctx, spec, ests)

    @settings(max_examples=15, deadline=None)
    @given(jump=st.floats(0.3, 1.2), factor=st.floats(1.1, 2.5),
           rate=st.floats(0.6, 2.0), seed=st.integers(0, 2 ** 31 - 1))
    def test_convergent_jump_field(self, jump, factor, rate, seed):
        u = nl.FiniteSumField([nl.IndicatorField(3, 1.0, jump),
                               nl.GaussianField(3, rate, 0.8, (0.3, 0.0, 0.0))])
        engine = nl.default_engine(seed, mode="mc", **_ORACLE_MC)
        k = nl.KernelSpec(factor * jump, 1.5)
        ctx, spec, ests = engine_call(lambda: nl.i_delta_p(u, k, engine))
        assert not ests[0].diverged
        assert_every_stratum_bits(ctx, spec, ests)

    @settings(max_examples=30, deadline=None)
    @given(u=two_term_sums(), A=potentials(), delta=st.floats(0.05, 0.4),
           phase=st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                           st.floats(-3.0, 3.0)),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_magnetic_paired(self, u, A, delta, phase, seed):
        assume(delta < 2.0 * u.sup_bound)
        w = nl.ComplexField(u, nl.LinearPhase(phase[0], phase[1:]))
        engine = nl.default_engine(seed, mode="mc", **_ORACLE_MC)
        ctx, spec, ests = engine_call(
            lambda: nl.i_delta_magnetic_paired(w, A, nl.KernelSpec(delta), engine))
        assert ctx.zero_floor is not None and ctx.inner_cutoff > 0.0
        assert_every_stratum_bits(ctx, spec, ests)

    def test_samples_exactly_at_the_floor(self):
        # a field of quarter steps puts many samples at |v(x)| = 0.25 exactly;
        # the floor skips the y side of those and of the samples below them,
        # and the bits stay
        values = lambda pts: np.floor(4.0 * np.maximum(1.5 - np.sqrt(
            np.sum(pts * pts, axis=1)), 0.0)) / 4.0
        seen = []

        def counted(pts):
            seen.append(values(pts))
            return seen[-1]

        def integrand(x, y, rho, vx, vy):
            return np.where(np.abs(vy - vx) > 0.5, 0.25, 0.0) * rho ** -5.0

        ctx = PairContext(dim=3, x_radius=1.5, kernel_p=2.0,
                          numerator=0.25, integrands=(integrand, integrand),
                          inner_cutoff=0.05, symmetric=True, values=counted,
                          zero_floor=0.25)
        spec = McSpec(master_seed=3, n_samples=9600, chunk_size=4800)
        ests = mc_pair_integrate_many([ctx], spec)
        vx, vy = seen[0], seen[1]
        assert np.count_nonzero(vx == 0.25) > 0 and ests[0].value > 0.0
        assert len(vy) == np.count_nonzero(np.abs(vx) > 0.25) < len(vx)
        assert [(e.value, e.stderr, e.n_effective) for e in ests] == \
            per_stratum_reference(replace(ctx, zero_floor=None), spec)


class TestSpecsValidation:
    def test_chunk_divides_samples(self):
        with pytest.raises(PreconditionError):
            McSpec(master_seed=1, n_samples=5000, chunk_size=4800)

    def test_strata_divide_chunk(self):
        with pytest.raises(PreconditionError):
            McSpec(master_seed=1, n_samples=9600, chunk_size=4800, radial_strata=7)

    def test_radial_sizes_positive(self):
        with pytest.raises(PreconditionError):
            RadialSpec(n_r=0)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf])
    def test_outer_radius_eps_positive_finite(self, eps):
        with pytest.raises(PreconditionError):
            McSpec(master_seed=1, outer_radius_eps=eps)

    @pytest.mark.parametrize("name", ["x_radius", "h_max"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan])
    def test_pinned_geometry_positive_finite(self, name, value):
        # a nonpositive x_radius used to give the estimate 0 with status ok,
        # a negative h_max a zero estimate with a finite tail bound
        with pytest.raises(PreconditionError, match=f"{name} must be positive and finite"):
            McSpec(master_seed=1, **{name: value})
        assert McSpec(master_seed=1, **{name: 2.5}).to_dict()[name] == 2.5

    @pytest.mark.parametrize("r_max", [-1.0, math.nan, math.inf])
    def test_r_max_finite(self, r_max):
        with pytest.raises(PreconditionError):
            RadialSpec(r_max=r_max)

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "7", None])
    def test_master_seed_nonnegative_integer(self, seed):
        with pytest.raises(PreconditionError):
            McSpec(master_seed=seed)


class TestVolume:
    def test_gaussian_l2_radial(self, gauss3):
        (est,) = volume_integrate((lambda v: v ** 2,), gauss3, gauss3.evaluate)
        assert est.method == "radial"
        assert rel_err(est.value, (math.pi / 2.0) ** 1.5) < 1e-8

    def test_zero_integrand(self, gauss3):
        (est,) = volume_integrate((lambda v: np.zeros(len(v)),), gauss3, gauss3.evaluate)
        assert est.value == 0.0

    def test_u2_log_u2_closed_form(self, gauss3):
        from nlsob.functionals import xlogx
        (est,) = volume_integrate((lambda v: xlogx(v ** 2),), gauss3, gauss3.evaluate)
        assert rel_err(est.value, -1.5 * (math.pi / 2.0) ** 1.5) < 1e-8

    def test_non_decaying_rejected(self):
        from nlsob.errors import DivergentIntegralError
        with pytest.raises(DivergentIntegralError):
            c = nl.ConstantField(3, 1.0)
            volume_integrate((lambda v: np.ones(len(v)),), c, c.evaluate)

    def test_mc_path_matches_closed_form(self):
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.GaussianField(3, 2.0, 0.5, (0.8, 0.0, 0.0))])
        (est,) = volume_integrate((lambda v: v ** 2,), f, f.evaluate)
        assert est.method == "mc"
        assert abs(est.value - nl.l2_norm_sq(f)) <= 4.0 * est.stderr

    def test_tuple_keeps_the_bits_of_single_calls(self):
        from nlsob.functionals import xlogx
        from nlsob.quadrature import lebesgue_volume_integral
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0, 1.0, (0.3, 0.0, 0.0)),
                               nl.GaussianField(3, 1.6, 0.65, (-0.3, 0.2, 0.0))])
        fns = (lambda v: v, xlogx)
        both = lebesgue_volume_integral(f, fns, power_hint=1.0)
        single = [lebesgue_volume_integral(f, (fn,), power_hint=1.0)[0] for fn in fns]
        assert both == single
        assert [e.value.hex() for e in both] == ["0x1.d5d12f4b110b8p+2",
                                                 "-0x1.0a90960c8fdc5p+3"]

    def test_tuple_on_the_radial_path(self, gauss3):
        fns = (lambda v: v, lambda v: v ** 2)
        assert volume_integrate(fns, gauss3, gauss3.evaluate) == [
            volume_integrate((fn,), gauss3, gauss3.evaluate)[0] for fn in fns]


class TestGeometryHelpers:
    def test_sphere_surface_values(self):
        assert rel_err(sphere_surface(3), 4.0 * math.pi) < 1e-15
        assert rel_err(sphere_surface(4), 2.0 * math.pi ** 2) < 1e-15
        assert rel_err(sphere_surface(2), 2.0 * math.pi) < 1e-15

    def test_ball_volume(self):
        assert rel_err(ball_volume(3, 2.0), 4.0 / 3.0 * math.pi * 8.0) < 1e-15

    @pytest.mark.parametrize("order", [4, 5, 6, 8])
    def test_gauss_legendre_rules_are_numpys(self, order):
        # the engines' orders 4, 6 and 8, tabled so that no study imports
        # numpy.polynomial, and any other order are leggauss's own doubles
        # mapped to [0, 1]
        from nlsob.quadrature import _gl_rule
        x, w = np.polynomial.legendre.leggauss(order)
        xi, wi = _gl_rule(order)
        assert xi.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert wi.tobytes() == (0.5 * w).tobytes()

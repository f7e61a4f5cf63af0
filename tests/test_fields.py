"""Field shapes: evaluation, gradients, metadata soundness, transforms."""

import math

import numpy as np
import pytest

import nlsob as nl
from nlsob.errors import (DimensionMismatchError, DivergentIntegralError,
                          UnsupportedOperationError)
from nlsob.fields import eval as feval

from conftest import rel_err


def all_shapes():
    return [
        nl.GaussianField(3, 1.0),
        nl.GaussianField(3, 2.0, 0.7, (0.3, -0.2, 0.1)),
        nl.SmoothBumpField(3, 2.0),
        nl.SmoothBumpField(3, 1.5, -0.8, (0.5, 0.0, 0.0)),
        nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                              [1.0, 0.9, 0.55, 0.2, 0.0]),
        nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                           nl.GaussianField(3, 3.0, 0.5)]),
        nl.IndicatorField(3, 1.0),
    ]


class TestEvaluation:
    def test_gaussian_origin(self, gauss3):
        assert feval(gauss3, [0.0, 0.0, 0.0]) == 1.0

    def test_gaussian_unit_radius(self, gauss3):
        assert rel_err(feval(gauss3, [1.0, 0.0, 0.0]), math.exp(-1.0)) < 1e-15

    def test_indicator_outside(self, indicator3):
        assert feval(indicator3, [2.0, 0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self, gauss3):
        with pytest.raises(DimensionMismatchError):
            gauss3.evaluate([[1.0, 2.0]])

    def test_deterministic(self, gauss3, rng):
        pts = rng.normal(size=(50, 3))
        a = gauss3.evaluate(pts)
        b = gauss3.evaluate(pts)
        assert np.array_equal(a, b)


class TestGradient:
    def test_gaussian_origin_zero(self, gauss3):
        assert np.all(nl.grad(gauss3, [0.0, 0.0, 0.0]) == 0.0)

    def test_gaussian_formula(self, gauss3):
        g = nl.grad(gauss3, [1.0, 0.0, 0.0])
        assert np.allclose(g, [-2.0 * math.exp(-1.0), 0.0, 0.0], rtol=1e-14)

    def test_bump_outside_support(self, bump3):
        assert np.all(nl.grad(bump3, [5.0, 0.0, 0.0]) == 0.0)

    def test_indicator_unsupported(self, indicator3):
        with pytest.raises(UnsupportedOperationError):
            nl.grad(indicator3, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape_idx", range(6))
    def test_matches_finite_differences(self, shape_idx, rng):
        # 100 random points per differentiable shape, step 1e-4, rel err <= 1e-5
        f = all_shapes()[shape_idx]
        if not f.differentiable:
            pytest.skip("jump shape")
        h = 1e-4
        scale = f.sup_bound
        pts = f.center + rng.uniform(-1.2, 1.2, size=(400, f.dim))
        prof = f.radial_profile()
        if prof is not None and math.isfinite(prof.support_radius):
            # keep clear of the support edge, where higher derivatives blow up
            r = np.linalg.norm(pts - f.center, axis=1)
            pts = pts[r < 0.75 * prof.support_radius]
        grads = f.gradient(pts)
        keep = np.linalg.norm(grads, axis=1) > 1e-3 * scale
        pts, grads = pts[keep][:100], grads[keep][:100]
        assert len(pts) >= 50
        fd = np.empty_like(grads)
        for j in range(f.dim):
            e = np.zeros(f.dim)
            e[j] = h
            fd[:, j] = (f.evaluate(pts + e) - f.evaluate(pts - e)) / (2.0 * h)
        rel = np.linalg.norm(fd - grads, axis=1) / np.linalg.norm(grads, axis=1)
        assert np.max(rel) <= 1e-5


class TestMetadata:
    @pytest.mark.parametrize("shape_idx", range(7))
    def test_decay_radius_sound(self, shape_idx, rng):
        f = all_shapes()[shape_idx]
        for eps in np.geomspace(1e-6, 0.5 * f.sup_bound, 8):
            r = f.decay_radius(float(eps))
            if r == 0.0:
                continue
            dirs = rng.normal(size=(200, f.dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            vals = np.abs(f.evaluate(1.01 * r * dirs))
            assert np.all(vals <= eps * (1.0 + 1e-9))

    @pytest.mark.parametrize("shape_idx", range(6))
    def test_lipschitz_sound_on_pairs(self, shape_idx, rng):
        f = all_shapes()[shape_idx]
        L = f.lipschitz_bound
        x = f.center + rng.uniform(-3, 3, size=(500, f.dim))
        y = x + rng.normal(scale=0.3, size=(500, f.dim))
        lhs = np.abs(f.evaluate(x) - f.evaluate(y))
        rhs = L * np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-15)

    def test_gaussian_lipschitz_exact(self, gauss3):
        assert rel_err(gauss3.lipschitz_bound, math.sqrt(2.0 / math.e)) < 1e-15

    def test_indicator_lipschitz_infinite(self, indicator3):
        assert math.isinf(indicator3.lipschitz_bound)

    def test_jumps(self, gauss3):
        assert gauss3.jumps() == ((), gauss3.lipschitz_bound)
        ind = nl.IndicatorField(3, 1.5, -0.7, (0.1, 0.0, 0.0))
        assert ind.jumps() == ((((0.1, 0.0, 0.0), 1.5, -0.7),), 0.0)
        assert nl.IndicatorField(3, 1.0, 0.0).jumps() == ((), 0.0)

    def test_sum_merges_shared_spheres(self, gauss3):
        # heights on one sphere add up; a sphere whose heights cancel is dropped
        f = nl.FiniteSumField([
            nl.IndicatorField(3, 1.0, 0.25), gauss3,
            nl.FiniteSumField([nl.IndicatorField(3, 1.0, 0.5),
                               nl.IndicatorField(3, 2.0, 1.0)]),
            nl.IndicatorField(3, 2.0, -1.0), nl.IndicatorField(3, 3.0, 0.3)])
        zero = (0.0, 0.0, 0.0)
        assert f.jumps() == (((zero, 1.0, 0.75), (zero, 3.0, 0.3)), gauss3.lipschitz_bound)
        assert math.isinf(f.lipschitz_bound)

    def test_constant_has_no_envelope(self):
        with pytest.raises(UnsupportedOperationError):
            nl.ConstantField(3, 1.0).decay_radius(0.5)

    def test_profile_monotone_flag(self, profile3):
        assert profile3.radial_profile().monotone_decreasing


class TestNorms:
    def test_l2_gaussian_closed_form(self, gauss3):
        assert rel_err(nl.l2_norm_sq(gauss3), (math.pi / 2.0) ** 1.5) < 1e-14

    def test_l2_zero_amplitude(self):
        assert nl.l2_norm_sq(nl.GaussianField(3, 1.0, 0.0)) == 0.0

    def test_l2_indicator_ball_volume(self, indicator3):
        assert rel_err(nl.l2_norm_sq(indicator3), 4.0 * math.pi / 3.0) < 1e-14

    def test_l2_quadrature_matches_closed(self, gauss3):
        q = nl.l2_norm_sq(gauss3, method="quadrature")
        assert rel_err(q, (math.pi / 2.0) ** 1.5) < 1e-8

    def test_l2_sum_of_gaussians_cross_terms(self):
        from nlsob.quadrature import lebesgue_volume_integral
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.GaussianField(3, 3.0, 0.5, (0.4, 0.0, 0.0))])
        closed = nl.l2_norm_sq(f)
        est = lebesgue_volume_integral(f, lambda v: v * v, power_hint=2.0)
        assert est.method == "mc"  # off-center sum is not radial
        assert abs(est.value - closed) <= 4.0 * est.stderr

    def test_l2_divergent_rejected(self):
        with pytest.raises(DivergentIntegralError):
            nl.l2_norm_sq(nl.ConstantField(3, 1.0))
        with pytest.raises(DivergentIntegralError):
            nl.l2_norm_sq(nl.ExponentialField(3, (1.0, 0.0, 0.0)))

    def test_dirichlet_gaussian(self, gauss3):
        assert rel_err(nl.dirichlet_energy(gauss3), 3.0 * (math.pi / 2.0) ** 1.5) < 1e-14

    def test_dirichlet_scaling_check(self):
        f = nl.GaussianField(3, 2.0)
        assert rel_err(nl.dirichlet_energy(f), 6.0 * (math.pi / 4.0) ** 1.5) < 1e-14

    def test_dirichlet_zero_field(self):
        assert nl.dirichlet_energy(nl.ConstantField(3, 0.0)) == 0.0

    def test_dirichlet_indicator_unsupported(self, indicator3):
        with pytest.raises(UnsupportedOperationError):
            nl.dirichlet_energy(indicator3)

    def test_dirichlet_quadrature_matches(self, bump3):
        closed_style = nl.dirichlet_energy(bump3)  # radial quadrature path
        # integrate |grad|^2 a second way: finite differences on the profile
        prof = bump3.radial_profile()
        r = np.linspace(1e-6, 2.0 - 1e-6, 20001)
        dg = prof.dg(r)
        ref = 4.0 * math.pi * np.trapezoid(dg ** 2 * r ** 2, r)
        assert rel_err(closed_style, ref) < 1e-5


class TestTransforms:
    def test_identity(self, gauss3):
        t = nl.transform(gauss3, dilate=1.0, amplify=1.0)
        assert t.to_dict() == gauss3.to_dict()

    def test_dilate_gaussian_rate(self, gauss3):
        t = nl.transform(gauss3, dilate=2.0)
        assert t.rate == 0.25

    def test_translate_moves_center(self, gauss3):
        t = nl.transform(gauss3, translate=[1.0, 2.0, 3.0])
        assert np.allclose(t.center, [1.0, 2.0, 3.0])

    def test_lipschitz_update(self, gauss3):
        t = nl.transform(gauss3, dilate=2.0, amplify=4.0)
        assert rel_err(t.lipschitz_bound, gauss3.lipschitz_bound * 4.0 / 2.0) < 1e-14

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_l2_dilation_law(self, lam):
        for f in (nl.GaussianField(3, 1.3, 0.8), nl.GaussianField(4, 0.7)):
            t = nl.transform(f, dilate=lam)
            assert rel_err(nl.l2_norm_sq(t), lam ** f.dim * nl.l2_norm_sq(f)) < 1e-10

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_dirichlet_dilation_law(self, lam):
        for f in (nl.GaussianField(3, 1.3, 0.8), nl.GaussianField(4, 0.7)):
            t = nl.transform(f, dilate=lam)
            assert rel_err(nl.dirichlet_energy(t),
                           lam ** (f.dim - 2) * nl.dirichlet_energy(f)) < 1e-10

    def test_transform_semantics_pointwise(self, bump3, rng):
        t = nl.transform(bump3, dilate=1.5, amplify=-2.0, translate=[0.1, 0.2, 0.3])
        pts = rng.normal(size=(100, 3))
        v = np.array([0.1, 0.2, 0.3])
        expected = -2.0 * bump3.evaluate((pts - v) / 1.5)
        assert np.allclose(t.evaluate(pts), expected, rtol=1e-10, atol=1e-13)


class TestComplexAndPotentials:
    def test_phase_zero_matches_modulus(self, gauss3, rng):
        c = nl.ComplexField(gauss3)
        pts = rng.normal(size=(60, 3))
        vals = c.evaluate(pts)
        assert np.array_equal(vals.real, gauss3.evaluate(pts))
        assert np.all(vals.imag == 0.0)

    def test_modulus_exact(self, gauss3, rng):
        c = nl.ComplexField(gauss3, nl.LinearPhase(0.3, (1.0, -2.0, 0.5)))
        pts = rng.normal(size=(60, 3))
        assert np.allclose(np.abs(c.evaluate(pts)), gauss3.evaluate(pts), rtol=1e-14)

    def test_zero_potential(self):
        z = nl.ZeroPotential(3)
        assert np.all(z.evaluate([[1.0, 2.0, 3.0]]) == 0.0)
        assert z.local_bound(10.0) == 0.0

    def test_linear_b_antisymmetry_required(self):
        with pytest.raises(ValueError):
            nl.LinearBPotential(np.eye(3))

    def test_linear_b_bound(self):
        M = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        A = nl.LinearBPotential(M)
        assert rel_err(A.local_bound(3.0), 6.0) < 1e-12


class TestSerialization:
    @pytest.mark.parametrize("shape_idx", range(7))
    def test_roundtrip(self, shape_idx, rng):
        f = all_shapes()[shape_idx]
        g = nl.field_from_dict(f.to_dict())
        pts = f.center + rng.normal(size=(50, f.dim))
        assert np.array_equal(f.evaluate(pts), g.evaluate(pts))

    def test_descriptor_hash_stable(self, gauss3):
        from nlsob.fields import descriptor_hash
        assert descriptor_hash(gauss3) == descriptor_hash(nl.GaussianField(3, 1.0))
        assert descriptor_hash(gauss3) != descriptor_hash(nl.GaussianField(3, 2.0))

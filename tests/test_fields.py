"""Field shapes: evaluation, gradients, metadata soundness, transforms."""

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import nlsob as nl
from nlsob.errors import (DimensionMismatchError, DivergentIntegralError,
                          UnsupportedOperationError)
from nlsob.fields import eval as feval, row_sq_norms, sorted_unique
from nlsob.quadrature import dirichlet_quadrature, lebesgue_volume_integral

from conftest import rel_err

EPS = np.finfo(float).eps


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

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("m", [1, 5, 4800])
    def test_row_sq_norms_bitwise(self, n, m):
        # n runs across numpy's switch to a pairwise axis-1 sum at 8 columns
        v = np.random.default_rng(100 * n + m).standard_normal((m, n)) * 3.7
        s = row_sq_norms(v)
        assert s.tobytes() == np.sum(v * v, axis=1).tobytes()
        assert np.sqrt(s).tobytes() == np.linalg.norm(v, axis=1).tobytes()
        # about a center, subtracted one column at a time
        c = np.random.default_rng(n).standard_normal(n)
        assert row_sq_norms(v, c).tobytes() == np.sum((v - c) * (v - c), axis=1).tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 17, 1000])
    def test_sorted_unique_matches_np_unique(self, m):
        rng = np.random.default_rng(m)
        # few distinct values, so most draws repeat; with shape (m,) and (m, 2)
        for a in (rng.choice(rng.standard_normal(max(m // 3, 1)), m),
                  np.round(rng.uniform(-2.0, 2.0, (m, 2)), 1), np.zeros((m, 0))):
            got = sorted_unique(a)
            assert got.dtype == a.dtype and got.tobytes() == np.unique(a).tobytes()


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
    @pytest.mark.parametrize("make", [
        lambda: nl.GaussianField(3, math.nan),
        lambda: nl.GaussianField(3, math.inf),
        lambda: nl.GaussianField(3, 1.0, math.nan),
        lambda: nl.GaussianField(3, 1.0, -math.inf),
        lambda: nl.SmoothBumpField(3, math.nan),
        lambda: nl.SmoothBumpField(3, 1.0, math.nan),
        lambda: nl.IndicatorField(3, math.inf),
        lambda: nl.IndicatorField(3, 1.0, math.nan),
        lambda: nl.RadialProfileField(3, [0.0, math.nan, 2.0], [1.0, 0.5, 0.0]),
        lambda: nl.RadialProfileField(3, [0.0, 1.0, math.inf], [1.0, 0.5, 0.0]),
        lambda: nl.RadialProfileField(3, [0.0, 1.0, 2.0], [math.nan, 0.5, 0.0]),
        lambda: nl.RadialProfileField(3, [0.0, 1.0, 2.0], [1.0, math.inf, 0.0]),
    ], ids=["gauss-rate-nan", "gauss-rate-inf", "gauss-amp-nan", "gauss-amp-inf",
            "bump-radius-nan", "bump-amp-nan", "ball-radius-inf", "ball-amp-nan",
            "knot-nan", "knot-inf", "value-nan", "value-inf"])
    def test_non_finite_parameters_rejected(self, make):
        # each used to build a field whose sup, Lipschitz bound or profile
        # is NaN or infinite
        with pytest.raises(ValueError):
            make()

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
        assert profile3.amplify(1e-15).radial_profile().monotone_decreasing
        # the flag must not depend on the amplitude: a ring stays non-monotone
        ring = nl.RadialProfileField(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
        for t in (1.0, 1e-15):
            assert not ring.amplify(t).radial_profile().monotone_decreasing


class TestNorms:
    def test_l2_gaussian_closed_form(self, gauss3):
        assert rel_err(nl.l2_norm_sq(gauss3), (math.pi / 2.0) ** 1.5) < 1e-14

    def test_l2_zero_amplitude(self):
        assert nl.l2_norm_sq(nl.GaussianField(3, 1.0, 0.0)) == 0.0

    def test_l2_indicator_ball_volume(self, indicator3):
        assert rel_err(nl.l2_norm_sq(indicator3), 4.0 * math.pi / 3.0) < 1e-14

    def test_l2_quadrature_matches_closed(self, gauss3):
        q = lebesgue_volume_integral(gauss3, (lambda v: v * v,), 2.0)[0].value
        assert rel_err(q, (math.pi / 2.0) ** 1.5) < 1e-8

    def test_l2_sum_of_gaussians_cross_terms(self):
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                               nl.GaussianField(3, 3.0, 0.5, (0.4, 0.0, 0.0))])
        closed = nl.l2_norm_sq(f)
        (est,) = lebesgue_volume_integral(f, (lambda v: v * v,), power_hint=2.0)
        assert est.method == "mc"  # off-center sum is not radial
        assert abs(est.value - closed) <= 4.0 * est.stderr

    def test_l2_divergent_rejected(self):
        with pytest.raises(DivergentIntegralError):
            nl.l2_norm_sq(nl.ConstantField(3, 1.0))

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

    @pytest.mark.parametrize("energy", [
        pytest.param(nl.dirichlet_energy, id="auto"),
        pytest.param(lambda f: dirichlet_quadrature(f).value, id="quadrature")])
    def test_dirichlet_gaussian_plus_constant(self, energy):
        # g never decays but g' does; the radial grid used to run to r = inf (nan)
        f = nl.FiniteSumField([nl.GaussianField(3, 1.0), nl.ConstantField(3, 1.0)])
        assert rel_err(energy(f),
                       3.0 * (math.pi / 2.0) ** 1.5) < 1e-12

    def test_small_constant_does_not_decay(self):
        # one probe at eps = 1e-3 used to call a constant of size 1e-4 decaying
        c = nl.ConstantField(3, 1e-4)
        assert not c.decays
        assert not nl.FiniteSumField([nl.GaussianField(3, 1.0), c]).decays
        assert nl.ConstantField(3, 0.0).decays
        # the volume quantities of a non-decaying field: the closed form, or
        # the divergence it raises, and no quadrature of u itself
        assert nl.dirichlet_energy(c) == dirichlet_quadrature(c).value == 0.0
        with pytest.raises(DivergentIntegralError):
            nl.l2_norm_sq(c)
        with pytest.raises(DivergentIntegralError):
            lebesgue_volume_integral(c, (lambda v: v * v,), 2.0)


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

    # one field of every shape, off centre, so that each of dilate, amplify
    # and translate moves its values
    C = (0.3, -0.2, 0.1)
    SHAPES = {
        "gaussian": nl.GaussianField(3, 1.3, 0.7, C),
        "bump": nl.SmoothBumpField(3, 1.7, -0.8, C),
        "indicator": nl.IndicatorField(3, 1.1, 0.9, C),
        "radial_profile": nl.RadialProfileField(3, [0.0, 0.6, 1.2, 2.0],
                                                [1.0, 0.7, 0.25, 0.0], C),
        "sum": nl.FiniteSumField([nl.GaussianField(3, 2.0, 0.5, C),
                                  nl.IndicatorField(3, 0.8, 0.4, (-0.4, 0.0, 0.2))]),
        "constant": nl.ConstantField(3, 0.25),
    }

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_transform_semantics_pointwise(self, name, rng):
        # transform(u, dilate=lam, amplify=t, translate=v)(x) = t u((x - v) / lam)
        u, lam, t, v = self.SHAPES[name], 1.5, -2.0, np.array([0.1, 0.2, 0.3])
        got_field = nl.transform(u, dilate=lam, amplify=t, translate=v)
        pts = rng.normal(size=(400, 3))
        z = (pts - v) / lam
        # away from the jump spheres, where a rounding may put z on either side
        for c, r, _ in u.jumps()[0]:
            z = z[np.abs(np.linalg.norm(z - np.array(c), axis=1) - r) > 1e-6]
        expected = t * u.evaluate(z)
        got = got_field.evaluate(lam * z + v)
        # and relative to the sup on the thin tails below a thousandth of
        # it, where the bump and the profile turn rounding in the radius
        # into large relative errors
        scale = abs(t) * u.sup_bound
        big = np.abs(expected) >= 1e-3 * scale
        assert np.count_nonzero(big) > 100
        assert np.all(np.abs(got - expected)[big] <= 1e-12 * np.abs(expected[big]))
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    def test_constant_gradient_is_zero(self):
        c = nl.ConstantField(3, 0.25)
        assert np.array_equal(nl.grad(c, [0.4, -1.0, 2.0]), np.zeros(3))
        assert np.array_equal(c.gradient(np.ones((5, 3))), np.zeros((5, 3)))


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


class TestPinnedLiterals:
    """Descriptor hashes and value bits recorded before the fields were
    reorganised around one radial-shape base: benchmark op ids and the
    CSV ``field_hash`` column hash ``to_dict()``, and every formula was
    moved verbatim, so none of these may change.  The radial profile's
    value bits are those of the clamped spline's Thomas sweep and Horner
    evaluation."""

    C = (0.1, 0.2, -0.3)
    SHAPES = {
        "gaussian": nl.GaussianField(3, 1.3, 0.7, (0.2, -0.1, 0.3)),
        "bump": nl.SmoothBumpField(3, 1.7, -0.8, (0.5, 0.0, -0.25)),
        "indicator": nl.IndicatorField(3, 1.1, 0.9, (0.0, 0.4, 0.0)),
        "radial_profile": nl.RadialProfileField(3, [0.0, 0.6, 1.2, 2.0],
                                                [1.0, 0.7, 0.25, 0.0], C),
        "sum": nl.FiniteSumField([nl.GaussianField(3, 2.0, 0.5, C),
                                  nl.SmoothBumpField(3, 1.5, 0.8, C)]),
        "constant": nl.ConstantField(3, 0.25),
    }
    OFFSETS = np.array([[0.2, -0.1, 0.15], [-0.3, 0.5, 0.2], [0.6, 0.45, -0.5],
                        [-0.9, -0.7, 0.55], [1.4, 1.1, -0.8]])
    HASHES = {
        "gaussian": "7df3a767c6dc",
        "bump": "11870d482e44",
        "indicator": "eb3079f4d913",
        "radial_profile": "f395c39fa015",
        "sum": "a9d97bc8487f",
        "constant": "d674e49ed5ad",
        "mc": "506eb107eb2e",
        "radial": "e10f2b800312",
        "kernel": "95a823c6d348",
        "complex": "06893a18b740",
        "zero_potential": "4ae8106f85e8",
        "constant_potential": "e662afda2ad9",
        "linear_b_potential": "9951fc06ed20",
    }
    BITS = {
        "gaussian": {
            "evaluate": [
                "0x1.4629ee326692fp-1", "0x1.b560a96e76450p-2", "0x1.f28b8b332256ap-3",
                "0x1.6509a31099216p-4", "0x1.43faba33d690bp-8",
            ],
            "gradient": [
                "-0x1.5335d901377a2p-2", "0x1.5335d901377a2p-3", "-0x1.fcd0c581d3370p-3",
                "0x1.55278e658535dp-2", "-0x1.1c4ba15499acep-1", "-0x1.c6df68875c47dp-3",
                "-0x1.84dd7bef908b5p-2", "-0x1.23a61cf3ac686p-2", "0x1.440de747a31ebp-2",
                "0x1.a1bbea4e4cc33p-3", "0x1.44e77d5958261p-3", "-0x1.fe90574341607p-4",
                "-0x1.26d23dec9cdabp-6", "-0x1.cf4a614f3fa0ep-7", "0x1.50f046c5458c4p-7",
            ],
            "g": [
                "0x1.4629ee326692ep-1", "0x1.b560a96e76450p-2", "0x1.f28b8b332256bp-3",
                "0x1.6509a31099213p-4", "0x1.43faba33d6910p-8",
            ],
            "dg": [
                "-0x1.c8ad07c229890p-2", "-0x1.5e80c11a0b1bcp-1", "-0x1.24193e5ef874bp-1",
                "-0x1.25c866679dabfp-2", "-0x1.9b0c759200c7dp-6",
            ],
            "lipschitz": "0x1.5e8402bb92030p-1",
        },
        "bump": {
            "evaluate": [
                "-0x1.8f31d1f2413bap-1", "-0x1.600e02e641fb9p-1", "-0x1.1504db9479934p-1",
                "-0x1.d7ec374b65c48p-3", "0x0.0p+0",
            ],
            "gradient": [
                "0x1.d10e2b15c1fc5p-4", "-0x1.d10e2b15c1fc7p-5", "0x1.5ccaa050517d5p-4",
                "-0x1.8396df2d8d89cp-3", "0x1.42fdb9fb4b482p-2", "0x1.026494c909068p-3",
                "0x1.bd2e507c99014p-2", "0x1.4de2bc5d72c0ep-2", "-0x1.72fbedbd2a2bap-2",
                "-0x1.723e303772308p-1", "-0x1.1ff77ad5ca978p-1", "0x1.c484e59919c99p-2",
                "0x0.0p+0", "0x0.0p+0", "-0x0.0p+0",
            ],
            "g": [
                "-0x1.8f31d1f2413b8p-1", "-0x1.600e02e641fb9p-1", "-0x1.1504db9479934p-1",
                "-0x1.d7ec374b65c48p-3", "0x0.0p+0",
            ],
            "dg": [
                "0x1.390cca271fafap-3", "0x1.8e35cf5f1b928p-2", "0x1.4e668a258930ap-1",
                "0x1.046225fa453a9p+0", "0x0.0p+0",
            ],
            "lipschitz": "0x1.0ab187c007ba7p+0",
        },
        "indicator": {
            "evaluate": [
                "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1",
                "0x0.0p+0", "0x0.0p+0",
            ],
            "gradient": None,
            "g": [
                "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1",
                "0x0.0p+0", "0x0.0p+0",
            ],
            "dg": None,
            "lipschitz": "inf",
        },
        "radial_profile": {
            "evaluate": [
                "0x1.d9a5c8951de54p-1", "0x1.5fcc8907fc242p-1", "0x1.d8d69a8641d50p-2",
                "0x1.afab7f218e924p-3", "0x1.e03c981a28100p-11",
            ],
            "gradient": [
                "-0x1.85e01a5924dedp-2", "0x1.85e01a5924decp-3", "-0x1.246813c2dba71p-2",
                "0x1.8797fdde826f5p-2", "-0x1.4653fe396cb21p-1", "-0x1.050ffe9456f4fp-2",
                "-0x1.07c5b61e46129p-1", "-0x1.8ba8912d691bep-2", "0x1.b79eda3274c9ap-2",
                "0x1.9f1d0ff189342p-2", "0x1.42ddb71131d33p-2", "-0x1.fb5c68d1e0951p-3",
                "-0x1.bf9110fa92624p-6", "-0x1.5fa8d67bbc28ap-6", "0x1.ff8137f9cbde0p-7",
            ],
            "g": [
                "0x1.d9a5c8951de54p-1", "0x1.5fcc8907fc242p-1", "0x1.d8d69a8641d50p-2",
                "0x1.afab7f218e924p-3", "0x1.e03c981a28100p-11",
            ],
            "dg": [
                "-0x1.067162aa9c01fp-1", "-0x1.92530546b260bp-1", "-0x1.8c44c195daf57p-1",
                "-0x1.23f09abc9f3c4p-1", "-0x1.3801659ac94a0p-5",
            ],
            "lipschitz": "0x1.9800000000000p-1",
        },
        "sum": {
            "evaluate": [
                "0x1.34d0f88043c22p+0", "0x1.c6001d7e4852ap-1", "0x1.1b28bae397b76p-1",
                "0x1.66e064d402ac6p-4", "0x1.012f68f9c0f66p-12",
            ],
            "gradient": [
                "-0x1.f8b74f08d0ceep-2", "0x1.f8b74f08d0cecp-3", "-0x1.7a897b469c9b1p-2",
                "0x1.10b7985192db8p-1", "-0x1.c68753329f6dcp-1", "-0x1.6b9f75c21924cp-2",
                "-0x1.a918db0388f52p-1", "-0x1.3ed2a442a6b7ep-1", "0x1.623f612d9ccc4p-1",
                "0x1.726bb2e20d138p-1", "0x1.201ae076edb9cp-1", "-0x1.c4bc854d2c6d2p-2",
                "-0x1.680f2c90daf28p-10", "-0x1.1ae759df87757p-10", "0x1.9b7f0e5c67f0ap-11",
            ],
            "g": [
                "0x1.34d0f88043c22p+0", "0x1.c6001d7e4852ap-1", "0x1.1b28bae397b76p-1",
                "0x1.66e064d402ac5p-4", "0x1.012f68f9c0f6ap-12",
            ],
            "dg": [
                "-0x1.53bf54db728dep-1", "-0x1.1830b48a4ad10p+0", "-0x1.3f507fd2040cdp+0",
                "-0x1.048227a00efc2p+0", "-0x1.f60166c888528p-10",
            ],
            "lipschitz": "0x1.c98642ce301d3p+0",
        },
    }

    def test_descriptor_hashes(self):
        from nlsob.fields import descriptor_hash
        from nlsob.functionals import KernelSpec, MonotoneEnvelope
        from nlsob.quadrature import McSpec, RadialSpec
        # the magnetic benchmark ops key on the complex field's and the
        # potentials' descriptors too
        objs = dict(self.SHAPES, mc=McSpec(master_seed=7), radial=RadialSpec(),
                    kernel=KernelSpec(0.25, 1.5, MonotoneEnvelope.power_law(3.0)),
                    complex=nl.ComplexField(self.SHAPES["gaussian"],
                                            nl.LinearPhase(0.4, (0.3, 0.0, -0.2))),
                    zero_potential=nl.ZeroPotential(3),
                    constant_potential=nl.ConstantPotential((0.5, -0.3, 0.2)),
                    linear_b_potential=nl.LinearBPotential(
                        [[0.0, 0.4, -0.3], [-0.4, 0.0, 0.2], [0.3, -0.2, 0.0]]))
        assert {k: descriptor_hash(v) for k, v in objs.items()} == self.HASHES

    @pytest.mark.parametrize("name", ["gaussian", "bump", "indicator", "radial_profile", "sum"])
    def test_value_bits(self, name):
        f = self.SHAPES[name]
        pts = f.center + self.OFFSETS
        prof = f.radial_profile()
        r = np.linalg.norm(self.OFFSETS, axis=1)
        hexes = lambda a: [float(v).hex() for v in np.ravel(a)]
        got = {
            "evaluate": hexes(f.evaluate(pts)),
            "gradient": hexes(f.gradient(pts)) if f.differentiable else None,
            "g": hexes(prof.g(r)),
            "dg": hexes(prof.dg(r)) if prof.dg is not None else None,
            "lipschitz": float(f.lipschitz_bound).hex(),
        }
        assert got == self.BITS[name]


class TestClampedSplineOracle:
    """The in-package clamped spline against scipy's ``CubicSpline`` with
    zero end slopes: values and derivatives agree within 64 eps of the
    reference's largest magnitude over the evaluated points (the largest
    deviation seen is about 18 eps for values and 8 for derivatives)."""

    @staticmethod
    def close(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 64 * EPS * np.max(np.abs(ref))

    def test_random_knot_sets(self):
        from scipy.interpolate import CubicSpline
        from nlsob.fields import ClampedSpline
        rng = np.random.default_rng(20240611)
        for _ in range(400):
            n = int(rng.integers(3, 13))
            dx = rng.uniform(0.01, 3.0, n - 1)
            x = np.concatenate([[0.0], np.cumsum(dx)])
            y = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            ref = CubicSpline(x, y, bc_type=((1, 0.0), (1, 0.0)))
            got = ClampedSpline.clamped(x, y)
            r = np.concatenate([x, rng.uniform(-0.5, x[-1] + 0.5, 64)])
            self.close(got(r), ref(r))
            self.close(got.derivative()(r), ref.derivative()(r))
            self.close(got(x[1]), ref(x[1]))

    def test_profile_field_matches_scipy(self):
        from scipy.interpolate import CubicSpline
        knots, values = [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0]
        prof = nl.RadialProfileField(3, knots, values).radial_profile()
        ref = CubicSpline(knots, values, bc_type=((1, 0.0), (1, 0.0)))
        r = np.linspace(0.0, 2.0, 101)
        self.close(prof.g(r), ref(r))
        self.close(prof.dg(r), ref.derivative()(r))


class TestClampedSplineConditions:
    """The defining conditions of the clamped spline, without scipy: each
    piece reaches the next knot's value, the slope is continuous at the
    interior knots, the end slopes are zero, and the second derivative is
    continuous at the interior knots.  Each sum is checked within 8 eps of
    the sum of the magnitudes of its terms (about 1.4 eps is the largest
    seen).  Any piecewise Hermite cubic with zero end slopes meets the
    first three; the last one pins the knot slopes."""

    @staticmethod
    def near_zero(terms):
        terms = np.asarray(terms)
        assert abs(terms.sum()) <= 8 * EPS * np.abs(terms).sum()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 3.0), st.integers(-1000, 1000)),
                    min_size=3, max_size=12),
           st.integers(-100, 100))
    def test_defining_conditions(self, knots, scale):
        from nlsob.fields import ClampedSpline
        x = np.cumsum([0.0] + [h for h, _ in knots[1:]])
        y = np.array([v / 1000 for _, v in knots]) * 10.0 ** scale
        c = ClampedSpline.clamped(x, y).c
        dx, m = np.diff(x), np.diff(y) / np.diff(x)
        s = np.append(c[2], 0.0)  # the knot slopes, the last one by clamping
        for i, h in enumerate(dx):
            value = c[:, i] * h ** np.arange(3, -1, -1)
            slope = c[:3, i] * np.array([3.0, 2.0, 1.0]) * h ** np.arange(2, -1, -1)
            self.near_zero(np.append(value, -y[i + 1]))
            self.near_zero(np.append(slope, -s[i + 1]))
        assert c[2, 0] == 0.0
        # g'' continuous at x[i]: (2 s[i-1] + 4 s[i] - 6 m[i-1]) / dx[i-1]
        # = (6 m[i] - 4 s[i] - 2 s[i+1]) / dx[i], times dx[i-1] dx[i] / 2
        for i in range(1, x.size - 1):
            h0, h1 = dx[i - 1], dx[i]
            self.near_zero([h1 * s[i - 1], 2 * h0 * s[i], 2 * h1 * s[i], h0 * s[i + 1],
                            -3 * h1 * m[i - 1], -3 * h0 * m[i]])

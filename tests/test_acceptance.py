"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the stochastic ones are
3x the combined standard errors of the Monte Carlo terms involved.
"""

import csv
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

import nlsob as nl
import nlsob.cli as cli
from nlsob import functionals
from nlsob.functionals import (
    KernelSpec,
    MonotoneEnvelope,
    default_engine,
    f_functional,
    i_delta,
    i_delta_magnetic_paired,
    i_delta_p,
    xlogx,
)
from nlsob.inequalities import (
    check_diamagnetic,
    check_euclidean_family,
    check_gauss_lsi,
    check_small_set_bound,
    jensen_gap,
    jensen_gap_p,
    sweep_family,
)
from nlsob.limits import (
    check_upper_bound,
    estimate_qn,
    gradient_limit_constant,
    recover_classical_lsi,
)
from nlsob.quadrature import dirichlet_quadrature, lebesgue_volume_integral

from conftest import rel_err

SEED = 20240809
ENGINE = default_engine(SEED)
ENGINE_MC = default_engine(SEED, mode="mc", n_samples=384000)


def announce(number, label, t0):
    print(f"\nACCEPTANCE {number} PASS ({time.time() - t0:.1f}s): {label}")


def eight_field_family():
    return [
        nl.GaussianField(3, 1.0),
        nl.GaussianField(3, 2.0, 0.7),
        nl.GaussianField(3, 0.5, 1.3),
        nl.SmoothBumpField(3, 2.0),
        nl.SmoothBumpField(3, 1.5, 0.8),
        nl.GaussianField(3, 1.0, 1.0, (0.5, 0.0, 0.0)),
        nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                           nl.GaussianField(3, 3.0, 0.5)]),
        nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                              [1.0, 0.9, 0.55, 0.2, 0.0]),
    ]


def test_criterion_1_closed_form_oracles():
    """Deterministic-engine values match the analytic Gaussian formulas."""
    t0 = time.time()
    n, a = 3, 1.0
    c = (math.pi / (2.0 * a)) ** (n / 2.0)
    g = nl.GaussianField(n, a)
    # the quadrature each volume quantity falls back to, run on a field
    # with a closed form; the entropy normalises by the closed-form mass
    m = nl.l2_norm_sq(g)
    l2, u2logu2, ent = (e.value for e in lebesgue_volume_integral(
        g, (lambda v: v * v, lambda v: xlogx(np.abs(v) ** 2.0), lambda v: xlogx(v * v / m)),
        2.0))
    oracles = {
        "l2": (l2, c),
        "dirichlet": (dirichlet_quadrature(g).value, n * a * c),
        "u2logu2": (u2logu2, -(n / 2.0) * c),
        "entropy": (ent, -n / 2.0 - (n / 2.0) * math.log(math.pi / (2.0 * a))),
    }
    for name, (got, expect) in oracles.items():
        assert rel_err(got, expect) < 1e-6, name
    assert time.time() - t0 < 10.0
    announce(1, "closed-form oracle suite (rel 1e-6, deterministic engine)", t0)


def test_criterion_2_cross_engine_agreement():
    """MC and radial engines agree within 3 stderr on Gaussian workloads."""
    t0 = time.time()
    g = nl.GaussianField(3, 1.0)
    env = MonotoneEnvelope.power_law(3.0)
    for delta in (0.05, 0.1, 0.2):
        for tag, run in {
            "p2": lambda d: (i_delta(g, KernelSpec(d), ENGINE),
                             i_delta(g, KernelSpec(d), ENGINE_MC)),
            "p3": lambda d: (i_delta_p(g, KernelSpec(d, p=3.0), ENGINE),
                             i_delta_p(g, KernelSpec(d, p=3.0), ENGINE_MC)),
        }.items():
            r, m = run(delta)
            gap = abs(r.value - m.value)
            budget = 3.0 * m.stderr + r.discrepancy + r.tail_bound + m.tail_bound
            assert gap <= budget, (tag, delta, gap, budget)
    r = f_functional(g, env, 2.0, ENGINE)
    m = f_functional(g, env, 2.0, ENGINE_MC)
    assert abs(r.value - m.value) <= (3.0 * m.stderr + r.discrepancy
                                      + r.tail_bound + m.tail_bound)
    assert time.time() - t0 < 120.0
    announce(2, "cross-engine agreement for p in {2,3} and F = t^3", t0)


def test_criterion_3_exact_scaling_laws():
    """Amplitude law bitwise under shared samples; dilation law at 3 sigma."""
    t0 = time.time()
    g = nl.GaussianField(3, 1.0)
    delta, tt = 0.1, 2.0
    u2 = g.amplify(tt)
    pinned = replace(ENGINE_MC, mc=replace(ENGINE_MC.mc, h_max=64.0,
                                           x_radius=u2.decay_radius(delta / 2.0)))
    a = i_delta(u2, KernelSpec(delta), pinned)
    b = i_delta(g, KernelSpec(delta / tt), pinned)
    assert a.value == tt ** 2 * b.value  # bitwise
    for lam in (0.5, 2.0):
        base = i_delta(g, KernelSpec(delta), ENGINE_MC)
        dil = i_delta(g.dilate(lam), KernelSpec(delta), ENGINE_MC)
        expect = lam ** (3 - 2) * base.value
        assert abs(dil.value - expect) <= 3.0 * math.hypot(lam * base.stderr,
                                                           dil.stderr)
    announce(3, "amplitude law bitwise; dilation law with exponent N-2", t0)


def test_criterion_4_jensen_suite():
    """Gap nonnegative on ten fields; Gaussian value matches the closed form."""
    t0 = time.time()
    fields = eight_field_family() + [
        nl.GaussianField(3, 4.0, 0.3),
        nl.IndicatorField(3, 1.5, 2.0),
    ]
    assert len(fields) == 10
    for f in fields:
        assert jensen_gap(f) >= -1e-7, f
    # recomputed closed form for the normalized unit-rate Gaussian
    expect = (1.5 * math.log(math.pi / 6.0) - 4.5 * math.log(math.pi / 2.0)
              - 2.0 * (-1.5 - 1.5 * math.log(math.pi / 2.0)))
    assert abs(jensen_gap(nl.GaussianField(3, 1.0)) - expect) < 1e-3
    # the L^p variant holds as well on the smooth members
    for f in fields[:3]:
        assert jensen_gap_p(f, 1.5) >= -1e-7
    announce(4, f"Jensen suite (Gaussian gap {expect:.6f})", t0)


def test_criterion_5_entropy_inequality_pipeline():
    """Family sweep yields a finite constant validated on held-out instances;
    the proof-step bounds hold with deterministic nonnegative deficit."""
    t0 = time.time()
    fields = eight_field_family()
    sw = sweep_family(fields, [0.05, 0.1, 0.2], "logsobolev_main", ENGINE,
                      seed=SEED)
    assert math.isfinite(sw.family_constant) and sw.family_constant > 0
    assert len(sw.held_idx) >= 1
    for i in sw.held_idx:
        rep = sw.reports[i]
        assert rep.deficit_at(sw.family_constant) >= -max(rep.stat_margin, 1e-9)
    for f in fields[:4]:
        rep = check_small_set_bound(f, 0.1, 1.0)
        assert rep.deficit >= 0.0
        assert jensen_gap(f) >= -1e-7
    announce(5, f"entropy-inequality pipeline (family constant {sw.family_constant:.4f}, "
                f"{len(sw.held_idx)} held-out ok)", t0)


def test_criterion_6_diamagnetic_suite():
    """Paired ordering with zero tolerance on a 3x3 (modulus, potential)
    matrix; the zero-potential reduction is bitwise."""
    t0 = time.time()
    M = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    moduli = [nl.GaussianField(3, 1.0), nl.SmoothBumpField(3, 2.0),
              nl.FiniteSumField([nl.GaussianField(3, 1.0, 0.6),
                                 nl.GaussianField(3, 3.0, 0.5)])]
    pots = [nl.ZeroPotential(3), nl.ConstantPotential((0.8, -0.4, 0.2)),
            nl.LinearBPotential(M)]
    for m in moduli:
        for A in pots:
            rep = check_diamagnetic(nl.ComplexField(m), A, 0.1, ENGINE_MC)
            assert rep.deficit >= 0.0, (m, A)
    g = nl.GaussianField(3, 1.0)
    mag, base = i_delta_magnetic_paired(nl.ComplexField(g), nl.ZeroPotential(3),
                                        KernelSpec(0.1), ENGINE_MC)
    plain = i_delta(g, KernelSpec(0.1), ENGINE_MC)
    assert mag.value == base.value == plain.value
    announce(6, "diamagnetic ordering, zero tolerance, bitwise zero-A reduction", t0)


def test_criterion_7_equality_cases():
    """Euclidean-family deficit vanishes at a^2 = pi/(2 rate); the constant
    field saturates the Gauss-measure inequality exactly."""
    t0 = time.time()
    for rate in (0.7, math.pi / 2.0, 3.0):
        g = nl.GaussianField(3, rate)
        u = g.amplify(1.0 / math.sqrt(nl.l2_norm_sq(g)))
        a_star = math.sqrt(math.pi / (2.0 * rate))
        rep = check_euclidean_family(u, a_star)
        assert abs(rep.deficit) <= 1e-6, rate
    rep = check_gauss_lsi(nl.ConstantField(3, 1.0))
    assert rep.deficit == 0.0
    announce(7, "equality cases (Euclidean family optimum, constant field)", t0)


def test_criterion_8_limit_study():
    """Extrapolated ratio matches the derived candidate |S^{N-1}|/(2N)
    within 2% for N in {3, 4}; the delta term decays monotonically."""
    t0 = time.time()
    deltas = [0.2 * 2.0 ** (-k) for k in range(6)]
    for dim in (3, 4):
        fields = [nl.GaussianField(dim, 1.0), nl.SmoothBumpField(dim, 2.0)]
        est = estimate_qn(dim, fields, ENGINE, deltas)
        candidate = gradient_limit_constant(dim)
        assert rel_err(est.value, candidate) < 0.02, dim
        assert est.consistent
        assert "derived" in est.candidate_label  # flagged, not externally given
    rec = recover_classical_lsi(nl.GaussianField(3, 1.0), deltas,
                                family_constant=0.05, engine=ENGINE)
    assert rec.dterm_monotone
    assert rec.final_gap < 0.01
    assert time.time() - t0 < 300.0
    announce(8, "limit study: ratio limits within 2% for N=3,4; "
                "delta term washes out", t0)


def test_criterion_9_upper_bound_and_divergence():
    """Gradient-domination ratio is finite and grid-stable for smooth fields;
    the jump field is divergent: its jump of 1 exceeds delta, so
    I_delta = inf, decided from its jump sphere without sampling (method
    "exact").  delta > J would be finite, and delta == J with a varying
    jump-free part or crossing spheres at delta >= J would raise
    UnsupportedOperationError."""
    t0 = time.time()
    deltas = [1.0 * 2.0 ** (-k) for k in range(8)]  # down to 0.0078
    for f in (nl.GaussianField(3, 1.0), nl.SmoothBumpField(3, 2.0)):
        rep = check_upper_bound(f, deltas, ENGINE)
        assert math.isfinite(rep.sup_ratio)
        assert rep.relative_change < 0.05
    est = i_delta(nl.IndicatorField(3, 1.0), KernelSpec(0.5), ENGINE)
    assert est.diverged and est.value == math.inf
    announce(9, "upper-bound stability on smooth fields; indicator diverges", t0)


def test_criterion_10_reproducibility(tmp_path):
    """cmd_eval twice with one seed, at worker counts 1 and 8, produces
    byte-identical CSVs."""
    t0 = time.time()
    cfg = {
        "dim": 3,
        "seed": SEED,
        "fields": [{"shape": "gaussian", "dim": 3, "rate": 1.0},
                   {"shape": "bump", "dim": 3, "radius": 2.0}],
        "kernel": {"deltas": [0.2, 0.1]},
        "engine": {"mode": "mc", "mc": {"n_samples": 96000}},
        "functionals": ["i_delta", "entropy_l2"],
        "output": {"csv": "eval.csv"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    old = os.environ.get("WORKERS")
    try:
        for tag, workers in (("w1", "1"), ("w8", "8")):
            os.environ["WORKERS"] = workers
            functionals._MEMO.clear()  # each run computes its own estimates
            rc = cli.main(["eval", "--config", str(path),
                           "--out-dir", str(tmp_path / tag)])
            assert rc == 0
            outputs.append((tmp_path / tag / "eval.csv").read_bytes())
    finally:
        if old is None:
            os.environ.pop("WORKERS", None)
        else:
            os.environ["WORKERS"] = old
    assert outputs[0] == outputs[1]
    announce(10, "byte-identical eval CSVs at worker counts 1 and 8", t0)

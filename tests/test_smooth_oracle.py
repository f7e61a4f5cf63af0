"""The error claims of smooth envelopes cover a truth.

Each truth is the untruncated pair integral of |u(x) - u(y)|^q / |x - y|^{N+p}
for a radial field, made by ``smooth_envelope_truth`` with scipy's nested
``quad`` and pinned as a literal in ``TRUTHS`` right below it, so the test
itself needs no scipy and runs fast.  ``python tests/test_smooth_oracle.py``
(with ``src`` on the path) makes every truth again and exits 1 if a pinned
one is off by more than ``TRUTH_RTOL`` relative.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import nlsob as nl
from nlsob.quadrature import MonotoneEnvelope, RadialSpec

TRUTH_RTOL = 1e-10


def _cases():
    """name -> (field, q, p): the envelope power_law(q) under the kernel p."""
    ring = nl.RadialProfileField(4, [0.0, 0.5, 1.0, 1.5, 2.0], [0.2, 0.7, 1.0, 0.4, 0.0])
    return {"gauss3": (nl.GaussianField(3, 1.0), 3.0, 2.0),
            "gauss4": (nl.GaussianField(4, 1.0), 3.0, 2.0),
            "bump3": (nl.SmoothBumpField(3, 2.0), 3.0, 2.0),
            "ring4": (ring, 3.0, 2.0),
            "gauss3-q2.5-p1.5": (nl.GaussianField(3, 1.0), 2.5, 1.5)}


def _sphere(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def smooth_envelope_truth(field, q, p):
    """|S^{N-1}| |S^{N-2}| times twice the integral over 0 < r < s of
    r^{N-1} s^{N-1} |g(r) - g(s)|^q T(r, s), g the field's profile, by
    nested ``scipy.integrate.quad`` split at the profile's knots and, in s,
    at r.  The theta-integral T is in closed form:
    ((s-r)^{-1-p} - (s+r)^{-1-p}) / ((1+p) r s) at N = 3, and
    pi / (2 ((s-r)(s+r))^3) at N = 4 with p = 2.  s runs to infinity; r ends
    at the support, or where g < 1e-40 sup, beyond which the integrand is
    below 1e-100 of it.  Its absolute tolerance of 1e-13 stops quad where
    the rounding of g(r) - g(s) near s = r is all it would resolve."""
    from scipy import integrate

    n = field.dim
    prof = field.radial_profile()
    if n == 3:
        def kernel(r, s):
            return ((s - r) ** (-1.0 - p) - (s + r) ** (-1.0 - p)) / ((1.0 + p) * r * s)
    elif n == 4 and p == 2.0:
        def kernel(r, s):
            return math.pi / (2.0 * ((s - r) * (s + r)) ** 3)
    else:
        raise ValueError("closed-form theta-integral only at N = 3, or N = 4 with p = 2")

    def g(t):
        return float(prof.g(np.array([t]))[0])

    def quad(f, cuts):
        return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))

    knots = [k for k in prof.knots if k > 0.0]
    end = (prof.support_radius if math.isfinite(prof.support_radius)
           else prof.decay_radius(1e-40 * prof.sup))

    def inner(r):
        gr = g(r)
        return quad(lambda s: s ** (n - 1) * abs(gr - g(s)) ** q * kernel(r, s),
                    [r] + [k for k in knots if k > r] + [math.inf])

    outer = quad(lambda r: r ** (n - 1) * inner(r), [0.0] + [k for k in knots if k < end] + [end])
    return 2.0 * _sphere(n) * _sphere(n - 1) * outer


TRUTHS = {"gauss3": 18.66844943063904,
          "gauss4": 30.008371916055953,
          "bump3": 70.51957708796493,
          "ring4": 389.9359016278679,
          "gauss3-q2.5-p1.5": 31.487712628915677}


@pytest.mark.parametrize("spec", [RadialSpec(12, 16), RadialSpec()], ids=["12-16", "default"])
@pytest.mark.parametrize("name", list(TRUTHS))
def test_smooth_envelope_claim_covers_the_truth(name, spec):
    field, q, p = _cases()[name]
    est = nl.f_functional(field, MonotoneEnvelope.power_law(q), p,
                          replace(nl.default_engine(1), radial=spec))
    assert est.method == "radial"
    assert abs(est.value - TRUTHS[name]) <= est.discrepancy + est.tail_bound


def main() -> int:
    """Make every truth again; 1 if a pinned one is off by more than TRUTH_RTOL."""
    bad = 0
    for name, (field, q, p) in _cases().items():
        made = smooth_envelope_truth(field, q, p)
        off = abs(made - TRUTHS[name]) / abs(made)
        print(f"{name}: pinned {TRUTHS[name]!r}, made {made!r}, relative {off:.2e}")
        bad += off > TRUTH_RTOL
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

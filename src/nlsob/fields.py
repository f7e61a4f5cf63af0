"""Analytic test fields on R^N with exact metadata.

Each field knows how to evaluate itself and its gradient at arbitrary
points, and carries a sound Lipschitz bound plus a decay envelope
``eps -> R(eps)`` with ``|u(x)| <= eps`` whenever ``|x| >= R(eps)``.
The integration engines rely on this metadata for exact (not heuristic)
domain truncations, so the bounds must hold everywhere.  Fields with
jumps list their jump spheres, from which divergence is decided exactly.

The radial shapes (Gaussian, smooth bump, ball indicator, piecewise-cubic
profile) derive from ``RadialShapeField``, which turns each shape's
profile g(r) into evaluation, gradients, the decay envelope and
``radial_profile()``.  Every shape owns its closed forms (L2 norm,
Dirichlet energy, Lp and log-moments, entropy, Gauss-measure log-Sobolev
sides) as ``*_closed_form`` methods, None where it has none; it also owns
its Monte Carlo proposal (``proposal_components``).  This module holds
metadata and closed forms only: ``functionals`` decides between a closed
form and quadrature.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergentIntegralError,
    UnsupportedOperationError,
    ZeroFieldError,
)

__all__ = [
    "ScalarField",
    "GaussianField",
    "SmoothBumpField",
    "IndicatorField",
    "RadialProfileField",
    "FiniteSumField",
    "ConstantField",
    "ComplexField",
    "LinearPhase",
    "VectorPotential",
    "ZeroPotential",
    "ConstantPotential",
    "LinearBPotential",
    "RadialProfile1D",
    "eval",
    "grad",
    "transform",
    "field_from_dict",
    "descriptor_hash",
]


def check_dimension(n: int, minimum: int = 1) -> int:
    if not isinstance(n, (int, np.integer)) or n < minimum:
        raise DimensionMismatchError(f"dimension must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce a point or batch of points to shape (m, dim)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def row_sq_norms(v: np.ndarray, center=None) -> np.ndarray:
    """Squared norm of each row d of ``v`` or ``v - center``, bit-equal to
    ``np.sum(d * d, axis=1)`` (and, after ``sqrt``, to ``np.linalg.norm``).
    Below 8 columns numpy's axis-1 reduce adds the columns left to right,
    which the column loop repeats at a fraction of the cost (centering one
    column at a time); from 8 on numpy sums pairwise."""
    if v.shape[1] >= 8:
        d = v if center is None else v - center
        return np.sum(d * d, axis=1)
    out = np.zeros(len(v))  # 0 + x is x
    for j in range(v.shape[1]):
        d = v[:, j] if center is None else v[:, j] - center[j]
        out += d * d
    return out


def sorted_unique(a) -> np.ndarray:
    """``np.unique(a)`` for finite ``a``, without the ``numpy.ma`` import
    of the first ``np.unique`` call."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def ball_volume(n: int, radius: float = 1.0) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius ** n


@dataclass(frozen=True)
class RadialProfile1D:
    """One-dimensional radial profile g(r) of a radial field, with metadata.

    ``lipschitz`` bounds |g'| on [0, inf); ``decay_radius(eps)`` is relative
    to the field's own center.  ``knots`` lists radii where g is less smooth
    (support edges, spline breakpoints) so quadrature panels can align there.
    ``flat_radius(eps)`` is the radius beyond which g stays within eps of
    its limit at infinity, so that g' vanishes there; left out, g tends
    to 0 and it is ``decay_radius``.  ``level_radius(levels)``, set only
    on a decreasing profile whose inverse has a closed form, maps an
    array of levels in (0, g(0)] to the s >= 0 with g(s) = level; the
    radial engine then cuts its indicator sets there instead of solving
    for each crossing.
    """

    g: Callable[[np.ndarray], np.ndarray]
    dg: Optional[Callable[[np.ndarray], np.ndarray]]
    lipschitz: float
    sup: float
    knots: np.ndarray
    decay_radius: Callable[[float], float]
    monotone_decreasing: bool
    support_radius: float = math.inf
    flat_radius: Optional[Callable[[float], float]] = None
    level_radius: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.flat_radius is None:
            object.__setattr__(self, "flat_radius", self.decay_radius)


class ScalarField:
    """Base class; concrete shapes implement the evaluation primitives."""

    dim: int

    # -- evaluation ------------------------------------------------------
    def evaluate(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    # -- metadata --------------------------------------------------------
    @property
    def differentiable(self) -> bool:
        return True

    @property
    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    @property
    def sup_bound(self) -> float:
        """Upper bound on sup |u| (exact for the basic shapes)."""
        raise NotImplementedError

    @property
    def center(self) -> np.ndarray:
        return np.zeros(self.dim)

    def decay_radius(self, eps: float) -> float:
        """Radius R with |u(x)| <= eps for all |x| >= R (origin-anchored)."""
        raise UnsupportedOperationError(f"{type(self).__name__} has no decay envelope")

    @property
    def decays(self) -> bool:
        """Whether u tends to 0 at infinity: probed at the smallest normal
        eps, so that a small nonzero constant does not pass."""
        try:
            self.decay_radius(float(np.finfo(float).tiny))
            return True
        except UnsupportedOperationError:
            return False

    def radial_profile(self) -> Optional[RadialProfile1D]:
        """Radial profile about self.center, or None for non-radial fields."""
        return None

    def jumps(self) -> tuple:
        """(jump spheres as (center, radius, height), Lipschitz bound of u minus its jumps)."""
        return (), self.lipschitz_bound

    # -- closed forms and MC proposals -----------------------------------
    def gaussian_terms(self) -> Optional[list]:
        """The Gaussians whose sum is u, or None."""
        return None

    def l2_norm_sq_closed_form(self) -> Optional[float]:
        """Integral of u^2; raises DivergentIntegralError where it is infinite."""
        terms = self.gaussian_terms()
        if terms is None:
            return None
        return float(sum(_gauss_pair_l2(a, b) for a in terms for b in terms))

    def dirichlet_closed_form(self) -> Optional[float]:
        """Integral of |grad u|^2; raises DivergentIntegralError where it is infinite."""
        terms = self.gaussian_terms()
        if terms is None:
            return None
        return float(sum(_gauss_pair_dirichlet(a, b) for a in terms for b in terms))

    def lp_power_closed_form(self, q: float) -> Optional[float]:
        """Integral of |u|^q."""
        return self.l2_norm_sq_closed_form() if q == 2 else None

    def log_moment_closed_form(self, p: float) -> Optional[float]:
        """Integral of |u|^p log |u|^p, with 0 log 0 = 0."""
        return None

    def entropy_l2_closed_form(self) -> Optional[float]:
        """Entropy of the density u^2 / ||u||^2."""
        return None

    def gauss_lsi_closed_form(self) -> Optional[tuple]:
        """(lhs, rhs) of the Gauss-measure log-Sobolev inequality; raises
        ZeroFieldError for the zero field."""
        return None

    def proposal_components(self) -> list:
        """(center, sigma) of each Gaussian in the MC proposal of volume
        integrals, adapted to the field's bumps; a unit Gaussian at the
        origin where the shape knows no better."""
        return [(np.zeros(self.dim), 1.0)]

    # -- transforms ------------------------------------------------------
    def dilate(self, lam: float) -> "ScalarField":
        raise NotImplementedError

    def amplify(self, t: float) -> "ScalarField":
        raise NotImplementedError

    def translate(self, v) -> "ScalarField":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"


class RadialShapeField(ScalarField):
    """u(x) = g(|x - center|) for a one-dimensional profile g.

    A shape keeps its parameters and its profile ``_g`` and ``_dg`` (None
    where u jumps), and calls ``_init_shape`` once when built.  Where g
    does not vanish beyond ``support``, the shape overrides ``_reach``; a
    shape that can invert g in closed form defines ``_level_radius``, which
    its profile carries where g decreases.
    """

    center_point: tuple
    _dg = None
    _level_radius = None

    def _init_shape(self, center, *, sup: float, lip: float, knots: np.ndarray,
                    monotone: bool, support: float = math.inf) -> None:
        c = tuple(float(v) for v in np.ravel(center)) or (0.0,) * self.dim
        if len(c) != self.dim:
            raise DimensionMismatchError("center has wrong dimension")
        if not sup < math.inf:
            raise ValueError("profile amplitude must be finite")
        for name, value in (("center_point", c), ("_sup", sup), ("_lip", lip),
                            ("_knots", knots), ("_monotone", monotone),
                            ("_support", support)):
            object.__setattr__(self, name, value)

    def _reach(self, eps: float) -> float:
        """Radius beyond which |g| <= eps, for eps below sup |g|."""
        return self._support

    @property
    def center(self) -> np.ndarray:
        return np.array(self.center_point)

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return self._g(np.sqrt(row_sq_norms(pts, self.center)))

    def gradient(self, x) -> np.ndarray:
        if self._dg is None:
            raise UnsupportedOperationError(f"{type(self).__name__} is not differentiable")
        pts = _as_points(x, self.dim)
        d = pts - self.center
        r = np.sqrt(row_sq_norms(d))
        dg = self._dg(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, dg / np.where(r > 0, r, 1.0), 0.0)
        return scale[:, None] * d

    @property
    def differentiable(self) -> bool:
        return self._dg is not None

    @property
    def lipschitz_bound(self) -> float:
        return self._lip

    @property
    def sup_bound(self) -> float:
        return self._sup

    def _profile_decay(self, eps: float) -> float:
        return 0.0 if self._sup <= eps else self._reach(eps)

    def decay_radius(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self._sup <= eps:
            return 0.0
        return float(np.linalg.norm(self.center)) + self._reach(eps)

    def radial_profile(self) -> RadialProfile1D:
        return RadialProfile1D(
            g=self._g, dg=self._dg,
            lipschitz=self._lip,
            sup=self._sup,
            knots=self._knots.copy(),
            decay_radius=self._profile_decay,
            monotone_decreasing=self._monotone,
            support_radius=self._support,
            level_radius=self._level_radius if self._monotone else None,
        )

    def proposal_components(self) -> list:
        return [(self.center, self._support / 1.5)]

    def amplify(self, t: float) -> "RadialShapeField":
        return replace(self, amplitude=t * self.amplitude)

    def translate(self, v) -> "RadialShapeField":
        v = np.asarray(v, dtype=float)
        return replace(self, center_point=tuple(np.array(self.center_point) + v))


def _log_ratio(levels: np.ndarray, amp: float) -> np.ndarray:
    """log(levels / amp) for 0 < levels <= amp, within an ulp or two also
    next to amp, where it is log1p of the exact difference levels - amp
    (the plain log loses up to hundreds of ulps of the radius there)."""
    near = np.log1p((np.maximum(levels, 0.5 * amp) - amp) / amp)
    return np.where(levels > 0.5 * amp, near, np.log(levels / amp))


@dataclass(frozen=True)
class GaussianField(RadialShapeField):
    """amp * exp(-rate * |x - center|^2)."""

    dim: int
    rate: float
    amplitude: float = 1.0
    center_point: tuple = ()

    def __post_init__(self):
        check_dimension(self.dim)
        if not 0 < self.rate < math.inf:
            raise ValueError("Gaussian rate must be positive and finite")
        # sup |g'| = |amp| sqrt(2 rate / e), attained at r = 1/sqrt(2 rate)
        self._init_shape(self.center_point, sup=abs(self.amplitude),
                         lip=abs(self.amplitude) * math.sqrt(2.0 * self.rate / math.e),
                         knots=np.array([]), monotone=self.amplitude > 0)

    # evaluated in r^2 form (row_sq_norms, bit-equal to numpy's axis-1
    # sum), not through the profile: pinned MC bits depend on it
    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return self.amplitude * np.exp(-self.rate * row_sq_norms(pts, self.center))

    def gradient(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        d = pts - self.center
        vals = self.amplitude * np.exp(-self.rate * row_sq_norms(d))
        return -2.0 * self.rate * vals[:, None] * d

    def _g(self, r):
        return self.amplitude * np.exp(-self.rate * np.asarray(r, dtype=float) ** 2)

    def _dg(self, r):
        r = np.asarray(r, dtype=float)
        return -2.0 * self.rate * self.amplitude * r * np.exp(-self.rate * r * r)

    def _reach(self, eps: float) -> float:
        return math.sqrt(math.log(abs(self.amplitude) / eps) / self.rate)

    def _level_radius(self, levels: np.ndarray) -> np.ndarray:
        return np.sqrt(-_log_ratio(levels, self.amplitude) / self.rate)

    def gaussian_terms(self) -> list:
        return [self]

    def lp_power_closed_form(self, q: float) -> float:
        return abs(self.amplitude) ** q * (math.pi / (q * self.rate)) ** (self.dim / 2.0)

    def log_moment_closed_form(self, p: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        return self.lp_power_closed_form(p) * (p * math.log(abs(self.amplitude)) - self.dim / 2.0)

    def entropy_l2_closed_form(self) -> Optional[float]:
        if self.amplitude == 0.0:
            return None
        n, a = self.dim, self.rate
        return -n / 2.0 - (n / 2.0) * math.log(math.pi / (2.0 * a))

    def gauss_lsi_closed_form(self) -> tuple:
        if self.amplitude == 0.0:
            raise ZeroFieldError("zero field")
        # (m0, m2) = (int u^2 dG, int |x - c|^2 u^2 dG)
        n, a = self.dim, self.rate
        v = self.center
        beta = 2.0 * a + math.pi
        v2 = float(v @ v)
        m0 = self.amplitude ** 2 * math.exp(-(2.0 * a * math.pi / beta) * v2) \
            * (math.pi / beta) ** (n / 2.0)
        m2 = m0 * (n / (2.0 * beta) + (math.pi / beta) ** 2 * v2)
        ilog = math.log(self.amplitude ** 2) * m0 - 2.0 * self.rate * m2
        lhs = ilog - m0 * math.log(m0)
        rhs = (4.0 * self.rate ** 2 / math.pi) * m2
        return lhs, rhs

    def proposal_components(self) -> list:
        return [(self.center, 0.5 / math.sqrt(self.rate))]

    def dilate(self, lam: float) -> "GaussianField":
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return GaussianField(self.dim, self.rate / lam ** 2, self.amplitude,
                             tuple(lam * c for c in self.center_point))

    def to_dict(self) -> dict:
        return {"shape": "gaussian", "dim": self.dim, "rate": self.rate,
                "amplitude": self.amplitude, "center": list(self.center_point)}


@dataclass(frozen=True)
class SmoothBumpField(RadialShapeField):
    """Compactly supported C-infinity bump:
    amp * exp(1 - R^2 / (R^2 - r^2)) on r < R, zero outside."""

    dim: int
    radius: float
    amplitude: float = 1.0
    center_point: tuple = ()

    def __post_init__(self):
        check_dimension(self.dim)
        if not 0 < self.radius < math.inf:
            raise ValueError("bump radius must be positive and finite")
        # no elementary closed form; dense deterministic grid with margin
        r = np.linspace(0.0, self.radius * (1.0 - 1e-9), 20001)
        self._init_shape(self.center_point, sup=abs(self.amplitude),
                         lip=float(np.max(np.abs(self._dg(r)))) * 1.02,
                         knots=np.array([self.radius]), monotone=self.amplitude > 0,
                         support=self.radius)

    def _g(self, r: np.ndarray) -> np.ndarray:
        R = self.radius
        out = np.zeros_like(r, dtype=float)
        inside = r < R
        ri = r[inside]
        out[inside] = self.amplitude * np.exp(1.0 - R * R / (R * R - ri * ri))
        return out

    def _dg(self, r: np.ndarray) -> np.ndarray:
        R = self.radius
        out = np.zeros_like(r, dtype=float)
        inside = r < R
        ri = r[inside]
        den = R * R - ri * ri
        out[inside] = self.amplitude * np.exp(1.0 - R * R / den) * (-2.0 * ri * R * R / den ** 2)
        return out

    def _level_radius(self, levels: np.ndarray) -> np.ndarray:
        # level = amp exp(L) with L = 1 - R^2 / (R^2 - s^2)
        ell = _log_ratio(levels, self.amplitude)
        return self.radius * np.sqrt(-ell / (1.0 - ell))

    def dilate(self, lam: float) -> "SmoothBumpField":
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return SmoothBumpField(self.dim, lam * self.radius, self.amplitude,
                               tuple(lam * c for c in self.center_point))

    def to_dict(self) -> dict:
        return {"shape": "bump", "dim": self.dim, "radius": self.radius,
                "amplitude": self.amplitude, "center": list(self.center_point)}


@dataclass(frozen=True)
class IndicatorField(RadialShapeField):
    """amp * 1{|x - center| <= radius}; the canonical divergent input."""

    dim: int
    radius: float
    amplitude: float = 1.0
    center_point: tuple = ()

    def __post_init__(self):
        check_dimension(self.dim)
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        self._init_shape(self.center_point, sup=abs(self.amplitude), lip=math.inf,
                         knots=np.array([self.radius]), monotone=False,
                         support=self.radius)

    def _g(self, r):
        return np.where(np.asarray(r, dtype=float) <= self.radius, self.amplitude, 0.0)

    def jumps(self) -> tuple:
        return ((self.center_point, self.radius, self.amplitude),) if self.amplitude else (), 0.0

    def l2_norm_sq_closed_form(self) -> float:
        return self.lp_power_closed_form(2)

    def lp_power_closed_form(self, q: float) -> float:
        return abs(self.amplitude) ** q * ball_volume(self.dim, self.radius)

    def log_moment_closed_form(self, p: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        return self.lp_power_closed_form(p) * p * math.log(abs(self.amplitude))

    def entropy_l2_closed_form(self) -> Optional[float]:
        if self.amplitude == 0.0:
            return None
        return -math.log(ball_volume(self.dim, self.radius))

    def dilate(self, lam: float) -> "IndicatorField":
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return IndicatorField(self.dim, lam * self.radius, self.amplitude,
                              tuple(lam * c for c in self.center_point))

    def to_dict(self) -> dict:
        return {"shape": "indicator", "dim": self.dim, "radius": self.radius,
                "amplitude": self.amplitude, "center": list(self.center_point)}


class ClampedSpline:
    """Piecewise cubic on the breakpoints ``x``; ``c[:, i]`` holds its
    coefficients on [x[i], x[i+1]] in powers of (r - x[i]), highest first.

    ``clamped(x, y)`` is the interpolating spline with zero end slopes (de
    Boor, *A Practical Guide to Splines*, ch. IV).  Outside [x[0], x[-1]]
    the end pieces extend.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    @classmethod
    def clamped(cls, x: np.ndarray, y: np.ndarray) -> "ClampedSpline":
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # knot slopes: end rows s = 0, interior rows
        # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i];
        # strictly diagonally dominant, so Thomas's sweep needs no pivoting
        h = dx.tolist()
        diag = (2 * (dx[:-1] + dx[1:])).tolist()
        rhs = (3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist()
        for i in range(1, len(diag)):
            w = h[i + 1] / diag[i - 1]
            diag[i] -= w * h[i - 1]
            rhs[i] -= w * rhs[i - 1]
        s = [0.0] * x.size
        for i in range(len(diag) - 1, -1, -1):
            s[i + 1] = (rhs[i] - h[i] * s[i + 2]) / diag[i]
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))

    def derivative(self) -> "ClampedSpline":
        k = self.c.shape[0] - 1
        return ClampedSpline(self.x, self.c[:-1] * np.arange(k, 0, -1, dtype=float)[:, None])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        # the piece of each r, end pieces extended; take() gathers at less
        # cost than fancy indexing
        i = np.searchsorted(self.x[1:-1], r, side="right")
        s = r - self.x.take(i)
        out = self.c[0].take(i)
        for c in self.c[1:]:
            out = out * s + c.take(i)
        return out


class RadialProfileField(RadialShapeField):
    """Radial field from a clamped piecewise-cubic profile with zero tails.

    The profile interpolates (knots, values) with g'(0) = 0 and
    g'(r_end) = 0, and is identically zero beyond the last knot.  The
    last value must be zero so the extension is C^1.
    """

    def __init__(self, dim: int, knots: Sequence[float], values: Sequence[float],
                 center: Sequence[float] = ()):
        self.dim = check_dimension(dim)
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 3 or not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing with >= 3 entries")
        if not (knots[-1] < math.inf and np.all(np.abs(values) < math.inf)):
            raise ValueError("knots and values must be finite")
        if knots[0] != 0.0:
            raise ValueError("first knot must be r = 0")
        if values[-1] != 0.0:
            raise ValueError("last profile value must be 0 (compact support)")
        self._values = values
        self._spline = ClampedSpline.clamped(knots, values)
        self._dspline = self._spline.derivative()
        lip, sup, monotone = self._exact_extrema(knots)
        self._init_shape(center, sup=sup, lip=lip, knots=knots, monotone=monotone,
                         support=float(knots[-1]))

    def _exact_extrema(self, knots: np.ndarray):
        """Exact sup|g| and sup|g'| from the piecewise-polynomial structure:
        extrema of g sit at breakpoints or roots of the quadratic g', those
        of g' at breakpoints or the root of the linear g''."""
        cand_r, cand_d = list(knots), list(knots)
        for i in range(len(knots) - 1):
            a, b = knots[i], knots[i + 1]
            coef = self._spline.c[:, i]  # cubic coeffs in (r - a), highest first
            for rt in np.roots(np.array([3 * coef[0], 2 * coef[1], coef[2]])):
                if np.isreal(rt) and 0 <= rt.real <= b - a:
                    cand_r.append(a + rt.real)
            if coef[0] != 0:  # g'' = 6 a3 s + 2 a2 = 0
                s = -2 * coef[1] / (6 * coef[0])
                if 0 <= s <= b - a:
                    cand_d.append(a + s)
        cand_r = sorted_unique(np.clip(np.asarray(cand_r, dtype=float), 0.0, knots[-1]))
        sup = float(np.max(np.abs(self._spline(cand_r))))
        cand_d = sorted_unique(np.asarray(cand_d, dtype=float))
        lip = float(np.max(np.abs(self._dspline(cand_d))))
        dvals = self._dspline(sorted_unique(np.concatenate([cand_d, cand_r])))
        # relative to the profile's own slope scale, so that amplify() keeps the flag
        monotone = bool(np.all(dvals <= 1e-14 * lip)) and bool(np.all(self._values >= 0))
        return lip, sup, monotone

    def _g(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self._knots[-1], self._spline(np.minimum(r, self._knots[-1])), 0.0)
        return out

    def _dg(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r <= self._knots[-1], self._dspline(np.minimum(r, self._knots[-1])), 0.0)

    def dilate(self, lam: float) -> "RadialProfileField":
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return RadialProfileField(self.dim, lam * self._knots, self._values, lam * self.center)

    def amplify(self, t: float) -> "RadialProfileField":
        return RadialProfileField(self.dim, self._knots, t * self._values, self.center)

    def translate(self, v) -> "RadialProfileField":
        return RadialProfileField(self.dim, self._knots, self._values,
                                  self.center + np.asarray(v, dtype=float))

    def to_dict(self) -> dict:
        return {"shape": "radial_profile", "dim": self.dim,
                "knots": [float(v) for v in self._knots],
                "values": [float(v) for v in self._values],
                "center": [float(v) for v in self.center_point]}


class FiniteSumField(ScalarField):
    """Pointwise sum of component fields."""

    def __init__(self, terms: Sequence[ScalarField]):
        terms = list(terms)
        if not terms:
            raise ValueError("FiniteSumField needs at least one term")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise DimensionMismatchError("all terms must share one dimension")
        self.dim = terms[0].dim
        self.terms = terms

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        out = np.zeros(pts.shape[0])
        for t in self.terms:
            out += t.evaluate(pts)
        return out

    def gradient(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        out = np.zeros_like(pts)
        for t in self.terms:
            out += t.gradient(pts)
        return out

    @property
    def differentiable(self) -> bool:
        return all(t.differentiable for t in self.terms)

    @property
    def lipschitz_bound(self) -> float:
        return float(sum(t.lipschitz_bound for t in self.terms))

    def jumps(self) -> tuple:
        """Terms jumping across one sphere add their heights, in term order
        as ``evaluate`` does; a sphere whose heights cancel is dropped."""
        heights, lip_s = {}, 0.0
        for t in self.terms:
            spheres, lip = t.jumps()
            lip_s += lip
            for c, r, h in spheres:
                heights[c, r] = heights.get((c, r), 0.0) + h
        return tuple((c, r, h) for (c, r), h in heights.items() if h != 0.0), lip_s

    @property
    def sup_bound(self) -> float:
        return float(sum(t.sup_bound for t in self.terms))

    @property
    def center(self) -> np.ndarray:
        return self.terms[0].center

    def decay_radius(self, eps: float) -> float:
        k = len(self.terms)
        return max(t.decay_radius(eps / k) for t in self.terms)

    def radial_profile(self) -> Optional[RadialProfile1D]:
        profs = [t.radial_profile() for t in self.terms]
        if any(p is None for p in profs):
            return None
        c0 = self.terms[0].center
        if any(np.any(t.center != c0) for t in self.terms[1:]):
            return None
        k = len(profs)

        def summed(fns):
            return lambda r: sum(f(np.asarray(r, dtype=float)) for f in fns)

        dgs = [p.dg for p in profs]
        knots = sorted_unique(np.concatenate([p.knots for p in profs]))
        return RadialProfile1D(
            g=summed([p.g for p in profs]),
            dg=summed(dgs) if all(d is not None for d in dgs) else None,
            lipschitz=float(sum(p.lipschitz for p in profs)),
            sup=float(sum(p.sup for p in profs)),
            knots=knots,
            decay_radius=lambda eps: max(p.decay_radius(eps / k) for p in profs),
            monotone_decreasing=all(p.monotone_decreasing for p in profs),
            support_radius=max(p.support_radius for p in profs),
            flat_radius=lambda eps: max(p.flat_radius(eps / k) for p in profs),
        )

    def gaussian_terms(self) -> Optional[list]:
        out = []
        for t in self.terms:
            sub = t.gaussian_terms()
            if sub is None:
                return None
            out.extend(sub)
        return out

    def proposal_components(self) -> list:
        return [c for t in self.terms for c in t.proposal_components()]

    def dilate(self, lam: float) -> "FiniteSumField":
        return FiniteSumField([t.dilate(lam) for t in self.terms])

    def amplify(self, t: float) -> "FiniteSumField":
        return FiniteSumField([s.amplify(t) for s in self.terms])

    def translate(self, v) -> "FiniteSumField":
        return FiniteSumField([t.translate(v) for t in self.terms])

    def to_dict(self) -> dict:
        return {"shape": "sum", "dim": self.dim, "terms": [t.to_dict() for t in self.terms]}


@dataclass(frozen=True)
class ConstantField(ScalarField):
    """u identically equal to a constant.  Not in L2 unless zero."""

    dim: int
    value: float = 1.0

    def __post_init__(self):
        check_dimension(self.dim)

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return np.full(pts.shape[0], float(self.value))

    def gradient(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return np.zeros_like(pts)

    @property
    def lipschitz_bound(self) -> float:
        return 0.0

    @property
    def sup_bound(self) -> float:
        return abs(self.value)

    def decay_radius(self, eps: float) -> float:
        if self.value == 0.0:
            return 0.0
        if eps >= abs(self.value):
            return 0.0
        raise UnsupportedOperationError("constant field does not decay")

    def radial_profile(self) -> RadialProfile1D:
        v = float(self.value)
        return RadialProfile1D(
            g=lambda r: np.full_like(np.asarray(r, dtype=float), v),
            dg=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            lipschitz=0.0, sup=abs(v), knots=np.array([]),
            decay_radius=lambda eps: 0.0 if abs(v) <= eps else math.inf,
            monotone_decreasing=False,
            flat_radius=lambda eps: 0.0,
        )

    def l2_norm_sq_closed_form(self) -> float:
        if self.value == 0.0:
            return 0.0
        raise DivergentIntegralError("nonzero constant field is not square integrable")

    def dirichlet_closed_form(self) -> float:
        return 0.0

    def gauss_lsi_closed_form(self) -> tuple:
        return 0.0, 0.0

    def dilate(self, lam: float) -> "ConstantField":
        return self

    def amplify(self, t: float) -> "ConstantField":
        return ConstantField(self.dim, t * self.value)

    def translate(self, v) -> "ConstantField":
        return self

    def to_dict(self) -> dict:
        return {"shape": "constant", "dim": self.dim, "value": self.value}


# ---------------------------------------------------------------------------
# complex fields and vector potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearPhase:
    """phase(x) = offset + wave . x"""

    offset: float = 0.0
    wave: tuple = ()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if not self.wave:
            return np.full(pts.shape[0], float(self.offset))
        return self.offset + pts @ np.array(self.wave, dtype=float)

    def to_dict(self) -> dict:
        return {"kind": "linear", "offset": self.offset, "wave": list(self.wave)}


@dataclass(frozen=True)
class ComplexField:
    """u(x) = modulus(x) * exp(i phase(x)), with |u| = modulus exactly."""

    modulus: ScalarField
    phase: LinearPhase = LinearPhase()

    @property
    def dim(self) -> int:
        return self.modulus.dim

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        m = self.modulus.evaluate(pts)
        ph = self.phase(pts)
        return m * np.exp(1j * ph)

    def to_dict(self) -> dict:
        return {"shape": "complex", "modulus": self.modulus.to_dict(),
                "phase": self.phase.to_dict()}


class VectorPotential:
    dim: int

    def evaluate(self, x) -> np.ndarray:
        raise NotImplementedError

    def local_bound(self, radius: float) -> float:
        """sup of |A| over the ball |x| <= radius."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(VectorPotential):
    dim: int

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return np.zeros_like(pts)

    def local_bound(self, radius: float) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"kind": "zero", "dim": self.dim}


@dataclass(frozen=True)
class ConstantPotential(VectorPotential):
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(float(v) for v in self.vector))

    @property
    def dim(self) -> int:
        return len(self.vector)

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return np.broadcast_to(np.array(self.vector), pts.shape).copy()

    def local_bound(self, radius: float) -> float:
        return float(np.linalg.norm(self.vector))

    def to_dict(self) -> dict:
        return {"kind": "constant", "vector": list(self.vector)}


class LinearBPotential(VectorPotential):
    """A(x) = M x with M antisymmetric (constant magnetic field)."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(M, -M.T, atol=1e-12):
            raise ValueError("matrix must be antisymmetric")
        self.matrix = M
        self.dim = M.shape[0]

    def evaluate(self, x) -> np.ndarray:
        pts = _as_points(x, self.dim)
        return pts @ self.matrix.T

    def local_bound(self, radius: float) -> float:
        return float(np.linalg.norm(self.matrix, 2)) * radius

    def to_dict(self) -> dict:
        return {"kind": "linear_b", "matrix": [[float(v) for v in row] for row in self.matrix]}


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def eval(f: ScalarField, x) -> float:  # noqa: A001  (name fixed by the interface)
    """Evaluate the field at a single point."""
    return float(f.evaluate(x)[0])


def grad(f: ScalarField, x) -> np.ndarray:
    """Analytic gradient at a single point."""
    if not f.differentiable:
        raise UnsupportedOperationError("field shape is not differentiable")
    return f.gradient(x)[0]


def _gauss_pair_l2(t1: GaussianField, t2: GaussianField) -> float:
    """Closed-form integral of t1(x) t2(x) over R^N."""
    n = t1.dim
    a1, a2 = t1.rate, t2.rate
    beta = a1 + a2
    dc = np.array(t1.center_point) - np.array(t2.center_point)
    gamma = a1 * a2 / beta
    return (t1.amplitude * t2.amplitude * (math.pi / beta) ** (n / 2.0)
            * math.exp(-gamma * float(dc @ dc)))


def _gauss_pair_dirichlet(t1: GaussianField, t2: GaussianField) -> float:
    """Closed-form integral of grad t1 . grad t2 over R^N."""
    a1, a2 = t1.rate, t2.rate
    beta = a1 + a2
    dc = np.array(t1.center_point) - np.array(t2.center_point)
    d2 = float(dc @ dc)
    return (4.0 * a1 * a2 * _gauss_pair_l2(t1, t2)
            * (t1.dim / (2.0 * beta) - (a1 * a2 / beta ** 2) * d2))


def transform(f: ScalarField, dilate: float = 1.0, amplify: float = 1.0,
              translate=None) -> ScalarField:
    """Return the field x -> amplify * u((x - translate) / dilate)."""
    out = f
    if dilate != 1.0:
        out = out.dilate(dilate)
    if amplify != 1.0:
        out = out.amplify(amplify)
    if translate is not None:
        out = out.translate(translate)
    return out


def _radial_shape(cls, size_key: str) -> tuple:
    return (lambda d: cls(d["dim"], d[size_key], d.get("amplitude", 1.0),
                          tuple(d.get("center", ()))),
            {"dim", size_key}, {"amplitude", "center"})


# shape -> (builder, keys the builder cannot do without, optional keys);
# field_from_dict builds from it and the CLI validates configs against it
FIELD_SHAPES = {
    "gaussian": _radial_shape(GaussianField, "rate"),
    "bump": _radial_shape(SmoothBumpField, "radius"),
    "indicator": _radial_shape(IndicatorField, "radius"),
    "radial_profile": (lambda d: RadialProfileField(d["dim"], d["knots"], d["values"],
                                                    d.get("center", ())),
                       {"dim", "knots", "values"}, {"center"}),
    "sum": (lambda d: FiniteSumField([field_from_dict(t) for t in d["terms"]]),
            {"terms"}, {"dim"}),
    "constant": (lambda d: ConstantField(d["dim"], d.get("value", 1.0)), {"dim"}, {"value"}),
}


def field_from_dict(d: dict) -> ScalarField:
    """Rebuild a field from its JSON descriptor."""
    if d.get("shape") not in FIELD_SHAPES:
        raise ValueError(f"unknown field shape {d.get('shape')!r}")
    return FIELD_SHAPES[d["shape"]][0](d)


def descriptor_hash(obj) -> str:
    """Short stable hash of a field or spec descriptor, for provenance."""
    d = obj.to_dict() if hasattr(obj, "to_dict") else obj
    blob = json.dumps(d, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]

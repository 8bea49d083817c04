"""Closed-form densities for four random-triangle families.

Families
--------
pinned    A at the origin of a unit-intensity planar Poisson process,
          B its nearest point, C its second-nearest.  Side a = |BC|,
          b = |AC|, c = |AB|, so c < b and a < 2b almost surely.
staked    A at the origin, B fixed at (1, 0), C the Poisson point nearest
          to the origin, reflected into the upper half-plane.
anchored  A = (-1/2, 0), B = (1/2, 0) fixed, C the Poisson point nearest
          to the segment midpoint (the origin), reflected upward.
uniform   Base of length 1 with two base angles drawn uniformly on
          (0, pi) and folded so they form a valid pair ("uT_*" tags).

Conventions
-----------
Angle alpha sits at vertex A (opposite side a), beta at B, gamma at C.
For the staked family the marginal of alpha is uniform on (0, pi) while
beta stays small, which pins down which angle enters the exponential
factor of the joint density.

Every evaluator accepts scalars or ndarrays (broadcasting), returns 0.0
outside the open support, NaN wherever any coordinate is NaN, and
math.inf at boundary points where the density genuinely diverges
(collinear side triples, the unit point of the uT side/ratio/max
densities).  Only ``pdf_pair_ac`` integrates internally (adaptively);
everything else is closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geom import heron_product
# integrate_1d stays bound here for the benchmark's tracer (perfbench/tracing.py).
from .numerics import QuadratureSpec, erfc, integrate_1d, integrate_batch  # noqa: F401

__all__ = [
    "CATALOG",
    "DensityKind",
    "QuadratureError",
]

_PI = math.pi


class QuadratureError(RuntimeError):
    """Internal quadrature failed to converge; carries the best estimate."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(f"{message} (estimate {estimate!r}, error bound {error!r})")
        self.estimate = estimate
        self.error = error


def _broadcast(*args):
    """The coordinates as equal-shape arrays, an output array holding 0.0
    (NaN where any coordinate is NaN), and whether the call was scalar."""
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    coords = [np.atleast_1d(a) for a in arrs]
    return coords, np.where(np.isnan(coords).any(axis=0), np.nan, 0.0), arrs[0].ndim == 0


def _finish(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


# From b = 16 on, exp(-pi b^2) underflows to exactly 0, and so does every
# density carrying that factor; evaluating only below it keeps huge sides
# from overflowing the polynomial factors into inf * 0 = NaN.
_GAUSS_ZERO_FROM = 16.0


def _over_cube(t: np.ndarray, coeff: float, ratio: Callable) -> np.ndarray:
    """``num / den`` for ``num, den = ratio(t)``, a density with tail coeff / t^3;
    where den overflows, that tail term (exact there) instead of inf / inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = ratio(t)
        return np.where(np.isinf(den), coeff / t / t / t, num / den)


# ---------------------------------------------------------------------------
# pinned family: sides
# ---------------------------------------------------------------------------

def pdf_pinned_sides_joint(x, y, z):
    """Joint density of (a, b, c) for pinned triangles.

    8*pi*x*y*z * exp(-pi y^2) / sqrt(D) on {y-z < x < y+z, y > z > 0},
    where D is the Heron product; infinite on the collinear boundary
    x = y +- z while y < 16 (exp(-pi y^2) is 0 from there), zero elsewhere.
    With x > 0 and 0 < z < y at most one factor of D is negative, so the
    sign of D alone tells the interior (> 0) from the boundary (== 0) and
    the outside (< 0) -- until D underflows to 0, where every side, or a
    needle's two short factors, fall below about 1e-77.  There the factors'
    own signs decide, and inside the density is summed in logarithms.
    """
    (X, Y, Z), out, scalar = _broadcast(x, y, z)
    closure = (X > 0.0) & (Z > 0.0) & (Y > Z) & (Y < _GAUSS_ZERO_FROM)
    a, b, c = X[closure], Y[closure], Z[closure]
    with np.errstate(over="ignore"):  # huge or infinite a
        d = heron_product(a, b, c)
    vals = np.where(d < 0.0, 0.0, math.inf)
    zero = d == 0.0
    if zero.any():
        a0, b0, c0 = a[zero], b[zero], c[zero]
        f = np.stack([a0 + b0 + c0, -a0 + b0 + c0, a0 - b0 + c0, a0 + b0 - c0])
        with np.errstate(divide="ignore", invalid="ignore"):  # a factor <= 0
            logs = np.log([a0, b0, c0]).sum(axis=0) - 0.5 * np.log(f).sum(axis=0)
        vals[zero] = np.where((f < 0.0).any(axis=0), 0.0, 8.0 * _PI * np.exp(logs - _PI * b0 * b0))
    inside = d > 0.0
    a, b, c = a[inside], b[inside], c[inside]
    vals[inside] = 8.0 * _PI * a * b * c * np.exp(-_PI * b * b) / np.sqrt(d[inside])
    out[closure] = vals
    return _finish(out, scalar)


def pdf_pinned_a(x):
    """Density of the side joining the two Poisson points: pi*x*erfc(sqrt(pi)x/2)."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < 2.0 * _GAUSS_ZERO_FROM)  # erfc tail ~ exp(-pi (x/2)^2)
    out[m] = _PI * X[m] * erfc(0.5 * math.sqrt(_PI) * X[m])
    return _finish(out, scalar)


def pdf_pinned_b(x):
    """Density of the second-nearest distance: 2*pi^2*x^3*exp(-pi x^2)."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < _GAUSS_ZERO_FROM)
    out[m] = 2.0 * _PI * _PI * X[m] ** 3 * np.exp(-_PI * X[m] ** 2)
    return _finish(out, scalar)


def pdf_pinned_c(x):
    """Density of the nearest distance: 2*pi*x*exp(-pi x^2)."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < _GAUSS_ZERO_FROM)
    out[m] = 2.0 * _PI * X[m] * np.exp(-_PI * X[m] ** 2)
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# pinned family: angles
# ---------------------------------------------------------------------------

def pdf_pinned_angles_joint(x, y):
    """Joint density of (alpha, beta): (2/pi) sin(x) sin(x+y) / sin(y)^3
    on {0 < x < pi, (pi-x)/2 < y < pi-x}."""
    (X, Y), out, scalar = _broadcast(x, y)
    m = (X > 0.0) & (X < _PI) & (Y > 0.5 * (_PI - X)) & (Y < _PI - X)
    if m.any():
        out[m] = (2.0 / _PI) * np.sin(X[m]) * np.sin(X[m] + Y[m]) / np.sin(Y[m]) ** 3
    return _finish(out, scalar)


def pdf_pinned_alpha(x):
    """The angle at the origin is uniform on (0, pi); so is the staked
    origin angle (``pdf_staked_alpha`` is this function)."""
    (X,), out, scalar = _broadcast(x)
    out[(X > 0.0) & (X < _PI)] = 1.0 / _PI
    return _finish(out, scalar)


# Taylor coefficients of the beta density about 0 (even powers 0,2,4,6,8) and
# about pi (in t = pi - x).  The closed form subtracts two O(1/x^2) terms
# near both endpoints, so direct evaluation loses precision there; these
# series are exact limits, validated against high-precision evaluation in
# the tests.
_BETA_NEAR_0 = np.array([5.0 / 3.0, -2.0 / 15.0, -2.0 / 63.0, -4.0 / 675.0, -2.0 / 2079.0]) / _PI
_BETA_NEAR_PI = np.array([1.0 / 3.0, 2.0 / 15.0, 2.0 / 63.0, 4.0 / 675.0, 2.0 / 2079.0]) / _PI
_BETA_WINDOW = 0.05


def _even_poly(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    q = t * t
    acc = np.zeros_like(t)
    for c in coeffs[::-1]:
        acc = acc * q + c
    return acc


def pdf_pinned_beta(x):
    """Density of the angle at the nearest point; two trigonometric branches
    meeting at pi/2 with value 1/pi."""
    (X,), out, scalar = _broadcast(x)

    lo = (X >= _BETA_WINDOW) & (X < 0.5 * _PI)
    if lo.any():
        t = X[lo]
        s, c = np.sin(t), np.cos(t)
        out[lo] = (0.5 / _PI + (1.0 - 3.0 * c * c) / (2.0 * _PI * s * s)
                   + t * c / (_PI * s ** 3))
    hi = (X > 0.5 * _PI) & (X <= _PI - _BETA_WINDOW)
    if hi.any():
        t = X[hi]
        s, c = np.sin(t), np.cos(t)
        out[hi] = 1.0 / (_PI * s * s) + (_PI - t) * c / (_PI * s ** 3)
    out[X == 0.5 * _PI] = 1.0 / _PI
    near0 = (X > 0.0) & (X < _BETA_WINDOW)
    out[near0] = _even_poly(_BETA_NEAR_0, X[near0])
    nearpi = (X > _PI - _BETA_WINDOW) & (X < _PI)
    out[nearpi] = _even_poly(_BETA_NEAR_PI, _PI - X[nearpi])
    return _finish(out, scalar)


def pdf_pinned_gamma(x):
    """Density of the angle at the second-nearest point: (4/pi) cos(x)^2 on
    (0, pi/2); this angle is never obtuse."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < 0.5 * _PI)
    out[m] = (4.0 / _PI) * np.cos(X[m]) ** 2
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# pinned family: side ratios
# ---------------------------------------------------------------------------

def pdf_ratio_a_over_b(x):
    """(2x/pi) arccos(x/2) on (0, 2)."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < 2.0)
    out[m] = (2.0 * X[m] / _PI) * np.arccos(0.5 * X[m])
    return _finish(out, scalar)


def pdf_ratio_b_over_a(x):
    """1/x^3 - (2/(pi x^3)) arcsin(1/(2x)) on (1/2, inf)."""
    (X,), out, scalar = _broadcast(x)
    m = X > 0.5
    if m.any():
        out[m] = _over_cube(X[m], 1.0, lambda t: (1.0 - (2.0 / _PI) * np.arcsin(0.5 / t),
                                                  t ** 3))
    return _finish(out, scalar)


def pdf_ratio_b_over_c(x):
    """2/x^3 on (1, inf)."""
    (X,), out, scalar = _broadcast(x)
    m = X > 1.0
    out[m] = _over_cube(X[m], 2.0, lambda t: (2.0, t ** 3))
    return _finish(out, scalar)


def pdf_ratio_c_over_b(x):
    """2x on (0, 1)."""
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < 1.0)
    out[m] = 2.0 * X[m]
    return _finish(out, scalar)


# Taylor coefficients about the removable point x = 1, where both two-branch
# ratio formulas reduce to 0/0 and the direct expressions lose ~ (x-1)^-3
# digits to cancellation.  Frozen from an exact symbolic expansion and
# validated in the tests against high-precision evaluation.
_CA_NEAR_1 = np.array([
    0.2756644477108960247557, -0.6432170446587573910965, 1.108783667459381788462,
    -1.758126588733936868997, 2.743274508304639893622, -4.318337863567543164992,
    6.920274245085824375649, -11.31759486173941517493, 18.87998545151166452589,
])
_AC_NEAR_1 = np.array([
    0.2756644477108960247557, 0.09188814923696534158522, 0.006125876615797689439015,
    0.07963639600536996270719, -0.01336996880432035393436, 0.04918527917710578689791,
    -0.004235173956600871710924, 0.02722611829243417528451, 0.002756333452429092372779,
])
_RATIO_WINDOW = 0.03


def pdf_ratio_c_over_a(x):
    """Two algebraic branches split at x = 1/2; the singularity at x = 1 is
    removable (value ~0.27566)."""
    (X,), out, scalar = _broadcast(x)
    m1 = (X > 0.0) & (X < 0.5)
    if m1.any():
        t = X[m1]
        out[m1] = 2.0 * t * (1.0 + t * t) / (1.0 - t * t) ** 3
    m2 = (X >= 0.5) & (np.abs(X - 1.0) >= _RATIO_WINDOW)
    if m2.any():
        def ratio(t):
            t2 = t * t
            num = -(2.0 * (t2 - 1.0) * np.sqrt(4.0 * t2 - 1.0)
                    - _PI * t2 * (1.0 + t2)
                    + 6.0 * t2 * (1.0 + t2) * np.arcsin(0.5 / t))
            return num, _PI * t * (t2 - 1.0) ** 3

        out[m2] = _over_cube(X[m2], 1.0, ratio)
    m3 = np.abs(X - 1.0) < _RATIO_WINDOW
    if m3.any():
        out[m3] = np.polyval(_CA_NEAR_1[::-1], X[m3] - 1.0)
    return _finish(out, scalar)


def pdf_ratio_a_over_c(x):
    """Mirror of pdf_ratio_c_over_a under x -> 1/x; branches split at x = 2."""
    (X,), out, scalar = _broadcast(x)
    m1 = (X > 0.0) & (X < 2.0) & (np.abs(X - 1.0) >= _RATIO_WINDOW)
    if m1.any():
        t = X[m1]
        t2 = t * t
        num = -t * (2.0 * t * (1.0 - t2) * np.sqrt(4.0 - t2)
                    - _PI * (1.0 + t2)
                    + 6.0 * (1.0 + t2) * np.arcsin(0.5 * t))
        out[m1] = num / (_PI * (1.0 - t2) ** 3)
    m2 = X >= 2.0
    if m2.any():
        out[m2] = _over_cube(X[m2], 2.0, lambda t: (2.0 * t * (1.0 + t * t),
                                                    (t * t - 1.0) ** 3))
    m3 = np.abs(X - 1.0) < _RATIO_WINDOW
    if m3.any():
        out[m3] = np.polyval(_AC_NEAR_1[::-1], X[m3] - 1.0)
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# pinned family: side pairs
# ---------------------------------------------------------------------------

def pdf_pair_ab(x, y):
    """Joint density of (a, b): 4*pi*a*b*exp(-pi b^2) arccos(a/(2b)) on 0 < a < 2b."""
    (X, Y), out, scalar = _broadcast(x, y)
    m = (Y > 0.0) & (Y < _GAUSS_ZERO_FROM)
    m[m] = (X[m] > 0.0) & (X[m] < 2.0 * Y[m])
    if m.any():
        a, b = X[m], Y[m]
        out[m] = 4.0 * _PI * a * b * np.exp(-_PI * b * b) * np.arccos(np.clip(0.5 * a / b, -1.0, 1.0))
    return _finish(out, scalar)


def pdf_pair_bc(x, y):
    """Joint density of (b, c): 4*pi^2*b*c*exp(-pi b^2) on 0 < c < b."""
    (X, Y), out, scalar = _broadcast(x, y)
    m = (Y > 0.0) & (X > Y) & (X < _GAUSS_ZERO_FROM)
    if m.any():
        b, c = X[m], Y[m]
        out[m] = 4.0 * _PI * _PI * b * c * np.exp(-_PI * b * b)
    return _finish(out, scalar)


def pdf_pair_ac(a, c, tol: float = 1e-10):
    """Joint density of (a, c), marginalizing b out of the trivariate density.

    f(a,c) = 8*pi*a*c * int b exp(-pi b^2) / sqrt(((a+c)^2-b^2)(b^2-(a-c)^2)) db
    over b from max(c, a-c) to a+c.  The integrand has inverse-square-root
    endpoint singularities, removed exactly by the sin^2 substitution.  All
    points are integrated as one batch.  Raises QuadratureError if the
    requested tolerance cannot be met at some point.
    """
    (A, C), out, scalar = _broadcast(a, c)
    m = (A > 0.0) & (C > 0.0) & np.isfinite(A) & np.isfinite(C)
    m[m] = np.maximum(C[m], A[m] - C[m]) < _GAUSS_ZERO_FROM  # the b-range's start
    if m.any():
        a, c = A[m], C[m]
        lo = np.maximum(c, a - c)
        hi = a + c
        lo2 = (a - c) ** 2
        hi2 = hi * hi

        def integrand(b: np.ndarray, k: np.ndarray) -> np.ndarray:
            b2 = b * b
            rad = (hi2[k] - b2) * (b2 - lo2[k])
            vals = np.zeros_like(b)
            ok = rad > 0.0
            vals[ok] = b[ok] * np.exp(-_PI * b2[ok]) / np.sqrt(rad[ok])
            return vals

        spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=tol, singularity="both")
        r = integrate_batch(integrand, lo, hi, spec)
        value = 8.0 * _PI * a * c * r.value
        if not r.converged.all():
            i = int(np.argmin(r.converged))
            raise QuadratureError(f"pair (a,c) density at ({a[i]}, {c[i]}) did not converge",
                                  value[i], 8.0 * _PI * a[i] * c[i] * r.error[i])
        out[m] = value
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# staked / anchored families
# ---------------------------------------------------------------------------

def pdf_staked_angles_joint(alpha, beta):
    """Joint density of (alpha, beta) for staked triangles on
    {alpha, beta > 0, alpha + beta < pi}.

    2 * exp(-pi sin(beta)^2 / sin(alpha+beta)^2) * sin(alpha) sin(beta)
      / sin(alpha+beta)^3.

    sin(beta)/sin(alpha+beta) is the distance from the origin to the random
    vertex, which is what the Poisson nearest-neighbor law suppresses; the
    alpha marginal is exactly uniform on (0, pi).
    """
    (A, B), out, scalar = _broadcast(alpha, beta)
    m = (A > 0.0) & (B > 0.0) & (np.clip(A, 0.0, _PI) + B < _PI)  # huge A + B never overflows
    if m.any():
        a, b = A[m], B[m]
        s = np.sin(a + b)
        # s^3 underflows to 0 below a + b ~ 1e-108; there the density, near
        # 1/s, is taken through q = sin(a)/s and r = sin(b)/s
        t = s ** 3 == 0.0
        q, r = np.sin(a[t]) / s[t], np.sin(b[t]) / s[t]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = 2.0 * np.exp(-_PI * np.sin(b) ** 2 / (s * s)) * np.sin(a) * np.sin(b) / s ** 3
            vals[t] = 2.0 * np.exp(-_PI * r * r) * q * r / s[t]
        out[m] = vals
    return _finish(out, scalar)


def pdf_anchored_angles_joint(alpha, beta):
    """Joint density of (alpha, beta) for anchored triangles, symmetric in
    its arguments, on {alpha, beta > 0, alpha + beta < pi}.

    2 * exp(-(pi/4)(sin(alpha-beta)^2 + 4 sin(alpha)^2 sin(beta)^2)
            / sin(alpha+beta)^2) * sin(alpha) sin(beta) / sin(alpha+beta)^3.
    """
    (A, B), out, scalar = _broadcast(alpha, beta)
    m = (A > 0.0) & (B > 0.0) & (np.clip(A, 0.0, _PI) + B < _PI)  # huge A + B never overflows
    if m.any():
        a, b = A[m], B[m]
        s = np.sin(a + b)
        s2 = s ** 2
        t = s2 * s == 0.0  # as in pdf_staked_angles_joint
        q, r, d = (np.sin(v[t]) / s[t] for v in (a, b, a - b))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            expo = (np.sin(a - b) ** 2 + 4.0 * np.sin(a) ** 2 * np.sin(b) ** 2) / s2
            vals = 2.0 * np.exp(-0.25 * _PI * expo) * np.sin(a) * np.sin(b) / (s2 * s)
            vals[t] = 2.0 * np.exp(-0.25 * _PI * (d * d + 4.0 * (q * r * s[t]) ** 2)) * q * r / s[t]
        out[m] = vals
    return _finish(out, scalar)


def _fixed_vertex_angle(x, r: float):
    """Density of the angle at a fixed vertex at distance r from the origin
    whose ray to the other fixed vertex passes through the origin.

    The random vertex has density 2 exp(-pi |p|^2) on the upper half-plane.
    In polar coordinates (s, phi) at the fixed vertex, phi measured from
    that ray, |p|^2 = (s - r cos phi)^2 + r^2 sin^2 phi, so the radial
    integral is elementary:
    exp(-pi r^2)/pi + r cos(phi) exp(-pi r^2 sin^2 phi) erfc(-sqrt(pi) r cos phi).
    """
    (X,), out, scalar = _broadcast(x)
    m = (X > 0.0) & (X < _PI)
    rc = r * np.cos(X[m])
    out[m] = (math.exp(-_PI * r * r) / _PI
              + rc * np.exp(-_PI * (r * np.sin(X[m])) ** 2) * erfc(-math.sqrt(_PI) * rc))
    return _finish(out, scalar)


def pdf_staked_beta(x):
    """Marginal of the staked far-vertex angle: B = (1, 0) sits at r = 1."""
    return _fixed_vertex_angle(x, 1.0)


def pdf_anchored_alpha(x):
    """Marginal of either anchored angle (the two are exchangeable):
    A = (-1/2, 0) sits at r = 1/2."""
    return _fixed_vertex_angle(x, 0.5)


pdf_anchored_beta = pdf_anchored_alpha
pdf_staked_alpha = pdf_pinned_alpha


# ---------------------------------------------------------------------------
# uniform-angle family ("uT")
# ---------------------------------------------------------------------------

def pdf_uT_sides_joint(x, y):
    """Joint density of the two non-base sides: 2/(pi^2 a b) on |1-a| < b < 1+a."""
    (X, Y), out, scalar = _broadcast(x, y)
    m = (X > 0.0) & (Y > np.abs(1.0 - X)) & (Y < 1.0 + X)
    if m.any():
        out[m] = 2.0 / (_PI * _PI * X[m] * Y[m])
    return _finish(out, scalar)


def pdf_uT_side_a(x):
    """Density of one non-base side: (2/pi^2)(log(1+x) - log|1-x|)/x on
    (0, inf), divergent (logarithmically) at x = 1."""
    (X,), out, scalar = _broadcast(x)
    m1 = (X > 0.0) & (X < 1.0)
    out[m1] = (4.0 / (_PI * _PI)) * np.arctanh(X[m1]) / X[m1]
    m2 = X > 1.0
    out[m2] = (4.0 / (_PI * _PI)) * np.arctanh(1.0 / X[m2]) / X[m2]
    out[X == 1.0] = math.inf
    return _finish(out, scalar)


# Within one uniform-angle triangle, the ratio of the two random sides has
# the same distribution as either single side (the sides' joint density is
# symmetric and scale-free enough for the ratio reduction to reproduce the
# marginal).
pdf_uT_ratio = pdf_uT_side_a


def pdf_uT_max(x):
    """Density of max(a, b): (4/pi^2)(log x - log|1-x|)/x on (1/2, inf),
    divergent at x = 1."""
    (X,), out, scalar = _broadcast(x)
    m1 = (X > 0.5) & (X < 1.0)
    out[m1] = (8.0 / (_PI * _PI)) * np.arctanh(2.0 * X[m1] - 1.0) / X[m1]
    m2 = X > 1.0
    with np.errstate(over="ignore"):  # 2x - 1 -> inf only where the density is 0
        out[m2] = (8.0 / (_PI * _PI)) * np.arctanh(1.0 / (2.0 * X[m2] - 1.0)) / X[m2]
    out[X == 1.0] = math.inf
    return _finish(out, scalar)


def pdf_uT_min(x):
    """Density of min(a, b); two logarithmic branches meeting at 1/2."""
    (X,), out, scalar = _broadcast(x)
    m1 = (X > 0.0) & (X <= 0.5)
    out[m1] = (8.0 / (_PI * _PI)) * np.arctanh(X[m1]) / X[m1]
    m2 = X > 0.5
    out[m2] = (4.0 / (_PI * _PI)) * np.log1p(1.0 / X[m2]) / X[m2]
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityKind:
    """One catalog entry: evaluator plus every per-density fact the package
    needs -- support and tail metadata for normalization checks and
    distribution-function grids, and the sampler family and statistic that
    the KS battery and the plots draw."""

    tag: str
    arity: int
    pdf: Callable
    support: tuple = ()               # per-axis (lo, hi); hi may be inf
    singular_points: tuple = ()       # interior points where pdf = inf
    tail: str = "finite"              # 'finite' | 'gauss' | 'power'
    tail_power: float = 0.0           # |x|^-p tail exponent when tail == 'power'
    gauss_scale: float = 0.0          # exp(-scale x^2) bound when tail == 'gauss'
    gauss_degree: int = 0
    family: str = field(kw_only=True)  # sampler family whose triangles it describes
    statistic: str | None = None      # SampleBatch statistic drawn from it (univariate)
    marginal: str | None = None       # univariate tag plotted for it (multivariate)
    # Interior points where a univariate density is continuous but not
    # smooth (branch joins and series hand-over points); splitting panels
    # there keeps every panel's integrand analytic.
    breakpoints: tuple = ()


_INF = math.inf

CATALOG: dict[str, DensityKind] = {}


def _register(kind: DensityKind) -> None:
    CATALOG[kind.tag] = kind


_register(DensityKind("pinned_sides_joint", 3, pdf_pinned_sides_joint,
                      ((0.0, _INF), (0.0, _INF), (0.0, _INF)),
                      family="pinned", marginal="pinned_a"))
_register(DensityKind("pinned_a", 1, pdf_pinned_a, ((0.0, _INF),), family="pinned", statistic="a",
                      tail="gauss", gauss_scale=_PI / 4.0, gauss_degree=1))
_register(DensityKind("pinned_b", 1, pdf_pinned_b, ((0.0, _INF),), family="pinned", statistic="b",
                      tail="gauss", gauss_scale=_PI, gauss_degree=3))
_register(DensityKind("pinned_c", 1, pdf_pinned_c, ((0.0, _INF),), family="pinned", statistic="c",
                      tail="gauss", gauss_scale=_PI, gauss_degree=1))
_register(DensityKind("pinned_angles_joint", 2, pdf_pinned_angles_joint,
                      ((0.0, _PI), (0.0, _PI)), family="pinned", marginal="pinned_alpha"))
_register(DensityKind("pinned_alpha", 1, pdf_pinned_alpha, ((0.0, _PI),),
                      family="pinned", statistic="alpha"))
_register(DensityKind("pinned_beta", 1, pdf_pinned_beta, ((0.0, _PI),), family="pinned",
                      statistic="beta", breakpoints=(0.05, 0.5 * _PI, _PI - 0.05)))
_register(DensityKind("pinned_gamma", 1, pdf_pinned_gamma, ((0.0, 0.5 * _PI),),
                      family="pinned", statistic="gamma"))
_register(DensityKind("ratio_a_over_b", 1, pdf_ratio_a_over_b, ((0.0, 2.0),),
                      family="pinned", statistic="a_over_b"))
_register(DensityKind("ratio_b_over_a", 1, pdf_ratio_b_over_a, ((0.5, _INF),),
                      tail="power", tail_power=3.0, family="pinned", statistic="b_over_a"))
_register(DensityKind("ratio_b_over_c", 1, pdf_ratio_b_over_c, ((1.0, _INF),),
                      tail="power", tail_power=3.0, family="pinned", statistic="b_over_c"))
_register(DensityKind("ratio_c_over_b", 1, pdf_ratio_c_over_b, ((0.0, 1.0),),
                      family="pinned", statistic="c_over_b"))
_register(DensityKind("ratio_c_over_a", 1, pdf_ratio_c_over_a, ((0.0, _INF),),
                      tail="power", tail_power=3.0, family="pinned", statistic="c_over_a",
                      breakpoints=(0.5, 0.97, 1.03)))
_register(DensityKind("ratio_a_over_c", 1, pdf_ratio_a_over_c, ((0.0, _INF),),
                      tail="power", tail_power=3.0, family="pinned", statistic="a_over_c",
                      breakpoints=(0.97, 1.03, 2.0)))
_register(DensityKind("pair_ab", 2, pdf_pair_ab, ((0.0, _INF), (0.0, _INF)),
                      family="pinned", marginal="pinned_a"))
_register(DensityKind("pair_bc", 2, pdf_pair_bc, ((0.0, _INF), (0.0, _INF)),
                      family="pinned", marginal="pinned_b"))
_register(DensityKind("pair_ac_integral", 2, pdf_pair_ac, ((0.0, _INF), (0.0, _INF)),
                      family="pinned", marginal="pinned_a"))
_register(DensityKind("staked_angles_joint", 2, pdf_staked_angles_joint,
                      ((0.0, _PI), (0.0, _PI)), family="staked", marginal="staked_alpha"))
_register(DensityKind("anchored_angles_joint", 2, pdf_anchored_angles_joint,
                      ((0.0, _PI), (0.0, _PI)), family="anchored", marginal="anchored_alpha"))
_register(DensityKind("staked_alpha", 1, pdf_staked_alpha, ((0.0, _PI),),
                      family="staked", statistic="alpha"))
_register(DensityKind("staked_beta", 1, pdf_staked_beta, ((0.0, _PI),),
                      family="staked", statistic="beta"))
_register(DensityKind("anchored_alpha", 1, pdf_anchored_alpha, ((0.0, _PI),),
                      family="anchored", statistic="alpha"))
_register(DensityKind("anchored_beta", 1, pdf_anchored_beta, ((0.0, _PI),),
                      family="anchored", statistic="beta"))
_register(DensityKind("uT_sides_joint", 2, pdf_uT_sides_joint,
                      ((0.0, _INF), (0.0, _INF)), family="uniformT", marginal="uT_side_a"))
_register(DensityKind("uT_side_a", 1, pdf_uT_side_a, ((0.0, _INF),), family="uniformT",
                      statistic="a", singular_points=(1.0,), tail="power", tail_power=2.0))
_register(DensityKind("uT_ratio", 1, pdf_uT_ratio, ((0.0, _INF),), family="uniformT",
                      statistic="a_over_b", singular_points=(1.0,), tail="power", tail_power=2.0))
_register(DensityKind("uT_max", 1, pdf_uT_max, ((0.5, _INF),), family="uniformT",
                      statistic="max_ab", singular_points=(1.0,), tail="power", tail_power=2.0))
_register(DensityKind("uT_min", 1, pdf_uT_min, ((0.0, _INF),), family="uniformT",
                      statistic="min_ab", tail="power", tail_power=2.0, breakpoints=(0.5,)))


"""Moments of the triangle families, computed three independent ways.

For every tabulated quantity (angles, sides, products, ratios, area) this
module offers:

* ``closed_form`` — the exact expression when one exists, ``math.inf`` for
  divergent mean squares, ``None`` when only a decimal reference is known;
* ``by_quadrature`` — numerical integration against the density catalog;
* ``by_monte_carlo`` — sampler-based estimation with batch-means errors.

The three views are deliberately independent (table lookup, quadrature of
closed-form densities, simulation), so their agreement is evidence that the
densities, the samplers, and the tabulated constants all describe the same
distributions.  ``REFERENCE_VALUES`` holds the decimal references for the
quantities with no known closed form, and ``EXPECTED_AC`` records this
package's own high-precision value for the mean of the pinned product
``ca``, which has only an 8-decimal external reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import density
from .geom import heron_product
from .numerics import (CATALAN, IntegralResult, QuadratureSpec, bessel_i0, erfc,
                       gaussian_tail_cutoff, integrate_1d, integrate_2d)
from .sampler import RandomStream, sample_batch

_PI = math.pi

FAMILIES = ("pinned", "staked", "anchored")
STATISTICS = ("mean", "mean-square")

# Quantities with a tabulated row, per family.  Products of angles are
# written without a separator (alphabeta = E[alpha*beta] target family).
PINNED_QUANTITIES = ("alpha", "beta", "gamma", "alphabeta", "betagamma",
                     "gammaalpha", "a", "b", "c", "ab", "bc", "ca",
                     "a/b", "b/a", "b/c", "c/b", "c/a", "a/c", "area")
ANGLE_ONLY_QUANTITIES = ("alpha", "beta", "alphabeta")

# (mean, mean-square) closed forms; None marks cells with no closed form
# (either a decimal-only value in REFERENCE_VALUES or a blank cell) and
# math.inf marks divergent mean squares.
_CLOSED = {
    ("pinned", "alpha"): (_PI / 2.0, _PI**2 / 3.0),
    ("pinned", "beta"): (_PI / 4.0 + 1.0 / _PI, 1.0 + _PI**2 / 12.0),
    ("pinned", "gamma"): (_PI / 4.0 - 1.0 / _PI, -0.5 + _PI**2 / 12.0),
    ("pinned", "alphabeta"): (0.25 + _PI**2 / 12.0, None),
    ("pinned", "betagamma"): (-0.25 + _PI**2 / 12.0, None),
    ("pinned", "gammaalpha"): (-0.25 + _PI**2 / 12.0, None),
    ("pinned", "a"): (8.0 / (3.0 * _PI), 3.0 / _PI),
    ("pinned", "b"): (0.75, 2.0 / _PI),
    ("pinned", "c"): (0.5, 1.0 / _PI),
    ("pinned", "ab"): (64.0 / (9.0 * _PI**2), None),
    ("pinned", "bc"): (4.0 / (3.0 * _PI), None),
    ("pinned", "ca"): (None, None),
    ("pinned", "a/b"): (32.0 / (9.0 * _PI), 1.5),
    ("pinned", "b/a"): (4.0 / _PI, math.inf),
    ("pinned", "b/c"): (2.0, math.inf),
    ("pinned", "c/b"): (2.0 / 3.0, 0.5),
    ("pinned", "c/a"): ((1.0 + 2.0 * CATALAN) / _PI, math.inf),
    ("pinned", "a/c"): ((5.0 + 2.0 * CATALAN) / _PI, math.inf),
    ("pinned", "area"): (4.0 / (3.0 * _PI**2), 3.0 / (8.0 * _PI**2)),
    ("staked", "alpha"): (_PI / 2.0, _PI**2 / 3.0),
    ("staked", "beta"): (None, None),
    ("staked", "alphabeta"): (None, None),
    ("anchored", "alpha"): (None, None),
    ("anchored", "beta"): (None, None),
    ("anchored", "alphabeta"): (None, None),
}

# The two factors of each product quantity.
_PRODUCTS = {"alphabeta": ("alpha", "beta"), "betagamma": ("beta", "gamma"),
             "gammaalpha": ("gamma", "alpha"), "ab": ("a", "b"),
             "bc": ("b", "c"), "ca": ("c", "a")}

# Decimal references (8 digits) for cells whose exact value is unknown.
REFERENCE_VALUES = {
    ("pinned", "ca", "mean"): 0.49181215,
    ("staked", "beta", "mean"): 0.34306160,
    ("staked", "beta", "mean-square"): 0.20825399,
    ("staked", "alphabeta", "mean"): 0.43825535,
    ("anchored", "alpha", "mean"): 0.71706372,
    ("anchored", "beta", "mean"): 0.71706372,
    ("anchored", "alpha", "mean-square"): 0.92490176,
    ("anchored", "beta", "mean-square"): 0.92490176,
    ("anchored", "alphabeta", "mean"): 0.39837926,
}

# This package's high-precision value for the pinned mean of ca, from the
# (alpha, t) quadrature of expected_ac; it agrees with (37 + 2G)/(8 pi^2),
# G Catalan's constant, to 2e-13.  Only the first 8 decimals have an
# external reference.
EXPECTED_AC = 0.491812153890

ACUTENESS_CLOSED = {
    "pinned": 0.25,
    "staked": 0.5 * (math.exp(-_PI / 2.0) * bessel_i0(_PI / 2.0) - erfc(math.sqrt(_PI))),
    "anchored": math.exp(-_PI / 4.0) - erfc(math.sqrt(_PI) / 2.0),
}

# The pinned obtuseness splits by which angle is obtuse: always the one at
# the origin or the one opposite the longest side, never the smallest.
PINNED_OBTUSE_PARTS = (0.5, 0.25, 0.0)


class DivergenceError(ValueError):
    """Raised when quadrature is asked for a moment that diverges."""


@dataclass(frozen=True)
class MomentTarget:
    """One table cell: (family, quantity, statistic)."""

    family: str
    quantity: str
    statistic: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        quantities = PINNED_QUANTITIES if self.family == "pinned" else ANGLE_ONLY_QUANTITIES
        if self.quantity not in quantities:
            raise ValueError(f"no tabulated row for {self.family}/{self.quantity}")
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}: {self.statistic!r}")


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Batch-means Monte Carlo estimate."""

    value: float
    std_error: float
    n: int


@dataclass(frozen=True)
class ExpectedAc:
    """Mean of the pinned product ca, with its two region contributions
    (short-a: a < 2c; long-a: a > 2c) and whether both converged."""

    value: float
    error: float
    branch_short_a: float
    branch_long_a: float
    converged: bool


@dataclass(frozen=True)
class MomentReport:
    """Three-way comparison for one table cell."""

    target: MomentTarget
    closed: float | None          # math.inf when divergent, None when unknown
    reference: float | None       # decimal reference when closed is None
    quadrature: IntegralResult | None
    monte_carlo: MonteCarloEstimate | None
    verdict: bool


def targets(family: str | None = None) -> list[MomentTarget]:
    """Every modeled table cell, optionally restricted to one family."""
    out = []
    for fam, quantity in _CLOSED:
        if family is not None and fam != family:
            continue
        for statistic in STATISTICS:
            out.append(MomentTarget(fam, quantity, statistic))
    return out


def closed_form(target: MomentTarget) -> float | None:
    """Exact value of a table cell; math.inf for divergent mean squares,
    None when no closed form is known."""
    mean, mean_square = _CLOSED[(target.family, target.quantity)]
    return mean if target.statistic == "mean" else mean_square


def reference_value(target: MomentTarget) -> float | None:
    """Decimal reference for numeric-only cells, else None."""
    return REFERENCE_VALUES.get((target.family, target.quantity, target.statistic))


# ---------------------------------------------------------------------------
# Quadrature paths


def _marginal_kind(target: MomentTarget) -> density.DensityKind | None:
    """The univariate catalog kind of the target's quantity, if there is one."""
    source = (1, target.family, target.quantity.replace("/", "_over_"))
    return next((kind for kind in density.CATALOG.values()
                 if (kind.arity, kind.family, kind.statistic) == source), None)


def kind_integral(kind: density.DensityKind, power: int = 0, tol: float = 1e-8,
                  upper: float = math.inf) -> IntegralResult:
    """Integral of x^power f(x) over a univariate kind's support below ``upper``.

    The range is split at the kind's singular points and breakpoints, so
    every piece has an analytic integrand.  An infinite Gaussian tail is cut
    where less than 1e-16 of the moment lies beyond; an infinite power tail
    runs to infinity, and raises DivergenceError when it is too heavy for
    the moment.
    """
    lo, hi = kind.support[0]
    hi = min(hi, upper)
    if math.isinf(hi) and kind.tail == "power" and kind.tail_power - power <= 1:
        raise DivergenceError(
            f"moment of order {power} diverges for {kind.tag} "
            f"(tail falls off as x^-{kind.tail_power:g})")
    if math.isinf(hi) and kind.tail == "gauss":
        hi = gaussian_tail_cutoff(kind.gauss_scale, kind.gauss_degree + power)
    cuts = sorted({lo, hi, *(p for p in (*kind.singular_points, *kind.breakpoints)
                             if lo < p < hi)})
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=400)

    def integrand(x):
        return x**power * kind.pdf(x)

    # the uniform-T singular points are logarithmic, so the pieces that end
    # there converge without an endpoint map
    return _combine([integrate_1d(integrand, a, b, spec) for a, b in zip(cuts[:-1], cuts[1:])])


def joint_integral(tag: str, weight, degree: int = 0, tol: float = 1e-8) -> IntegralResult:
    """Integral of weight(x, y) f(x, y) over the support of a bivariate
    catalog density f of two sides (pair_ab, pair_bc) or two angles (the
    angle joints), x and y being f's own arguments.

    The sides run outer b, inner a in (0, 2b) or c in (0, b); the Gaussian
    tail of b is cut for a weight homogeneous of ``degree`` in the sides.
    The angles run outer alpha, inner beta in (0, pi - alpha), for the
    pinned joint its exact support ((pi - alpha)/2, pi - alpha).
    """
    pdf = density.CATALOG[tag].pdf
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=200)
    if tag == "pair_ab":
        return integrate_2d(lambda b, a: weight(a, b) * pdf(a, b), 0.0,
                            gaussian_tail_cutoff(_PI, 3 + degree), lambda b: (0.0, 2.0 * b), spec)
    if tag == "pair_bc":
        return integrate_2d(lambda b, c: weight(b, c) * pdf(b, c), 0.0,
                            gaussian_tail_cutoff(_PI, 3 + degree), lambda b: (0.0, b), spec)
    if tag == "pinned_angles_joint":
        def inner(alpha):
            return 0.5 * (_PI - alpha), _PI - alpha
    else:
        def inner(alpha):
            return 0.0, _PI - alpha
    return integrate_2d(lambda x, y: weight(x, y) * pdf(x, y), 0.0, _PI, inner, spec)


def _combine(results: list[IntegralResult]) -> IntegralResult:
    return IntegralResult(sum(r.value for r in results),
                          sum(r.error for r in results),
                          sum(r.subdivisions for r in results),
                          all(r.converged for r in results),
                          sum(r.neval for r in results))


def _opposite_side(alpha, t):
    """The side a of the triangle with sides b = 1 and c = t meeting at the
    angle alpha, in a form without cancellation near alpha = 0."""
    return np.sqrt((1.0 - t)**2 + 4.0 * t * np.sin(0.5 * alpha)**2)


def _t_split(alpha):
    """The ratio t = c/b at which a = 2c, for the angle alpha at the origin
    (the positive root of 3t^2 + 2t cos alpha - 1 = 0); a < 2c above it."""
    cos = np.cos(alpha)
    return (np.sqrt(cos * cos + 3.0) - cos) / 3.0


def _pinned_triple(weight, degree: int, tol: float,
                   pieces=("short_a", "long_a")) -> list[IntegralResult]:
    """Integrals of weight(a,b,c), homogeneous of ``degree`` in the sides,
    against the trivariate pinned density.

    Coordinates: alpha, the angle at the origin between b and c, and
    t = c/b, so a^2 = b^2 (1 + t^2 - 2t cos alpha) and
    da = b t sin(alpha)/a * d(alpha).  That Jacobian cancels the density's
    inverse-square-root edges at a = b -+ c, and the b integral,
    int b^(degree+3) exp(-pi b^2) db = Gamma(degree/2 + 2)/(2 pi^(degree/2+2)),
    comes out in closed form (times e^pi, the b = 1 Gaussian factor of the
    catalog density).  What remains is one integrate_2d of the catalog
    density at (a, 1, t) over alpha in (0, pi) outside, t in (0, 1) inside.
    Pieces: "full" is the whole region; "short_a"/"long_a" split it at
    a = 2c, which is t = _t_split(alpha).
    """
    radial = math.exp(_PI) * math.gamma(0.5 * degree + 2.0) / (2.0 * _PI**(0.5 * degree + 2.0))
    spec = QuadratureSpec(abs_tol=0.1 * tol / radial, rel_tol=0.1 * tol, max_subdivisions=200)

    def f(alpha, t):
        a = _opposite_side(alpha, t)
        return density.pdf_pinned_sides_joint(a, 1.0, t) * t * np.sin(alpha) / a * weight(a, 1.0, t)

    t_bounds = {"full": lambda alpha: (0.0, 1.0),
                "short_a": lambda alpha: (_t_split(alpha), 1.0),
                "long_a": lambda alpha: (0.0, _t_split(alpha))}
    results = []
    for piece in pieces:
        r = integrate_2d(f, 0.0, _PI, t_bounds[piece], spec)
        results.append(replace(r, value=radial * r.value, error=radial * r.error))
    return results


def expected_ac(tol: float = 1e-7) -> ExpectedAc:
    """Mean of the pinned product ca by quadrature of the two region pieces
    (a < 2c and a > 2c) of the trivariate density; ``converged`` is false
    when either piece did not converge."""
    if tol < 1e-12:
        raise ValueError(f"tolerance too tight for the nested rule: {tol}")
    short, long_ = _pinned_triple(lambda a, b, c: a * c, 2, tol)
    return ExpectedAc(short.value + long_.value, short.error + long_.error,
                      short.value, long_.value, short.converged and long_.converged)


def by_quadrature(target: MomentTarget, tol: float = 1e-8) -> IntegralResult:
    """Moment by quadrature against the density catalog.

    Raises DivergenceError when the quantity's catalog density has a power
    tail too heavy for the moment: the four ratio mean squares, whose
    densities fall off as x^-3.  The closed-form table is not consulted.
    """
    power = 1 if target.statistic == "mean" else 2
    kind = _marginal_kind(target)
    if kind is not None:
        return kind_integral(kind, power, tol)
    if target.quantity in ("alphabeta", "betagamma", "gammaalpha"):
        u, v = _PRODUCTS[target.quantity]

        def weight(alpha, beta):
            angles = {"alpha": alpha, "beta": beta, "gamma": _PI - alpha - beta}
            return (angles[u] * angles[v])**power
        return joint_integral(f"{target.family}_angles_joint", weight, tol=tol)
    if target.quantity in ("ab", "bc"):
        def weight(x, y):
            return (x * y)**power
        return joint_integral(f"pair_{target.quantity}", weight, 2 * power, tol)
    if target.quantity == "ca":
        def weight(a, b, c):
            return (a * c)**power
        return _combine(_pinned_triple(weight, 2 * power, tol))
    if target.quantity == "area":
        def weight(a, b, c):
            return (np.sqrt(np.maximum(heron_product(a, b, c), 0.0)) / 4.0)**power
        (full,) = _pinned_triple(weight, 2 * power, tol, pieces=("full",))
        return full
    raise ValueError(f"no quadrature path for {target}")


def truncated_mean_square(target: MomentTarget, upper: float,
                          tol: float = 1e-10) -> IntegralResult:
    """Second moment restricted to values below ``upper``; finite even for
    the divergent ratio rows, where it grows logarithmically in ``upper``."""
    kind = _marginal_kind(target)
    if kind is None:
        raise ValueError(f"no univariate density for {target}")
    return kind_integral(kind, 2, tol, upper)


# ---------------------------------------------------------------------------
# Monte Carlo

_BATCHES = 100


def batch_means(family: str, n: int, rng: RandomStream, reducers: dict,
                workers: int = 1) -> dict:
    """Batch-means estimates of several statistics from one set of draws.

    Batch k < 100 holds max(n // 100, 1) rows drawn from
    RandomStream(rng.seed, rng.stream_id + k).  ``reducers`` maps a
    hashable key to a function of one batch returning a scalar; each key's
    estimate is the mean of its 100 batch values, with their standard
    error.  Batches run on ``workers`` threads but are reduced in stream
    order, so the result is identical for any worker count.
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 for batch means: {n}")
    per_batch = max(n // _BATCHES, 1)

    def one(k: int) -> list[float]:
        batch = sample_batch(family, per_batch, RandomStream(rng.seed, rng.stream_id + k))
        return [float(fn(batch)) for fn in reducers.values()]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(_BATCHES)))
    else:
        rows = [one(k) for k in range(_BATCHES)]
    table = np.asarray(rows)
    return {key: MonteCarloEstimate(float(table[:, i].mean()),
                                    float(table[:, i].std(ddof=1) / math.sqrt(_BATCHES)),
                                    per_batch * _BATCHES)
            for i, key in enumerate(reducers)}


def cell_reducer(target: MomentTarget):
    """The batch reducer of one table cell: the batch mean of the cell's
    quantity to the power 1 (mean) or 2 (mean square)."""
    power = 2.0 if target.statistic == "mean-square" else 1.0
    u, v = _PRODUCTS.get(target.quantity, (target.quantity.replace("/", "_over_"), None))

    def reduce(batch) -> float:
        x = batch.statistic(u) if v is None else batch.statistic(u) * batch.statistic(v)
        return float(np.mean(x ** power))

    return reduce


def by_monte_carlo(target: MomentTarget, n: int, rng: RandomStream,
                   workers: int = 1) -> MonteCarloEstimate:
    """Batch-means Monte Carlo estimate of one cell (see :func:`batch_means`).

    Divergent cells are estimated too; their batch means never settle.
    """
    return batch_means(target.family, n, rng, {target: cell_reducer(target)}, workers)[target]


def correlation_ab() -> float:
    """Correlation of the pinned sides a and b (closed form, about 0.636)."""
    return (8.0 / 3.0) * math.sqrt((32.0 - 9.0 * _PI)
                                   / ((-64.0 + 27.0 * _PI) * _PI))


def acuteness(family: str, tol: float = 1e-10) -> IntegralResult:
    """P(triangle is acute) by quadrature of the angle joint over the acute
    region; ``ACUTENESS_CLOSED`` holds the closed forms."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    joint = density.CATALOG[f"{family}_angles_joint"].pdf
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=200)
    half = _PI / 2.0
    return integrate_2d(joint, 0.0, half, lambda x: (half - x, np.full_like(x, half)), spec)


def moment_report(target: MomentTarget, tol: float = 1e-8,
                  monte_carlo: MonteCarloEstimate | None = None) -> MomentReport:
    """Run the quadrature route for one table cell and compare every route.

    Verdict is true when all routes agree: quadrature against the closed
    form within max(tol, 10x its error estimate) or else the decimal
    reference within 1e-6, and the given Monte Carlo estimate against the
    closed form, else quadrature, within four standard errors.  A
    quadrature that did not converge makes the verdict false.  A divergent
    cell (closed form inf) runs no quadrature and passes.
    """
    closed = closed_form(target)
    reference = reference_value(target)
    if closed == math.inf:
        return MomentReport(target, closed, reference, None, monte_carlo, True)
    quad = by_quadrature(target, tol)
    verdict = bool(quad.converged)
    if closed is not None:
        verdict &= abs(quad.value - closed) <= max(tol, 10.0 * quad.error)
    elif reference is not None:
        verdict &= abs(quad.value - reference) <= 1e-6
    if monte_carlo is not None:
        best = closed if closed is not None else quad.value
        verdict &= abs(monte_carlo.value - best) <= 4.0 * monte_carlo.std_error
    return MomentReport(target, closed, reference, quad, monte_carlo, verdict)

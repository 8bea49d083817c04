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
``ca``, whose exact expression is an open question.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import density
from .geom import heron_product
from .numerics import (CATALAN, IntegralResult, QuadratureSpec, bessel_i0, erfc,
                       gaussian_tail_cutoff, integrate_1d, integrate_2d, sin2_integrals)
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

# This package's high-precision value for the pinned mean of ca, from two
# independent integral orderings that agree to ~3e-12 (the exact expression
# is unknown; only the first 8 decimals have an external reference).
EXPECTED_AC = 0.491812153893

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
    divergent: bool = False


@dataclass(frozen=True)
class ExpectedAc:
    """Mean of the pinned product ca, with its two region contributions
    (short-a: a < 2c; long-a: a > 2c)."""

    value: float
    error: float
    branch_short_a: float
    branch_long_a: float


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


def _marginal_moment(kind: density.DensityKind, power: int, tol: float) -> IntegralResult:
    lo, hi = kind.support[0]
    if kind.tail == "power" and kind.tail_power - power <= 1:
        raise DivergenceError(
            f"moment of order {power} diverges for {kind.tag} "
            f"(tail falls off as x^-{kind.tail_power:g})")
    if kind.tail == "gauss" and math.isinf(hi):
        hi = gaussian_tail_cutoff(kind.gauss_scale, kind.gauss_degree + power)
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=400)

    def integrand(x):
        return x**power * kind.pdf(x)

    # No moment-table kind has an interior singular point (only the
    # uniform-angle laws do), so the support needs no splitting.
    return integrate_1d(integrand, lo, hi, spec)


def _angle_product_moment(family: str, quantity: str, power: int,
                          tol: float) -> IntegralResult:
    joint = density.CATALOG[f"{family}_angles_joint"].pdf
    pair = {"alphabeta": (0, 1), "betagamma": (1, 2), "gammaalpha": (2, 0)}[quantity]

    def f(x, y):
        angles = (x, y, _PI - x - y)
        return (angles[pair[0]] * angles[pair[1]])**power * joint(x, y)

    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=200)
    return integrate_2d(f, 0.0, _PI, lambda x: (np.zeros_like(x), _PI - x), spec)


def _pair_side_moment(quantity: str, power: int, tol: float) -> IntegralResult:
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=200)
    b_hi = gaussian_tail_cutoff(_PI, 6 + power)
    if quantity == "ab":
        def f(b, a):
            return (a * b)**power * density.pdf_pair_ab(a, b)
        return integrate_2d(f, 0.0, b_hi, lambda b: (np.zeros_like(b), 2.0 * b), spec)
    def f(b, c):
        return (b * c)**power * density.pdf_pair_bc(b, c)
    return integrate_2d(f, 0.0, b_hi, lambda b: (np.zeros_like(b), b), spec)


def _inner_a_integral(weight, b, c, a_lo, a_hi):
    """Integral over a of weight * trivariate density, per row, by the fixed
    sin^2 rule (it turns the density's inverse-square-root edges into a
    smooth integrand).

    Needs 0 < c < b and [a_lo, a_hi] inside [b - c, b + c], so every node is
    interior to the support; the a-independent factor 8 pi b c exp(-pi b^2)
    of the density is applied once per row instead of once per node.
    """
    def g(a, rows):
        B, C = b[rows, None], c[rows, None]
        return weight(a, B, C) * a / np.sqrt(heron_product(a, B, C))

    return 8.0 * _PI * b * c * np.exp(-_PI * b * b) * sin2_integrals(g, a_lo, a_hi)


def _combine(results: list[IntegralResult]) -> IntegralResult:
    return IntegralResult(sum(r.value for r in results),
                          sum(r.error for r in results),
                          sum(r.subdivisions for r in results),
                          all(r.converged for r in results),
                          sum(r.neval for r in results))


def _pinned_triple(weight, tol: float, pieces=("short_a", "long_a")) -> list[IntegralResult]:
    """Integrals of weight(a,b,c) against the trivariate pinned density.

    Ordering: outer b (Gaussian decay), middle c, inner a by the fixed
    sin^2 rule.  Pieces: "full" covers the whole region {0 < c < b,
    b-c < a < b+c}; "short_a"/"long_a" split it at a = 2c, the long-a part
    itself split at c = b/3 so the middle integrand stays smooth.
    """
    b_hi = gaussian_tail_cutoff(_PI, 8)
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=200)

    def over(c_bounds, a_limits) -> IntegralResult:
        def f(b, c):
            return _inner_a_integral(weight, b, c, *a_limits(b, c))
        return integrate_2d(f, 0.0, b_hi, c_bounds, spec)

    results = []
    for piece in pieces:
        if piece == "full":
            results.append(over(lambda b: (0.0, b), lambda b, c: (b - c, b + c)))
        elif piece == "short_a":
            results.append(over(lambda b: (b / 3.0, b), lambda b, c: (b - c, 2.0 * c)))
        elif piece == "long_a":
            results.append(_combine([
                over(lambda b: (0.0, b / 3.0), lambda b, c: (b - c, b + c)),
                over(lambda b: (b / 3.0, b), lambda b, c: (2.0 * c, b + c)),
            ]))
        else:
            raise ValueError(f"unknown region piece {piece!r}")
    return results


def expected_ac(tol: float = 1e-7) -> ExpectedAc:
    """Mean of the pinned product ca by nested quadrature of the two
    region pieces (a < 2c and a > 2c) of the trivariate density."""
    if tol < 1e-12:
        raise ValueError(f"tolerance too tight for the nested rule: {tol}")
    short, long_ = _pinned_triple(lambda a, b, c: a * c, tol)
    value = short.value + long_.value
    error = short.error + long_.error
    if not (short.converged and long_.converged):
        raise RuntimeError(
            f"expected_ac did not converge: best estimate {value} +- {error}")
    return ExpectedAc(value, error, short.value, long_.value)


def by_quadrature(target: MomentTarget, tol: float = 1e-8) -> IntegralResult:
    """Moment by quadrature against the density catalog.

    Raises DivergenceError for the four divergent ratio mean squares.
    """
    if closed_form(target) == math.inf:
        raise DivergenceError(f"{target} diverges")
    power = 1 if target.statistic == "mean" else 2
    kind = _marginal_kind(target)
    if kind is not None:
        return _marginal_moment(kind, power, tol)
    if target.quantity in ("alphabeta", "betagamma", "gammaalpha"):
        return _angle_product_moment(target.family, target.quantity, power, tol)
    if target.quantity in ("ab", "bc"):
        return _pair_side_moment(target.quantity, power, tol)
    if target.quantity == "ca":
        def weight(a, b, c):
            return (a * c)**power
        return _combine(_pinned_triple(weight, tol))
    if target.quantity == "area":
        def weight(a, b, c):
            return (np.sqrt(np.maximum(heron_product(a, b, c), 0.0)) / 4.0)**power
        (full,) = _pinned_triple(weight, tol, pieces=("full",))
        return full
    raise ValueError(f"no quadrature path for {target}")


def truncated_mean_square(target: MomentTarget, upper: float,
                          tol: float = 1e-10) -> IntegralResult:
    """Second moment restricted to values below ``upper``; finite even for
    the divergent ratio rows, where it grows logarithmically in ``upper``."""
    kind = _marginal_kind(target)
    if kind is None:
        raise ValueError(f"no univariate density for {target}")
    lo, hi = kind.support[0]
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol, max_subdivisions=400)
    return integrate_1d(lambda x: x * x * kind.pdf(x), lo, min(upper, hi), spec)


# ---------------------------------------------------------------------------
# Monte Carlo

_BATCHES = 100


def batch_means(family: str, n: int, rng: RandomStream, reducers: dict,
                workers: int = 1) -> dict[str, MonteCarloEstimate]:
    """Batch-means estimates of several statistics from one set of draws.

    Batch k < 100 holds max(n // 100, 1) rows drawn from
    RandomStream(rng.seed, rng.stream_id + k).  ``reducers`` maps a name to
    a function of one batch returning a scalar; each name's estimate is the
    mean of its 100 batch values, with their standard error.  Batches run
    on ``workers`` threads but are reduced in stream order, so the result
    is identical for any worker count.
    """
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
    return {name: MonteCarloEstimate(float(table[:, i].mean()),
                                     float(table[:, i].std(ddof=1) / math.sqrt(_BATCHES)),
                                     per_batch * _BATCHES)
            for i, name in enumerate(reducers)}


def _mc_values(batch, quantity: str) -> np.ndarray:
    products = {"alphabeta": ("alpha", "beta"), "betagamma": ("beta", "gamma"),
                "gammaalpha": ("gamma", "alpha"), "ab": ("a", "b"),
                "bc": ("b", "c"), "ca": ("c", "a")}
    if quantity in products:
        u, v = products[quantity]
        return batch.statistic(u) * batch.statistic(v)
    return batch.statistic(quantity.replace("/", "_over_"))


def by_monte_carlo(target: MomentTarget, n: int, rng: RandomStream,
                   workers: int = 1) -> MonteCarloEstimate:
    """Batch-means Monte Carlo estimate (see :func:`batch_means`).

    Divergent targets are estimated anyway but flagged: their batch means
    never stabilize.
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 for batch means: {n}")
    power = 1 if target.statistic == "mean" else 2

    def mean_power(batch) -> float:
        return np.mean(_mc_values(batch, target.quantity)**power)

    estimate = batch_means(target.family, n, rng, {"v": mean_power}, workers)["v"]
    return replace(estimate, divergent=closed_form(target) == math.inf)


def correlation_ab() -> float:
    """Correlation of the pinned sides a and b (closed form, about 0.636)."""
    return (8.0 / 3.0) * math.sqrt((32.0 - 9.0 * _PI)
                                   / ((-64.0 + 27.0 * _PI) * _PI))


def acuteness(family: str, method: str = "closed", *, tol: float = 1e-10) -> float:
    """P(triangle is acute) by closed form or by quadrature of the angle joint."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if method == "closed":
        return ACUTENESS_CLOSED[family]
    if method == "quadrature":
        joint = density.CATALOG[f"{family}_angles_joint"].pdf
        spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol,
                              max_subdivisions=200)
        half = _PI / 2.0
        r = integrate_2d(joint, 0.0, half,
                         lambda x: (half - x, np.full_like(x, half)), spec)
        return r.value
    raise ValueError(f"method must be closed|quadrature: {method!r}")


def moment_report(target: MomentTarget, tol: float = 1e-8, n: int = 10**5,
                  rng: RandomStream | None = None, workers: int = 1) -> MomentReport:
    """Run every applicable route for one table cell and compare.

    Verdict is true when all routes that produced a value agree: quadrature
    against the closed form within max(tol, 10x its error estimate), against
    the decimal reference within 1e-6, and Monte Carlo against the best
    available value within four standard errors.  A quadrature that did not
    converge makes the verdict false.
    """
    closed = closed_form(target)
    reference = reference_value(target)
    rng = rng if rng is not None else RandomStream(0)
    quad = None
    verdict = True
    if closed != math.inf:
        try:
            quad = by_quadrature(target, tol)
        except DivergenceError:
            quad = None
    mc = by_monte_carlo(target, n, rng, workers) if n else None
    if quad is not None:
        verdict &= bool(quad.converged)
        if closed is not None:
            verdict &= abs(quad.value - closed) <= max(tol, 10.0 * quad.error)
        elif reference is not None:
            verdict &= abs(quad.value - reference) <= 1e-6
    if mc is not None and not mc.divergent:
        best = closed if closed is not None else (
            quad.value if quad is not None else reference)
        if best is not None:
            verdict &= abs(mc.value - best) <= 4.0 * mc.std_error
    return MomentReport(target, closed, reference, quad, mc, verdict)

"""Goodness-of-fit tests tying the samplers to the density catalog.

Three test families are provided:

* one-sample Kolmogorov-Smirnov: an empirical sample against a univariate
  catalog density, whose distribution function is accumulated once on a
  dense panel grid and evaluated through a monotone cubic interpolant;
* two-sample Kolmogorov-Smirnov: two empirical samples against each other
  (used, among other things, to compare the fast nearest-neighbor sampler
  with the literal point-process construction);
* a Pearson chi-square test on rectangular bins for bivariate densities.

Thresholds are asymptotic: the Kolmogorov criterion sqrt(ln(2/alpha)/2)
scaled by the sample sizes, and a Wilson-Hilferty chi-square quantile.
:func:`ks_battery` tests catalog kinds against the sampler statistics their
records name, on one batch per family; ``KS_MATRIX`` lists the standard
battery covering every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .density import CATALOG, DensityKind
from .numerics import (
    GL16_NODES,
    GL16_WEIGHTS,
    MonotoneCubic,
    QuadratureSpec,
    fixed_panel_integrals,
    gaussian_tail_cutoff,
    integrate_1d,
    weighted_sums,
)
from .sampler import FAMILIES, RandomStream, SampleBatch, sample_batch

__all__ = [
    "KS_MATRIX",
    "EmpiricalSample",
    "GofReport",
    "cdf_from_pdf",
    "chi_square_quantile",
    "chi_square_region",
    "ks_battery",
    "ks_critical",
    "ks_one_sample",
    "ks_two_sample",
    "quadrature_pieces",
    "quantile",
]

_PI = math.pi


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted batch of scalar observations with a provenance label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"sample must be one-dimensional, got shape {values.shape}")
        if values.size < 2:
            raise ValueError(f"sample needs at least 2 observations, got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError("sample contains non-finite values")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("sample values must be sorted ascending; "
                             "use EmpiricalSample.from_values to sort")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values, label: str = "") -> "EmpiricalSample":
        """Sort ``values`` and wrap them."""
        return cls(np.sort(np.asarray(values, dtype=float)), label)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class GofReport:
    """Outcome of one test: statistic against its significance threshold."""

    test: str
    statistic: float
    threshold: float
    n: int
    verdict: bool
    label: str = ""

    _TESTS = ("ks-one-sample", "ks-two-sample", "chi-square")

    def __post_init__(self):
        if self.test not in self._TESTS:
            raise ValueError(f"unknown test {self.test!r}; expected one of {self._TESTS}")
        if self.verdict != (self.statistic <= self.threshold):
            raise ValueError("verdict must equal (statistic <= threshold)")


def _report(test: str, statistic: float, threshold: float, n: int, label: str) -> GofReport:
    return GofReport(test, float(statistic), float(threshold), int(n),
                     bool(statistic <= threshold), label)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1): {alpha}")
    return alpha


def ks_critical(alpha: float) -> float:
    """Kolmogorov criterion c(alpha) = sqrt(ln(2/alpha)/2).

    The asymptotic threshold is c(alpha)/sqrt(n) for one sample and
    c(alpha)*sqrt((n+m)/(n m)) for two samples.
    """
    return math.sqrt(0.5 * math.log(2.0 / _check_alpha(alpha)))


def chi_square_quantile(p: float, dof: int) -> float:
    """Chi-square quantile via the Wilson-Hilferty cube approximation.

    Accurate to a fraction of a percent for the degrees of freedom used
    here (>= 5); the tests compare it against an independent oracle.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1): {p}")
    k = int(dof)
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1: {dof}")
    z = NormalDist().inv_cdf(p)
    h = 2.0 / (9.0 * k)
    return k * (1.0 - h + z * math.sqrt(h)) ** 3


# ---------------------------------------------------------------------------
# distribution-function grids
# ---------------------------------------------------------------------------

# Panel edges over the core of every grid (up to the support's end, the
# Gaussian cutoff or the start of the logarithmic power tail).
_CORE_EDGES = 4097
_LOG_EDGES = 1281
_LOG_START = 12.0
# Geometric ladder of panel edges on both sides of each integrable
# singularity, resolving the distribution function down to 1e-9 of it.
_SING_OFFSETS = np.geomspace(1e-9, 0.08, 56)
_TAIL_FRACTION = 1e-16


def _cdf_edges(kind: DensityKind) -> np.ndarray:
    lo, hi = kind.support[0]
    if kind.tail == "finite":
        core_end, log_end = hi, None
    elif kind.tail == "gauss":
        core_end = gaussian_tail_cutoff(kind.gauss_scale, kind.gauss_degree,
                                        _TAIL_FRACTION)
        log_end = None
    elif kind.tail == "power":
        core_end = max(_LOG_START, 2.0 * lo + 1.0)
        # Truncation point where the remaining x^-p tail mass is negligible
        # against every tolerance used downstream.
        log_end = 1e8 if kind.tail_power >= 3.0 else 4e9
    else:  # pragma: no cover - catalog invariant
        raise ValueError(f"unknown tail kind {kind.tail!r}")

    pieces = [np.linspace(lo, core_end, _CORE_EDGES)]
    if log_end is not None:
        pieces.append(np.geomspace(core_end, log_end, _LOG_EDGES)[1:])
    upper = core_end if log_end is None else log_end
    for point in kind.breakpoints:
        if lo < point < upper:
            pieces.append(np.array([point]))
    for s in kind.singular_points:
        ladder = np.concatenate([s - _SING_OFFSETS, [s], s + _SING_OFFSETS])
        pieces.append(ladder[(ladder > lo) & (ladder < upper)])
    return np.unique(np.concatenate(pieces))


class _CdfGrid:
    """Cumulative distribution of one univariate catalog density, accumulated
    once over a dense panel grid and interpolated monotonically."""

    def __init__(self, kind: DensityKind):
        edges = _cdf_edges(kind)
        masses = fixed_panel_integrals(kind.pdf, edges, kind.singular_points)
        cdf = np.concatenate(([0.0], np.cumsum(masses)))
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        self.lo = float(edges[0])
        self.hi = float(edges[-1])
        self.total = float(cdf[-1])
        self._interp = MonotoneCubic(edges, cdf)

    def __call__(self, x):
        # MonotoneCubic clamps to the endpoint values: 0 below the support,
        # the (complete) total mass beyond the truncation point.
        return self._interp(x)


# Grids keyed on every field that decides one, so kinds sharing a law
# (anchored_beta and anchored_alpha, uT_ratio and uT_side_a) share a grid.
_GRIDS: dict[tuple, _CdfGrid] = {}


def _resolve_kind(kind) -> DensityKind:
    if isinstance(kind, str):
        try:
            kind = CATALOG[kind]
        except KeyError:
            raise KeyError(f"unknown density kind {kind!r}") from None
    if not isinstance(kind, DensityKind):
        raise TypeError(f"expected a DensityKind or catalog tag, got {type(kind).__name__}")
    if kind.arity != 1:
        raise ValueError(f"{kind.tag!r} is {kind.arity}-variate; a univariate kind is required")
    return kind


def _grid(kind: DensityKind) -> _CdfGrid:
    key = (kind.pdf, kind.support, kind.singular_points, kind.tail, kind.tail_power,
           kind.gauss_scale, kind.gauss_degree, kind.breakpoints)
    grid = _GRIDS.get(key)
    if grid is None:
        grid = _GRIDS[key] = _CdfGrid(kind)
    return grid


_GRID_TOL = 1e-6


def cdf_from_pdf(kind, x, tol: float = _GRID_TOL):
    """Distribution function of a univariate catalog density at ``x``.

    Tolerances down to ``1e-6`` are served from a cached grid (fast,
    vectorized); tighter requests integrate the density directly per point.
    """
    kind = _resolve_kind(kind)
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive: {tol}")
    if tol >= _GRID_TOL:
        return _grid(kind)(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_cdf_direct(kind, float(v), tol) for v in xs])
    return float(out[0]) if np.ndim(x) == 0 else out


def quantile(kind, p: float) -> float:
    """Inverse distribution function, resolved by bisection on the grid."""
    kind = _resolve_kind(kind)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1): {p}")
    grid = _grid(kind)
    if p >= grid.total:
        return grid.hi
    lo, hi = grid.lo, grid.hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grid(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * (1.0 + abs(hi)):
            break
    return 0.5 * (lo + hi)


def _truncation_point(kind: DensityKind, tol: float) -> float:
    """Upper integration limit carrying all but < tol/10 of the mass."""
    if kind.tail == "gauss":
        return gaussian_tail_cutoff(kind.gauss_scale, kind.gauss_degree, 0.1 * tol)
    # power tail ~ C x^-p: remaining mass beyond T is about T f(T)/(p-1)
    t = _LOG_START
    while t * kind.pdf(t) / (kind.tail_power - 1.0) > 0.1 * tol:
        t *= 2.0
    return t


def quadrature_pieces(kind: DensityKind, tol: float,
                      x: float = math.inf) -> list[tuple[float, float, str]]:
    """Pieces (a, b, singularity mode) for integrating a univariate kind
    from its lower support end up to x.

    The range ends at x or at the support's upper end, whichever is lower;
    an infinite tail is cut where all but < tol/10 of the mass lies below.
    It is split at the kind's singular points and breakpoints, and each
    piece gets the endpoint-singularity mode its singular ends need.
    """
    lo, hi = kind.support[0]
    x = min(x, hi if kind.tail == "finite" else _truncation_point(kind, tol))
    cuts = sorted({lo, x, *(p for p in (*kind.singular_points, *kind.breakpoints)
                            if lo < p < x)})
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        touch_lo = any(math.isclose(a, s) for s in kind.singular_points)
        touch_hi = any(math.isclose(b, s) for s in kind.singular_points)
        mode = {(False, False): "none", (True, False): "left",
                (False, True): "right", (True, True): "both"}[(touch_lo, touch_hi)]
        pieces.append((a, b, mode))
    return pieces


def _cdf_direct(kind: DensityKind, x: float, tol: float) -> float:
    if x <= kind.support[0][0]:
        return 0.0
    pieces = quadrature_pieces(kind, tol, x)
    total = 0.0
    for a, b, mode in pieces:
        spec = QuadratureSpec(abs_tol=0.05 * tol / len(pieces),
                              rel_tol=0.5 * tol, singularity=mode)
        total += integrate_1d(kind.pdf, a, b, spec).value
    return min(total, 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov tests
# ---------------------------------------------------------------------------

def ks_one_sample(sample: EmpiricalSample, kind, alpha: float = 0.001) -> GofReport:
    """Empirical sample against a univariate catalog density."""
    alpha = _check_alpha(alpha)
    kind = _resolve_kind(kind)
    n = sample.n
    if n < 100:
        raise ValueError(f"one-sample test needs n >= 100, got {n}")
    cdf = _grid(kind)(sample.values)
    steps = np.arange(1, n + 1, dtype=float) / n
    statistic = max(float(np.max(steps - cdf)),
                    float(np.max(cdf - steps + 1.0 / n)))
    threshold = ks_critical(alpha) / math.sqrt(n)
    label = f"{sample.label or 'sample'} vs {kind.tag}"
    return _report("ks-one-sample", statistic, threshold, n, label)


def ks_two_sample(first: EmpiricalSample, second: EmpiricalSample,
                  alpha: float = 0.001) -> GofReport:
    """Two empirical samples against each other."""
    alpha = _check_alpha(alpha)
    n, m = first.n, second.n
    if n < 100 or m < 100:
        raise ValueError(f"two-sample test needs both n >= 100, got {n} and {m}")
    support = np.concatenate([first.values, second.values])
    ecdf1 = np.searchsorted(first.values, support, side="right") / n
    ecdf2 = np.searchsorted(second.values, support, side="right") / m
    statistic = float(np.abs(ecdf1 - ecdf2).max())
    threshold = ks_critical(alpha) * math.sqrt((n + m) / (n * m))
    label = f"{first.label or 'first'} vs {second.label or 'second'}"
    return _report("ks-two-sample", statistic, threshold, n + m, label)


# ---------------------------------------------------------------------------
# chi-square test on a rectangular partition
# ---------------------------------------------------------------------------

def _cell_probabilities(pdf, xedges: np.ndarray, yedges: np.ndarray) -> np.ndarray:
    """Product-Gauss integral of ``pdf`` over every rectangle of the grid."""
    xmid = 0.5 * (xedges[1:] + xedges[:-1])
    xhalf = 0.5 * np.diff(xedges)
    ymid = 0.5 * (yedges[1:] + yedges[:-1])
    yhalf = 0.5 * np.diff(yedges)
    xn = xmid[:, None] + xhalf[:, None] * GL16_NODES[None, :]    # (nx, 16)
    yn = ymid[:, None] + yhalf[:, None] * GL16_NODES[None, :]    # (ny, 16)
    vals = pdf(xn[:, None, :, None], yn[None, :, None, :])       # (nx, ny, 16, 16)
    w = (GL16_WEIGHTS[:, None] * GL16_WEIGHTS[None, :]).ravel()
    cells = weighted_sums(vals.reshape(*vals.shape[:2], -1), w)
    return cells * (xhalf[:, None] * yhalf[None, :])


def chi_square_region(samples, pdf, bins, alpha: float = 0.001,
                      bounds=None, label: str = "") -> GofReport:
    """Pearson chi-square test of planar points against a bivariate density.

    ``samples`` is an (n, 2) array.  The plane is partitioned into
    ``bins x bins`` (or ``bins = (nx, ny)``) rectangles over ``bounds``
    (default: the sample bounding box); mass outside the rectangles joins
    the pooled cell.  Cells whose expected count falls below 5 are pooled;
    if even the pool stays below 5 it is merged into the smallest remaining
    cell.  Degrees of freedom: number of final cells minus one.
    """
    alpha = _check_alpha(alpha)
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"samples must be an (n, 2) array, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 100:
        raise ValueError(f"chi-square test needs n >= 100, got {n}")
    if isinstance(bins, int):
        nx = ny = bins
    else:
        nx, ny = (int(b) for b in bins)
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least a 2x2 partition, got {nx}x{ny}")
    if bounds is None:
        pad_x = 1e-9 * (np.ptp(pts[:, 0]) + 1.0)
        pad_y = 1e-9 * (np.ptp(pts[:, 1]) + 1.0)
        bounds = ((pts[:, 0].min() - pad_x, pts[:, 0].max() + pad_x),
                  (pts[:, 1].min() - pad_y, pts[:, 1].max() + pad_y))
    (xlo, xhi), (ylo, yhi) = bounds
    counts, xedges, yedges = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=(nx, ny), range=((xlo, xhi), (ylo, yhi)))

    probs = _cell_probabilities(pdf, xedges, yedges)
    observed = counts.ravel()
    expected = n * probs.ravel()
    # everything outside the rectangle: observed leftovers against the
    # density's leftover mass
    inside = ((pts[:, 0] >= xlo) & (pts[:, 0] <= xhi)
              & (pts[:, 1] >= ylo) & (pts[:, 1] <= yhi))
    observed = np.append(observed, n - int(inside.sum()))
    expected = np.append(expected, n * max(0.0, 1.0 - probs.sum()))

    keep = expected >= 5.0
    if not keep.any():
        raise ValueError("no cell reaches the minimum expected count of 5; "
                         "use fewer bins or more samples")
    obs = observed[keep]
    exp = expected[keep]
    pooled_obs = observed[~keep].sum()
    pooled_exp = expected[~keep].sum()
    if pooled_exp >= 5.0:
        obs = np.append(obs, pooled_obs)
        exp = np.append(exp, pooled_exp)
    elif pooled_exp > 0.0:
        smallest = int(np.argmin(exp))
        obs[smallest] += pooled_obs
        exp[smallest] += pooled_exp
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    threshold = chi_square_quantile(1.0 - alpha, dof)
    return _report("chi-square", statistic, threshold, n,
                   label or f"{nx}x{ny} partition, dof {dof}")


# ---------------------------------------------------------------------------
# the standard sampler-vs-catalog battery
# ---------------------------------------------------------------------------

# (catalog tag, sampler family, batch statistic) for every sampled
# univariate law but the uniform-angle ratio (the law of uT_side_a), max
# and min.
KS_MATRIX: tuple[tuple[str, str, str], ...] = tuple(
    (kind.tag, kind.family, kind.statistic) for kind in CATALOG.values()
    if kind.arity == 1 and kind.tag not in ("uT_ratio", "uT_max", "uT_min"))


def ks_battery(n: int, seed: int, tags,
               alpha: float = 0.001) -> tuple[dict[str, SampleBatch], list[GofReport]]:
    """One-sample KS test of each tagged kind against its sampler statistic.

    One batch of n rows is drawn per family (family i of FAMILIES from
    substream i of ``seed``) and reused across that family's statistics;
    the batches are returned with the reports, for further tests on the
    same draws.
    """
    batches = {family: sample_batch(family, n, RandomStream(seed, stream))
               for stream, family in enumerate(FAMILIES)}
    reports = []
    for tag in tags:
        kind = CATALOG[tag]
        sample = EmpiricalSample.from_values(batches[kind.family].statistic(kind.statistic),
                                             label=f"{kind.family}:{kind.statistic}")
        reports.append(ks_one_sample(sample, tag, alpha))
    return batches, reports


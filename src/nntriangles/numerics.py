"""Adaptive Gauss-Kronrod quadrature plus the few special values the
density catalog needs.

Self-contained on purpose: numpy and the standard library only.  Integrands
must be vectorized -- they receive a 1-D ndarray of abscissae and return an
array of the same shape.

One adaptive engine serves every integral.  :func:`integrate_batch` advances
many independent integrals together, calling its integrand f(x, owner) once
per refinement sweep with the abscissae of every unfinished integral and the
index of the integral each belongs to; each integral still follows the
single-integral refinement rules on its own panels, as if it ran alone.
:func:`integrate_1d` is the one-integral case, and :func:`integrate_2d` runs
the inner integrals of each outer sweep as one batch, so its f(x, y) must
broadcast in both arguments.

The panel rule is the classic 15-point Kronrod extension of 7-point Gauss,
with the QUADPACK-style error estimate.  Inverse-square-root endpoint
singularities are removed exactly by the substitution x = a + (b-a) sin^2(t),
which turns 1/sqrt(x-a) and 1/sqrt(b-x) factors into smooth ones.

Every fixed-node rule in the package -- the G7-K15 panels, the chi-square
cells and the rule of ``density.pdf_pair_ac`` -- reduces its node values
with :func:`weighted_sums`, and the adaptive engine totals its panels per
integral; both sum each row on its own in the pairwise order of
``ndarray.sum`` (:func:`_pairwise_sums`, no BLAS call).
So a row's result does not depend on how many other rows share its call:
batching, slicing and chunking leave every number bit for bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CATALAN",
    "GL16_NODES",
    "GL16_WEIGHTS",
    "BatchResult",
    "IntegralResult",
    "IntegrandError",
    "MonotoneCubic",
    "QuadratureSpec",
    "bessel_i0",
    "erfc",
    "fixed_panel_integrals",
    "gaussian_tail_cutoff",
    "integrate_1d",
    "integrate_2d",
    "integrate_batch",
    "weighted_sums",
]

# Catalan's constant, sum_k (-1)^k / (2k+1)^2.
CATALAN = 0.9159655941772190151

# 15-point Kronrod abscissae on [-1, 1]; odd indices are the embedded
# 7-point Gauss nodes.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_EPS = np.finfo(float).eps

# Equal panels an adaptive integral starts from.
_INITIAL_PANELS = 4

# The 16-point Gauss-Legendre rule on [-1, 1]: the one rule behind every
# fixed-node integral in the package (the chi-square cells and the rule of
# density.pdf_pair_ac).
GL16_NODES, GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


class IntegrandError(ValueError):
    """Raised when an integrand produces NaN at an evaluation point."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and transforms for one integral.

    singular_ends: apply the sin^2 endpoint substitution at both ends
    (harmless where the integrand is regular, exact removal where it has an
    inverse-square-root factor); it needs a finite interval.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    singular_ends: bool = False


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    subdivisions: int
    converged: bool
    neval: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Per-integral arrays of one :func:`integrate_batch` call; entry k holds
    what an :class:`IntegralResult` holds for the k-th integral."""

    value: np.ndarray
    error: np.ndarray
    subdivisions: np.ndarray
    converged: np.ndarray
    neval: np.ndarray

    def __getitem__(self, k: int) -> IntegralResult:
        return IntegralResult(float(self.value[k]), float(self.error[k]),
                              int(self.subdivisions[k]), bool(self.converged[k]),
                              int(self.neval[k]))


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Apply the G7-K15 pair to each [lo_i, hi_i]; return values and errors."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if np.isnan(fx).any():
        i, j = np.argwhere(np.isnan(fx))[0]
        raise IntegrandError(f"integrand returned NaN at x={x[i, j]!r}")
    resk = weighted_sums(fx, _WGK)
    resg = weighted_sums(fx[:, 1::2], _WG7)
    value = resk * half
    resabs = weighted_sums(np.abs(fx), _WGK) * half
    resasc = weighted_sums(np.abs(fx - 0.5 * resk[:, None]), _WGK) * half
    err = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    err = np.maximum(np.where(np.isfinite(scaled), scaled, err), 50.0 * _EPS * resabs)
    return value, err


def _pairwise_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis in the pairwise order of ``ndarray.sum``.

    Each row comes out bit for bit as ``row.sum()`` would, by elementwise
    adds across rows, so no row's sum depends on the others.  This is the
    one reduction behind every panel value (:func:`weighted_sums`) and every
    integral's total, which is what makes batching transparent: a batch of
    one reproduces a lone integral exactly, and so does a batch of many.
    """
    n = x.shape[-1]
    if n < 8:
        out = np.zeros(x.shape[:-1])
        for i in range(n):
            out = out + x[..., i]
        return out
    if n <= 128:
        m = n - n % 8
        r = x[..., :m].reshape(*x.shape[:-1], m // 8, 8).sum(axis=-2)
        out = (((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3]))
               + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7])))
        for i in range(m, n):
            out = out + x[..., i]
        return out
    half = n // 2 - (n // 2) % 8
    return _pairwise_sums(x[..., :half]) + _pairwise_sums(x[..., half:])


def weighted_sums(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j values[..., j] * weights[j], each row reduced on its own.

    The products are summed in the pairwise order of ``ndarray.sum`` by
    elementwise adds across rows (:func:`_pairwise_sums`), never by BLAS,
    whose kernels round the last rows of a call differently; so a row's
    sum does not depend on how many rows share the call, nor on their
    memory layout.
    """
    return _pairwise_sums(values * weights)


def _segment_sums(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """x[..., s:s+n] summed for every segment (s, n), grouped by length."""
    out = np.empty(x.shape[:-1] + starts.shape)
    for n in np.flatnonzero(np.bincount(sizes)):
        pick = sizes == n
        out[..., pick] = _pairwise_sums(x[..., starts[pick, None] + np.arange(n)])
    return out


def _adaptive(f: Callable, a: np.ndarray, b: np.ndarray, spec: QuadratureSpec) -> BatchResult:
    """Advance the integrals of f over (a[k], b[k]) together.

    Every sweep evaluates the new panels of every unfinished integral with
    one call f(x, owner), owner[i] being the k that x[i] belongs to.  Each
    integral follows the single-integral rules on its own panels: it stops
    once its summed error meets max(abs_tol, rel_tol * |value|) or is not
    finite, or when its subdivision budget is spent; otherwise each of its n
    panels with error above tol / (2 n) is bisected -- at least the worst
    one, and no more than the budget allows, worst first.  Panels stay
    grouped by owner in the order a lone integral keeps them.
    """
    count = len(a)
    edges = np.linspace(a, b, _INITIAL_PANELS + 1, axis=1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.repeat(np.arange(count), _INITIAL_PANELS)
    value, err = _eval_panels(lambda x: f(x, np.repeat(owner, 15)), lo, hi)
    total = np.zeros(count)
    total_err = np.zeros(count)
    converged = np.zeros(count, dtype=bool)
    nsub = np.zeros(count, dtype=int)
    neval = np.full(count, 15 * _INITIAL_PANELS)
    while True:
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        sizes = np.diff(starts, append=owner.size)
        ids = owner[starts]
        sums, errs = _segment_sums(np.stack([value, err]), starts, sizes)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(sums))
        met = errs <= tol
        budget = spec.max_subdivisions - nsub[ids]
        done = met | ~np.isfinite(errs) | (budget <= 0)
        total[ids[done]] = sums[done]
        total_err[ids[done]] = errs[done]
        converged[ids[done]] = met[done]
        if done.all():
            break
        # Split every panel carrying more than its fair share of the error;
        # the per-integral fallbacks below are rare and run one by one.
        live = np.repeat(~done, sizes)
        split = live & (err > np.repeat(tol / (2.0 * sizes), sizes))
        picked = np.add.reduceat(split, starts)
        special = np.flatnonzero(~done & ((picked == 0) | (picked > budget)))
        regular = ~done
        regular[special] = False
        chosen = [np.flatnonzero(split & np.repeat(regular, sizes))]
        for i in special:
            s = starts[i]
            seg = err[s:s + sizes[i]]
            idx = np.flatnonzero(split[s:s + sizes[i]])
            if len(idx) == 0:
                idx = np.array([int(np.argmax(seg))])
            if len(idx) > budget[i]:
                idx = idx[np.argsort(seg[idx])[::-1][:budget[i]]]
            chosen.append(s + idx)
        sel = np.concatenate(chosen)
        mid = 0.5 * (lo[sel] + hi[sel])
        new_lo = np.concatenate([lo[sel], mid])
        new_hi = np.concatenate([mid, hi[sel]])
        new_owner = np.concatenate([owner[sel], owner[sel]])
        new_val, new_err = _eval_panels(lambda x: f(x, np.repeat(new_owner, 15)), new_lo, new_hi)
        split_count = np.bincount(owner[sel], minlength=count)
        nsub += split_count
        neval += 30 * split_count
        # Kept panels, then the new halves, regrouped by owner (stably, so
        # each integral's panels keep the order a lone run gives them).
        keep = live
        keep[sel] = False
        owner = np.concatenate([owner[keep], new_owner])
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        lo = np.concatenate([lo[keep], new_lo])[order]
        hi = np.concatenate([hi[keep], new_hi])[order]
        value = np.concatenate([value[keep], new_val])[order]
        err = np.concatenate([err[keep], new_err])[order]
    return BatchResult(total, total_err, nsub, converged, neval)


def gaussian_tail_cutoff(scale: float, degree: int = 0, tail_fraction: float = 1e-16) -> float:
    """Truncation point T so that int_T^inf x^k exp(-s x^2) dx is below
    tail_fraction times the whole integral on (0, inf)."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive: {scale}")
    k = int(degree)
    s = float(scale)
    whole = 0.5 * math.gamma((k + 1) / 2.0) / s ** ((k + 1) / 2.0)
    t = math.sqrt(max(k + 1.0, 2.0) / s)
    while True:
        denom = 2.0 * s * t * t
        if denom > k + 1.0:
            bound = t ** (k - 1) * math.exp(-s * t * t) / (2.0 * s) / (1.0 - (k - 1) / denom)
            if bound <= tail_fraction * whole:
                return t
        t *= 1.05


def _sin2_map(g: Callable, lo: np.ndarray, hi: np.ndarray) -> Callable:
    """g(x, k) on (lo[k], hi[k]) as a function of t in (0, pi/2) under
    x = lo + (hi - lo) sin^2 t, Jacobian included."""
    w = hi - lo

    def mapped(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        st = np.sin(t)
        return g(lo[k] + w[k] * st * st, k) * w[k] * np.sin(2.0 * t)

    return mapped


def integrate_batch(f: Callable, a, b, spec: QuadratureSpec | None = None) -> BatchResult:
    """Integrate f over (a[k], b[k]) for every k at once, b possibly infinite.

    f(x, owner) receives the abscissae of every unfinished integral in one
    1-D array, owner[i] being the k that x[i] belongs to, and returns an
    array shaped like x.  Each integral is refined exactly as
    :func:`integrate_1d` refines it alone, and its value, error and counts
    come out bit for bit as in a lone run, because panels are reduced per
    row (:func:`weighted_sums`) and totalled per integral
    (:func:`_pairwise_sums`).  An empty interval (b[k] <= a[k]) gives a
    converged zero without evaluating f.  Infinite upper limits must be
    shared by the whole batch; x = a + t/(1 - t) maps them to t = 1.
    """
    spec = spec or QuadratureSpec()
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    count = len(a)
    run = np.flatnonzero(~(b <= a))
    out = BatchResult(np.zeros(count), np.zeros(count), np.zeros(count, dtype=int),
                      np.ones(count, dtype=bool), np.zeros(count, dtype=int))
    if run.size == 0:
        return out
    lo, hi = a[run], b[run]

    def g(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        return f(x, run[k])

    infinite = np.isinf(hi)
    if infinite.any():
        if not infinite.all():
            raise ValueError("a batch cannot mix finite and infinite upper limits")
        if spec.singular_ends:
            raise ValueError("the endpoint singularity flag requires a finite interval")

        def mapped(t: np.ndarray, k: np.ndarray) -> np.ndarray:
            u = 1.0 - t
            return g(lo[k] + t / u, k) / (u * u)

        r = _adaptive(mapped, np.zeros(run.size), np.ones(run.size), spec)
    elif spec.singular_ends:
        r = _adaptive(_sin2_map(g, lo, hi), np.zeros(run.size),
                      np.full(run.size, 0.5 * math.pi), spec)
    else:
        r = _adaptive(g, lo, hi, spec)
    for name in ("value", "error", "subdivisions", "converged", "neval"):
        getattr(out, name)[run] = getattr(r, name)
    return out


def integrate_1d(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integrate a vectorized integrand over (a, b), b possibly infinite.

    Returns the estimate together with an error bound, the number of panel
    subdivisions spent, and whether the requested tolerance was met.  The
    integrand is never evaluated exactly at the endpoints.
    """
    return integrate_batch(lambda x, owner: f(x), a, b, spec)[0]


def integrate_2d(
    f: Callable,
    x_lo: float,
    x_hi: float,
    y_bounds: Callable[[float], tuple[float, float]],
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Iterated integral of f(x, y) over x in (x_lo, x_hi), y in y_bounds(x).

    y_bounds takes one float x and returns (lo, hi).  f must broadcast in
    both arguments: each outer sweep runs the inner integrals of all its
    outer abscissae as one batch, calling f with two equal-length arrays
    that pair every inner abscissa y with the x of its integral.  The inner
    integrals run at a tighter tolerance than the outer one; the reported
    error adds a conservative allowance for them, and ``neval`` and
    ``subdivisions`` count the inner work as well as the outer.
    """
    spec = spec or QuadratureSpec()
    inner_spec = QuadratureSpec(abs_tol=0.05 * spec.abs_tol,
                                rel_tol=min(spec.rel_tol, 1e-9),
                                max_subdivisions=spec.max_subdivisions)
    inner_err, inner_ok, inner_neval, inner_subdivisions = 0.0, True, 0, 0

    def outer_integrand(xs: np.ndarray, _owner: np.ndarray) -> np.ndarray:
        nonlocal inner_err, inner_ok, inner_neval, inner_subdivisions
        bounds = np.array([y_bounds(float(x)) for x in xs], dtype=float)
        r = integrate_batch(lambda y, k: f(xs[k], y), bounds[:, 0], bounds[:, 1], inner_spec)
        inner_err = max(inner_err, float(r.error.max()))
        inner_ok = inner_ok and bool(r.converged.all())
        inner_neval += int(r.neval.sum())
        inner_subdivisions += int(r.subdivisions.sum())
        return r.value

    outer = integrate_batch(outer_integrand, x_lo, x_hi, spec)[0]
    return IntegralResult(
        outer.value,
        outer.error + inner_err * (x_hi - x_lo),
        outer.subdivisions + inner_subdivisions,
        outer.converged and inner_ok,
        outer.neval + inner_neval,
    )


def fixed_panel_integrals(f: Callable, edges: np.ndarray, singular_edges: tuple[float, ...] = ()) -> np.ndarray:
    """One G7-K15 panel per consecutive edge pair, no adaptivity.

    Used to accumulate distribution functions on a fixed grid.  Panels that
    touch a listed singular edge are evaluated through the sin^2
    substitution so integrable endpoint blow-ups do not spoil the sum.
    Each panel's value depends on its own edges only.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    out = np.empty(len(lo))
    regular = np.ones(len(lo), dtype=bool)
    for s in singular_edges:
        regular &= ~np.isclose(lo, s) & ~np.isclose(hi, s)
    if regular.any():
        out[regular], _ = _eval_panels(f, lo[regular], hi[regular])
    singular = ~regular
    if singular.any():
        count = int(singular.sum())
        mapped = _sin2_map(lambda x, k: f(x), lo[singular], hi[singular])
        owner = np.repeat(np.arange(count), 15)
        out[singular], _ = _eval_panels(lambda t: mapped(t, owner), np.zeros(count),
                                        np.full(count, 0.5 * math.pi))
    return out


_ERFC_UFUNC = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function; scalar in, scalar out, array in, array out."""
    if np.ndim(x) == 0:
        return math.erfc(float(x))
    return _ERFC_UFUNC(np.asarray(x, dtype=float)).astype(float)


def bessel_i0(x: float) -> float:
    """Modified Bessel function I_0 on [0, 50], by its power series (all
    terms positive, no cancellation), accurate to ~1e-15 relative."""
    x = float(x)
    if not 0.0 <= x <= 50.0:
        raise ValueError(f"bessel_i0 requires 0 <= x <= 50: {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 1
    while term > 1e-18 * total:
        term *= q / (k * k)
        total += term
        k += 1
    return total


class MonotoneCubic:
    """Shape-preserving piecewise-cubic interpolant (Fritsch-Carlson).

    Given nodes with nondecreasing values, the interpolant is nondecreasing
    everywhere, which makes it safe for distribution functions; accuracy is
    O(h^3) on smooth data.  Queries outside the node range clamp to the
    boundary values.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or ys.shape != xs.shape:
            raise ValueError("need two equal-length 1-D arrays of nodes")
        if not (np.diff(xs) > 0.0).all():
            raise ValueError("nodes must be strictly increasing")
        h = np.diff(xs)
        delta = np.diff(ys) / h
        d = np.zeros_like(xs)
        # interior slopes: parabolic (three-point) estimates, clamped into
        # the monotonicity region [0, 3 min |delta|] and zeroed at local
        # extrema, so monotone data yields a monotone interpolant
        mono = delta[:-1] * delta[1:] > 0.0
        parabola = (h[1:] * delta[:-1] + h[:-1] * delta[1:]) / (h[1:] + h[:-1])
        sign = np.sign(delta[1:])
        cap = 3.0 * np.minimum(np.abs(delta[:-1]), np.abs(delta[1:]))
        d[1:-1] = np.where(mono, sign * np.clip(sign * parabola, 0.0, cap), 0.0)
        for end, (h0, h1, d0, d1) in ((0, (h[0], h[1] if h.size > 1 else h[0],
                                            delta[0], delta[1] if h.size > 1 else delta[0])),
                                      (-1, (h[-1], h[-2] if h.size > 1 else h[-1],
                                            delta[-1], delta[-2] if h.size > 1 else delta[-1]))):
            slope = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
            if slope * d0 <= 0.0:
                slope = 0.0
            elif d0 * d1 < 0.0 and abs(slope) > 3.0 * abs(d0):
                slope = 3.0 * d0
            d[end] = slope
        self.xs = xs
        self.ys = ys
        self._h = h
        self._d = d

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        i = np.clip(np.searchsorted(self.xs, xv, side="right") - 1,
                    0, self.xs.size - 2)
        t = np.clip((xv - self.xs[i]) / self._h[i], 0.0, 1.0)
        t2 = t * t
        t3 = t2 * t
        out = (self.ys[i] * (2.0 * t3 - 3.0 * t2 + 1.0)
               + self._h[i] * self._d[i] * (t3 - 2.0 * t2 + t)
               + self.ys[i + 1] * (-2.0 * t3 + 3.0 * t2)
               + self._h[i] * self._d[i + 1] * (t3 - t2))
        return float(out[0]) if scalar else out

"""Deterministic verification suite: every headline number recomputed.

:func:`run_suite` executes, for a fixed seed and worker count, the full
battery behind the ``verify`` command as an ordered tuple of check groups,
``_GROUPS``: geometry, special functions, normalizations, the moment table
and reference decimals by quadrature with E(ac), divergence flags,
acuteness, Monte Carlo, marginal consistency, distributions (the KS matrix
with negative controls, the point-process oracle, chi-square region tests)
and determinism.  Each group is a function of one shared :class:`_Suite`
record that returns its rows, one :class:`CheckResult` per check.

The suite is pure given (seed, sizes): reports from two identical
invocations compare equal, for any worker count.  The Monte Carlo group
draws only from its own streams, so with more than one worker it draws in
one worker process (on ``workers`` threads) while the calling process runs
every other group.  Its estimates are collected after every other group;
its rows keep their place in the report.
"""

from __future__ import annotations

import contextlib
import io
import math
# ThreadPoolExecutor stays bound here for the benchmark's tracer (perfbench/tracing.py).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import moments
from .density import (
    CATALOG,
    pdf_pair_ac,
    pdf_pinned_a,
    pdf_pinned_alpha,
    pdf_pinned_angles_joint,
    pdf_pinned_b,
    pdf_pinned_beta,
    pdf_pinned_c,
    pdf_pinned_gamma,
    pdf_pinned_sides_joint,
    pdf_staked_angles_joint,
    pdf_anchored_angles_joint,
    pdf_uT_side_a,
    pdf_uT_sides_joint,
)
from .geom import angles_from_sides, heron_product
from .gof import (
    KS_MATRIX,
    EmpiricalSample,
    chi_square_region,
    ks_battery,
    ks_one_sample,
    ks_two_sample,
    quadrature_pieces,
)
from .numerics import (
    CATALAN,
    BatchResult,
    IntegralResult,
    QuadratureSpec,
    bessel_i0,
    erfc,
    gaussian_tail_cutoff,
    integrate_1d,
    integrate_2d,
    integrate_batch,
)
from .sampler import RandomStream, sample_batch, sample_pinned_oracle_batch

__all__ = ["CheckResult", "run_suite", "suite_passed"]

_PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: |actual - expected| <= tolerance, or a labeled
    pass/fail comparison when ``expected`` is a marker string."""

    check: str
    family: str
    expected: float | str
    actual: float
    tolerance: float
    passed: bool


def _near(check: str, family: str, expected: float, actual: float,
          tolerance: float) -> CheckResult:
    return CheckResult(check, family, float(expected), float(actual),
                       float(tolerance),
                       bool(abs(actual - expected) <= tolerance))


def _near_quadrature(check: str, family: str, expected: float,
                     result: IntegralResult | moments.ExpectedAc,
                     tolerance: float) -> CheckResult:
    """``_near`` on a quadrature value; one that did not converge fails."""
    row = _near(check, family, expected, result.value, tolerance)
    return replace(row, passed=row.passed and bool(result.converged))


def _flag(check: str, family: str, ok: bool) -> CheckResult:
    return CheckResult(check, family, 1.0, float(bool(ok)), 0.0, bool(ok))


def _gof(check: str, family: str, report, reject: bool = False) -> CheckResult:
    """A goodness-of-fit test as a check: it passes when the test accepts,
    or, for a negative control (``reject``), when it rejects."""
    return CheckResult(check, family, "reject" if reject else 0.0, report.statistic,
                       report.threshold, report.verdict != reject)


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


# ---------------------------------------------------------------------------
# quadrature helpers for the normalization and marginal-consistency groups
# ---------------------------------------------------------------------------

def _univariate_mass(kind, tol: float) -> IntegralResult:
    """Total mass of a univariate catalog density, split at its corners."""
    return moments._combine([
        integrate_1d(kind.pdf, a, b, QuadratureSpec(abs_tol=0.05 * tol, rel_tol=0.1 * tol,
                                                    singularity=mode))
        for a, b, mode in quadrature_pieces(kind, tol)])


def _deviation(r: BatchResult, reference, inner=()) -> IntegralResult:
    """The largest |r.value - reference| of a batch, as one result that
    converged only if every integral of the batch, and of ``inner``, did."""
    converged = all(bool(x.converged.all()) for x in (r, *inner))
    return IntegralResult(float(np.abs(r.value - reference).max()), float(r.error.max()),
                          int(r.subdivisions.sum()), converged, int(r.neval.sum()))


def _pair_ac_mass(tol: float) -> IntegralResult:
    """Normalization of the (a, c) joint: outer a, inner c split at the
    lower-limit switch c = a/2."""
    a_hi = gaussian_tail_cutoff(0.25 * _PI, 1, 0.01 * tol)
    c_hi = gaussian_tail_cutoff(_PI, 1, 0.01 * tol)
    spec = QuadratureSpec(abs_tol=0.2 * tol, rel_tol=0.2 * tol)
    below = integrate_2d(pdf_pair_ac, 0.0, a_hi, lambda a: (0.0, 0.5 * a), spec)
    above = integrate_2d(pdf_pair_ac, 0.0, a_hi, lambda a: (0.5 * a, c_hi), spec)
    return moments._combine([below, above])


def _pair_ac_pointwise_deviation() -> IntegralResult:
    """The (a, c) joint against the trivariate density integrated over b by
    the adaptive engine (through its sin^2 map), at scattered interior points."""
    a = np.repeat([0.3, 0.7, 1.1, 1.7, 2.3], 6)
    c = np.tile([0.05, 0.3, 0.5, 0.8, 1.2, 2.0], 5) * a
    r = integrate_batch(lambda b, k: pdf_pinned_sides_joint(a[k], b, c[k]),
                        np.maximum(c, a - c), a + c,
                        QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, singularity="both"))
    return _deviation(r, pdf_pair_ac(a, c))


def _marginal_a_deviation() -> IntegralResult:
    """Trivariate -> a: the (a, c) reduction integrated over c, split at its
    square-root kink c = a/2, against the closed-form a density."""
    points = np.linspace(0.12, 2.4, 20)
    a, split = np.tile(points, 2), 0.5 * points
    c_hi = gaussian_tail_cutoff(_PI, 2, 1e-11)
    r = integrate_batch(lambda cs, k: pdf_pair_ac(a[k], cs),
                        np.concatenate([np.zeros_like(points), split]),
                        np.concatenate([split, np.full_like(points, c_hi)]),
                        QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))
    below, above = np.split(r.value, 2)
    return _deviation(replace(r, value=below + above), pdf_pinned_a(points))


def _sides_joint_over_a(b: np.ndarray, c: np.ndarray, inner: list) -> np.ndarray:
    """The trivariate density integrated over a (collinearity-singular at
    both ends) at each (b, c); the batch's result is appended to ``inner``."""
    inner.append(integrate_batch(lambda a, k: pdf_pinned_sides_joint(a, b[k], c[k]),
                                 np.abs(b - c), b + c,
                                 QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9,
                                                singularity="both")))
    return inner[-1].value


def _marginal_b_deviation() -> IntegralResult:
    """Trivariate -> b: inner a, then c over (0, b)."""
    points = np.linspace(0.15, 1.9, 20)
    inner = []
    r = integrate_batch(lambda cs, k: _sides_joint_over_a(points[k], cs, inner),
                        np.zeros_like(points), points,
                        QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
    return _deviation(r, pdf_pinned_b(points), inner)


def _marginal_c_deviation() -> IntegralResult:
    """Trivariate -> c: inner a, then b over (c, infinity-proxy)."""
    points = np.linspace(0.08, 1.4, 20)
    b_hi = gaussian_tail_cutoff(_PI, 3, 1e-12)
    inner = []
    r = integrate_batch(lambda bs, k: _sides_joint_over_a(bs, points[k], inner),
                        points, np.full_like(points, b_hi),
                        QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
    return _deviation(r, pdf_pinned_c(points), inner)


def _angle_joint_deviations() -> tuple[IntegralResult, IntegralResult, IntegralResult]:
    """Numeric marginals of the angle joints vs the uniform alpha law and
    the closed-form beta density, one batch of 20 points each."""
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    points = np.linspace(0.15, _PI - 0.15, 20)
    alpha = integrate_batch(lambda be, k: pdf_pinned_angles_joint(points[k], be),
                            0.5 * (_PI - points), _PI - points, spec)
    beta = integrate_batch(lambda al, k: pdf_pinned_angles_joint(al, points[k]),
                           np.maximum(0.0, _PI - 2.0 * points), _PI - points, spec)
    staked = integrate_batch(lambda be, k: pdf_staked_angles_joint(points[k], be),
                             np.zeros_like(points), _PI - points, spec)
    return (_deviation(alpha, 1.0 / _PI), _deviation(beta, pdf_pinned_beta(points)),
            _deviation(staked, 1.0 / _PI))


def _uT_ratio_identity_deviation() -> IntegralResult:
    """The two-sides joint reduced along rays a = z b, against the closed
    single-side density, pointwise."""
    zs = np.concatenate([np.linspace(0.08, 0.92, 8),
                         np.linspace(1.1, 2.6, 8),
                         [4.0, 6.0, 9.0, 14.0]])
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)
    r = integrate_batch(lambda b, k: b * pdf_uT_sides_joint(zs[k] * b, b),
                        1.0 / (1.0 + zs), 1.0 / np.abs(1.0 - zs), spec)
    return _deviation(r, pdf_uT_side_a(zs))


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def run_suite(seed: int = 2, workers: int = 1, mc_samples: int = 1_000_000,
              big_mc_samples: int = 10_000_000, ks_samples: int = 100_000,
              alpha: float = 0.001, inject_failure: str | None = None) -> list[CheckResult]:
    """Run every check; see the module docstring for the groups.

    The Monte Carlo estimates are collected after every other group: with
    ``workers > 1`` from one worker process started before the first group,
    else drawn here.  The report is the same for every worker count.
    """
    if mc_samples < 1000 or big_mc_samples < 1000 or ks_samples < 1000:
        raise ValueError("sample sizes must be at least 1000")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    draws = (seed, workers, mc_samples, big_mc_samples)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here, so that importing the package does not pay for
            # the process machinery; leaving the block joins the worker
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=1))
            estimates = pool.submit(_monte_carlo_estimates, *draws).result
        else:
            estimates = lambda: _monte_carlo_estimates(*draws)
        suite = _Suite(seed, ks_samples, alpha, estimates)
        by_group = {group: group(suite) for group in _GROUPS if group is not _monte_carlo_rows}
        by_group[_monte_carlo_rows] = _monte_carlo_rows(suite)
    rows = [row for group in _GROUPS for row in by_group[group]]
    if inject_failure is not None:
        rows = _inject(rows, inject_failure)
    return rows


@dataclass
class _Suite:
    """What the groups share: the settings, a call that returns (or waits
    for) the Monte Carlo estimates, and the moment-table group's quadrature."""

    seed: int
    ks_samples: int
    alpha: float
    estimates: Callable[[], dict[str, moments.MonteCarloEstimate]]
    quadrature: dict[moments.MomentTarget, IntegralResult] = field(default_factory=dict)
    expected_ac: moments.ExpectedAc | None = None


def _geometry_rows(suite: _Suite) -> list[CheckResult]:
    """Triangle geometry on hand-checkable triangles."""
    right = angles_from_sides(np.array([[5.0, 4.0, 3.0]]))
    # unit base, base angles 0.7 and 1.1, other sides by the law of sines
    s = math.sin(0.7 + 1.1)
    back = angles_from_sides(np.array([[math.sin(0.7) / s, math.sin(1.1) / s, 1.0]]))
    return [_near("geometry:right-angle-3-4-5", "pinned", 0.5 * _PI, right[0, 0], 1e-12),
            _near("geometry:area-3-4-5", "pinned", 6.0,
                  math.sqrt(heron_product(5.0, 4.0, 3.0)) / 4.0, 1e-12),
            _near("geometry:angle-side-round-trip", "pinned", 0.7, back[0, 0], 1e-12)]


def _special_rows(suite: _Suite) -> list[CheckResult]:
    """Special functions against independent integral forms."""
    spec10 = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    i0_quad = integrate_1d(lambda t: np.exp(0.5 * _PI * np.cos(t)) / _PI,
                           0.0, _PI, spec10)
    erfc_quad = integrate_1d(lambda t: (2.0 / math.sqrt(_PI)) * np.exp(-t * t),
                             1.0, 10.0, spec10)
    catalan_quad = integrate_1d(lambda t: -np.log(np.maximum(t, 1e-300)) / (1.0 + t * t),
                                0.0, 1.0, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11,
                                                         singularity="left"))
    return [_near_quadrature("special:bessel-i0-integral-form", "-",
                             bessel_i0(0.5 * _PI), i0_quad, 1e-12),
            _near_quadrature("special:erfc-integral-form", "-", erfc(1.0), erfc_quad, 1e-13),
            _near_quadrature("special:catalan-integral-form", "-", CATALAN,
                             catalan_quad, 1e-10)]


def _normalization_rows(suite: _Suite) -> list[CheckResult]:
    """Every catalog density has mass 1; the (a, c) joint is the trivariate one over b."""
    rows = []
    for tag, kind in sorted(CATALOG.items()):
        if kind.arity == 1:
            tol = 1e-6 if kind.singular_points else 1e-8
            mass = _univariate_mass(kind, 0.1 * tol)
            rows.append(_near_quadrature(f"normalization:{tag}", kind.family, 1.0, mass, tol))

    def mass_2d(tag: str, pdf, hi: float, inner) -> CheckResult:
        mass = integrate_2d(pdf, 0.0, hi, inner, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
        return _near_quadrature(f"normalization:{tag}", CATALOG[tag].family, 1.0, mass, 1e-8)

    b_hi = gaussian_tail_cutoff(_PI, 5, 1e-11)
    rows.append(mass_2d("pair_ab", lambda b, a: CATALOG["pair_ab"].pdf(a, b), b_hi,
                        lambda b: (0.0, 2.0 * b)))
    rows.append(mass_2d("pair_bc", lambda b, c: CATALOG["pair_bc"].pdf(b, c), b_hi,
                        lambda b: (0.0, b)))
    rows.append(_near_quadrature("normalization:pair_ac_integral", "pinned", 1.0,
                                 _pair_ac_mass(1e-7), 1e-6))
    rows.append(_near_quadrature("consistency:pair_ac_integral-vs-fixed-rule", "pinned",
                                 0.0, _pair_ac_pointwise_deviation(), 1e-8))
    rows.append(mass_2d("pinned_angles_joint", pdf_pinned_angles_joint, _PI,
                        lambda a: (0.5 * (_PI - a), _PI - a)))
    for tag, joint in (("staked_angles_joint", pdf_staked_angles_joint),
                       ("anchored_angles_joint", pdf_anchored_angles_joint)):
        rows.append(mass_2d(tag, joint, _PI, lambda a: (0.0, _PI - a)))
    (tri_mass,) = moments._pinned_triple(lambda a, b, c: np.ones_like(a), 0,
                                         tol=3e-7, pieces=("full",))
    rows.append(_near_quadrature("normalization:pinned_sides_joint", "pinned", 1.0,
                                 tri_mass, 1e-6))
    return rows


def _moment_table_rows(suite: _Suite) -> list[CheckResult]:
    """Closed-form cells and Table 2/3 reference decimals by quadrature, kept
    in ``suite`` for the Monte Carlo group, then E(ac)'s published digits."""
    table, reference = [], []
    for target in moments.targets():
        closed, ref = moments.closed_form(target), moments.reference_value(target)
        name = f"{target.family}:{target.quantity}:{target.statistic}"
        if closed not in (None, math.inf):
            q = suite.quadrature[target] = moments.by_quadrature(target, tol=1e-8)
            table.append(_near_quadrature(f"table:{name}:quadrature", target.family,
                                          closed, q, 1e-6))
        elif closed is None and ref is not None:
            q = suite.quadrature[target] = moments.by_quadrature(target, tol=1e-8)
            reference.append(_near_quadrature(f"reference:{name}", target.family, ref, q, 1e-6))
    suite.expected_ac = moments.expected_ac(tol=1e-7)
    return [*table, *reference,
            _near_quadrature("expected-ac:quadrature-vs-published-digits", "pinned",
                             0.49181215, suite.expected_ac, 1e-7)]


def _divergence_rows(suite: _Suite) -> list[CheckResult]:
    """Divergent mean squares flagged by every route; truncated, they grow like log."""
    rows = []
    for quantity in ("b/a", "b/c", "c/a", "a/c"):
        target = moments.MomentTarget("pinned", quantity, "mean-square")
        closed_inf = math.isinf(moments.closed_form(target))
        try:
            moments.by_quadrature(target, tol=1e-8)
            quad_raises = False
        except moments.DivergenceError:
            quad_raises = True
        mc = moments.by_monte_carlo(target, 1000, RandomStream(suite.seed, 2000))
        rows.append(_flag(f"divergence-flag:{quantity}:mean-square", "pinned",
                          closed_inf and quad_raises and mc.divergent))
    target_bc = moments.MomentTarget("pinned", "b/c", "mean-square")
    for cutoff in (10.0, 100.0, 1000.0):
        truncated = moments.truncated_mean_square(target_bc, cutoff)
        rows.append(_near_quadrature(f"truncated-mean-square:b/c:M={int(cutoff)}", "pinned",
                                     2.0 * math.log(cutoff), truncated, 1e-10))
    return rows


def _acuteness_rows(suite: _Suite) -> list[CheckResult]:
    """Pinned obtuseness by obtuse angle; staked and anchored closed forms by quadrature."""
    rows = []
    spec8 = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    for name, angle_pdf, part, tol in zip(
            ("alpha-obtuse-half", "beta-obtuse-quarter", "gamma-never-obtuse"),
            (pdf_pinned_alpha, pdf_pinned_beta, pdf_pinned_gamma),
            moments.PINNED_OBTUSE_PARTS, (1e-8, 1e-8, 1e-12)):
        p_obtuse = integrate_1d(angle_pdf, 0.5 * _PI, _PI, spec8)
        rows.append(_near_quadrature(f"acuteness:pinned-{name}", "pinned", part, p_obtuse, tol))
    closed = moments.ACUTENESS_CLOSED
    for family in ("staked", "anchored"):
        rows.append(_near_quadrature(f"acuteness:{family}-closed-vs-quadrature", family,
                                     closed[family], moments.acuteness(family, tol=1e-9), 1e-8))
    rows.append(_flag("acuteness:anchored-exceeds-staked", "anchored",
                      closed["anchored"] > closed["staked"]))
    return rows


# the staked/anchored Monte Carlo groups: (family, quantity, first stream);
# each also draws an acuteness group from stream + 100, except alphabeta
_SMALL_GROUPS = (("staked", "beta", 1400), ("anchored", "alpha", 1600),
                 ("anchored", "alphabeta", 1800))


def _pinned_cells() -> list[tuple[str, str]]:
    """The pinned (quantity, statistic) cells with a finite closed form, in
    report order."""
    return sorted((t.quantity, t.statistic) for t in moments.targets("pinned")
                  if moments.closed_form(t) not in (None, math.inf))


def _monte_carlo_estimates(seed: int, workers: int, mc_samples: int,
                           big_mc_samples: int) -> dict[str, moments.MonteCarloEstimate]:
    """Every Monte Carlo estimate of the suite, keyed by its check name.

    Plain data in and out, so it can run in a worker process.  Each group
    draws from its own streams, so where and when it runs does not matter.
    """
    reducers = {"monte-carlo:pinned:obtuseness":
                lambda b: float((b.angles.max(axis=1) > 0.5 * _PI).mean()),
                "correlation:pinned-ab-monte-carlo":
                lambda b: float(np.corrcoef(b.sides[:, 0], b.sides[:, 1])[0, 1])}
    for quantity, statistic in _pinned_cells():
        reducers[f"monte-carlo:pinned:{quantity}:{statistic}"] = (
            lambda b, q=quantity, s=statistic:
            float(np.mean(moments._mc_values(b, q) ** (2.0 if s == "mean-square" else 1.0))))
    estimates = moments.batch_means("pinned", mc_samples, RandomStream(seed, 1000),
                                    reducers, workers)
    estimates.update(moments.batch_means(
        "pinned", big_mc_samples, RandomStream(seed, 1200),
        {"expected-ac:monte-carlo-vs-quadrature":
         lambda b: float((b.sides[:, 0] * b.sides[:, 2]).mean())}, workers))
    # mc_samples // 5 draws per group, but at least 10 rows per batch
    small = max(mc_samples // 5, 1000)
    for family, quantity, base in _SMALL_GROUPS:
        target = moments.MomentTarget(family, quantity, "mean")
        estimates[f"monte-carlo:{family}:{quantity}:mean"] = moments.by_monte_carlo(
            target, small, RandomStream(seed, base), workers)
        if quantity != "alphabeta":
            estimates.update(moments.batch_means(
                family, small, RandomStream(seed, base + 100),
                {f"acuteness:{family}-monte-carlo":
                 lambda b: float((b.angles.max(axis=1) < 0.5 * _PI).mean())}, workers))
    return estimates


def _monte_carlo_rows(suite: _Suite) -> list[CheckResult]:
    """Each Monte Carlo estimate against its reference value within three sigma."""
    mc = suite.estimates()

    def near(name: str, family: str, expected: float, floor: float = 0.0) -> CheckResult:
        return _near(name, family, expected, mc[name].value,
                     max(3.0 * mc[name].std_error, floor))

    rows = [near(f"monte-carlo:pinned:{quantity}:{statistic}", "pinned",
                 suite.quadrature[moments.MomentTarget("pinned", quantity, statistic)].value)
            for quantity, statistic in _pinned_cells()]
    rows.append(near("monte-carlo:pinned:obtuseness", "pinned", 0.75))
    corr_closed = moments.correlation_ab()
    rows.append(_near("correlation:pinned-ab-closed-vs-published", "pinned",
                      0.636, corr_closed, 1e-3))
    rows.append(near("correlation:pinned-ab-monte-carlo", "pinned", corr_closed, 1e-3))
    rows.append(near("expected-ac:monte-carlo-vs-quadrature", "pinned", suite.expected_ac.value))
    for family, quantity, _ in _SMALL_GROUPS:
        rows.append(near(f"monte-carlo:{family}:{quantity}:mean", family,
                         suite.quadrature[moments.MomentTarget(family, quantity, "mean")].value))
        if quantity != "alphabeta":
            rows.append(near(f"acuteness:{family}-monte-carlo", family,
                             moments.ACUTENESS_CLOSED[family]))
    return rows


def _marginal_consistency_rows(suite: _Suite) -> list[CheckResult]:
    """Joint densities reduced numerically against their closed marginals."""
    alpha, beta, staked = _angle_joint_deviations()
    return [_near_quadrature(f"marginal-consistency:{name}", family, 0.0, deviation, tol)
            for name, family, deviation, tol in (
                ("sides-a", "pinned", _marginal_a_deviation(), 1e-5),
                ("sides-b", "pinned", _marginal_b_deviation(), 1e-5),
                ("sides-c", "pinned", _marginal_c_deviation(), 1e-5),
                ("angles-alpha-uniform", "pinned", alpha, 1e-6),
                ("angles-beta-closed-form", "pinned", beta, 1e-6),
                ("staked-alpha-uniform", "staked", staked, 1e-6),
                ("uT-ratio-equals-side", "uniformT", _uT_ratio_identity_deviation(), 1e-12))]


def _distribution_rows(suite: _Suite) -> list[CheckResult]:
    """The sampler against the catalog: the KS matrix and its negative
    controls, the literal point-process oracle and the chi-square region
    tests, all on one batch per family."""
    rows, seed, alpha = [], suite.seed, suite.alpha
    # the oracle (its own stream; its rows are reported below) is drawn
    # first, so its peak memory does not stack on the KS batches
    oracle = sample_pinned_oracle_batch(suite.ks_samples, RandomStream(seed, 2100))
    tags = [tag for tag, _, _ in KS_MATRIX] + ["uT_max", "uT_min"]
    batches, reports = ks_battery(suite.ks_samples, seed, tags, alpha)
    for tag, report in zip(tags, reports):
        rows.append(_gof(f"ks:{tag}", CATALOG[tag].family, report))
    # the negative controls: a sampled statistic against a wrong catalog kind
    for name, family, statistic, kind in (
            ("pinned-b-vs-c-density", "pinned", "b", "pinned_c"),
            ("staked-beta-vs-anchored-density", "staked", "beta", "anchored_alpha")):
        wrong = ks_one_sample(EmpiricalSample.from_values(
            batches[family].statistic(statistic), f"{family}:{statistic}"), kind, alpha)
        rows.append(_gof(f"ks-negative-control:{name}", family, wrong, reject=True))
    for statistic in ("a", "b", "c"):
        direct = EmpiricalSample.from_values(batches["pinned"].statistic(statistic),
                                             f"pinned:{statistic}")
        literal = EmpiricalSample.from_values(oracle.statistic(statistic),
                                              f"oracle:{statistic}")
        rows.append(_gof(f"oracle-ks:{statistic}", "pinned",
                         ks_two_sample(direct, literal, alpha)))
    uniform_pdf = lambda x, y: np.where((x > 0.0) & (y > 0.0) & (x + y < _PI),
                                        2.0 / (_PI * _PI), 0.0)
    # each grid is [low, 1.5]^2: inside the uT support, so its discontinuous
    # edge falls wholly in the pooled outside cell, and clear of the angle
    # joints' 1/r blow-up at the origin
    for name, family, pdf, low, reject in (
            ("chi-square:uT-angles-uniform", "uniformT", uniform_pdf, 0.1, False),
            ("chi-square:staked-angles-joint", "staked", pdf_staked_angles_joint, 0.15, False),
            ("chi-square-negative-control:staked-vs-anchored", "staked",
             pdf_anchored_angles_joint, 0.15, True)):
        r = chi_square_region(batches[family].angles[:, :2], pdf, bins=10, alpha=alpha,
                              bounds=((low, 1.5), (low, 1.5)))
        rows.append(_gof(name, family, r, reject))
    return rows


def _determinism_rows(suite: _Suite) -> list[CheckResult]:
    """Two dumps of the same sample stream are byte-identical."""
    dumps = [io.StringIO(), io.StringIO()]
    for buffer in dumps:
        sample_batch("pinned", 1000, RandomStream(suite.seed, 2200)).write_csv(buffer)
    return [_flag("determinism:repeated-sample-dump-identical", "pinned",
                  dumps[0].getvalue() == dumps[1].getvalue())]


# every check group, in report order; run_suite runs the Monte Carlo group last
_GROUPS = (_geometry_rows, _special_rows, _normalization_rows, _moment_table_rows,
           _divergence_rows, _acuteness_rows, _monte_carlo_rows,
           _marginal_consistency_rows, _distribution_rows, _determinism_rows)


def _inject(rows: list[CheckResult], check_name: str) -> list[CheckResult]:
    """Self-test hook: corrupt the named check's actual value so the suite
    must report it as failed."""
    for i, row in enumerate(rows):
        if row.check == check_name:
            rows[i] = replace(row, actual=row.actual + 10.0 * (row.tolerance + 1.0),
                              passed=False)
            return rows
    raise ValueError(f"no such check to corrupt: {check_name!r}")

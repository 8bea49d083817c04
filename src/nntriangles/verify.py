"""Deterministic verification suite: every headline number recomputed.

:func:`run_suite` executes, for a fixed seed and worker count, the full
battery behind the ``verify`` command: density normalizations, closed-form
moment tables against quadrature and Monte Carlo, the two independent
routes to E(ac), the acuteness probabilities, divergence flags, marginal
consistency of the joint densities, the sampler-vs-density KS matrix with
negative controls, the literal point-process oracle comparison, chi-square
region tests, and a determinism self-check.  Each check is one
:class:`CheckResult`.

The suite is pure given (seed, workers, sizes): reports from two identical
invocations compare equal.
"""

from __future__ import annotations

import io
import math
# ThreadPoolExecutor stays bound here for the benchmark's tracer (perfbench/tracing.py).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

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
    IntegralResult,
    QuadratureSpec,
    bessel_i0,
    erfc,
    gaussian_tail_cutoff,
    integrate_1d,
    integrate_2d,
    integrate_batch,
    sin2_integrals,
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
                     result: IntegralResult, tolerance: float) -> CheckResult:
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

def _univariate_mass(kind, tol: float) -> float:
    """Total mass of a univariate catalog density, split at its corners."""
    total = 0.0
    for a, b, mode in quadrature_pieces(kind, tol):
        spec = QuadratureSpec(abs_tol=0.05 * tol, rel_tol=0.1 * tol, singularity=mode)
        total += integrate_1d(kind.pdf, a, b, spec).value
    return total


def _pair_ac_fixed(a, c) -> np.ndarray:
    """The (a, c) joint evaluated by the fixed sin^2 rule over b; broadcasts
    a and c."""
    a, c = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(c, dtype=float))
    shape = a.shape
    a, c = a.ravel(), c.ravel()
    out = sin2_integrals(lambda b, rows: pdf_pinned_sides_joint(a[rows, None], b, c[rows, None]),
                         np.maximum(c, a - c), a + c)
    return out.reshape(shape)


def _pair_ac_mass(tol: float) -> float:
    """Normalization of the (a, c) joint: outer a, inner c split at the
    lower-limit switch c = a/2."""
    a_hi = gaussian_tail_cutoff(0.25 * _PI, 1, 0.01 * tol)
    c_hi = gaussian_tail_cutoff(_PI, 1, 0.01 * tol)
    spec = QuadratureSpec(abs_tol=0.2 * tol, rel_tol=0.2 * tol)
    below = integrate_2d(_pair_ac_fixed, 0.0, a_hi,
                         lambda a: (0.0, 0.5 * a), spec)
    above = integrate_2d(_pair_ac_fixed, 0.0, a_hi,
                         lambda a: (0.5 * a, c_hi), spec)
    return below.value + above.value


def _pair_ac_pointwise_deviation() -> float:
    """Registered adaptive form of the (a, c) joint against the fixed rule
    at scattered interior points."""
    a = np.array([0.3, 0.7, 1.1, 1.7, 2.3])[:, None]
    c = np.array([0.05, 0.3, 0.5, 0.8, 1.2, 2.0])[None, :] * a
    return float(np.abs(pdf_pair_ac(a, c, tol=1e-10) - _pair_ac_fixed(a, c)).max())


def _marginal_a_deviation(points: np.ndarray) -> float:
    """Trivariate -> a: integrate the (a, c) reduction over c and compare
    with the closed-form a density."""
    c_hi = gaussian_tail_cutoff(_PI, 2, 1e-11)
    r = integrate_batch(lambda cs, k: pdf_pair_ac(points[k], cs, tol=1e-9),
                        np.zeros_like(points), np.full_like(points, c_hi),
                        QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))
    return float(np.abs(r.value - pdf_pinned_a(points)).max())


def _sides_joint_over_a(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The trivariate density integrated over a (collinearity-singular at
    both ends) at each (b, c)."""
    return integrate_batch(lambda a, k: pdf_pinned_sides_joint(a, b[k], c[k]),
                           np.abs(b - c), b + c,
                           QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9,
                                          singularity="both")).value


def _marginal_b_deviation(points: np.ndarray) -> float:
    """Trivariate -> b: inner a, then c over (0, b)."""
    r = integrate_batch(lambda cs, k: _sides_joint_over_a(points[k], cs),
                        np.zeros_like(points), points,
                        QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
    return float(np.abs(r.value - pdf_pinned_b(points)).max())


def _marginal_c_deviation(points: np.ndarray) -> float:
    """Trivariate -> c: inner a, then b over (c, infinity-proxy)."""
    b_hi = gaussian_tail_cutoff(_PI, 3, 1e-12)
    r = integrate_batch(lambda bs, k: _sides_joint_over_a(bs, points[k]),
                        points, np.full_like(points, b_hi),
                        QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
    return float(np.abs(r.value - pdf_pinned_c(points)).max())


def _angle_joint_deviations() -> tuple[float, float, float]:
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
    return (float(np.abs(alpha.value - 1.0 / _PI).max()),
            float(np.abs(beta.value - pdf_pinned_beta(points)).max()),
            float(np.abs(staked.value - 1.0 / _PI).max()))


def _uT_ratio_identity_deviation() -> float:
    """The two-sides joint reduced along rays a = z b, against the closed
    single-side density, pointwise."""
    zs = np.concatenate([np.linspace(0.08, 0.92, 8),
                         np.linspace(1.1, 2.6, 8),
                         [4.0, 6.0, 9.0, 14.0]])
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)
    r = integrate_batch(lambda b, k: b * pdf_uT_sides_joint(zs[k] * b, b),
                        1.0 / (1.0 + zs), 1.0 / np.abs(1.0 - zs), spec)
    return float(np.abs(r.value - pdf_uT_side_a(zs)).max())


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def run_suite(seed: int = 2, workers: int = 1, mc_samples: int = 1_000_000,
              big_mc_samples: int = 10_000_000, ks_samples: int = 100_000,
              alpha: float = 0.001, inject_failure: str | None = None) -> list[CheckResult]:
    """Run every check; see the module docstring for the groups."""
    if mc_samples < 1000 or big_mc_samples < 1000 or ks_samples < 1000:
        raise ValueError("sample sizes must be at least 1000")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    rows: list[CheckResult] = []

    # --- geometry sanity ---------------------------------------------------
    right = angles_from_sides(np.array([[5.0, 4.0, 3.0]]))
    rows.append(_near("geometry:right-angle-3-4-5", "pinned", 0.5 * _PI,
                      right[0, 0], 1e-12))
    rows.append(_near("geometry:area-3-4-5", "pinned", 6.0,
                      math.sqrt(heron_product(5.0, 4.0, 3.0)) / 4.0, 1e-12))
    # unit base, base angles 0.7 and 1.1, other sides by the law of sines
    s = math.sin(0.7 + 1.1)
    back = angles_from_sides(np.array([[math.sin(0.7) / s, math.sin(1.1) / s, 1.0]]))
    rows.append(_near("geometry:angle-side-round-trip", "pinned", 0.7,
                      back[0, 0], 1e-12))

    # --- special functions against independent integral forms --------------
    spec10 = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    i0_quad = integrate_1d(lambda t: np.exp(0.5 * _PI * np.cos(t)) / _PI,
                           0.0, _PI, spec10).value
    rows.append(_near("special:bessel-i0-integral-form", "-",
                      bessel_i0(0.5 * _PI), i0_quad, 1e-12))
    erfc_quad = integrate_1d(lambda t: (2.0 / math.sqrt(_PI)) * np.exp(-t * t),
                             1.0, 10.0, spec10).value
    rows.append(_near("special:erfc-integral-form", "-", erfc(1.0),
                      erfc_quad, 1e-13))
    catalan_quad = integrate_1d(lambda t: -np.log(np.maximum(t, 1e-300)) / (1.0 + t * t),
                                0.0, 1.0, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11,
                                                         singularity="left")).value
    rows.append(_near("special:catalan-integral-form", "-", CATALAN,
                      catalan_quad, 1e-10))

    # --- normalization ------------------------------------------------------
    for tag in sorted(CATALOG):
        kind = CATALOG[tag]
        if kind.arity != 1:
            continue
        tol = 1e-6 if kind.singular_points else 1e-8
        mass = _univariate_mass(kind, 0.1 * tol)
        rows.append(_near(f"normalization:{tag}", kind.family, 1.0, mass, tol))
    b_hi = gaussian_tail_cutoff(_PI, 5, 1e-11)
    mass_ab = integrate_2d(lambda b, a: CATALOG["pair_ab"].pdf(a, b),
                           0.0, b_hi, lambda b: (0.0, 2.0 * b),
                           QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)).value
    rows.append(_near("normalization:pair_ab", "pinned", 1.0, mass_ab, 1e-8))
    mass_bc = integrate_2d(lambda b, c: CATALOG["pair_bc"].pdf(b, c),
                           0.0, b_hi, lambda b: (0.0, b),
                           QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)).value
    rows.append(_near("normalization:pair_bc", "pinned", 1.0, mass_bc, 1e-8))
    rows.append(_near("normalization:pair_ac_integral", "pinned", 1.0,
                      _pair_ac_mass(1e-7), 1e-6))
    rows.append(_near("consistency:pair_ac_integral-vs-fixed-rule", "pinned",
                      0.0, _pair_ac_pointwise_deviation(), 1e-8))
    mass_angles = integrate_2d(pdf_pinned_angles_joint, 0.0, _PI,
                               lambda a: (0.5 * (_PI - a), _PI - a),
                               QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)).value
    rows.append(_near("normalization:pinned_angles_joint", "pinned", 1.0,
                      mass_angles, 1e-8))
    for tag, joint in (("staked_angles_joint", pdf_staked_angles_joint),
                       ("anchored_angles_joint", pdf_anchored_angles_joint)):
        mass = integrate_2d(joint, 0.0, _PI, lambda a: (0.0, _PI - a),
                            QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)).value
        rows.append(_near(f"normalization:{tag}", CATALOG[tag].family, 1.0, mass, 1e-8))
    (tri_mass,) = moments._pinned_triple(lambda a, b, c: np.ones_like(a),
                                         tol=3e-7, pieces=("full",))
    rows.append(_near("normalization:pinned_sides_joint", "pinned", 1.0,
                      tri_mass.value, 1e-6))

    # --- closed-form moment tables: quadrature ------------------------------
    quad_values: dict[tuple[str, str, str], float] = {}
    for target in moments.targets():
        closed = moments.closed_form(target)
        if closed is None or math.isinf(closed):
            continue
        q = moments.by_quadrature(target, tol=1e-8)
        quad_values[(target.family, target.quantity, target.statistic)] = q.value
        rows.append(_near_quadrature(
            f"table:{target.family}:{target.quantity}:{target.statistic}:quadrature",
            target.family, closed, q, 1e-6))

    # --- Table 2/3 reference decimals ---------------------------------------
    ref_values: dict[moments.MomentTarget, float] = {}
    for target in moments.targets():
        ref = moments.reference_value(target)
        if ref is None or moments.closed_form(target) is not None:
            continue
        q = moments.by_quadrature(target, tol=1e-8)
        ref_values[target] = q.value
        rows.append(_near_quadrature(
            f"reference:{target.family}:{target.quantity}:{target.statistic}",
            target.family, ref, q, 1e-6))

    # --- two routes to E(ac) -------------------------------------------------
    eac = moments.expected_ac(tol=1e-7)
    rows.append(_near("expected-ac:quadrature-vs-published-digits", "pinned",
                      0.49181215, eac.value, 1e-7))

    # --- divergence ----------------------------------------------------------
    for quantity in ("b/a", "b/c", "c/a", "a/c"):
        target = moments.MomentTarget("pinned", quantity, "mean-square")
        closed_inf = math.isinf(moments.closed_form(target))
        try:
            moments.by_quadrature(target, tol=1e-8)
            quad_raises = False
        except moments.DivergenceError:
            quad_raises = True
        mc = moments.by_monte_carlo(target, 1000, RandomStream(seed, 2000))
        rows.append(_flag(f"divergence-flag:{quantity}:mean-square", "pinned",
                          closed_inf and quad_raises and mc.divergent))
    target_bc = moments.MomentTarget("pinned", "b/c", "mean-square")
    for cutoff in (10.0, 100.0, 1000.0):
        truncated = moments.truncated_mean_square(target_bc, cutoff)
        rows.append(_near(f"truncated-mean-square:b/c:M={int(cutoff)}", "pinned",
                          2.0 * math.log(cutoff), truncated.value, 1e-10))

    # --- acuteness: exact decompositions and closed forms --------------------
    spec8 = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    for name, angle_pdf, part, tol in zip(
            ("alpha-obtuse-half", "beta-obtuse-quarter", "gamma-never-obtuse"),
            (pdf_pinned_alpha, pdf_pinned_beta, pdf_pinned_gamma),
            moments.PINNED_OBTUSE_PARTS, (1e-8, 1e-8, 1e-12)):
        p_obtuse = integrate_1d(angle_pdf, 0.5 * _PI, _PI, spec8).value
        rows.append(_near(f"acuteness:pinned-{name}", "pinned", part, p_obtuse, tol))
    staked_closed = moments.acuteness("staked", "closed")
    anchored_closed = moments.acuteness("anchored", "closed")
    rows.append(_near("acuteness:staked-closed-vs-quadrature", "staked",
                      staked_closed, moments.acuteness("staked", "quadrature", tol=1e-9),
                      1e-8))
    rows.append(_near("acuteness:anchored-closed-vs-quadrature", "anchored",
                      anchored_closed, moments.acuteness("anchored", "quadrature", tol=1e-9),
                      1e-8))
    rows.append(_flag("acuteness:anchored-exceeds-staked", "anchored",
                      anchored_closed > staked_closed))

    # --- Monte Carlo against everything above --------------------------------
    pinned_reducers = {"obtuse": lambda b: float((b.angles.max(axis=1) > 0.5 * _PI).mean()),
                       "corr_ab": lambda b: float(np.corrcoef(b.sides[:, 0], b.sides[:, 1])[0, 1])}
    for family, quantity, statistic in sorted(quad_values):
        if family != "pinned":
            continue
        name = f"{quantity}:{statistic}"
        pinned_reducers[name] = (lambda b, q=quantity, s=statistic:
                                 float(np.mean(moments._mc_values(b, q)
                                               ** (2.0 if s == "mean-square" else 1.0))))
    pinned_mc = moments.batch_means("pinned", mc_samples, RandomStream(seed, 1000),
                                    pinned_reducers, workers)
    for family, quantity, statistic in sorted(quad_values):
        if family != "pinned":
            continue
        mc = pinned_mc[f"{quantity}:{statistic}"]
        rows.append(_near(f"monte-carlo:pinned:{quantity}:{statistic}", "pinned",
                          quad_values[(family, quantity, statistic)], mc.value,
                          3.0 * mc.std_error))
    mc = pinned_mc["obtuse"]
    rows.append(_near("monte-carlo:pinned:obtuseness", "pinned", 0.75, mc.value,
                      3.0 * mc.std_error))
    corr_closed = moments.correlation_ab()
    rows.append(_near("correlation:pinned-ab-closed-vs-published", "pinned",
                      0.636, corr_closed, 1e-3))
    mc = pinned_mc["corr_ab"]
    rows.append(_near("correlation:pinned-ab-monte-carlo", "pinned",
                      corr_closed, mc.value, max(3.0 * mc.std_error, 1e-3)))

    mc = moments.batch_means("pinned", big_mc_samples, RandomStream(seed, 1200),
                             {"ac": lambda b: float((b.sides[:, 0] * b.sides[:, 2]).mean())},
                             workers)["ac"]
    rows.append(_near("expected-ac:monte-carlo-vs-quadrature", "pinned",
                      eac.value, mc.value, 3.0 * mc.std_error))

    # mc_samples // 5 draws per group, but at least 10 rows per batch
    small = max(mc_samples // 5, 1000)
    for family, quantity, base in (("staked", "beta", 1400), ("anchored", "alpha", 1600),
                                   ("anchored", "alphabeta", 1800)):
        target = moments.MomentTarget(family, quantity, "mean")
        mc = moments.by_monte_carlo(target, small, RandomStream(seed, base), workers)
        rows.append(_near(f"monte-carlo:{family}:{quantity}:mean", family,
                          ref_values[target], mc.value, 3.0 * mc.std_error))
        if quantity != "alphabeta":
            mc = moments.batch_means(family, small, RandomStream(seed, base + 100),
                                     {"acute": lambda b: float((b.angles.max(axis=1) < 0.5 * _PI).mean())},
                                     workers)["acute"]
            closed = moments.acuteness(family, "closed")
            rows.append(_near(f"acuteness:{family}-monte-carlo", family,
                              closed, mc.value, 3.0 * mc.std_error))

    # --- marginal consistency -------------------------------------------------
    side_points = np.linspace(0.12, 2.4, 20)
    rows.append(_near("marginal-consistency:sides-a", "pinned", 0.0,
                      _marginal_a_deviation(side_points), 1e-5))
    rows.append(_near("marginal-consistency:sides-b", "pinned", 0.0,
                      _marginal_b_deviation(np.linspace(0.15, 1.9, 20)), 1e-5))
    rows.append(_near("marginal-consistency:sides-c", "pinned", 0.0,
                      _marginal_c_deviation(np.linspace(0.08, 1.4, 20)), 1e-5))
    dev_alpha, dev_beta, dev_staked = _angle_joint_deviations()
    rows.append(_near("marginal-consistency:angles-alpha-uniform", "pinned",
                      0.0, dev_alpha, 1e-6))
    rows.append(_near("marginal-consistency:angles-beta-closed-form", "pinned",
                      0.0, dev_beta, 1e-6))
    rows.append(_near("marginal-consistency:staked-alpha-uniform", "staked",
                      0.0, dev_staked, 1e-6))
    rows.append(_near("marginal-consistency:uT-ratio-equals-side", "uniformT",
                      0.0, _uT_ratio_identity_deviation(), 1e-12))

    # --- the KS matrix, extras, and negative controls --------------------------
    tags = [tag for tag, _, _ in KS_MATRIX] + ["uT_max", "uT_min"]
    batches, reports = ks_battery(ks_samples, seed, tags, alpha)
    for tag, report in zip(tags, reports):
        rows.append(_gof(f"ks:{tag}", CATALOG[tag].family, report))
    neg1 = ks_one_sample(EmpiricalSample.from_values(batches["pinned"].statistic("b"),
                                                     "pinned:b"),
                         "pinned_c", alpha)
    rows.append(_gof("ks-negative-control:pinned-b-vs-c-density", "pinned", neg1,
                     reject=True))
    neg2 = ks_one_sample(EmpiricalSample.from_values(batches["staked"].statistic("beta"),
                                                     "staked:beta"),
                         "anchored_alpha", alpha)
    rows.append(_gof("ks-negative-control:staked-beta-vs-anchored-density", "staked",
                     neg2, reject=True))

    # --- the literal point-process oracle ---------------------------------------
    oracle = sample_pinned_oracle_batch(ks_samples, RandomStream(seed, 2100))
    for statistic in ("a", "b", "c"):
        direct = EmpiricalSample.from_values(batches["pinned"].statistic(statistic),
                                             f"pinned:{statistic}")
        literal = EmpiricalSample.from_values(oracle.statistic(statistic),
                                              f"oracle:{statistic}")
        rows.append(_gof(f"oracle-ks:{statistic}", "pinned",
                         ks_two_sample(direct, literal, alpha)))

    # --- chi-square region tests --------------------------------------------------
    ut_angles = batches["uniformT"].angles[:, :2]
    uniform_pdf = lambda x, y: np.where((x > 0.0) & (y > 0.0) & (x + y < _PI),
                                        2.0 / (_PI * _PI), 0.0)
    # rectangle strictly inside the support, so every cell probability is
    # exact and the discontinuous edge sits wholly in the pooled outside cell
    r = chi_square_region(ut_angles, uniform_pdf, bins=10, alpha=alpha,
                          bounds=((0.1, 1.5), (0.1, 1.5)))
    rows.append(_gof("chi-square:uT-angles-uniform", "uniformT", r))
    # the angle joints blow up like 1/r at the origin, so keep the grid in
    # the smooth interior; the pooled outside cell balances the rest exactly
    staked_angles = batches["staked"].angles[:, :2]
    staked_bounds = ((0.15, 1.5), (0.15, 1.5))
    r = chi_square_region(staked_angles, pdf_staked_angles_joint, bins=10,
                          alpha=alpha, bounds=staked_bounds)
    rows.append(_gof("chi-square:staked-angles-joint", "staked", r))
    r = chi_square_region(staked_angles, pdf_anchored_angles_joint, bins=10,
                          alpha=alpha, bounds=staked_bounds)
    rows.append(_gof("chi-square-negative-control:staked-vs-anchored", "staked", r,
                     reject=True))

    # --- determinism ---------------------------------------------------------------
    dumps = []
    for _ in range(2):
        buffer = io.StringIO()
        sample_batch("pinned", 1000, RandomStream(seed, 2200)).write_csv(buffer)
        dumps.append(buffer.getvalue())
    rows.append(_flag("determinism:repeated-sample-dump-identical", "pinned",
                      dumps[0] == dumps[1]))

    if inject_failure is not None:
        rows = _inject(rows, inject_failure)
    return rows


def _inject(rows: list[CheckResult], check_name: str) -> list[CheckResult]:
    """Self-test hook: corrupt the named check's actual value so the suite
    must report it as failed."""
    for i, row in enumerate(rows):
        if row.check == check_name:
            rows[i] = replace(row, actual=row.actual + 10.0 * (row.tolerance + 1.0),
                              passed=False)
            return rows
    raise ValueError(f"no such check to corrupt: {check_name!r}")

"""Tests for the moment table: closed forms, quadrature, Monte Carlo.

Closed-form cells are checked against values derived independently inside
the tests (elementary integrals of the known marginals), quadrature against
the closed forms, and Monte Carlo against both, so each route vouches for
the others.
"""

import math

import numpy as np
import pytest

from nntriangles import moments
from nntriangles.moments import (
    ACUTENESS_CLOSED,
    EXPECTED_AC,
    PINNED_OBTUSE_PARTS,
    DivergenceError,
    MomentTarget,
    MonteCarloEstimate,
    by_monte_carlo,
    by_quadrature,
    closed_form,
    correlation_ab,
    expected_ac,
    moment_report,
    reference_value,
    targets,
    truncated_mean_square,
)
from nntriangles.geom import heron_product
from nntriangles.numerics import CATALAN, IntegralResult
from nntriangles.sampler import RandomStream, sample_batch

PI = math.pi

DIVERGENT = {("pinned", "b/a"), ("pinned", "b/c"),
             ("pinned", "c/a"), ("pinned", "a/c")}


# ---------------------------------------------------------------------------
# targets and closed forms
# ---------------------------------------------------------------------------

def test_target_validation():
    with pytest.raises(ValueError):
        MomentTarget("uniformT", "alpha", "mean")
    with pytest.raises(ValueError):
        MomentTarget("staked", "a", "mean")       # sides not tabulated here
    with pytest.raises(ValueError):
        MomentTarget("pinned", "c", "variance")
    MomentTarget("pinned", "b/c", "mean-square")  # valid


def test_targets_enumeration():
    assert len(targets()) == 50
    assert len(targets("pinned")) == 38
    assert len(targets("staked")) == 6
    assert len(targets("anchored")) == 6
    assert all(isinstance(t, MomentTarget) for t in targets())


def test_closed_forms_match_elementary_derivations():
    # nearest distance: Rayleigh with pi x^2 standard exponential
    assert closed_form(MomentTarget("pinned", "c", "mean")) == pytest.approx(0.5)
    assert closed_form(MomentTarget("pinned", "c", "mean-square")) == \
        pytest.approx(1.0 / PI)
    # second-nearest: the squared radius is a sum of two exponentials,
    # so E[b] = Gamma(5/2) / (Gamma(2) sqrt(pi)) and E[b^2] = 2/pi
    assert closed_form(MomentTarget("pinned", "b", "mean")) == \
        pytest.approx(math.gamma(2.5) / (math.gamma(2.0) * math.sqrt(PI)))
    assert closed_form(MomentTarget("pinned", "b", "mean-square")) == \
        pytest.approx(2.0 / PI)
    # the origin angle is uniform on (0, pi)
    assert closed_form(MomentTarget("pinned", "alpha", "mean")) == \
        pytest.approx(PI / 2.0)
    assert closed_form(MomentTarget("pinned", "alpha", "mean-square")) == \
        pytest.approx(PI**2 / 3.0)
    # c/b has density 2x on (0, 1)
    assert closed_form(MomentTarget("pinned", "c/b", "mean")) == \
        pytest.approx(2.0 / 3.0)
    assert closed_form(MomentTarget("pinned", "c/b", "mean-square")) == \
        pytest.approx(0.5)
    # b/c has density 2/x^3 on (1, inf): finite mean, divergent mean square
    assert closed_form(MomentTarget("pinned", "b/c", "mean")) == pytest.approx(2.0)
    assert closed_form(MomentTarget("pinned", "b/c", "mean-square")) == math.inf


def test_divergent_cells_are_exactly_the_heavy_ratio_squares():
    divergent = {(t.family, t.quantity) for t in targets()
                 if closed_form(t) == math.inf}
    assert divergent == DIVERGENT
    for t in targets():
        if closed_form(t) == math.inf:
            assert t.statistic == "mean-square"


def test_reference_values_fill_closed_gaps():
    # every decimal reference sits in a cell without a closed form
    for t in targets():
        ref = reference_value(t)
        if ref is not None:
            assert closed_form(t) is None
            assert 0.0 < ref < 1.0
    assert reference_value(MomentTarget("pinned", "ca", "mean")) == \
        pytest.approx(0.49181215)
    # anchored angles are exchangeable so alpha and beta references agree
    assert reference_value(MomentTarget("anchored", "alpha", "mean")) == \
        reference_value(MomentTarget("anchored", "beta", "mean"))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,quantity,statistic", [
    ("pinned", "c", "mean"),
    ("pinned", "a/b", "mean-square"),
    ("pinned", "area", "mean"),
    ("pinned", "ab", "mean"),
    ("pinned", "alphabeta", "mean"),
    ("staked", "alpha", "mean-square"),
])
def test_quadrature_agrees_with_closed_form(family, quantity, statistic):
    target = MomentTarget(family, quantity, statistic)
    r = by_quadrature(target, tol=1e-9)
    assert r.converged
    assert r.value == pytest.approx(closed_form(target), abs=1e-8)


def test_quadrature_agrees_with_decimal_references():
    for key in (("staked", "beta", "mean"), ("anchored", "alphabeta", "mean")):
        target = MomentTarget(*key)
        r = by_quadrature(target, tol=1e-8)
        assert r.converged
        assert r.value == pytest.approx(reference_value(target), abs=1e-6)


def test_quadrature_refuses_divergent_cells():
    for family, quantity in DIVERGENT:
        with pytest.raises(DivergenceError):
            by_quadrature(MomentTarget(family, quantity, "mean-square"))


def test_truncated_mean_square_grows_logarithmically():
    target = MomentTarget("pinned", "b/c", "mean-square")
    for upper in (10.0, 100.0, 1000.0):
        r = truncated_mean_square(target, upper)
        assert r.converged
        # integral of x^2 * 2/x^3 from 1 to M is exactly 2 ln M
        assert r.value == pytest.approx(2.0 * math.log(upper), abs=1e-10)
    other = MomentTarget("pinned", "b/a", "mean-square")
    assert truncated_mean_square(other, 100.0).value > \
        truncated_mean_square(other, 10.0).value


# (alpha, t) route of the trivariate pinned integrals, at the tolerances
# verify and tables pass: (weight, degree, pieces, tol, exact value)
AC_CLOSED = (37.0 + 2.0 * CATALAN) / (8.0 * PI**2)
TRIPLE_CASES = [
    (lambda a, b, c: np.ones_like(a), 0, ("full",), 3e-7, 1.0),
    (lambda a, b, c: (a * c)**2, 4, ("short_a", "long_a"), 1e-8, 5.0 / PI**2),
    (lambda a, b, c: np.sqrt(np.maximum(heron_product(a, b, c), 0.0)) / 4.0, 2,
     ("full",), 1e-8, 4.0 / (3.0 * PI**2)),
    (lambda a, b, c: heron_product(a, b, c) / 16.0, 4, ("full",), 1e-8, 3.0 / (8.0 * PI**2)),
    (lambda a, b, c: a * c, 2, ("short_a", "long_a"), 1e-8, AC_CLOSED),
    (lambda a, b, c: a * c, 2, ("short_a", "long_a"), 1e-7, AC_CLOSED),
]


@pytest.mark.parametrize("weight,degree,pieces,tol,exact", TRIPLE_CASES)
def test_pinned_triple_matches_closed_forms(weight, degree, pieces, tol, exact):
    results = moments._pinned_triple(weight, degree, tol, pieces)
    assert all(r.converged for r in results)
    assert sum(r.value for r in results) == pytest.approx(exact, abs=1e-11)


def test_pinned_triple_pieces_add_up_to_the_full_region():
    short, long_, full = moments._pinned_triple(lambda a, b, c: a * c, 2, 1e-8,
                                                ("short_a", "long_a", "full"))
    assert short.value + long_.value == pytest.approx(full.value, abs=1e-13)


def test_pinned_triple_split_is_where_a_equals_2c():
    alpha = np.random.default_rng(11).uniform(0.0, PI, 1000)
    t = moments._t_split(alpha)
    assert np.all((t > 1.0 / 3.0 - 1e-15) & (t < 1.0 + 1e-15))
    np.testing.assert_allclose(moments._opposite_side(alpha, t), 2.0 * t, rtol=0.0, atol=1e-15)


def test_expected_ac_two_region_split():
    r = expected_ac(tol=1e-7)
    assert r.converged
    assert r.value == pytest.approx(EXPECTED_AC, abs=1e-11)
    assert r.branch_short_a > 0 and r.branch_long_a > 0
    assert r.branch_short_a + r.branch_long_a == pytest.approx(r.value, abs=1e-15)
    assert r.error < 1e-6
    with pytest.raises(ValueError):
        expected_ac(tol=1e-13)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_determinism_and_worker_invariance():
    target = MomentTarget("pinned", "c", "mean")
    one = by_monte_carlo(target, 5000, RandomStream(4, 100))
    two = by_monte_carlo(target, 5000, RandomStream(4, 100))
    parallel = by_monte_carlo(target, 5000, RandomStream(4, 100), workers=3)
    assert one == two == parallel
    assert one.n == 5000 and one.std_error > 0 and not one.divergent


def test_monte_carlo_requires_enough_samples():
    with pytest.raises(ValueError):
        by_monte_carlo(MomentTarget("pinned", "c", "mean"), 500, RandomStream(0))


@pytest.mark.parametrize("family,quantity,statistic,truth", [
    ("pinned", "c", "mean", 0.5),
    ("pinned", "ca", "mean", EXPECTED_AC),
    ("pinned", "alphabeta", "mean", 0.25 + PI**2 / 12.0),
    ("staked", "alpha", "mean", PI / 2.0),
])
def test_monte_carlo_recovers_known_values(family, quantity, statistic, truth):
    est = by_monte_carlo(MomentTarget(family, quantity, statistic),
                         20000, RandomStream(50, 300))
    assert abs(est.value - truth) <= 5.0 * est.std_error


def test_monte_carlo_flags_divergent_targets():
    est = by_monte_carlo(MomentTarget("pinned", "b/c", "mean-square"),
                         2000, RandomStream(8, 400))
    assert est.divergent
    assert math.isfinite(est.value)  # finite draw average, meaningless limit


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_moment_report_all_routes_agree():
    report = moment_report(MomentTarget("pinned", "c", "mean"),
                           n=10000, rng=RandomStream(12, 500))
    assert report.closed == pytest.approx(0.5)
    assert report.reference is None
    assert report.quadrature is not None and report.quadrature.converged
    assert isinstance(report.monte_carlo, MonteCarloEstimate)
    assert report.verdict


def test_moment_report_divergent_cell():
    report = moment_report(MomentTarget("pinned", "a/c", "mean-square"),
                           n=2000, rng=RandomStream(12, 600))
    assert report.closed == math.inf
    assert report.quadrature is None
    assert report.monte_carlo.divergent
    assert report.verdict  # nothing comparable, nothing contradicted


def test_moment_report_reference_cell():
    report = moment_report(MomentTarget("pinned", "ca", "mean"),
                           n=10000, rng=RandomStream(12, 700))
    assert report.closed is None
    assert report.reference == pytest.approx(0.49181215)
    assert report.verdict


@pytest.mark.parametrize("target", [MomentTarget("pinned", "c", "mean"),
                                    MomentTarget("pinned", "ca", "mean")])
def test_unconverged_quadrature_is_never_agreement(target, monkeypatch):
    # the exact value, flagged unconverged: only the flag can fail the cell
    exact = closed_form(target)
    exact = reference_value(target) if exact is None else exact
    for converged in (True, False):
        monkeypatch.setattr(moments, "by_quadrature", lambda t, tol=1e-8:
                            IntegralResult(exact, 0.0, 1, converged))
        assert moment_report(target, n=0).verdict is converged


# ---------------------------------------------------------------------------
# acuteness and correlation
# ---------------------------------------------------------------------------

def test_acuteness_closed_values():
    assert ACUTENESS_CLOSED["pinned"] == 0.25
    assert ACUTENESS_CLOSED["staked"] == pytest.approx(0.172552469813835, abs=1e-12)
    assert ACUTENESS_CLOSED["anchored"] == pytest.approx(0.245846722322059, abs=1e-12)
    assert ACUTENESS_CLOSED["anchored"] > ACUTENESS_CLOSED["staked"]


def test_acuteness_quadrature_matches_closed():
    for family in ("pinned", "staked", "anchored"):
        q = moments.acuteness(family, tol=1e-9)
        assert q.converged
        assert q.value == pytest.approx(ACUTENESS_CLOSED[family], abs=1e-8)


def test_acuteness_rejects_bad_arguments():
    with pytest.raises(ValueError):
        moments.acuteness("uniformT")


def test_pinned_obtuse_decomposition():
    assert sum(PINNED_OBTUSE_PARTS) == pytest.approx(1.0 - ACUTENESS_CLOSED["pinned"])
    batch = sample_batch("pinned", 20000, RandomStream(77))
    alpha, beta, gamma = batch.angles.T
    assert np.mean(alpha > PI / 2) == pytest.approx(PINNED_OBTUSE_PARTS[0], abs=0.02)
    assert np.mean(beta > PI / 2) == pytest.approx(PINNED_OBTUSE_PARTS[1], abs=0.02)
    assert np.count_nonzero(gamma >= PI / 2) == 0  # never obtuse, never right


def test_correlation_consistent_with_moment_table():
    e_a = closed_form(MomentTarget("pinned", "a", "mean"))
    e_b = closed_form(MomentTarget("pinned", "b", "mean"))
    e_ab = closed_form(MomentTarget("pinned", "ab", "mean"))
    var_a = closed_form(MomentTarget("pinned", "a", "mean-square")) - e_a**2
    var_b = closed_form(MomentTarget("pinned", "b", "mean-square")) - e_b**2
    rho = (e_ab - e_a * e_b) / math.sqrt(var_a * var_b)
    assert correlation_ab() == pytest.approx(rho, abs=1e-12)
    assert correlation_ab() == pytest.approx(0.636, abs=1e-3)

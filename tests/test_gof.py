"""Tests for the goodness-of-fit module.

Calibration strategy: the KS and chi-square machinery is exercised on
inputs whose distribution is known exactly (inverse-transform draws from a
closed-form distribution function, uniform points on a square), so both
the null behavior (acceptances, rejection rates near the nominal level)
and the alternative behavior (clear rejections) are pinned down without
trusting the samplers under test elsewhere.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from nntriangles import gof
from nntriangles.gof import (
    KS_MATRIX,
    EmpiricalSample,
    GofReport,
    cdf_from_pdf,
    chi_square_quantile,
    chi_square_region,
    ks_battery,
    ks_critical,
    ks_one_sample,
    ks_two_sample,
    quantile,
)
from nntriangles.density import CATALOG
from nntriangles.numerics import fixed_panel_integrals
from nntriangles.sampler import RandomStream

PI = math.pi


def _pinned_c_draws(n: int, stream: int) -> np.ndarray:
    """Inverse-transform draws from the nearest-distance law
    F(x) = 1 - exp(-pi x^2), independent of the package's samplers."""
    u = RandomStream(900, stream).generator.random(n)
    return np.sqrt(-np.log1p(-u) / PI)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_empirical_sample_validation():
    with pytest.raises(ValueError):
        EmpiricalSample(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([1.0]))
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([2.0, 1.0]))  # unsorted must be rejected
    s = EmpiricalSample.from_values([3.0, 1.0, 2.0], label="abc")
    assert s.n == 3 and s.label == "abc"
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])


def test_gof_report_validation():
    GofReport("ks-one-sample", 0.1, 0.2, 100, True)
    with pytest.raises(ValueError):
        GofReport("anderson-darling", 0.1, 0.2, 100, True)
    with pytest.raises(ValueError):
        GofReport("ks-one-sample", 0.3, 0.2, 100, True)  # verdict contradicts


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_ks_critical_matches_kolmogorov_inverse():
    for alpha in (0.05, 0.01, 0.001):
        assert ks_critical(alpha) == pytest.approx(
            float(special.kolmogi(alpha)), rel=1e-5)
    with pytest.raises(ValueError):
        ks_critical(0.0)
    with pytest.raises(ValueError):
        ks_critical(1.5)


def test_chi_square_quantile_matches_scipy():
    for dof in (10, 30, 100, 255):
        for p in (0.9, 0.95, 0.99, 0.999):
            exact = stats.chi2.ppf(p, dof)
            tol = 0.02 if dof < 30 else 0.005
            assert chi_square_quantile(p, dof) == pytest.approx(exact, rel=tol)
    with pytest.raises(ValueError):
        chi_square_quantile(0.95, 0)
    with pytest.raises(ValueError):
        chi_square_quantile(1.2, 10)


# ---------------------------------------------------------------------------
# distribution functions and quantiles
# ---------------------------------------------------------------------------

def test_cdf_matches_closed_form():
    xs = np.linspace(0.05, 2.0, 23)
    exact = 1.0 - np.exp(-PI * xs**2)
    np.testing.assert_allclose(cdf_from_pdf("pinned_c", xs), exact, atol=2e-6)


def test_cdf_is_a_distribution_function():
    for tag in ("pinned_a", "pinned_beta", "ratio_c_over_a",
                "uT_side_a", "staked_beta"):
        kind = CATALOG[tag]
        lo, hi = kind.support[0]
        top = hi if math.isfinite(hi) else quantile(tag, 0.999999) * 1.5
        xs = np.linspace(lo - 0.1, top, 400)
        vals = cdf_from_pdf(tag, xs)
        assert (np.diff(vals) >= -1e-12).all()
        assert vals[0] == 0.0
        assert vals[-1] <= 1.0 + 1e-9
        assert vals[-1] > 1.0 - 2e-5
    assert cdf_from_pdf("ratio_c_over_b", 0.5) == pytest.approx(0.25, abs=2e-6)


@pytest.mark.parametrize("tag", ["uT_max", "anchored_alpha"])
def test_grid_panels_do_not_depend_on_chunking(tag):
    # uT_max has a singular point (sin^2 panels), anchored_alpha is a
    # regular closed form; chunks of 7 edges share an edge with their
    # neighbours
    kind = CATALOG[tag]
    edges = gof._cdf_edges(kind)
    whole = fixed_panel_integrals(kind.pdf, edges, kind.singular_points)
    chunked = np.concatenate([
        fixed_panel_integrals(kind.pdf, edges[start:start + 7], kind.singular_points)
        for start in range(0, len(edges) - 1, 6)])
    assert whole.tobytes() == chunked.tobytes()


@pytest.mark.parametrize("tag", ["staked_beta", "anchored_alpha"])
def test_closed_form_angle_grids_hold_unit_mass(tag):
    assert abs(gof._grid(CATALOG[tag]).total - 1.0) <= 1e-13


def test_cdf_grid_memory_stays_bounded():
    tracemalloc.start()
    try:
        gof._CdfGrid(CATALOG["anchored_alpha"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_cdf_rejects_bad_arguments():
    with pytest.raises(KeyError):
        cdf_from_pdf("no_such_tag", 0.5)
    with pytest.raises(ValueError):
        cdf_from_pdf("pair_ab", 0.5)  # bivariate kinds have no scalar cdf


def test_quantile_inverts_known_cdfs():
    # nearest distance: median at sqrt(ln 2 / pi)
    assert quantile("pinned_c", 0.5) == pytest.approx(
        math.sqrt(math.log(2.0) / PI), abs=1e-7)
    # the b/c ratio has F(x) = 1 - 1/x^2, so the 99.5% point is 1/sqrt(0.005)
    assert quantile("ratio_b_over_c", 0.995) == pytest.approx(
        1.0 / math.sqrt(0.005), rel=1e-6)
    for p in (0.1, 0.5, 0.9):
        x = quantile("pinned_beta", p)
        assert cdf_from_pdf("pinned_beta", x) == pytest.approx(p, abs=1e-5)
    with pytest.raises(ValueError):
        quantile("pinned_c", 0.0)
    with pytest.raises(ValueError):
        quantile("pinned_c", 1.0)


# ---------------------------------------------------------------------------
# one-sample KS
# ---------------------------------------------------------------------------

def test_ks_one_sample_accepts_exact_law():
    sample = EmpiricalSample.from_values(_pinned_c_draws(5000, 1), "exact draws")
    report = ks_one_sample(sample, "pinned_c", alpha=0.001)
    assert report.test == "ks-one-sample"
    assert report.verdict
    assert report.n == 5000
    assert report.threshold == pytest.approx(ks_critical(0.001) / math.sqrt(5000))


def test_ks_one_sample_null_rejection_rate():
    # at alpha = 0.05 the rejection rate over 200 independent exact-law
    # samples must stay near 5% (hard bound: at most 15 of 200)
    rejections = 0
    for rep in range(200):
        sample = EmpiricalSample.from_values(_pinned_c_draws(500, 10 + rep))
        rejections += not ks_one_sample(sample, "pinned_c", alpha=0.05).verdict
    assert rejections <= 15


def test_ks_one_sample_rejects_wrong_law():
    # second-nearest draws tested against the nearest-distance density
    u = RandomStream(901, 0).generator.random(5000)
    v = RandomStream(901, 1).generator.random(5000)
    second_nearest = np.sqrt(-(np.log1p(-u) + np.log1p(-v)) / PI)
    sample = EmpiricalSample.from_values(second_nearest)
    report = ks_one_sample(sample, "pinned_c", alpha=0.001)
    assert not report.verdict
    assert report.statistic > 5.0 * report.threshold


def test_ks_one_sample_requires_enough_data():
    small = EmpiricalSample.from_values(_pinned_c_draws(50, 2))
    with pytest.raises(ValueError):
        ks_one_sample(small, "pinned_c")


# ---------------------------------------------------------------------------
# two-sample KS
# ---------------------------------------------------------------------------

def test_ks_two_sample_accepts_same_law_rejects_different():
    first = EmpiricalSample.from_values(_pinned_c_draws(4000, 3), "first")
    second = EmpiricalSample.from_values(_pinned_c_draws(4000, 4), "second")
    accept = ks_two_sample(first, second, alpha=0.001)
    assert accept.verdict and accept.n == 8000
    shifted = EmpiricalSample.from_values(_pinned_c_draws(4000, 5) + 0.08)
    assert not ks_two_sample(first, shifted, alpha=0.001).verdict


def test_ks_two_sample_statistic_matches_scipy():
    first = EmpiricalSample.from_values(_pinned_c_draws(300, 6))
    second = EmpiricalSample.from_values(_pinned_c_draws(450, 7))
    ours = ks_two_sample(first, second).statistic
    theirs = stats.ks_2samp(first.values, second.values).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_ks_two_sample_requires_enough_data():
    ok = EmpiricalSample.from_values(_pinned_c_draws(200, 8))
    tiny = EmpiricalSample.from_values(_pinned_c_draws(99, 9))
    with pytest.raises(ValueError):
        ks_two_sample(ok, tiny)


# ---------------------------------------------------------------------------
# chi-square on a planar partition
# ---------------------------------------------------------------------------

def _unit_square_points(n: int, stream: int) -> np.ndarray:
    return RandomStream(902, stream).generator.random((n, 2))


def _flat_pdf(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    inside = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    return np.where(inside, 1.0, 0.0)


def test_chi_square_accepts_uniform_square():
    pts = _unit_square_points(20000, 0)
    report = chi_square_region(pts, _flat_pdf, bins=8,
                               alpha=0.001, bounds=((0, 1), (0, 1)))
    assert report.test == "chi-square"
    assert report.verdict
    assert "dof 63" in report.label  # 64 full cells, no pooling, pool empty


def test_chi_square_rejects_clustered_points():
    gen = RandomStream(902, 1).generator
    pts = 0.5 + 0.12 * gen.standard_normal((20000, 2))
    pts = pts[(pts > 0).all(axis=1) & (pts < 1).all(axis=1)]
    report = chi_square_region(pts, _flat_pdf, bins=8,
                               alpha=0.001, bounds=((0, 1), (0, 1)))
    assert not report.verdict


def test_chi_square_pools_outside_mass():
    # restrict the partition to a sub-square: the outside mass must join the
    # pooled cell and the test must still accept the exact law
    pts = _unit_square_points(20000, 2)
    report = chi_square_region(pts, _flat_pdf, bins=(4, 5),
                               alpha=0.001, bounds=((0.2, 0.8), (0.1, 0.9)))
    assert report.verdict
    assert "dof 20" in report.label  # 4*5 cells + pooled outside cell - 1


def test_chi_square_rejects_bad_arguments():
    pts = _unit_square_points(500, 3)
    with pytest.raises(ValueError):
        chi_square_region(pts[:, 0], _flat_pdf, bins=4)
    with pytest.raises(ValueError):
        chi_square_region(pts[:50], _flat_pdf, bins=4)
    with pytest.raises(ValueError):
        chi_square_region(pts, _flat_pdf, bins=1)
    with pytest.raises(ValueError):
        # far outside the support: every expected count is ~0
        chi_square_region(pts, _flat_pdf, bins=4, bounds=((5, 6), (5, 6)))


# ---------------------------------------------------------------------------
# the standard battery
# ---------------------------------------------------------------------------

def test_ks_matrix_covers_all_sampled_univariate_laws():
    assert len(KS_MATRIX) == 17
    tags = [tag for tag, _, _ in KS_MATRIX]
    assert len(set(tags)) == 17
    for tag, family, statistic in KS_MATRIX:
        assert tag in CATALOG and CATALOG[tag].arity == 1
        assert family in ("pinned", "staked", "anchored", "uniformT")
        assert isinstance(statistic, str)


def test_ks_battery_light():
    reports = ks_battery(3000, 2, [tag for tag, _, _ in KS_MATRIX], alpha=0.001)[1]
    assert len(reports) == 17
    assert all(r.verdict for r in reports)
    assert all(r.n == 3000 for r in reports)

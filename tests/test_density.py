"""Tests for the closed-form density catalog.

Strategy: every density is checked against something other than its own
formula — reductions of a joint density, reciprocal-variable identities,
high-precision re-evaluation of branch expressions near the series
windows, and exact hand-computed values.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntriangles import density, gof
from nntriangles.density import CATALOG
from nntriangles.gof import KS_MATRIX
from nntriangles.numerics import QuadratureSpec, integrate_1d, integrate_batch
from nntriangles.sampler import FAMILIES, RandomStream, sample_batch

PI = math.pi

UNIVARIATE = [tag for tag, kind in CATALOG.items() if kind.arity == 1]


# ---------------------------------------------------------------------------
# catalog structure
# ---------------------------------------------------------------------------

def test_catalog_size_and_arities():
    assert len(CATALOG) == 28
    arities = [kind.arity for kind in CATALOG.values()]
    assert (arities.count(1), arities.count(2), arities.count(3)) == (20, 7, 1)


def test_catalog_metadata_consistency():
    for key, kind in CATALOG.items():
        assert kind.tag == key
        assert callable(kind.pdf)
        assert len(kind.support) == kind.arity
        for lo, hi in kind.support:
            assert lo < hi
        for p in kind.singular_points:
            lo, hi = kind.support[0]
            assert lo < p < hi
        assert kind.tail in ("finite", "gauss", "power")
        if kind.tail == "gauss":
            assert kind.gauss_scale > 0.0
        if kind.tail == "power":
            assert kind.tail_power > 1.0  # integrable tail
        if kind.tail == "finite" and kind.arity == 1:
            assert math.isfinite(kind.support[0][1])
        assert kind.family in FAMILIES
        if kind.arity == 1:
            batch = sample_batch(kind.family, 200, RandomStream(1))
            assert batch.statistic(kind.statistic).shape == (200,)
            assert kind.marginal is None
            lo, hi = kind.support[0]
            for p in kind.breakpoints:
                assert lo < p < hi
        else:
            assert kind.statistic is None and kind.breakpoints == ()
            marginal = CATALOG[kind.marginal]
            assert marginal.arity == 1 and marginal.family == kind.family
    # one univariate kind per sampled statistic, so moments can look a
    # marginal up by (family, statistic)
    sources = [(k.family, k.statistic) for k in CATALOG.values() if k.arity == 1]
    assert len(set(sources)) == len(sources)
    for tag, family, statistic in KS_MATRIX:
        assert (family, statistic) == (CATALOG[tag].family, CATALOG[tag].statistic)


def test_shared_marginal_objects():
    # anchored angles are exchangeable, the ratio of the two random sides
    # of a uniform-angle triangle has the same law as a single side, and the
    # staked and pinned origin angles are both uniform on (0, pi), so these
    # catalog entries share one evaluator.
    assert CATALOG["anchored_beta"].pdf is CATALOG["anchored_alpha"].pdf
    assert CATALOG["uT_ratio"].pdf is CATALOG["uT_side_a"].pdf
    assert CATALOG["staked_alpha"].pdf is CATALOG["pinned_alpha"].pdf
    # ... and one distribution-function grid
    assert gof._grid(CATALOG["anchored_beta"]) is gof._grid(CATALOG["anchored_alpha"])
    assert gof._grid(CATALOG["uT_ratio"]) is gof._grid(CATALOG["uT_side_a"])
    assert gof._grid(CATALOG["staked_alpha"]) is gof._grid(CATALOG["pinned_alpha"])


def test_scalar_and_array_shapes():
    v = density.pdf_pinned_c(0.5)
    assert isinstance(v, float)
    arr = density.pdf_pinned_c(np.linspace(0.1, 2.0, 7))
    assert isinstance(arr, np.ndarray) and arr.shape == (7,)
    grid = density.pdf_pair_ab(np.linspace(0.1, 1.0, 3)[:, None],
                               np.linspace(0.5, 1.5, 4)[None, :])
    assert grid.shape == (3, 4)


# ---------------------------------------------------------------------------
# support boundaries
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", UNIVARIATE)
def test_zero_outside_support(tag):
    kind = CATALOG[tag]
    lo, hi = kind.support[0]
    assert kind.pdf(lo - 0.3) == 0.0
    assert kind.pdf(-1.0) == 0.0
    assert kind.pdf(lo) == 0.0  # open at the lower endpoint
    if math.isfinite(hi):
        assert kind.pdf(hi + 0.3) == 0.0
    assert kind.pdf(math.inf) == 0.0
    assert kind.pdf(-math.inf) == 0.0
    np.testing.assert_array_equal(kind.pdf(np.array([-math.inf, math.inf])), 0.0)
    # NaN in any coordinate gives NaN out, and leaves its neighbours alone
    assert math.isnan(kind.pdf(math.nan))
    inner = lo + 0.37 * (min(hi, lo + 2.0) - lo)
    out = kind.pdf(np.array([math.nan, inner, math.nan]))
    assert np.isnan(out).tolist() == [True, False, True]
    assert out[1] == kind.pdf(inner)
    assert math.isnan(density.pdf_pair_ab(1.0, math.nan))
    np.testing.assert_array_equal(
        np.isnan(density.pdf_pinned_sides_joint(np.array([1.0, math.nan]), 1.2, 0.8)),
        [False, True])


HUGE = (1e103, 1e155, 1e300, 1.7e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_huge_coordinates_give_zero_without_warnings(tag):
    # polynomial factors overflow long before the density's exp(-pi b^2) or
    # power-law decay lets go, which once gave inf * 0 = NaN and warnings
    # (-1e308, -1e308) once overflowed alpha + beta in the angle joints
    arity = CATALOG[tag].arity
    extremes = [sign * h for h in (*HUGE, math.inf) for sign in (1.0, -1.0)]
    points = [(h,) * arity for h in extremes]
    if arity > 1:  # one coordinate huge, or all but one
        points += [tuple(h if (j == i) == alone else 1.0 for j in range(arity))
                   for h in extremes for i in range(arity)
                   for alone in (True, False)]
    values = [CATALOG[tag].pdf(*point) for point in points]
    # the slowest tails decay like x^-2, 4e-207 at 1e103
    assert all(0.0 <= v < 1e-200 for v in values), list(zip(points, values))
    np.testing.assert_array_equal(CATALOG[tag].pdf(*np.array(points).T), values)


# Coordinates of every size: any float (NaN, infinities, subnormals, 1e308),
# signed magnitudes 1e-320 to 1e308, and ordinary points scaled down
# together (tiny triangles, whose products underflow).
_COORDINATE = st.one_of(
    st.floats(),
    st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([-1.0, 1.0]),
              st.floats(1.0, 9.99), st.integers(-320, 307)),
    st.floats(-1.0, 20.0),
)


@st.composite
def _points(draw, arity):
    if arity > 1 and draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-320, -80))
        return [draw(st.floats(0.1, 4.0)) * scale for _ in range(arity)]
    return [draw(_COORDINATE) for _ in range(arity)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_density_contract_at_any_point(tag):
    """NaN in gives NaN out; otherwise the value is finite and >= 0, or inf,
    and 0 outside the declared support; no RuntimeWarning."""
    kind = CATALOG[tag]

    @settings(max_examples=100, deadline=None, database=None)
    @given(point=_points(kind.arity))
    def check(point):
        value = kind.pdf(*point)
        if any(math.isnan(x) for x in point):
            assert math.isnan(value), point
            return
        assert value == math.inf or (math.isfinite(value) and value >= 0.0), (point, value)
        if tag == "pair_ac_integral":
            assert value != math.inf, point
        if not all(lo < x < hi for x, (lo, hi) in zip(point, kind.support)):
            assert value == 0.0, (point, value)

    check()


def test_joint_support_conditions():
    # trivariate: requires 0 < c < b and |b - c| < a < b + c
    j = density.pdf_pinned_sides_joint
    assert j(1.0, 0.8, 0.9) == 0.0          # c > b
    assert j(2.5, 1.2, 0.8) == 0.0          # a > b + c
    assert j(0.3, 1.2, 0.8) == 0.0          # a < b - c
    assert j(1.0, 1.2, 0.8) > 0.0
    # (alpha, beta) joint lives on (pi - alpha)/2 < beta < pi - alpha
    aj = density.pdf_pinned_angles_joint
    assert aj(0.3, 0.2) == 0.0
    assert aj(0.3, PI - 0.2) == 0.0
    assert aj(0.3, 0.5 * (PI - 0.3) + 0.1) > 0.0
    # staked/anchored joints vanish once the angles cannot close a triangle
    assert density.pdf_staked_angles_joint(2.0, 2.0) == 0.0
    assert density.pdf_anchored_angles_joint(1.8, 1.5) == 0.0
    assert density.pdf_staked_angles_joint(0.4, 0.8) > 0.0
    # near the base the joints grow like 1/(alpha + beta) and stay finite
    # (sin(alpha + beta)^3 underflows to 0 below alpha + beta ~ 1e-108)
    for eps in (1e-160, 1e-200):
        assert density.pdf_staked_angles_joint(eps, eps) == pytest.approx(
            math.exp(-PI / 4.0) / (4.0 * eps), rel=1e-14)
        assert density.pdf_anchored_angles_joint(eps, eps) == pytest.approx(
            1.0 / (4.0 * eps), rel=1e-14)
    # side pairs
    assert density.pdf_pair_ab(2.1, 1.0) == 0.0   # a >= 2b impossible
    assert density.pdf_pair_bc(0.5, 0.6) == 0.0   # c >= b impossible
    # uniform-angle sides obey the triangle inequality with the unit base
    assert density.pdf_uT_sides_joint(0.4, 0.5) == 0.0
    assert density.pdf_uT_sides_joint(0.4, 1.5) == 0.0
    assert density.pdf_uT_sides_joint(0.4, 1.0) > 0.0


def test_divergent_boundary_points_return_inf():
    assert density.pdf_uT_side_a(1.0) == math.inf
    assert density.pdf_uT_ratio(1.0) == math.inf
    assert density.pdf_uT_max(1.0) == math.inf
    # collinear side triples (dyadic values make the edge tests exact)
    assert density.pdf_pinned_sides_joint(2.0, 1.25, 0.75) == math.inf
    assert density.pdf_pinned_sides_joint(0.5, 1.25, 0.75) == math.inf
    assert density.pdf_pinned_sides_joint(1.5, 1.0, 0.5) == math.inf
    assert density.pdf_pinned_sides_joint(0.5, 1.0, 0.5) == math.inf
    # a needle triangle whose b +- c both round to a is still inside: the
    # density tends to 4 pi exp(-pi) as c -> 0 along a = b
    assert density.pdf_pinned_sides_joint(1.0, 1.0, 1e-17) == pytest.approx(
        4.0 * PI * math.exp(-PI), rel=1e-15)
    # tiny sides underflow the Heron product to 0, which once read as the
    # boundary: inside, the density scales with the sides; outside it is 0;
    # on the boundary (dyadic, so exact at any scale) it stays inf
    assert density.pdf_pinned_sides_joint(3e-100, 2e-100, 1.5e-100) == pytest.approx(
        1e-100 * 72.0 * PI / math.sqrt(6.5 * 0.5 * 2.5 * 3.5), rel=1e-13)
    assert density.pdf_pinned_sides_joint(5.0e-181, 1.9e-194, 1.5e-286) == 0.0
    assert density.pdf_pinned_sides_joint(1.0, 1.0, 1e-200) == pytest.approx(
        4.0 * PI * math.exp(-PI), rel=1e-12)
    assert density.pdf_pinned_sides_joint(*(2.0**-700 * np.array([2.0, 1.25, 0.75]))) == math.inf


# ---------------------------------------------------------------------------
# hand-computable values
# ---------------------------------------------------------------------------

def test_simple_exact_values():
    assert density.pdf_pinned_alpha(0.3) == pytest.approx(1.0 / PI, abs=1e-15)
    assert density.pdf_staked_alpha(2.9) == pytest.approx(1.0 / PI, abs=1e-15)
    assert density.pdf_ratio_c_over_b(0.73) == pytest.approx(1.46, abs=1e-15)
    assert density.pdf_ratio_b_over_c(2.0) == pytest.approx(0.25, abs=1e-15)
    assert density.pdf_pinned_beta(0.5 * PI) == pytest.approx(1.0 / PI, abs=1e-15)
    # min-side density at the branch meeting point: arctanh(1/2) = ln(3)/2
    assert density.pdf_uT_min(0.5) == pytest.approx(
        8.0 * math.log(3.0) / PI**2, rel=1e-14)
    # removable point of the a/c and c/a densities: identical constants
    assert density.pdf_ratio_c_over_a(1.0) == density.pdf_ratio_a_over_c(1.0)
    assert density.pdf_ratio_c_over_a(1.0) == pytest.approx(
        0.2756644477108960, rel=1e-14)


def test_light_normalization():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_1d(density.pdf_ratio_a_over_b, 0.0, 2.0, spec)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-11)
    r = integrate_1d(density.pdf_pinned_gamma, 0.0, 0.5 * PI, spec)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-11)
    r = integrate_1d(density.pdf_pinned_c, 0.0, math.inf, spec)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-11)


# ---------------------------------------------------------------------------
# marginals reduce correctly from joints (independent of the closed forms)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [0.2, 0.7, 1.3])
def test_gamma_marginal_matches_angle_joint(g):
    # gamma = pi - alpha - beta, so the gamma density is the line integral
    # of the (alpha, beta) joint along alpha + beta = pi - g.
    def integrand(alpha):
        return density.pdf_pinned_angles_joint(alpha, PI - g - alpha)

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_1d(integrand, 0.0, PI - 2.0 * g, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_pinned_gamma(g), abs=1e-9)


@pytest.mark.parametrize("b", [0.03, 0.9, 0.5 * PI, 2.2, PI - 0.03])
def test_beta_marginal_matches_angle_joint(b):
    # Integrating the (alpha, beta) joint over alpha must reproduce the
    # two-branch beta density, including inside its series windows.
    def integrand(alpha):
        return density.pdf_pinned_angles_joint(alpha, b)

    lo = max(0.0, PI - 2.0 * b)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    r = integrate_1d(integrand, lo, PI - b, spec)
    expected = density.pdf_pinned_beta(b)
    assert r.converged
    assert r.value == pytest.approx(expected, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("b", [0.4, 1.0, 1.7])
def test_b_density_matches_pair_bc_reduction(b):
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    r = integrate_1d(lambda c: density.pdf_pair_bc(b, c), 0.0, b, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_pinned_b(b), rel=1e-11)


@pytest.mark.parametrize("z", [0.5, 1.2, 1.9])
def test_side_ratio_matches_pair_ab_reduction(z):
    # density of a/b at z is  int b * f_{a,b}(z b, b) db
    def integrand(b):
        return b * density.pdf_pair_ab(z * b, b)

    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    r = integrate_1d(integrand, 0.0, 6.0, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_ratio_a_over_b(z), abs=1e-9)


@pytest.mark.parametrize("z", [0.3, 0.8, 1.4, 2.5])
def test_uT_ratio_matches_sides_joint_reduction(z):
    # density of a/b at z is  int b * f_{a,b}(z b, b) db  for the
    # uniform-angle sides joint; it must coincide with the single-side law.
    # (The triangle inequality with the unit base confines b to a finite
    # interval for every z != 1; at z = 1 the ratio density diverges.)
    def integrand(b):
        return b * density.pdf_uT_sides_joint(z * b, b)

    lo = 1.0 / (1.0 + z)
    hi = 1.0 / (1.0 - z) if z < 1.0 else 1.0 / (z - 1.0)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    r = integrate_1d(integrand, lo, hi, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_uT_ratio(z), rel=1e-9)


# ---------------------------------------------------------------------------
# reciprocal-variable identities: f_{1/X}(y) = f_X(1/y) / y^2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inv_pdf,base_pdf,points", [
    (density.pdf_ratio_b_over_a, density.pdf_ratio_a_over_b,
     [0.6, 1.0, 2.5, 7.0]),
    (density.pdf_ratio_b_over_c, density.pdf_ratio_c_over_b,
     [1.3, 2.0, 5.0]),
    (density.pdf_ratio_a_over_c, density.pdf_ratio_c_over_a,
     [0.4, 0.8, 1.0, 1.5, 3.0]),
])
def test_reciprocal_identities(inv_pdf, base_pdf, points):
    for y in points:
        expected = base_pdf(1.0 / y) / y**2
        assert inv_pdf(y) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# branch continuity and series-window accuracy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("func,point,eps", [
    (density.pdf_pinned_beta, 0.05, 1e-7),
    (density.pdf_pinned_beta, 0.5 * PI, 1e-7),
    (density.pdf_pinned_beta, PI - 0.05, 1e-7),
    # square-root cusps: continuous, but the one-sided slope is infinite,
    # so the probe distance must be tiny for the gap to vanish
    (density.pdf_ratio_c_over_a, 0.5, 1e-12),
    (density.pdf_ratio_c_over_a, 0.97, 1e-7),
    (density.pdf_ratio_c_over_a, 1.03, 1e-7),
    (density.pdf_ratio_a_over_c, 0.97, 1e-7),
    (density.pdf_ratio_a_over_c, 1.03, 1e-7),
    (density.pdf_ratio_a_over_c, 2.0, 1e-12),
    (density.pdf_uT_min, 0.5, 1e-7),
])
def test_branch_continuity(func, point, eps):
    left, right = func(point - eps), func(point + eps)
    scale = max(abs(left), abs(right), 1e-3)
    assert abs(left - right) <= 1e-5 * scale


def _beta_lo_branch_mp(x):
    """Low-angle branch of the beta density in 60-digit arithmetic."""
    x = mpmath.mpf(x)
    pi, s, c = mpmath.pi, mpmath.sin(x), mpmath.cos(x)
    return 1 / (2 * pi) + (1 - 3 * c**2) / (2 * pi * s**2) + x * c / (pi * s**3)


def _beta_hi_branch_mp(x):
    x = mpmath.mpf(x)
    pi, s, c = mpmath.pi, mpmath.sin(x), mpmath.cos(x)
    return 1 / (pi * s**2) + (pi - x) * c / (pi * s**3)


def _ca_branch_mp(x):
    """Main branch of the c/a ratio density in 60-digit arithmetic."""
    x = mpmath.mpf(x)
    pi, x2 = mpmath.pi, x * x
    num = -(2 * (x2 - 1) * mpmath.sqrt(4 * x2 - 1)
            - pi * x2 * (1 + x2)
            + 6 * x2 * (1 + x2) * mpmath.asin(1 / (2 * x)))
    return num / (pi * x * (x2 - 1) ** 3)


def test_series_windows_match_high_precision():
    # Direct evaluation of the closed forms loses digits to cancellation
    # near these points; the series must agree with a 60-digit evaluation
    # of the same analytic expression.
    with mpmath.workdps(60):
        for x in (0.004, 0.01, 0.04):
            assert density.pdf_pinned_beta(x) == pytest.approx(
                float(_beta_lo_branch_mp(x)), rel=1e-12)
            assert density.pdf_pinned_beta(PI - x) == pytest.approx(
                float(_beta_hi_branch_mp(mpmath.pi - mpmath.mpf(x))), rel=1e-12)
        for x in (0.975, 0.99, 1.01, 1.025):
            assert density.pdf_ratio_c_over_a(x) == pytest.approx(
                float(_ca_branch_mp(x)), rel=1e-12)
            # mirror identity gives the a/c window an independent reference
            assert density.pdf_ratio_a_over_c(x) == pytest.approx(
                float(_ca_branch_mp(1 / mpmath.mpf(x)) / mpmath.mpf(x) ** 2),
                rel=1e-12)


# ---------------------------------------------------------------------------
# staked / anchored joints
# ---------------------------------------------------------------------------

def test_anchored_joint_is_exchangeable_staked_is_not():
    # bit for bit, on 10^4 seeded points uniform on the support (folded
    # into alpha + beta < pi) and 10^3 where sin(alpha + beta)^3 underflows
    rng = np.random.default_rng(33)
    a, b = rng.uniform(0.0, PI, (2, 10_000))
    a, b = np.where(a + b < PI, (a, b), (PI - b, PI - a))
    tiny_a, tiny_b = 10.0 ** rng.uniform(-300.0, -110.0, (2, 1000))
    a = np.concatenate([a, tiny_a, [0.3, 1e-200]])
    b = np.concatenate([b, tiny_b, [1.0, 3e-200]])
    joint = density.pdf_anchored_angles_joint
    assert np.count_nonzero(joint(a, b)) > 10_000  # 0 only where exp(-pi |C - H|^2) underflows
    np.testing.assert_array_equal(joint(a, b), joint(b, a))
    assert density.pdf_staked_angles_joint(0.3, 1.0) != \
        density.pdf_staked_angles_joint(1.0, 0.3)


def test_anchored_marginals_share_values():
    x = np.array([0.2, 1.0, 2.4])
    np.testing.assert_array_equal(density.pdf_anchored_alpha(x),
                                  density.pdf_anchored_beta(x))


@pytest.mark.parametrize("x", [0.15, 0.9, 2.0])
def test_staked_beta_marginal_matches_joint(x):
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    r = integrate_1d(lambda a: density.pdf_staked_angles_joint(a, x),
                     0.0, PI - x, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_staked_beta(x), rel=1e-8)


@pytest.mark.parametrize("x", [0.15, 0.9, 2.0])
def test_anchored_alpha_marginal_matches_joint(x):
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    r = integrate_1d(lambda b: density.pdf_anchored_angles_joint(x, b),
                     0.0, PI - x, spec)
    assert r.converged
    assert r.value == pytest.approx(density.pdf_anchored_alpha(x), rel=1e-8)


# The closed-form angle marginals at a base vertex at distance r from H =
# (h, 0) (r = h at A, 1 - h at B; staked h = 0, anchored h = 1/2), each
# with its joint in (marginal angle, partner angle) order.  Staked alpha
# is r = 0, the uniform 1/pi.
ANGLE_MARGINALS = [
    pytest.param(density.pdf_staked_alpha, density.pdf_staked_angles_joint, 0.0,
                 id="staked_alpha"),
    pytest.param(density.pdf_staked_beta,
                 lambda x, partner: density.pdf_staked_angles_joint(partner, x), 1.0,
                 id="staked_beta"),
    pytest.param(density.pdf_anchored_alpha, density.pdf_anchored_angles_joint, 0.5,
                 id="anchored_alpha"),
    pytest.param(density.pdf_anchored_beta,
                 lambda x, partner: density.pdf_anchored_angles_joint(partner, x), 0.5,
                 id="anchored_beta"),
]


@pytest.mark.parametrize("marginal, joint, r", ANGLE_MARGINALS)
def test_angle_marginal_matches_integrated_joint(marginal, joint, r):
    xs = np.linspace(1e-3, PI - 1e-3, 40)
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)
    res = integrate_batch(lambda p, k: joint(xs[k], p), np.zeros_like(xs), PI - xs, spec)
    assert res.converged.all()
    assert np.abs(res.value - marginal(xs)).max() <= 1e-12


@pytest.mark.parametrize("marginal, joint, r", ANGLE_MARGINALS)
def test_angle_marginal_endpoint_limits(marginal, joint, r):
    # exp(-pi r^2)/pi +- r erfc(-+sqrt(pi) r) as phi -> 0 and phi -> pi
    base = math.exp(-PI * r * r) / PI
    root = math.sqrt(PI) * r
    assert marginal(1e-9) == pytest.approx(base + r * math.erfc(-root), abs=1e-15)
    assert marginal(PI - 1e-9) == pytest.approx(base - r * math.erfc(root), abs=1e-15)


# ---------------------------------------------------------------------------
# integral-form pair density
# ---------------------------------------------------------------------------

def _pair_ac_reference(a: float, c: float) -> float:
    """The (a, c) joint in the b variable at 40 digits: b exp(-pi b^2) over
    sqrt(((a+c)^2 - b^2)(b^2 - (a-c)^2)) from max(c, a-c) to a+c.  The
    integrand is scaled by exp(pi lo^2), so that mpmath's absolute error
    test is meaningful at any size, and the range is split every
    1/(2 pi lo) near lo, over which exp(-pi b^2) decays by about e."""
    with mpmath.workdps(40):
        a, c = mpmath.mpf(a), mpmath.mpf(c)
        lo, hi = max(c, a - c), a + c
        lo2, hi2 = (a - c) ** 2, hi * hi

        def f(b):
            rad = (hi2 - b * b) * (b * b - lo2)
            if rad <= 0:  # rounding can push tanh-sinh nodes past an endpoint
                return mpmath.mpf(0)
            return b * mpmath.exp(-mpmath.pi * (b * b - lo * lo)) / mpmath.sqrt(rad)

        step = 1 / (2 * mpmath.pi * lo)
        cuts = [lo + k * step for k in (0.25, 1, 4, 16, 64) if lo + k * step < hi]
        return float(8 * mpmath.pi * a * c * mpmath.exp(-mpmath.pi * lo * lo)
                     * mpmath.quad(f, [lo, *cuts, hi]))


# ordinary points; thin or tiny ones (the first three of them are where
# an adaptive b integral did not converge); large 2 pi a c near a = c, at
# a within 1e-15 relative of 2c (where beta0 -> 0) and at a > 2c
PAIR_AC_POINTS = [
    (1.0, 0.4), (0.6, 0.5), (1.8, 0.3),
    (9.907021242543472e-06, 1.5910789395764802), (0.5, 8.871353193234626e-13),
    (9.23344621981387e-72, 1.1558402139381194e-79), (0.01, 5.0), (5.0, 0.01),
    (10.0, 9.5), (20.0, 9.0), (26.55, 13.10), (1.0 - 1e-15, 0.5), (1.0 + 1e-15, 0.5),
    (18.0 - 4e-15, 9.0), (18.0 + 4e-15, 9.0), (12.0, 2.0),
]


@pytest.mark.parametrize("a,c", PAIR_AC_POINTS)
def test_pair_ac_matches_high_precision_quadrature(a, c):
    value = density.pdf_pair_ac(a, c)
    assert value == pytest.approx(_pair_ac_reference(a, c), rel=1e-12)
    if a >= 2.0 * c:
        # the b range is all of (a - c, a + c), where the integral is
        # 4 pi^2 a c exp(-pi (a^2 + c^2)) I0(2 pi a c)
        with mpmath.workdps(40):
            a_, c_ = mpmath.mpf(a), mpmath.mpf(c)
            closed = (4 * mpmath.pi ** 2 * a_ * c_ * mpmath.exp(-mpmath.pi * (a_ ** 2 + c_ ** 2))
                      * mpmath.besseli(0, 2 * mpmath.pi * a_ * c_))
        assert value == pytest.approx(float(closed), rel=1e-12)


def test_pair_ac_outside_support():
    assert density.pdf_pair_ac(-1.0, 0.5) == 0.0
    assert density.pdf_pair_ac(0.5, 0.0) == 0.0


def test_pair_ac_arrays_match_pointwise_calls():
    a = np.array([0.3, 0.7, 1.1, 1.7, 2.3, -1.0])[:, None]
    c = np.array([0.05, 0.3, 0.5, 0.8, 1.2, 2.0])[None, :]
    values = density.pdf_pair_ac(a, c)
    assert values.shape == (6, 6)
    pointwise = [[density.pdf_pair_ac(float(x), float(y)) for y in c[0]] for x in a[:, 0]]
    assert np.array_equal(values, np.array(pointwise))
    assert np.all(values[:5] > 0.0) and np.all(values[5] == 0.0)
    # many scattered points in one batch: each still comes out as it does alone
    rng = np.random.default_rng(4)
    a, c = 0.05 + 2.5 * rng.random(300), 0.05 + 1.5 * rng.random(300)
    pointwise = [density.pdf_pair_ac(float(x), float(y)) for x, y in zip(a, c)]
    assert np.array_equal(density.pdf_pair_ac(a, c), pointwise)


def test_pair_ac_edges():
    with np.errstate(all="raise"):
        values = density.pdf_pair_ac(
            np.array([np.nan, 1.0, np.inf, -np.inf, 1.0, 1e300, 1.0, 1e300, 40.0]),
            np.array([1.0, np.nan, 1.0, 1.0, np.inf, 1.0, 1e300, 1e300, 0.5]))
    assert np.isnan(values[:2]).all()
    assert np.array_equal(values[2:], np.zeros(7))
    assert math.isnan(density.pdf_pair_ac(math.nan, 1.0))
    assert density.pdf_pair_ac(math.inf, 1.0) == 0.0
    assert density.pdf_pair_ac(1e300, 1.0) == 0.0

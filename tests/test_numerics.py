"""Quadrature engine, special functions, interpolation: accuracy and error
honesty against independently known values."""

import math

import mpmath
import numpy as np
import pytest

from nntriangles.numerics import (CATALAN, IntegrandError, MonotoneCubic,
                                  QuadratureSpec, _segment_sums, bessel_i0, erfc,
                                  fixed_panel_integrals, gaussian_tail_cutoff,
                                  integrate_1d, integrate_2d, integrate_batch)

PI = math.pi


# ---------------------------------------------------------------------------
# known-integral battery: value accuracy plus honest error estimates
# ---------------------------------------------------------------------------

BATTERY = [
    # (integrand, lo, hi, spec-kwargs, exact value)
    (lambda x: x * x, 0.0, 1.0, {}, 1.0 / 3.0),
    (lambda x: np.sin(x), 0.0, PI, {}, 2.0),
    (lambda x: np.cos(x), 0.0, 2.0 * PI, {}, 0.0),
    (lambda x: x * np.sin(x), 0.0, 10.0 * PI, {}, -10.0 * PI),
    (lambda x: np.exp(-x), 0.0, 50.0, {}, 1.0 - math.exp(-50.0)),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, {"singularity": "left"}, 2.0),
    (lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0, {"singularity": "right"}, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, {"singularity": "left"}, -1.0),
    (lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, {"singularity": "both"}, PI),
    (lambda x: np.exp(-x * x), 0.0, np.inf, {}, math.sqrt(PI) / 2.0),
    (lambda x: x**3 * np.exp(-PI * x * x), 0.0, np.inf, {}, 1.0 / (2.0 * PI**2)),
    (lambda x: x / (1.0 + x * x) ** 2, 0.0, np.inf, {}, 0.5),
    (lambda x: 2.0 / x**3, 1.0, np.inf, {}, 1.0),
]


@pytest.mark.parametrize("f,lo,hi,kwargs,exact", BATTERY)
def test_known_integrals(f, lo, hi, kwargs, exact):
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, **kwargs)
    r = integrate_1d(f, lo, hi, spec)
    assert r.converged
    scale = max(1.0, abs(exact))
    assert abs(r.value - exact) <= 1e-9 * scale
    # honesty: the reported error bounds the true error up to the tolerance
    assert abs(r.value - exact) <= max(10.0 * r.error, 1e-11 * scale)


def test_square_root_edge_pair_is_near_exact():
    # the endpoint substitution turns 1/sqrt((B-x)(x-A)) into a constant
    a_, b_ = 0.3, 1.7
    spec = QuadratureSpec(singularity="both")
    r = integrate_1d(lambda x: 1.0 / np.sqrt((b_ - x) * (x - a_)), a_, b_, spec)
    assert abs(r.value - PI) < 1e-13


def test_unflagged_singularity_fails_honestly():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=8)
    r = integrate_1d(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0, spec)
    assert not r.converged
    assert r.error > abs(r.value - 2.0) * 0.01


def test_nan_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate_1d(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_singularity_flags_need_finite_interval():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: np.exp(-x), 0.0, np.inf,
                     QuadratureSpec(singularity="left"))


def test_integrate_2d_triangle_area():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_2d(lambda x, y: np.ones_like(y), 0.0, 1.0,
                     lambda x: (0.0, 1.0 - x), spec)
    assert r.value == pytest.approx(0.5, abs=1e-11)
    assert r.converged


def test_integrate_2d_product_kernel():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_2d(lambda x, y: x * np.exp(-y), 0.0, 2.0,
                     lambda x: (0.0, float(x)), spec)
    exact = 2.0 + math.exp(-2.0) * 3.0 - 1.0 - 2.0 * math.exp(-2.0)
    # int_0^2 x (1 - e^-x) dx = 2 - (1 - 3 e^-2)
    exact = 2.0 - (1.0 - 3.0 * math.exp(-2.0))
    assert r.value == pytest.approx(exact, abs=1e-10)


def test_integrate_2d_counts_inner_work():
    outer_nodes = []
    inner_nodes = []

    def bounds(x):
        outer_nodes.append(x)
        return 0.0, 1.0 - x

    def f(x, y):
        inner_nodes.append(y.size)
        return np.ones_like(y)

    r = integrate_2d(f, 0.0, 1.0, bounds, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
    assert r.value == pytest.approx(0.5, abs=1e-11)
    assert r.neval == len(outer_nodes) + sum(inner_nodes)
    assert r.neval > len(outer_nodes) > 0


def test_integrate_2d_integrand_sees_paired_arrays():
    def f(x, y):
        assert np.shape(x) == np.shape(y) and np.ndim(y) == 1
        return x * y * np.exp(x - y)

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_2d(f, 0.0, 1.0, lambda x: (0.0, x), spec)
    # inner: x e^x (1 - (1 + x) e^-x) = x e^x - x - x^2
    exact = 1.0 - 0.5 - 1.0 / 3.0
    assert r.converged
    assert r.value == pytest.approx(exact, abs=1e-11)


# ---------------------------------------------------------------------------
# batched engine: K integrals at once behave as K separate ones
# ---------------------------------------------------------------------------

RATES = np.array([0.5, 1.0, 3.0, 7.0, 20.0])
FREQS = np.array([1.0, 4.0, 9.0, 0.5, 25.0])


def _wave(x, k):
    return np.exp(-RATES[k] * x) * (1.5 + np.sin(FREQS[k] * x))


def _assert_matches_separate(batch, lo, hi, spec, f=_wave):
    # bit for bit: a batch reduces each panel and each integral on its own
    for k in range(len(lo)):
        alone = integrate_1d(lambda x: f(x, np.full(x.shape, k)), lo[k], hi[k], spec)
        assert batch[k].value == alone.value
        assert batch[k].error == alone.error
        assert batch[k].converged == alone.converged
        assert batch[k].subdivisions == alone.subdivisions
        assert batch[k].neval == alone.neval


@pytest.mark.parametrize("kwargs", [{}, {"singularity": "both"}])
def test_batch_matches_separate_runs(kwargs):
    lo = np.array([0.0, 0.2, -1.0, 0.0, 0.1])
    hi = np.array([1.0, 3.0, 2.0, 10.0, 0.15])
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, **kwargs)
    r = integrate_batch(_wave, lo, hi, spec)
    assert r.converged.all()
    assert len(set(r.subdivisions.tolist())) > 1
    _assert_matches_separate(r, lo, hi, spec)


@pytest.mark.parametrize("singularity", ["none", "both"])
def test_batch_with_ragged_random_rates_matches_separate_runs(singularity):
    # many integrals of uneven difficulty, so sweeps carry ragged panel sets
    rng = np.random.default_rng(11)
    count = 40
    rates = np.exp(4.0 * rng.random(count) - 1.0)
    freqs = 30.0 * rng.random(count)
    lo = rng.random(count) - 0.5
    hi = lo + 0.1 + 6.0 * rng.random(count)

    def f(x, k):
        return np.exp(-rates[k] * x) * (1.5 + np.sin(freqs[k] * x))

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, singularity=singularity)
    r = integrate_batch(f, lo, hi, spec)
    assert len(set(r.subdivisions.tolist())) > 5
    _assert_matches_separate(r, lo, hi, spec, f)


def test_batch_infinite_limits_match_separate_runs():
    lo = np.array([0.0, 1.0, 0.5])
    hi = np.full(3, np.inf)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = integrate_batch(_wave, lo, hi, spec)
    _assert_matches_separate(r, lo, hi, spec)
    with pytest.raises(ValueError):
        integrate_batch(_wave, lo, np.array([1.0, np.inf, 2.0]))


def test_batch_member_exhausting_its_budget():
    def f(x, k):
        return np.where(k == 1, 1.0 / np.sqrt(np.maximum(x, 1e-300)), _wave(x, k))

    lo, hi = np.zeros(3), np.ones(3)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=12)
    r = integrate_batch(f, lo, hi, spec)
    assert r.converged.tolist() == [True, False, True]
    assert r.subdivisions[1] == 12
    _assert_matches_separate(r, lo, hi, spec, f)


def test_batch_member_with_empty_interval():
    seen = []

    def f(x, k):
        seen.append(k)
        return _wave(x, k)

    lo = np.array([0.0, 2.0, 0.0])
    hi = np.array([1.0, 1.0, 2.0])
    r = integrate_batch(f, lo, hi)
    assert 1 not in np.concatenate(seen)
    assert r[1].value == 0.0 and r[1].converged and r[1].neval == 0
    _assert_matches_separate(r, lo, hi, QuadratureSpec())


def test_batch_member_returning_nan_raises():
    def f(x, k):
        return np.where(k == 2, np.nan, _wave(x, k))

    with pytest.raises(IntegrandError):
        integrate_batch(f, np.zeros(3), np.ones(3))


def test_segment_sums_match_ndarray_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 300, 60)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    x = rng.standard_normal((2, sizes.sum())) * np.exp(5.0 * rng.standard_normal(sizes.sum()))
    sums = _segment_sums(x, starts, sizes)
    for i, (s, n) in enumerate(zip(starts, sizes)):
        assert sums[0, i] == x[0, s:s + n].sum()
        assert sums[1, i] == x[1, s:s + n].sum()


def test_gaussian_tail_cutoff_is_sound():
    for scale, degree in [(1.0, 0), (PI, 3), (PI / 4.0, 1), (PI, 8)]:
        cut = gaussian_tail_cutoff(scale, degree, 1e-16)
        tail = mpmath.quad(lambda t: t**degree * mpmath.e**(-scale * t * t),
                           [cut, mpmath.inf])
        whole = mpmath.quad(lambda t: t**degree * mpmath.e**(-scale * t * t),
                            [0, mpmath.inf])
        assert tail / whole < 1e-15


def test_gaussian_tail_cutoff_rejects_bad_scale():
    with pytest.raises(ValueError):
        gaussian_tail_cutoff(0.0)


def test_fixed_panel_integrals_partition():
    edges = np.array([0.0, 0.4, 1.1, 2.0])
    parts = fixed_panel_integrals(np.sin, edges)
    assert parts.shape == (3,)
    assert parts.sum() == pytest.approx(1.0 - math.cos(2.0), abs=1e-12)
    assert parts[0] == pytest.approx(1.0 - math.cos(0.4), abs=1e-13)


def test_fixed_panel_integrals_singular_edge():
    edges = np.array([0.0, 0.5, 1.0])
    parts = fixed_panel_integrals(
        lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), edges,
        singular_edges=(0.0,))
    assert parts.sum() == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_erfc_matches_reference():
    xs = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, math.sqrt(PI), 3.0, 8.0])
    ours = erfc(xs)
    theirs = np.array([float(mpmath.erfc(x)) for x in xs])
    assert np.allclose(ours, theirs, rtol=1e-14, atol=1e-300)
    assert erfc(math.sqrt(PI)) == pytest.approx(0.012188882184802895, abs=1e-15)


def test_bessel_i0_matches_reference():
    for x in (0.0, 0.1, PI / 4.0, PI / 2.0, 3.0, 10.0, 40.0):
        assert bessel_i0(x) == pytest.approx(float(mpmath.besseli(0, x)), rel=1e-13)
    assert bessel_i0(PI / 2.0) == pytest.approx(1.718753848187565, abs=1e-13)
    for x in (-1.0, 50.5, math.nan):
        with pytest.raises(ValueError):
            bessel_i0(x)


def test_catalan_constant():
    assert CATALAN == pytest.approx(float(mpmath.catalan), abs=1e-16)


# ---------------------------------------------------------------------------
# monotone interpolation
# ---------------------------------------------------------------------------

def test_monotone_cubic_interpolates_nodes():
    xs = np.linspace(0.0, 2.0, 17)
    ys = 1.0 - np.exp(-PI * xs * xs)
    interp = MonotoneCubic(xs, ys)
    assert np.allclose(interp(xs), ys, atol=1e-15)


def test_monotone_cubic_accuracy_on_smooth_cdf():
    for nodes, bound in ((513, 1e-6), (4097, 1e-9)):
        xs = np.linspace(0.0, 3.0, nodes)
        ys = 1.0 - np.exp(-PI * xs * xs)
        interp = MonotoneCubic(xs, ys)
        fine = np.linspace(0.0, 3.0, 20011)
        err = np.abs(interp(fine) - (1.0 - np.exp(-PI * fine * fine)))
        assert err.max() < bound


def test_monotone_cubic_preserves_monotonicity():
    # data with flat stretches and sharp rises must not overshoot
    xs = np.array([0.0, 1.0, 1.5, 1.6, 2.0, 3.0, 4.0])
    ys = np.array([0.0, 0.0, 0.1, 0.9, 0.95, 0.95, 1.0])
    interp = MonotoneCubic(xs, ys)
    fine = interp(np.linspace(0.0, 4.0, 40001))
    assert np.all(np.diff(fine) >= -1e-15)
    assert fine.min() >= -1e-12 and fine.max() <= 1.0 + 1e-12


def test_monotone_cubic_clamps_outside_range():
    xs = np.linspace(0.0, 1.0, 9)
    interp = MonotoneCubic(xs, xs**2)
    assert interp(np.array([-5.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert interp(np.array([7.0]))[0] == pytest.approx(1.0, abs=1e-15)


def test_monotone_cubic_rejects_bad_nodes():
    with pytest.raises(ValueError):
        MonotoneCubic(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))

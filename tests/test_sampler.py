"""Tests for the triangle samplers.

Distributional checks use scipy's KS machinery as an external referee so
they stay independent of this package's own goodness-of-fit module; all
seeds are fixed, which makes every p-value deterministic.
"""

import io
import math

import numpy as np
import pytest
from scipy import stats

from nntriangles import geom, sampler
from nntriangles.sampler import (
    CSV_HEADER,
    FAMILIES,
    RandomStream,
    SampleBatch,
    sample_batch,
    sample_pinned_oracle_batch,
)

PI = math.pi


# ---------------------------------------------------------------------------
# random stream
# ---------------------------------------------------------------------------

def test_stream_validation():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(2**64)
    with pytest.raises(ValueError):
        RandomStream(0, stream_id=-3)
    s = RandomStream(7, stream_id=2)
    assert s.seed == 7 and s.stream_id == 2 and s.resamples == 0
    assert "seed=7" in repr(s)


def test_stream_reproducibility_and_separation():
    a = RandomStream(11, 4).generator.random(5)
    b = RandomStream(11, 4).generator.random(5)
    np.testing.assert_array_equal(a, b)
    c = RandomStream(11, 5).generator.random(5)
    d = RandomStream(12, 4).generator.random(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# batch plumbing shared by the four families
# ---------------------------------------------------------------------------

def test_sample_batch_rejects_unknown_family_and_negative_count():
    with pytest.raises(ValueError):
        sample_batch("scalene", 10, RandomStream(0))
    with pytest.raises(ValueError):
        sample_batch("pinned", -1, RandomStream(0))


def test_sample_batch_is_deterministic():
    for family in FAMILIES:
        one = sample_batch(family, 50, RandomStream(3, 1))
        two = sample_batch(family, 50, RandomStream(3, 1))
        np.testing.assert_array_equal(one.vertices, two.vertices)
        np.testing.assert_array_equal(one.angles, two.angles)


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_internal_consistency(family):
    batch = sample_batch(family, 2000, RandomStream(21))
    assert batch.family == family
    assert len(batch) == 2000
    assert batch.vertices.shape == (2000, 6)

    # sides are the pairwise vertex distances (a = |BC|, b = |AC|, c = |AB|)
    ax, ay, bx, by, cx, cy = batch.vertices.T
    np.testing.assert_allclose(batch.sides[:, 0], np.hypot(bx - cx, by - cy),
                               rtol=1e-12)
    np.testing.assert_allclose(batch.sides[:, 1], np.hypot(ax - cx, ay - cy),
                               rtol=1e-12)
    np.testing.assert_allclose(batch.sides[:, 2], np.hypot(ax - bx, ay - by),
                               rtol=1e-12)

    # strict triangle inequality on every row
    a, b, c = batch.sides.T
    assert (b + c - a > 0).all() and (a + c - b > 0).all() and (a + b - c > 0).all()

    # angles agree with an independent law-of-cosines recomputation
    expected = np.arccos(np.clip((b**2 + c**2 - a**2) / (2 * b * c), -1, 1))
    np.testing.assert_allclose(batch.angles[:, 0], expected, atol=1e-6)
    np.testing.assert_allclose(batch.angles.sum(axis=1), PI, atol=1e-9)
    assert (batch.angles > 0).all() and (batch.angles < PI).all()


# ---------------------------------------------------------------------------
# reference route: the eager, row-major algorithm the sampler must match
# bit for bit (draw, scatter every round, sides, angles from sides)
# ---------------------------------------------------------------------------

_ANGLES_FROM_SIDES = sampler.angles_from_sides


def _ref_pinned(count, gen):
    sq_near = gen.exponential(1.0 / PI, count)
    sq_far = sq_near + gen.exponential(1.0 / PI, count)
    theta_b = gen.uniform(0.0, 2.0 * PI, count)
    theta_c = gen.uniform(0.0, 2.0 * PI, count)
    rb, rc = np.sqrt(sq_near), np.sqrt(sq_far)
    verts = np.zeros((count, 6))
    verts[:, 2], verts[:, 3] = rb * np.cos(theta_b), rb * np.sin(theta_b)
    verts[:, 4], verts[:, 5] = rc * np.cos(theta_c), rc * np.sin(theta_c)
    verts[rb >= rc, 0] = np.nan
    return verts, None


def _ref_folded(ax, bx):
    def attempt(count, gen):
        radius = np.sqrt(gen.exponential(1.0 / PI, count))
        theta = gen.uniform(0.0, 2.0 * PI, count)
        verts = np.zeros((count, 6))
        verts[:, 0], verts[:, 2] = ax, bx
        verts[:, 4:6] = np.stack([radius * np.cos(theta),
                                  np.abs(radius * np.sin(theta))], axis=1)
        return verts, None
    return attempt


def _ref_uniform_t(count, gen):
    phi = gen.uniform(0.0, PI, count)
    psi = gen.uniform(0.0, PI, count)
    fold = phi + psi >= PI
    alpha = np.where(fold, PI - psi, phi)
    beta = np.where(fold, PI - phi, psi)
    s = np.sin(alpha + beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.cos(alpha) * np.sin(beta) / s
        cy = np.sin(alpha) * np.sin(beta) / s
    verts = np.zeros((count, 6))
    verts[:, 2], verts[:, 4], verts[:, 5] = 1.0, cx, cy
    return verts, np.stack([alpha, beta, PI - alpha - beta], axis=1)


def _ref_oracle(count, gen):
    # the oracle's neighbor search is shared; only its row-major packing is
    # the reference's own
    verts, _ = sampler._attempt_oracle(count, gen)
    return np.ascontiguousarray(verts), None


_REFERENCE_ATTEMPTS = {"pinned": _ref_pinned, "staked": _ref_folded(0.0, 1.0),
                       "anchored": _ref_folded(-0.5, 0.5),
                       "uniformT": _ref_uniform_t, "oracle": _ref_oracle}


def _reference_fill(n, rng, attempt):
    vertices, sides, angles = np.empty((n, 6)), np.empty((n, 3)), np.empty((n, 3))
    pending = np.arange(n)
    for _ in range(sampler.MAX_DRAW_ROUNDS):
        if not pending.size:
            break
        verts, angs = attempt(pending.size, rng.generator)
        ax, ay, bx, by, cx, cy = verts.T
        sds = np.stack([np.hypot(bx - cx, by - cy), np.hypot(ax - cx, ay - cy),
                        np.hypot(ax - bx, ay - by)], axis=1)
        a, b, c = sds.T
        slack = np.minimum(np.minimum(b + c - a, a + c - b), a + b - c)
        good = (np.isfinite(verts).all(axis=1) & (sds > 0.0).all(axis=1)
                & (slack > geom.DEGENERACY_TOL))
        if angs is None:
            angs = _ANGLES_FROM_SIDES(sds)
        else:
            good &= (angs > 0.0).all(axis=1) & (angs < PI).all(axis=1)
        rows = pending[good]
        vertices[rows], sides[rows], angles[rows] = verts[good], sds[good], angs[good]
        rng.resamples += int(pending.size - rows.size)
        pending = pending[~good]
    assert not pending.size
    return vertices, sides, angles


def _sample(route, n, rng):
    if route == "oracle":
        return sample_pinned_oracle_batch(n, rng)
    return sample_batch(route, n, rng)


def _assert_matches_reference(batch, reference, family):
    vertices, sides, angles = reference
    assert batch.family == family and len(batch) == len(vertices)
    assert np.array_equal(batch.vertices, vertices, equal_nan=True)
    assert np.array_equal(batch.sides, sides, equal_nan=True)
    assert np.array_equal(batch.angles, angles, equal_nan=True)
    assert np.array_equal(batch.table(), np.hstack(reference), equal_nan=True)


@pytest.mark.parametrize("route", [*FAMILIES, "oracle"])
@pytest.mark.parametrize("seed, stream_id, n", [(0, 0, 0), (5, 0, 1), (2, 7, 2),
                                                (11, 3, 999), (2**64 - 1, 9, 4097)])
def test_sampler_matches_reference_route(route, seed, stream_id, n):
    rng, ref_rng = RandomStream(seed, stream_id), RandomStream(seed, stream_id)
    batch = _sample(route, n, rng)
    reference = _reference_fill(n, ref_rng, _REFERENCE_ATTEMPTS[route])
    _assert_matches_reference(batch, reference, "pinned" if route == "oracle" else route)
    assert rng.resamples == ref_rng.resamples
    # the streams are left in the same state, n = 0 included
    assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state


def _degenerate_first_round(attempt, rows):
    """``attempt`` with ``rows`` of its first draw made non-finite."""
    calls = []

    def wrapped(count, gen):
        verts, angs = attempt(count, gen)
        if not calls:
            verts[rows, 0] = np.nan
        calls.append(count)
        return verts, angs
    return wrapped, calls


@pytest.mark.parametrize("route", [*FAMILIES, "oracle"])
def test_forced_redraw_matches_reference_route(route, monkeypatch):
    rows = [0, 3, 4, 38]
    n = 40
    ref_rng = RandomStream(23, 1)
    ref_attempt, ref_calls = _degenerate_first_round(_REFERENCE_ATTEMPTS[route], rows)
    reference = _reference_fill(n, ref_rng, ref_attempt)

    name = "_attempt_oracle" if route == "oracle" else None
    rng = RandomStream(23, 1)
    if name is None:
        attempt, calls = _degenerate_first_round(sampler._ATTEMPTS[route], rows)
        monkeypatch.setitem(sampler._ATTEMPTS, route, attempt)
    else:
        attempt, calls = _degenerate_first_round(sampler._attempt_oracle, rows)
        monkeypatch.setattr(sampler, name, attempt)
    batch = _sample(route, n, rng)
    _assert_matches_reference(batch, reference, "pinned" if route == "oracle" else route)
    assert calls == ref_calls and calls[:2] == [n, len(rows)]
    assert rng.resamples == ref_rng.resamples == len(rows)


def test_angles_computed_once_and_only_when_read(monkeypatch):
    calls = []

    def counted(sides):
        calls.append(len(sides))
        return _ANGLES_FROM_SIDES(sides)

    monkeypatch.setattr(sampler, "angles_from_sides", counted)
    batch = sample_batch("pinned", 300, RandomStream(4))
    for name in ("a", "b_over_c", "max_side", "area"):
        batch.statistic(name)
    sample_pinned_oracle_batch(50, RandomStream(4))
    assert calls == []
    first = batch.angles
    assert batch.angles is first and batch.statistic("alpha").base is first
    assert calls == [300]
    # uniformT keeps the angles it drew: they are part of its validity test
    sample_batch("uniformT", 300, RandomStream(4)).angles
    assert calls == [300]


def test_sample_batch_returns_given_angles():
    vertices, sides, angles = np.zeros((2, 6)), np.ones((2, 3)), np.full((2, 3), PI / 3)
    batch = SampleBatch("staked", vertices, sides, angles)
    assert batch.angles is angles
    assert batch.vertices is vertices and batch.sides is sides


# ---------------------------------------------------------------------------
# family-specific distributional laws
# ---------------------------------------------------------------------------

def test_pinned_exponential_radii_and_independence():
    batch = sample_batch("pinned", 20000, RandomStream(101))
    b, c = batch.sides[:, 1], batch.sides[:, 2]
    assert (c < b).all()  # nearest point is strictly nearer
    near_sq = PI * c**2
    gap_sq = PI * (b**2 - c**2)
    assert stats.kstest(near_sq, "expon").pvalue > 0.01
    assert stats.kstest(gap_sq, "expon").pvalue > 0.01
    assert abs(np.corrcoef(near_sq, gap_sq)[0, 1]) < 0.03


def test_staked_geometry_and_marginals():
    batch = sample_batch("staked", 20000, RandomStream(102))
    np.testing.assert_array_equal(batch.vertices[:, 0:2], 0.0)   # A at origin
    np.testing.assert_array_equal(batch.vertices[:, 2], 1.0)     # B at (1, 0)
    np.testing.assert_array_equal(batch.vertices[:, 3], 0.0)
    assert (batch.vertices[:, 5] > 0).all()                      # C folded up
    assert (batch.sides[:, 2] == 1.0).all()                      # unit base
    # C is the nearest process point to A, so pi*|AC|^2 is standardexponential
    assert stats.kstest(PI * batch.sides[:, 1] ** 2, "expon").pvalue > 0.01
    # the angle at the origin is uniform on (0, pi)
    assert stats.kstest(batch.angles[:, 0] / PI, "uniform").pvalue > 0.01


def test_anchored_geometry_and_marginals():
    batch = sample_batch("anchored", 20000, RandomStream(103))
    np.testing.assert_array_equal(batch.vertices[:, 0], -0.5)
    np.testing.assert_array_equal(batch.vertices[:, 2], 0.5)
    assert (batch.vertices[:, 5] > 0).all()
    assert (batch.sides[:, 2] == 1.0).all()
    # C is the nearest process point to the base midpoint (the origin)
    r_sq = batch.vertices[:, 4] ** 2 + batch.vertices[:, 5] ** 2
    assert stats.kstest(PI * r_sq, "expon").pvalue > 0.01
    # base angles are exchangeable: compare alpha and beta on disjoint halves
    alpha, beta = batch.angles[:10000, 0], batch.angles[10000:, 1]
    assert stats.ks_2samp(alpha, beta).pvalue > 0.001


def test_uniform_t_geometry_and_marginals():
    batch = sample_batch("uniformT", 20000, RandomStream(104))
    assert (batch.sides[:, 2] == 1.0).all()
    alpha, beta = batch.angles[:, 0], batch.angles[:, 1]
    assert (alpha + beta < PI).all()
    assert (batch.vertices[:, 5] > 0).all()

    # folded-uniform marginal: F(t) = t (2 pi - t) / pi^2 on (0, pi)
    def cdf(t):
        return t * (2 * PI - t) / PI**2

    assert stats.kstest(alpha, cdf).pvalue > 0.01
    assert stats.kstest(beta, cdf).pvalue > 0.01


# ---------------------------------------------------------------------------
# derived statistics and CSV output
# ---------------------------------------------------------------------------

def test_statistic_names_and_values():
    batch = sample_batch("pinned", 500, RandomStream(9))
    a, b, c = batch.sides.T
    np.testing.assert_array_equal(batch.statistic("a"), a)
    np.testing.assert_array_equal(batch.statistic("gamma"), batch.angles[:, 2])
    np.testing.assert_allclose(batch.statistic("b_over_c"), b / c, rtol=0)
    np.testing.assert_allclose(batch.statistic("a_over_c"), a / c, rtol=0)
    np.testing.assert_array_equal(batch.statistic("max_side"),
                                  batch.sides.max(axis=1))
    np.testing.assert_array_equal(batch.statistic("min_ab"), np.minimum(a, b))
    np.testing.assert_array_equal(batch.statistic("max_ab"), np.maximum(a, b))

    # area: cross-check Heron's formula against the shoelace formula
    ax, ay, bx, by, cx, cy = batch.vertices.T
    shoelace = 0.5 * np.abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
    np.testing.assert_allclose(batch.statistic("area"), shoelace, rtol=1e-9)

    with pytest.raises(KeyError):
        batch.statistic("perimeter")


def test_write_csv_round_trip():
    # one full block of rows plus one, against the per-cell rendering
    for family in FAMILIES:
        batch = sample_batch(family, sampler.ROW_BLOCK + 1, RandomStream(17))
        buf = io.StringIO()
        batch.write_csv(buf)
        table = np.hstack([batch.vertices, batch.sides, batch.angles])
        expected = "".join(family + "," + ",".join(f"{v:.17g}" for v in row) + "\n"
                           for row in table)
        assert buf.getvalue() == CSV_HEADER + "\n" + expected
        # 17 significant digits reproduce float64 exactly
        numbers = np.loadtxt(io.StringIO(expected), delimiter=",",
                             usecols=range(1, 13))
        np.testing.assert_array_equal(numbers, table)


def test_write_csv_to_path(tmp_path):
    batch = sample_batch("pinned", 5, RandomStream(19))
    target = tmp_path / "rows.csv"
    with open(target, "w", encoding="utf-8", newline="") as handle:
        batch.write_csv(handle)
    text = target.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER)
    assert text.count("\n") == 6


def test_redraws_are_bounded(monkeypatch):
    calls = []

    def collinear(count, gen):
        calls.append(count)
        assert len(calls) <= 100, "redraw loop has no bound"
        verts = np.zeros((count, 6))
        verts[:, 2] = 1.0
        verts[:, 4] = 2.0
        return verts, None

    with pytest.raises(RuntimeError, match="staked"):
        sampler._fill_batch("staked", 5, RandomStream(3), collinear)
    assert calls == [5] * sampler.MAX_DRAW_ROUNDS

    # the process oracle redraws in the same loop: with every row counted
    # degenerate it gives up after the same number of rounds
    calls.clear()
    attempt = sampler._attempt_oracle

    def counted(count, gen):
        calls.append(count)
        assert len(calls) <= 100, "redraw loop has no bound"
        return attempt(count, gen)

    monkeypatch.setattr(sampler, "_attempt_oracle", counted)
    monkeypatch.setattr(sampler, "DEGENERACY_TOL", math.inf)
    rng = RandomStream(3)
    with pytest.raises(RuntimeError, match="pinned"):
        sample_pinned_oracle_batch(5, rng)
    assert calls == [5] * sampler.MAX_DRAW_ROUNDS
    assert rng.resamples == 5 * sampler.MAX_DRAW_ROUNDS


# ---------------------------------------------------------------------------
# process oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_direct_sampler():
    oracle = sample_pinned_oracle_batch(4000, RandomStream(31, 1))
    direct = sample_batch("pinned", 4000, RandomStream(31, 2))
    assert oracle.family == "pinned"
    assert (oracle.sides[:, 2] < oracle.sides[:, 1]).all()
    for column in range(3):
        p = stats.ks_2samp(oracle.sides[:, column], direct.sides[:, column]).pvalue
        assert p > 0.001


def test_oracle_reports_generator_breakage(monkeypatch):
    # with absurdly small search radii the expansion must give up loudly
    monkeypatch.setattr(sampler, "ORACLE_RADII", (0.05, 0.1))
    with pytest.raises(RuntimeError, match="no two neighbors"):
        sample_pinned_oracle_batch(20, RandomStream(37))


def test_oracle_rejects_negative_count():
    with pytest.raises(ValueError):
        sample_pinned_oracle_batch(-2, RandomStream(0))

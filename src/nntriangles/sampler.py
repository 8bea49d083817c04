"""Exact samplers for the four triangle families, plus a process oracle.

Families
--------
pinned    A at the origin; B and C are the nearest and second-nearest points
          of a unit-intensity planar Poisson process, so ||B||^2 and
          ||C||^2 - ||B||^2 are independent Exponential(pi) and the polar
          angles are independent Uniform[0, 2pi).
staked    A = (0,0), B = (1,0); C is the process point nearest the origin,
          folded into the upper half-plane.
anchored  A = (-1/2, 0), B = (1/2, 0); C as in staked, nearest the midpoint.
uniformT  A = (0,0), B = (1,0); the base angles (alpha, beta) come from two
          independent Uniform[0, pi] draws folded into {alpha + beta < pi},
          and C is the intersection of the two rays.

``sample_batch`` draws n rows of any family as one vectorized
``SampleBatch``.  The direct samplers use the exact polar/exponential
representation; ``sample_pinned_oracle_batch`` instead simulates a literal
Poisson process on an expanding disk and is kept as an independent
cross-check of the pinned sampler (the two are compared distributionally,
never draw-by-draw).

Draws that round to a degenerate triangle (probability zero in exact
arithmetic) are redrawn by one loop shared by every sampler, the oracle
included, for at most ``MAX_DRAW_ROUNDS`` rounds; each redraw increments
the stream's ``resamples`` counter so floating-point pathologies stay
observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import DEGENERACY_TOL, heron_product

_TWO_PI = 2.0 * math.pi
_U64_MAX = 2**64 - 1

# Disk radii tried by the process oracle before giving up.  Doubling stops
# at 10 because the chance of not finding both neighbors within radius 8 is
# already below 1e-80; failure at 10 indicates a broken generator.
ORACLE_RADII = (2.0, 4.0, 8.0, 10.0)

# Draw rounds a direct sampler spends on one batch before giving up.  A row
# rounds degenerate about 1.5 times per million draws (19 redraws for the
# 12.5M rows of a default verify run), so a row still degenerate after 10
# rounds has probability below 1e-50; reaching the cap indicates a broken
# sampler.
MAX_DRAW_ROUNDS = 10

FAMILIES = ("pinned", "staked", "anchored", "uniformT")


class RandomStream:
    """Deterministic random source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draw sequences,
    independent of how work is split across workers, so parallel Monte
    Carlo assigns one stream per chunk rather than one per thread.

    ``resamples`` counts degenerate draws that were rejected and redrawn.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not (0 <= int(value) <= _U64_MAX):
                raise ValueError(f"{name} must be an unsigned 64-bit integer: {value}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._generator = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))))
        self.resamples = 0

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


CSV_HEADER = "family,ax,ay,bx,by,cx,cy,a,b,c,alpha,beta,gamma"

# Derived scalar statistics available from a batch, beyond raw columns.
_RATIO_STATS = {
    "a_over_b": (0, 1), "b_over_a": (1, 0), "b_over_c": (1, 2),
    "c_over_b": (2, 1), "c_over_a": (2, 0), "a_over_c": (0, 2),
}


@dataclass(frozen=True)
class SampleBatch:
    """Vectorized sample storage: one row per triangle.

    ``vertices`` columns are (ax, ay, bx, by, cx, cy); ``sides`` columns are
    (a, b, c); ``angles`` columns are (alpha, beta, gamma).
    """

    family: str
    vertices: np.ndarray
    sides: np.ndarray
    angles: np.ndarray

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def statistic(self, name: str) -> np.ndarray:
        """A named per-sample scalar: a side, an angle, a side ratio,
        ``max_side``/``min_side`` (all three sides), ``max_ab``/``min_ab``
        (the two sides meeting at the third vertex), or ``area``."""
        sides_by_name = {"a": 0, "b": 1, "c": 2}
        angles_by_name = {"alpha": 0, "beta": 1, "gamma": 2}
        if name in sides_by_name:
            return self.sides[:, sides_by_name[name]]
        if name in angles_by_name:
            return self.angles[:, angles_by_name[name]]
        if name in _RATIO_STATS:
            num, den = _RATIO_STATS[name]
            return self.sides[:, num] / self.sides[:, den]
        if name == "max_side":
            return self.sides.max(axis=1)
        if name == "min_side":
            return self.sides.min(axis=1)
        if name == "max_ab":
            return self.sides[:, :2].max(axis=1)
        if name == "min_ab":
            return self.sides[:, :2].min(axis=1)
        if name == "area":
            a, b, c = self.sides.T
            return np.sqrt(heron_product(a, b, c)) / 4.0
        raise KeyError(f"unknown statistic {name!r}")

    def write_csv(self, destination) -> None:
        """Write all rows in the CSV schema, 17 significant digits."""
        if hasattr(destination, "write"):
            _write_csv_rows(self, destination)
        else:
            with open(destination, "w", encoding="utf-8", newline="") as handle:
                _write_csv_rows(self, handle)


def _write_csv_rows(batch: SampleBatch, handle) -> None:
    handle.write(CSV_HEADER + "\n")
    columns = np.hstack([batch.vertices, batch.sides, batch.angles])
    for row in columns:
        handle.write(batch.family + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _sides_from_vertices(vertices: np.ndarray) -> np.ndarray:
    ax, ay, bx, by, cx, cy = vertices.T
    return np.stack([np.hypot(bx - cx, by - cy),
                     np.hypot(ax - cx, ay - cy),
                     np.hypot(ax - bx, ay - by)], axis=1)


def _angles_from_sides(sides: np.ndarray) -> np.ndarray:
    """Interior angles via atan2(4*area, law-of-cosines numerator), which
    stays accurate for needle-thin triangles."""
    a, b, c = sides.T
    root = np.sqrt(np.maximum(heron_product(a, b, c), 0.0))
    return np.stack([np.arctan2(root, b * b + c * c - a * a),
                     np.arctan2(root, a * a + c * c - b * b),
                     np.arctan2(root, a * a + b * b - c * c)], axis=1)


def _valid_rows(vertices: np.ndarray, sides: np.ndarray) -> np.ndarray:
    a, b, c = sides.T
    slack = np.minimum(np.minimum(b + c - a, a + c - b), a + b - c)
    return (np.isfinite(vertices).all(axis=1) & (sides > 0.0).all(axis=1)
            & (slack > DEGENERACY_TOL))


def _fill_batch(family: str, n: int, rng: RandomStream, attempt) -> SampleBatch:
    """Draw rows with ``attempt``, redrawing any that round degenerate.

    ``attempt(count, generator)`` returns (vertices, angles-or-None); when
    angles is None they are recomputed from the side lengths.  Raises
    RuntimeError if rows are still degenerate after MAX_DRAW_ROUNDS rounds.
    """
    if n < 0:
        raise ValueError(f"sample count must be nonnegative: {n}")
    vertices = np.empty((n, 6))
    sides = np.empty((n, 3))
    angles = np.empty((n, 3))
    pending = np.arange(n)
    for _ in range(MAX_DRAW_ROUNDS):
        if not pending.size:
            break
        verts, angs = attempt(pending.size, rng.generator)
        sds = _sides_from_vertices(verts)
        good = _valid_rows(verts, sds)
        if angs is None:
            angs = _angles_from_sides(sds)
        else:
            good &= (angs > 0.0).all(axis=1) & (angs < math.pi).all(axis=1)
        rows = pending[good]
        vertices[rows] = verts[good]
        sides[rows] = sds[good]
        angles[rows] = angs[good]
        rng.resamples += int(pending.size - rows.size)
        pending = pending[~good]
    if pending.size:
        raise RuntimeError(
            f"{family} sampler: {pending.size} rows still degenerate after "
            f"{MAX_DRAW_ROUNDS} draw rounds")
    return SampleBatch(family, vertices, sides, angles)


def _attempt_pinned(count: int, gen: np.random.Generator):
    sq_near = gen.exponential(1.0 / math.pi, count)
    sq_far = sq_near + gen.exponential(1.0 / math.pi, count)
    theta_b = gen.uniform(0.0, _TWO_PI, count)
    theta_c = gen.uniform(0.0, _TWO_PI, count)
    rb = np.sqrt(sq_near)
    rc = np.sqrt(sq_far)
    verts = np.zeros((count, 6))
    verts[:, 2] = rb * np.cos(theta_b)
    verts[:, 3] = rb * np.sin(theta_b)
    verts[:, 4] = rc * np.cos(theta_c)
    verts[:, 5] = rc * np.sin(theta_c)
    # rounding could collapse the strict ||B|| < ||C|| ordering; flag those
    verts[rb >= rc, 0] = np.nan
    return verts, None


def _folded_nearest(count: int, gen: np.random.Generator) -> np.ndarray:
    """The origin's nearest process point folded to v > 0: squared radius
    Exponential(pi), angle Uniform[0, 2pi), then v -> |v|."""
    radius = np.sqrt(gen.exponential(1.0 / math.pi, count))
    theta = gen.uniform(0.0, _TWO_PI, count)
    return np.stack([radius * np.cos(theta), np.abs(radius * np.sin(theta))], axis=1)


def _attempt_staked(count: int, gen: np.random.Generator):
    c_xy = _folded_nearest(count, gen)
    verts = np.zeros((count, 6))
    verts[:, 2] = 1.0
    verts[:, 4:6] = c_xy
    return verts, None


def _attempt_anchored(count: int, gen: np.random.Generator):
    c_xy = _folded_nearest(count, gen)
    verts = np.zeros((count, 6))
    verts[:, 0] = -0.5
    verts[:, 2] = 0.5
    verts[:, 4:6] = c_xy
    return verts, None


def _attempt_uniform_t(count: int, gen: np.random.Generator):
    phi = gen.uniform(0.0, math.pi, count)
    psi = gen.uniform(0.0, math.pi, count)
    fold = phi + psi >= math.pi
    alpha = np.where(fold, math.pi - psi, phi)
    beta = np.where(fold, math.pi - phi, psi)
    s = np.sin(alpha + beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.cos(alpha) * np.sin(beta) / s
        cy = np.sin(alpha) * np.sin(beta) / s
    verts = np.zeros((count, 6))
    verts[:, 2] = 1.0
    verts[:, 4] = cx
    verts[:, 5] = cy
    gamma = math.pi - alpha - beta
    return verts, np.stack([alpha, beta, gamma], axis=1)


_ATTEMPTS = {
    "pinned": _attempt_pinned,
    "staked": _attempt_staked,
    "anchored": _attempt_anchored,
    "uniformT": _attempt_uniform_t,
}


def sample_batch(family: str, n: int, rng: RandomStream) -> SampleBatch:
    """n triangles of one family (pinned rows satisfy c < b and a < 2b)."""
    try:
        attempt = _ATTEMPTS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}") from None
    return _fill_batch(family, n, rng, attempt)


def _disk_counts_and_points(gen, rows, lo_sq, hi_sq):
    """Poisson point counts and positions for each row's annulus
    lo_sq <= x^2+y^2 < hi_sq under unit intensity."""
    counts = gen.poisson(math.pi * (hi_sq - lo_sq), rows)
    total = int(counts.sum())
    radius = np.sqrt(lo_sq + (hi_sq - lo_sq) * gen.random(total))
    theta = gen.uniform(0.0, _TWO_PI, total)
    return counts, radius * np.cos(theta), radius * np.sin(theta)


def _attempt_oracle(count: int, gen: np.random.Generator):
    """Pinned rows from a literal Poisson-process simulation.

    Each row simulates unit-intensity points on a disk of radius 2 around
    the origin, extending the same realization outward (new points only in
    the fresh annulus) until the second-nearest point lies within half the
    current radius — at that point no unseen point can beat the two found.
    Exact distance ties are broken toward the earlier-generated point.
    """
    best_sq = np.full((count, 2), np.inf)
    best_xy = np.zeros((count, 2, 2))
    active = np.arange(count)
    prev_radius = 0.0
    for radius in ORACLE_RADII:
        counts, xs, ys = _disk_counts_and_points(
            gen, active.size, prev_radius**2, radius**2)
        width = int(counts.max()) if counts.size else 0
        sq_pad = np.full((active.size, width), np.inf)
        xy_pad = np.zeros((active.size, width, 2))
        row_idx = np.repeat(np.arange(active.size), counts)
        col_idx = np.arange(row_idx.size) - np.repeat(
            np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
        sq_pad[row_idx, col_idx] = xs * xs + ys * ys
        xy_pad[row_idx, col_idx, 0] = xs
        xy_pad[row_idx, col_idx, 1] = ys
        # previously kept points occupy the leading columns, so a stable
        # sort breaks exact distance ties toward the earlier-generated point
        sq_all = np.concatenate([best_sq[active], sq_pad], axis=1)
        xy_all = np.concatenate([best_xy[active], xy_pad], axis=1)
        top2 = np.argsort(sq_all, axis=1, kind="stable")[:, :2]
        best_sq[active] = np.take_along_axis(sq_all, top2, axis=1)
        best_xy[active] = np.take_along_axis(xy_all, top2[:, :, None], axis=1)
        active = active[best_sq[active, 1] >= (radius / 2.0) ** 2]
        prev_radius = radius
        if not active.size:
            break
    else:
        raise RuntimeError(
            f"no two neighbors within radius {ORACLE_RADII[-1]}: "
            "generator is producing implausible gaps")
    verts = np.zeros((count, 6))
    verts[:, 2:4] = best_xy[:, 0]
    verts[:, 4:6] = best_xy[:, 1]
    return verts, None


def sample_pinned_oracle_batch(n: int, rng: RandomStream) -> SampleBatch:
    """n pinned triangles from a literal Poisson-process simulation (see
    :func:`_attempt_oracle`), degenerate rows redrawn as by every sampler."""
    return _fill_batch("pinned", n, rng, _attempt_oracle)

"""Exact samplers for the four triangle families, plus a process oracle.

Families
--------
pinned    A at the origin; B and C are the nearest and second-nearest points
          of a unit-intensity planar Poisson process, so ||B||^2 and
          ||C||^2 - ||B||^2 are independent Exponential(pi) and the polar
          angles are independent Uniform[0, 2pi).
staked,   a unit base A = (0 - h, 0), B = (1 - h, 0); C is the process point
anchored  nearest H, the origin, folded into the upper half-plane.  Staked
          is h = 0 (H = A), anchored h = 1/2 (H the midpoint).
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

import numpy as np

from .geom import DEGENERACY_TOL, angles_from_sides, heron_product

_TWO_PI = 2.0 * math.pi
_U64_MAX = 2**64 - 1

# Disk radii tried by the process oracle before giving up.  Doubling stops
# at 10 because the chance of not finding both neighbors within radius 8 is
# already below 1e-80; failure at 10 indicates a broken generator.
ORACLE_RADII = (2.0, 4.0, 8.0, 10.0)

# Rows per block of the oracle's neighbor search.  A block's padded arrays
# are (rows, widest count in the block), so the search's memory stays a
# small multiple of the points drawn; rows are independent, so any block
# size gives the same bits.
ORACLE_BLOCK = 1024

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

# Rows per write: amortizes the format call, keeps a block's text near a megabyte.
ROW_BLOCK = 4096


def write_rows(destination, header: str, row_format: str, blocks) -> None:
    """Write ``header``, then one ``row_format % tuple(row)`` line per row of
    each 2-D array in ``blocks`` (cells become Python objects first, so
    ``%s`` prints a float as its ``repr``), to an open text stream."""
    line = row_format + "\n"
    destination.write(header + "\n")
    for block in blocks:
        destination.write(line * len(block) % tuple(block.ravel().tolist()))


# Derived scalar statistics available from a batch, beyond raw columns.
_RATIO_STATS = {
    "a_over_b": (0, 1), "b_over_a": (1, 0), "b_over_c": (1, 2),
    "c_over_b": (2, 1), "c_over_a": (2, 0), "a_over_c": (0, 2),
}


class SampleBatch:
    """Vectorized sample storage: one row per triangle.

    ``vertices`` columns are (ax, ay, bx, by, cx, cy); ``sides`` columns are
    (a, b, c); ``angles`` columns are (alpha, beta, gamma).  Angles not
    given are computed from the sides when first read, then kept.
    """

    def __init__(self, family: str, vertices: np.ndarray, sides: np.ndarray,
                 angles: np.ndarray | None = None):
        self.family = family
        self.vertices = vertices
        self.sides = sides
        self._angles = angles

    # not functools.cached_property: on Python 3.10 and 3.11 it holds one
    # lock for every instance, which would serialize worker threads
    @property
    def angles(self) -> np.ndarray:
        if self._angles is None:
            self._angles = angles_from_sides(self.sides)
        return self._angles

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def statistic(self, name: str) -> np.ndarray:
        """A named per-sample scalar: a side, an angle, a side ratio,
        ``max_ab``/``min_ab`` (the two sides meeting at the third vertex),
        or ``area``."""
        sides_by_name = {"a": 0, "b": 1, "c": 2}
        angles_by_name = {"alpha": 0, "beta": 1, "gamma": 2}
        if name in sides_by_name:
            return self.sides[:, sides_by_name[name]]
        if name in angles_by_name:
            return self.angles[:, angles_by_name[name]]
        if name in _RATIO_STATS:
            num, den = _RATIO_STATS[name]
            return self.sides[:, num] / self.sides[:, den]
        if name == "max_ab":
            return self.sides[:, :2].max(axis=1)
        if name == "min_ab":
            return self.sides[:, :2].min(axis=1)
        if name == "area":
            a, b, c = self.sides.T
            return np.sqrt(heron_product(a, b, c)) / 4.0
        raise KeyError(f"unknown statistic {name!r}")

    def table(self, rows: slice = slice(None)) -> np.ndarray:
        """The 12 numeric CSV columns (vertices, sides, angles) of ``rows``;
        angles not yet computed are computed for those rows, and not kept."""
        angles = (angles_from_sides(self.sides[rows]) if self._angles is None
                  else self._angles[rows])
        return np.hstack([self.vertices[rows], self.sides[rows], angles])

    def write_csv(self, destination) -> None:
        """Write all rows in the CSV schema, 17 significant digits, to a text
        stream, a ``ROW_BLOCK`` of the table at a time."""
        blocks = (self.table(slice(start, start + ROW_BLOCK))
                  for start in range(0, len(self), ROW_BLOCK))
        write_rows(destination, CSV_HEADER, self.family + ",%.17g" * 12, blocks)


def _sides_from_vertices(vertices: np.ndarray) -> np.ndarray:
    ax, ay, bx, by, cx, cy = vertices.T
    sides = np.empty((3, len(vertices)))
    np.hypot(bx - cx, by - cy, out=sides[0])
    np.hypot(ax - cx, ay - cy, out=sides[1])
    np.hypot(ax - bx, ay - by, out=sides[2])
    return sides.T


def _valid_rows(vertices: np.ndarray, sides: np.ndarray) -> np.ndarray:
    a, b, c = sides.T
    slack = np.minimum(np.minimum(b + c - a, a + c - b), a + b - c)
    return (np.isfinite(vertices).all(axis=1) & (sides > 0.0).all(axis=1)
            & (slack > DEGENERACY_TOL))


def _fill_batch(family: str, n: int, rng: RandomStream, attempt) -> SampleBatch:
    """Draw rows with ``attempt``, redrawing any that round degenerate.

    ``attempt(count, generator)`` returns (vertices, angles-or-None); when
    angles is None the batch computes them from the sides on first read.
    The first round's arrays are the batch; each later round overwrites
    the rows still pending.  Raises RuntimeError if rows are still
    degenerate after MAX_DRAW_ROUNDS rounds.
    """
    if n < 0:
        raise ValueError(f"sample count must be nonnegative: {n}")
    pending = np.arange(n)
    for draw_round in range(MAX_DRAW_ROUNDS):
        verts, angs = attempt(pending.size, rng.generator)
        sds = _sides_from_vertices(verts)
        good = _valid_rows(verts, sds)
        if angs is not None:
            good &= (angs > 0.0).all(axis=1) & (angs < math.pi).all(axis=1)
        if not draw_round:
            vertices, sides, angles = verts, sds, angs
        else:
            rows = pending[good]
            vertices[rows] = verts[good]
            sides[rows] = sds[good]
            if angles is not None:
                angles[rows] = angs[good]
        pending = pending[~good]
        rng.resamples += int(pending.size)
        if not pending.size:
            return SampleBatch(family, vertices, sides, angles)
    raise RuntimeError(
        f"{family} sampler: {pending.size} rows still degenerate after "
        f"{MAX_DRAW_ROUNDS} draw rounds")


def _attempt_pinned(count: int, gen: np.random.Generator):
    sq_near = gen.exponential(1.0 / math.pi, count)
    sq_far = sq_near + gen.exponential(1.0 / math.pi, count)
    theta_b = gen.uniform(0.0, _TWO_PI, count)
    theta_c = gen.uniform(0.0, _TWO_PI, count)
    rb = np.sqrt(sq_near)
    rc = np.sqrt(sq_far)
    cols = np.zeros((6, count))
    cols[2] = rb * np.cos(theta_b)
    cols[3] = rb * np.sin(theta_b)
    cols[4] = rc * np.cos(theta_c)
    cols[5] = rc * np.sin(theta_c)
    # rounding could collapse the strict ||B|| < ||C|| ordering; flag those
    cols[0, rb >= rc] = np.nan
    return cols.T, None


def _folded_nearest(count: int, gen: np.random.Generator) -> np.ndarray:
    """Vertex rows with A and B at the origin and C the origin's nearest
    process point folded to v > 0: squared radius Exponential(pi), angle
    Uniform[0, 2pi), then v -> |v|.  Columns are contiguous."""
    radius = np.sqrt(gen.exponential(1.0 / math.pi, count))
    theta = gen.uniform(0.0, _TWO_PI, count)
    cols = np.zeros((6, count))
    cols[4] = radius * np.cos(theta)
    cols[5] = np.abs(radius * np.sin(theta))
    return cols.T


def _base_point_attempt(h: float):
    """The attempt for a unit base with C nearest H = (h, 0) on it, drawn
    with H at the origin.  A's x is ``0.0 - h``: ``-h`` is -0.0 at h = 0."""
    def attempt(count: int, gen: np.random.Generator):
        verts = _folded_nearest(count, gen)
        verts[:, 0] = 0.0 - h
        verts[:, 2] = 1.0 - h
        return verts, None
    return attempt


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
    cols = np.zeros((6, count))
    cols[2] = 1.0
    cols[4] = cx
    cols[5] = cy
    gamma = math.pi - alpha - beta
    return cols.T, np.stack([alpha, beta, gamma], axis=1)


_ATTEMPTS = {
    "pinned": _attempt_pinned,
    "staked": _base_point_attempt(0.0),
    "anchored": _base_point_attempt(0.5),
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
    radius = gen.random(total)
    radius *= hi_sq - lo_sq
    radius += lo_sq
    np.sqrt(radius, out=radius)
    theta = gen.uniform(0.0, _TWO_PI, total)
    xs = np.cos(theta)
    xs *= radius
    ys = np.sin(theta, out=theta)
    ys *= radius
    return counts, xs, ys


def _nearest_two(kept_sq, kept_x, kept_y, counts, xs, ys):
    """Each row's two nearest points among its two kept points followed by
    its ``counts`` new points (``xs``/``ys`` hold every row's new points in
    row order), as (squared radii, x, y) arrays of shape (rows, 2)."""
    width = 2 + (int(counts.max()) if counts.size else 0)
    new = np.arange(width - 2) < counts[:, None]
    sq = np.full((counts.size, width), np.inf)
    x = np.zeros((counts.size, width))
    y = np.zeros((counts.size, width))
    sq[:, :2], x[:, :2], y[:, :2] = kept_sq, kept_x, kept_y
    sq[:, 2:][new] = xs * xs + ys * ys
    x[:, 2:][new] = xs
    y[:, 2:][new] = ys
    # kept points occupy the leading columns, so a stable sort breaks exact
    # distance ties toward the earlier-generated point
    top2 = np.argsort(sq, axis=1, kind="stable")[:, :2]
    return (np.take_along_axis(sq, top2, axis=1), np.take_along_axis(x, top2, axis=1),
            np.take_along_axis(y, top2, axis=1))


def _attempt_oracle(count: int, gen: np.random.Generator):
    """Pinned rows from a literal Poisson-process simulation.

    Each row simulates unit-intensity points on a disk of radius 2 around
    the origin, extending the same realization outward (new points only in
    the fresh annulus) until the second-nearest point lies within half the
    current radius — at that point no unseen point can beat the two found.
    Exact distance ties are broken toward the earlier-generated point.
    Each radius draws every active row's points at once, then searches
    them ``ORACLE_BLOCK`` rows at a time.
    """
    best_sq = np.full((count, 2), np.inf)
    best_x = np.zeros((count, 2))
    best_y = np.zeros((count, 2))
    active = np.arange(count)
    prev_radius = 0.0
    for radius in ORACLE_RADII:
        counts, xs, ys = _disk_counts_and_points(
            gen, active.size, prev_radius**2, radius**2)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for start in range(0, active.size, ORACLE_BLOCK):
            stop = min(start + ORACLE_BLOCK, active.size)
            rows = active[start:stop]
            points = slice(offsets[start], offsets[stop])
            best_sq[rows], best_x[rows], best_y[rows] = _nearest_two(
                best_sq[rows], best_x[rows], best_y[rows], counts[start:stop],
                xs[points], ys[points])
        active = active[best_sq[active, 1] >= (radius / 2.0) ** 2]
        prev_radius = radius
        if not active.size:
            break
    else:
        raise RuntimeError(
            f"no two neighbors within radius {ORACLE_RADII[-1]}: "
            "generator is producing implausible gaps")
    cols = np.zeros((6, count))
    cols[2], cols[4] = best_x.T
    cols[3], cols[5] = best_y.T
    return cols.T, None


def sample_pinned_oracle_batch(n: int, rng: RandomStream) -> SampleBatch:
    """n pinned triangles from a literal Poisson-process simulation (see
    :func:`_attempt_oracle`), degenerate rows redrawn as by every sampler."""
    return _fill_batch("pinned", n, rng, _attempt_oracle)

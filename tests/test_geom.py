"""Triangle geometry: angles from sides, row by row, the Heron product,
and the degeneracy rule the samplers apply to side triples."""

import math

import numpy as np
import pytest

from nntriangles import sampler
from nntriangles.geom import angles_from_sides, heron_product

PI = math.pi


def _is_triangle(sides):
    """Positive sides whose smallest triangle-inequality margin exceeds
    DEGENERACY_TOL, as the samplers test each drawn row."""
    return bool(sampler._valid_rows(np.zeros((1, 6)), np.array([sides], dtype=float))[0])


def test_triangle_accepts_valid_sides():
    assert _is_triangle((3.0, 4.0, 5.0))


@pytest.mark.parametrize("sides", [
    (1.0, 1.0, 2.5),     # violates the triangle inequality
    (0.0, 1.0, 1.0),     # degenerate side
    (-1.0, 2.0, 2.0),    # negative side
    (1.0, math.nan, 1.0),
])
def test_triangle_rejects_invalid_sides(sides):
    assert not _is_triangle(sides)


def test_angles_sum_to_half_turn():
    angles = angles_from_sides(np.array([[0.9, 1.4, 1.0], [5.0, 4.0, 3.0]]))
    assert angles.shape == (2, 3)
    np.testing.assert_allclose(angles.sum(axis=1), PI, atol=1e-14)


def test_right_triangle_angle():
    alpha, beta, _ = angles_from_sides(np.array([[5.0, 4.0, 3.0]]))[0]
    assert alpha == pytest.approx(PI / 2.0, abs=1e-15)
    assert beta == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)


def test_angle_side_round_trip():
    # unit base, base angles alpha and beta, other sides by the law of sines
    pairs = np.array([(0.7, 1.1), (0.2, 0.3), (2.8, 0.1), (1.0, 1.0)])
    alpha, beta = pairs.T
    s = np.sin(alpha + beta)
    sides = np.stack([np.sin(alpha) / s, np.sin(beta) / s, np.ones(len(s))], axis=1)
    back = angles_from_sides(sides)
    np.testing.assert_allclose(back[:, :2], pairs, atol=1e-12)


def test_needle_thin_triangle_keeps_precision():
    # nearly collinear: law-of-cosines cosine is within rounding of -1
    angles = angles_from_sides(np.array([[1.0, 1e-7, 1.0 - 1e-7 + 1e-9]]))[0]
    assert 0.0 < angles[0] < PI
    assert angles.sum() == pytest.approx(PI, abs=1e-9)


def test_area_of_right_triangle():
    assert math.sqrt(heron_product(5.0, 4.0, 3.0)) / 4.0 == pytest.approx(6.0, abs=1e-12)


def test_heron_product_zero_when_degenerate():
    assert heron_product(2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

"""Scalar triangle geometry: construction, invariants, and conversions."""

import math

import pytest

from nntriangles.geom import (Triangle, TriangleAngles, angles_from_sides,
                              area, heron_product, sides_from_angles)

PI = math.pi


def test_triangle_accepts_valid_sides():
    t = Triangle(3.0, 4.0, 5.0)
    assert (t.a, t.b, t.c) == (3.0, 4.0, 5.0)


@pytest.mark.parametrize("sides", [
    (1.0, 1.0, 2.5),     # violates the triangle inequality
    (0.0, 1.0, 1.0),     # degenerate side
    (-1.0, 2.0, 2.0),    # negative side
    (1.0, math.nan, 1.0),
])
def test_triangle_rejects_invalid_sides(sides):
    with pytest.raises(ValueError):
        Triangle(*sides)


def test_angles_sum_to_half_turn():
    angles = angles_from_sides(Triangle(0.9, 1.4, 1.0))
    assert angles.alpha + angles.beta + angles.gamma == pytest.approx(PI, abs=1e-14)


def test_right_triangle_angle():
    angles = angles_from_sides(Triangle(5.0, 4.0, 3.0))
    assert angles.alpha == pytest.approx(PI / 2.0, abs=1e-15)
    assert angles.beta == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)


def test_angle_side_round_trip():
    for alpha, beta in [(0.7, 1.1), (0.2, 0.3), (2.8, 0.1), (1.0, 1.0)]:
        t = sides_from_angles(alpha, beta)
        back = angles_from_sides(t)
        assert back.alpha == pytest.approx(alpha, abs=1e-12)
        assert back.beta == pytest.approx(beta, abs=1e-12)
        assert t.c == 1.0


def test_sides_from_angles_scales_with_base():
    t1 = sides_from_angles(0.5, 0.9, 1.0)
    t2 = sides_from_angles(0.5, 0.9, 2.5)
    assert t2.a == pytest.approx(2.5 * t1.a, rel=1e-15)
    assert t2.b == pytest.approx(2.5 * t1.b, rel=1e-15)


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (2.0, 1.5),
                                        (-0.1, 1.0), (3.2, 0.1)])
def test_sides_from_angles_rejects_bad_angles(alpha, beta):
    with pytest.raises(ValueError):
        sides_from_angles(alpha, beta)


def test_needle_thin_triangle_keeps_precision():
    # nearly collinear: law-of-cosines cosine is within rounding of -1
    t = Triangle(1.0, 1e-7, 1.0 - 1e-7 + 1e-9)
    angles = angles_from_sides(t)
    assert 0.0 < angles.alpha < PI
    assert angles.alpha + angles.beta + angles.gamma == pytest.approx(PI, abs=1e-9)


def test_area_of_right_triangle():
    assert area(Triangle(5.0, 4.0, 3.0)) == pytest.approx(6.0, abs=1e-12)


def test_heron_product_zero_when_degenerate():
    assert heron_product(2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_triangle_angles_validation():
    with pytest.raises(ValueError):
        TriangleAngles(1.0, 1.0, 1.0)      # positive but sums to 3, not pi
    with pytest.raises(ValueError):
        TriangleAngles(-0.1, 2.0, PI - 1.9)

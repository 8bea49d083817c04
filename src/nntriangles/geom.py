"""Planar triangle primitives: the Heron product and angles from sides."""

from __future__ import annotations

import numpy as np

# A triangle whose smallest inequality margin falls at or below this is
# treated as degenerate (numerically collinear).
DEGENERACY_TOL = 1e-12


def heron_product(a, b, c):
    """Product (a+b+c)(-a+b+c)(a-b+c)(a+b-c).

    Equals 16 * area^2 and is positive exactly when the sides form a
    nondegenerate triangle.
    """
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


def angles_from_sides(sides: np.ndarray) -> np.ndarray:
    """Interior angles (alpha, beta, gamma) of each row (a, b, c) of an
    (n, 3) array, alpha opposite a, and so on.

    Uses atan2(4*area, law-of-cosines numerator) instead of acos, which
    keeps full precision for needle-thin triangles, where the cosine is
    within rounding of +-1.
    """
    a, b, c = sides.T
    root = np.sqrt(np.maximum(heron_product(a, b, c), 0.0))
    return np.stack([np.arctan2(root, b * b + c * c - a * a),
                     np.arctan2(root, a * a + c * c - b * b),
                     np.arctan2(root, a * a + b * b - c * c)], axis=1)

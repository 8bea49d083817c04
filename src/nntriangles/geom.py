"""Planar triangle primitives: sides, angles, area."""

from __future__ import annotations

import math
from dataclasses import dataclass

# A triangle whose smallest inequality margin falls at or below this is
# treated as degenerate (numerically collinear).
DEGENERACY_TOL = 1e-12


def heron_product(a: float, b: float, c: float) -> float:
    """Product (a+b+c)(-a+b+c)(a-b+c)(a+b-c).

    Equals 16 * area^2 and is positive exactly when the sides form a
    nondegenerate triangle.
    """
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


@dataclass(frozen=True)
class Triangle:
    """Side lengths of a nondegenerate planar triangle."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and self.c > 0.0):
            raise ValueError(f"sides must be positive: {self}")
        if self.slack() <= DEGENERACY_TOL:
            raise ValueError(f"degenerate triangle (slack <= {DEGENERACY_TOL:g}): {self}")

    def slack(self) -> float:
        """Smallest of the three triangle-inequality margins."""
        a, b, c = self.a, self.b, self.c
        return min(b + c - a, a + c - b, a + b - c)


@dataclass(frozen=True)
class TriangleAngles:
    """Interior angles in radians; alpha is opposite side a, and so on."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not (0.0 < v < math.pi):
                raise ValueError(f"{name} must lie in (0, pi): {v}")
        # 1e-9 admits the rounding of atan2-derived angles on needle-thin
        # triangles while still rejecting genuinely inconsistent triples
        if abs(self.alpha + self.beta + self.gamma - math.pi) > 1e-9:
            raise ValueError(f"angles must sum to pi: {self}")


def angles_from_sides(t: Triangle) -> TriangleAngles:
    """Interior angles via atan2 of (4*area, law-of-cosines numerator).

    Using atan2 instead of acos keeps full precision for needle-thin
    triangles, where the cosine is within rounding of +-1.
    """
    a, b, c = t.a, t.b, t.c
    root = math.sqrt(heron_product(a, b, c))
    alpha = math.atan2(root, b * b + c * c - a * a)
    beta = math.atan2(root, a * a + c * c - b * b)
    gamma = math.atan2(root, a * a + b * b - c * c)
    return TriangleAngles(alpha, beta, gamma)


def sides_from_angles(alpha: float, beta: float, c: float = 1.0) -> Triangle:
    """Triangle with angles alpha, beta adjacent to a base of length c.

    Law of sines: a = c sin(alpha)/sin(alpha+beta), b = c sin(beta)/sin(alpha+beta).
    """
    if not (alpha > 0.0 and beta > 0.0 and alpha + beta < math.pi):
        raise ValueError(f"need alpha, beta > 0 with alpha + beta < pi: {alpha}, {beta}")
    if c <= 0.0:
        raise ValueError(f"base must be positive: {c}")
    s = math.sin(alpha + beta)
    return Triangle(c * math.sin(alpha) / s, c * math.sin(beta) / s, c)


def area(t: Triangle) -> float:
    """Triangle area, sqrt(heron_product)/4."""
    return math.sqrt(heron_product(t.a, t.b, t.c)) / 4.0


"""2-D points and direction helpers.

The paper assumes every router knows the (approximate) coordinates of all
routers in the AS (§II-A).  RTR's first phase steers packets with a
right-hand rule that rotates a *sweeping line* counterclockwise around the
current node (§III-B), so the geometry layer must provide exact-enough
angle arithmetic for counterclockwise ordering of neighbors.

Coordinates are plain floats; the paper explicitly does not require highly
accurate coordinates, so float arithmetic with a small epsilon is adequate.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

#: Tolerance used by all geometric predicates in this package.  The paper's
#: simulation area is 2000 x 2000, so 1e-9 is far below any meaningful
#: coordinate difference.
EPSILON = 1e-9

TWO_PI = 2.0 * math.pi


class Point(NamedTuple):
    """An immutable point (or free vector) in the plane."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":  # type: ignore[override]
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":  # type: ignore[override]
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product with ``other`` treated as a vector."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the cross product (positive when ``other`` is CCW)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of this point treated as a vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle(self) -> float:
        """Direction of this vector in radians, in ``[0, 2*pi]``.

        Mathematically ``[0, 2*pi)``, but the float modulo rounds up to
        exactly ``2*pi`` for vectors just below the +x axis
        (``Point(1.0, -1e-17).angle() == 2*pi``).  Callers that compare
        directions must treat ``2*pi`` and ``0`` as the same direction.
        """
        return math.atan2(self.y, self.x) % TWO_PI

    def is_close(self, other: "Point", tol: float = EPSILON) -> bool:
        """Whether ``other`` lies within ``tol`` of this point."""
        return self.distance_to(other) <= tol


def orientation(a: Point, b: Point, c: Point) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``+1`` when the triple turns counterclockwise, ``-1`` when it
    turns clockwise, and ``0`` when the three points are (numerically)
    collinear.
    """
    cross = (b - a).cross(c - a)
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


def ccw_angle(reference: Point, target: Point) -> float:
    """Counterclockwise angle from vector ``reference`` to vector ``target``.

    The result is in ``(0, 2*pi]``: a target pointing exactly along the
    reference maps to ``2*pi`` rather than ``0``.  RTR's sweeping rule rotates
    the sweep line *away* from the reference link, so the reference direction
    itself must sort last — this is what makes a packet fall back to its
    previous hop only when no other live neighbor exists (the tree-branch
    double-traversal behaviour of §IV-B).
    """
    return ccw_angle_between(reference.angle(), target.angle())


def ccw_angle_between(reference: float, target: float) -> float:
    """:func:`ccw_angle` from the two vectors' absolute angles (``Point.angle``)."""
    angle = (target - reference) % TWO_PI
    if angle <= EPSILON:
        return TWO_PI
    return angle


def centroid(points: Iterator[Point]) -> Point:
    """Arithmetic mean of a non-empty iterable of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))

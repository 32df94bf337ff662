"""Small fixed-dimension vector types used throughout the simulator.

The virtual world is fundamentally 2D for player movement (the paper's
adaptive cutoff scheme partitions in 2D because "players move in 2D in the
virtual world in typical VR games") but 3D for rendering, so both ``Vec2``
and ``Vec3`` are provided.  Both are immutable value types: frame-cache
metadata, trajectory samples, and quadtree regions all hold them as keys or
stable coordinates, and accidental in-place mutation of a cached location
would corrupt cache lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Vec2:
    """An immutable 2D vector / point in the virtual-world ground plane."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def cross(self, other: "Vec2") -> float:
        """Z component of the 3D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared length (avoids the sqrt)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: self at t=0, other at t=1."""
        return Vec2(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)

    def angle(self) -> float:
        """Heading of the vector in radians, measured from the +x axis."""
        return math.atan2(self.y, self.x)

    def rotated(self, radians: float) -> "Vec2":
        """Counter-clockwise rotation about the origin."""
        c, s = math.cos(radians), math.sin(radians)
        return Vec2(self.x * c - self.y * s, self.x * s + self.y * c)

    @staticmethod
    def from_angle(radians: float, length: float = 1.0) -> "Vec2":
        return Vec2(math.cos(radians) * length, math.sin(radians) * length)

    @staticmethod
    def zero() -> "Vec2":
        return Vec2(0.0, 0.0)


@dataclass(frozen=True)
class Vec3:
    """An immutable 3D vector / point; ``z`` is elevation above the ground."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Right-handed cross product."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def norm_sq(self) -> float:
        """Squared length (avoids the sqrt)."""
        return self.x * self.x + self.y * self.y + self.z * self.z

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance to another point."""
        return (self - other).norm()

    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        """Linear interpolation: self at t=0, other at t=1."""
        return Vec3(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
            self.z + (other.z - self.z) * t,
        )

    def ground(self) -> Vec2:
        """Project onto the 2D ground plane (drop elevation)."""
        return Vec2(self.x, self.y)

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

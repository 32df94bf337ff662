"""Projection math for panoramic rendering.

Coterie prefetches *panoramic* far-BE frames (the paper uses 3840x2160
equirectangular frames) so any head orientation can be served by cropping.
This module maps world-space directions to equirectangular angles and
computes angular sizes under perspective projection.

The "near-object" effect (§4.2) falls directly out of these formulas: an
object of radius ``r`` at distance ``d`` subtends ``atan(r/d)`` radians, and
a player displacement ``delta`` shifts its image by roughly ``delta/d``
radians — both inversely proportional to distance, which is why nearby
objects dominate frame-to-frame change.
"""

from __future__ import annotations

import math
from typing import Tuple

from .vec import Vec3

TWO_PI = 2.0 * math.pi


def direction_to_angles(direction: Vec3) -> Tuple[float, float]:
    """World direction -> (azimuth, elevation) in radians.

    Azimuth is measured counter-clockwise from +x in [0, 2*pi); elevation is
    in [-pi/2, pi/2] with +z up.
    """
    azimuth = math.atan2(direction.y, direction.x) % TWO_PI
    horiz = math.hypot(direction.x, direction.y)
    elevation = math.atan2(direction.z, horiz)
    return azimuth, elevation


def angular_radius(physical_radius: float, distance: float) -> float:
    """Half-angle subtended by a sphere of ``physical_radius`` at ``distance``.

    When the viewer is inside the sphere the object fills the view
    (pi radians).  This is the perspective-projection size law the paper's
    near-object analysis rests on.
    """
    if physical_radius < 0:
        raise ValueError("physical_radius must be non-negative")
    if distance <= physical_radius:
        return math.pi
    return math.asin(physical_radius / distance)


def angular_displacement(displacement: float, distance: float) -> float:
    """Approximate image-space shift (radians) of an object at ``distance``
    when the viewer moves ``displacement`` metres perpendicular to it."""
    if distance <= 0:
        return math.pi
    return math.atan2(displacement, distance)

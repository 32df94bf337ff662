"""Device render-time models.

The adaptive cutoff scheme needs RT_FI and RT_nearBE for a *device* (§4.3:
"the right choice of cutoff is app and device dependent"), and the paper
grounds rendering speed in triangle counts ("the rendering speed is
correlated with the triangle count of the objects").  We model a device's
render time for a set of objects as

    RT = setup_ms + (sum over objects of triangles * lod(d)) / throughput

where ``lod(d) = 1 / (1 + (d / lod_distance)^2)`` captures distance-based
level-of-detail: engines spend most triangle budget on nearby geometry.
Coefficients are calibrated so the three headline games land in the
paper's measured envelope on the Pixel 2 profile (Table 1: whole-scene
rendering at 24-27 FPS with ~90-99 % GPU, FI under 4 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..geometry import Vec2
from ..world.objects import SceneObject
from ..world.scene import Scene


@dataclass(frozen=True)
class DeviceProfile:
    """Rendering/decoding capability of one device."""

    name: str
    setup_ms: float  # per-frame engine + driver overhead
    triangle_throughput: float  # LOD-weighted triangles per millisecond
    lod_distance: float  # metres at which LOD halves twice (d0)
    view_limit: float  # frustum/far-plane culling distance (m)
    decode_ms_per_mpixel: float  # hardware H.264 decode speed
    merge_ms: float  # compositing far BE + near BE + FI
    lod_floor: float = 0.04  # minimum detail fraction ever rendered

    def __post_init__(self) -> None:
        if min(
            self.setup_ms,
            self.triangle_throughput,
            self.lod_distance,
            self.view_limit,
            self.decode_ms_per_mpixel,
            self.merge_ms,
        ) <= 0:
            raise ValueError(f"device profile fields must be positive: {self}")
        if not 0.0 <= self.lod_floor <= 1.0:
            raise ValueError("lod_floor must be in [0, 1]")


# The testbed devices (§3): Pixel 2 phones and the GTX 1080 Ti server.
PIXEL2 = DeviceProfile(
    name="pixel2",
    setup_ms=1.5,
    triangle_throughput=300_000.0,
    lod_distance=25.0,
    view_limit=300.0,
    decode_ms_per_mpixel=0.95,
    merge_ms=1.2,
)

GTX1080TI = DeviceProfile(
    name="gtx1080ti",
    setup_ms=0.4,
    triangle_throughput=3_500_000.0,
    lod_distance=25.0,
    view_limit=300.0,
    decode_ms_per_mpixel=0.08,
    merge_ms=0.2,
)


class RenderCostModel:
    """Render-time estimates for one device."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device

    def lod_weight(self, distance: float) -> float:
        """Fraction of an object's triangles actually rendered at a distance."""
        if distance < 0:
            raise ValueError("distance must be non-negative")
        ratio = distance / self.device.lod_distance
        # Real engines never drop below a minimum mesh LOD, so distant
        # geometry keeps a fixed fraction of its triangle cost.
        return max(self.device.lod_floor, 1.0 / (1.0 + ratio * ratio))

    def weighted_triangles(
        self, objects: Iterable[SceneObject], viewpoint: Vec2
    ) -> float:
        """LOD-weighted triangle count of ``objects`` seen from ``viewpoint``."""
        return sum(
            obj.triangles * self.lod_weight(obj.ground_distance_to(viewpoint))
            for obj in objects
        )

    def objects_ms(self, objects: Iterable[SceneObject], viewpoint: Vec2) -> float:
        """Pure geometry time (no per-frame setup) for a set of objects."""
        return self.weighted_triangles(objects, viewpoint) / self.device.triangle_throughput

    # ------------------------------------------------------------------
    # The quantities the paper's pipeline needs
    # ------------------------------------------------------------------

    def fi_ms(self, fi_triangles: float) -> float:
        """RT_FI: foreground interactions render at full detail (they are
        at arm's length, LOD ~ 1)."""
        if fi_triangles < 0:
            raise ValueError("fi_triangles must be non-negative")
        return fi_triangles / self.device.triangle_throughput

    def near_be_ms(self, scene: Scene, viewpoint: Vec2, cutoff_radius: float) -> float:
        """RT_nearBE: geometry within the cutoff radius."""
        return self._scene_ms(scene, viewpoint, cutoff_radius)

    def whole_be_ms(self, scene: Scene, viewpoint: Vec2) -> float:
        """Rendering the entire BE locally (the Mobile baseline's load)."""
        return self._scene_ms(scene, viewpoint, self.device.view_limit)

    def _scene_ms(self, scene: Scene, viewpoint: Vec2, radius: float) -> float:
        """``objects_ms(scene.objects_within(viewpoint, radius), viewpoint)``
        bit for bit: ``math.hypot`` distances, ``lod_weight`` elementwise and
        a builtin ``sum`` in candidate order (DESIGN.md §6)."""
        triangles, dx, dy = scene.triangles_and_offsets(viewpoint, radius)
        distance = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
        ratio = distance / self.device.lod_distance
        lod = np.maximum(self.device.lod_floor, 1.0 / (1.0 + ratio * ratio))
        return sum((triangles * lod).tolist()) / self.device.triangle_throughput

    def frame_ms(self, *task_ms: float) -> float:
        """Total frame time: per-frame setup plus sequential render tasks."""
        return self.device.setup_ms + sum(task_ms)

    def decode_ms(self, width: int, height: int) -> float:
        """Hardware decode time for one frame of the given resolution."""
        if width <= 0 or height <= 0:
            raise ValueError("frame dimensions must be positive")
        return (width * height / 1e6) * self.device.decode_ms_per_mpixel

    def gpu_utilization(self, render_ms_per_frame: float, frame_interval_ms: float) -> float:
        """GPU busy fraction when spending ``render_ms_per_frame`` per
        ``frame_interval_ms`` interval."""
        if frame_interval_ms <= 0:
            raise ValueError("frame_interval_ms must be positive")
        return min(1.0, max(0.0, render_ms_per_frame / frame_interval_ms))

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
from typing import Iterable, List, Sequence, Union

import numpy as np

from .. import perf
from ..geometry import Vec2
from ..world.objects import SceneObject
from ..world.scene import Discs, Scene


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
        # Past ``reach`` the exact weight ``1 / (1 + (d / d0)^2)`` is at
        # most ``lod_floor * (1 - 1e-9)``: a gap far above the rounding of
        # that chain, so the computed weight is below the floor too and
        # ``lod_weight`` returns the floor itself (DESIGN.md §6).
        floor = device.lod_floor
        self._reach = (
            device.lod_distance * math.sqrt(1.0 / (floor * (1.0 - 1e-9)) - 1.0)
            if floor > 0.0 else math.inf
        )
        self._reach_sq = self._reach * self._reach

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

    def near_be_ms(
        self,
        scene: Scene,
        viewpoint: Union[Vec2, Sequence[Vec2]],
        cutoff_radius: Union[float, Sequence[float]],
    ) -> Union[float, List[float]]:
        """RT_nearBE: geometry within the cutoff radius.

        Given a sequence of viewpoints, each with its own cutoff, returns
        theirs in order from one kernel call: the frame loop asks for a
        trajectory chunk's so (DESIGN.md §6).  The batch keeps this
        method's name, so a tracer that wraps it sees the chunk's query.
        """
        if isinstance(viewpoint, Vec2):
            return self._scene_ms(scene, viewpoint, cutoff_radius)
        xs = np.array([point.x for point in viewpoint], dtype=np.float64)
        ys = np.array([point.y for point in viewpoint], dtype=np.float64)
        radii = np.broadcast_to(np.asarray(cutoff_radius, dtype=np.float64), xs.shape)
        return [ms for hits in scene.discs(xs, ys, radii) for ms in self._discs_ms(hits)]

    def whole_be_ms(self, scene: Scene, viewpoint: Vec2) -> float:
        """Rendering the entire BE locally (the Mobile baseline's load)."""
        return self._scene_ms(scene, viewpoint, self.device.view_limit)

    def _scene_ms(self, scene: Scene, viewpoint: Vec2, radius: float) -> float:
        return self._discs_ms(scene.disc(viewpoint, radius))[0]

    def _discs_ms(self, hits: Discs) -> List[float]:
        """Geometry time of each centre ``c``'s disc of radius ``r``:
        ``objects_ms(scene.objects_within(c, r), c)`` bit for bit, per
        centre: ``math.hypot`` distances, ``lod_weight`` elementwise and one
        builtin ``sum`` over the centre's slice in candidate order
        (DESIGN.md §6).  A candidate beyond the floor's reach gets
        ``lod_floor`` without a distance."""
        dx, dy = hits.dx, hits.dy
        if (hits.radii > self._reach).any():
            lod = np.full(dx.size, self.device.lod_floor)
            near = np.flatnonzero(dx * dx + dy * dy <= self._reach_sq)
            lod[near] = self._lod_weights(dx[near], dy[near])
        else:
            lod = self._lod_weights(dx, dy)
        # Iterating a float64 memoryview yields the floats ``tolist`` would.
        weighted = memoryview(hits.triangles * lod)
        bounds = hits.bounds
        throughput = self.device.triangle_throughput
        return [sum(weighted[a:b]) / throughput for a, b in zip(bounds, bounds[1:])]

    def _lod_weights(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """``lod_weight(math.hypot(dx, dy))`` elementwise."""
        perf.count("cost_model.exact_distances", dx.size)
        distance = np.fromiter(
            map(math.hypot, memoryview(dx), memoryview(dy)), np.float64, dx.size
        )
        ratio = distance / self.device.lod_distance
        return np.maximum(self.device.lod_floor, 1.0 / (1.0 + ratio * ratio))

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

"""Procedural scene generation.

Worlds are generated from a *triangle-density field* (triangles per square
metre as a function of ground position) plus a mixture of object kinds.
Density is the quantity the paper's adaptive cutoff scheme reacts to —
"the object density across the virtual world of the VR games can vary
significantly" (§4.3) — so the field is the lever that lets each game
reproduce its Table 3 quadtree shape: Viking Village gets strong blob
variation (deep quadtree, 2944 leaves), CTS gets gentle variation, the
racing games get dense start/finish areas along a sparse valley.

Generation is fully deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Rect, Vec2
from .materials import ObjectKind
from .objects import SceneObject, make_object
from .reachability import TrackMask
from .scene import Scene, TerrainFn


@dataclass(frozen=True)
class DensityBlob:
    """A gaussian bump of extra triangle density (an asset cluster)."""

    center: Vec2
    sigma: float
    amplitude: float  # peak extra triangles / m^2

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("blob sigma must be positive")
        if self.amplitude < 0:
            raise ValueError("blob amplitude must be non-negative")

    def __call__(self, point: Vec2) -> float:
        d_sq = (point - self.center).norm_sq()
        return self.amplitude * math.exp(-d_sq / (2.0 * self.sigma * self.sigma))


class DensityField:
    """Triangle density (tri/m^2) = base + gaussian blobs + track band."""

    def __init__(
        self,
        base: float,
        blobs: Sequence[DensityBlob] = (),
        track: Optional[TrackMask] = None,
        track_band_width: float = 30.0,
        track_band_density: float = 0.0,
    ) -> None:
        if base < 0:
            raise ValueError("base density must be non-negative")
        if track_band_width <= 0:
            raise ValueError("track_band_width must be positive")
        if track_band_density < 0:
            raise ValueError("track_band_density must be non-negative")
        self.base = base
        self.blobs = list(blobs)
        self.track = track
        self.track_band_width = track_band_width
        self.track_band_density = track_band_density

    def __call__(self, point: Vec2) -> float:
        density = self.base + sum(blob(point) for blob in self.blobs)
        if self.track is not None and self.track_band_density > 0:
            dist = self.track.distance_to_centerline(point)
            if dist <= self.track_band_width:
                # Track-side assets hug the verge and taper off outward.
                density += self.track_band_density * (
                    1.0 - dist / self.track_band_width
                )
        return density

    def at_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch form of ``__call__`` over coordinate arrays, equal to it bit
        for bit: blob terms through ``math.exp``, each point's terms reduced
        by the builtin ``sum`` in blob order, and the track band on the exact
        :meth:`TrackMask.distances_to_centerline`."""
        cx, cy, sigma, amplitude = np.array(
            [(b.center.x, b.center.y, b.sigma, b.amplitude) for b in self.blobs],
            dtype=np.float64,
        ).reshape(-1, 4).T
        # One row per point, one column per blob: the scalar's terms.
        dx = xs[:, None] - cx
        dy = ys[:, None] - cy
        exponent = -(dx * dx + dy * dy) / (2.0 * sigma * sigma)
        exps = np.fromiter(map(math.exp, exponent.ravel().tolist()), np.float64, exponent.size)
        terms = (amplitude * exps.reshape(exponent.shape)).tolist()
        density = self.base + np.fromiter(map(sum, terms), np.float64, len(terms))
        if self.track is not None and self.track_band_density > 0:
            dist = self.track.distances_to_centerline(xs, ys)
            band = density + self.track_band_density * (1.0 - dist / self.track_band_width)
            density = np.where(dist <= self.track_band_width, band, density)
        return density

    @staticmethod
    def random_blobs(
        bounds: Rect,
        count: int,
        sigma_range: Tuple[float, float],
        amplitude_range: Tuple[float, float],
        rng: np.random.Generator,
    ) -> List[DensityBlob]:
        """Scatter ``count`` seeded blobs uniformly over the world."""
        if count < 0:
            raise ValueError("count must be non-negative")
        blobs = []
        for center in bounds.sample(rng, count):
            sigma = float(rng.uniform(*sigma_range))
            amplitude = float(rng.uniform(*amplitude_range))
            blobs.append(DensityBlob(center=center, sigma=sigma, amplitude=amplitude))
        return blobs


@dataclass(frozen=True)
class KindMixture:
    """A weighted mixture of object kinds to draw placements from."""

    kinds: Tuple[ObjectKind, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.kinds) != len(self.weights) or not self.kinds:
            raise ValueError("kinds and weights must be non-empty and equal-length")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")

    def mean_triangles(self) -> float:
        """Expected triangles of one draw from the mixture."""
        total_w = sum(self.weights)
        return sum(
            w * (k.triangles[0] + k.triangles[1]) / 2.0
            for k, w in zip(self.kinds, self.weights)
        ) / total_w

    @cached_property
    def _cumulative(self) -> Tuple[float, ...]:
        total = sum(self.weights)
        running = 0.0
        cumulative = []
        for w in self.weights:
            running += w / total
            cumulative.append(running)
        return tuple(cumulative)

    def draw(self, rng: np.random.Generator) -> ObjectKind:
        """Sample a kind according to the weights."""
        u = float(rng.random())
        for kind_obj, threshold in zip(self.kinds, self._cumulative):
            if u <= threshold:
                return kind_obj
        return self.kinds[-1]


def generate_scene(
    bounds: Rect,
    terrain: TerrainFn,
    density: Callable[[Vec2], float],
    mixture: KindMixture,
    seed: int,
    placement_cell: float = 8.0,
    keep_clear: Optional[Callable[[Vec2], bool]] = None,
    max_objects: int = 50_000,
    clutter_mixture: Optional[KindMixture] = None,
    clutter_per_m2: float = 0.0,
    clutter_mask: Optional[Callable[[Vec2], bool]] = None,
) -> Scene:
    """Generate a scene by filling placement cells up to the density budget.

    Each ``placement_cell`` x ``placement_cell`` square receives *structure*
    objects until their cumulative triangle count reaches the local density
    target.  A second pass scatters light *clutter* objects (grass, props)
    at ``clutter_per_m2`` objects per square metre: these contribute little
    render cost but sit everywhere near the player, which is what makes the
    "near-object" effect (§4.2) pervasive rather than occasional.
    ``keep_clear`` marks positions where structures must not be placed
    (e.g. the drivable track surface); ``clutter_mask`` restricts where
    clutter appears (default: anywhere structures may go).
    """
    if placement_cell <= 0:
        raise ValueError("placement_cell must be positive")
    if clutter_per_m2 < 0:
        raise ValueError("clutter_per_m2 must be non-negative")
    rng = np.random.default_rng(seed)
    objects: List[SceneObject] = []
    next_id = 0
    cell_area = placement_cell * placement_cell
    mean_triangles = mixture.mean_triangles()

    ny = max(1, int(math.ceil(bounds.height / placement_cell)))
    nx = max(1, int(math.ceil(bounds.width / placement_cell)))
    for j in range(ny):
        row = [
            Rect(
                bounds.x_min + i * placement_cell,
                bounds.y_min + j * placement_cell,
                min(bounds.x_min + (i + 1) * placement_cell, bounds.x_max),
                min(bounds.y_min + (j + 1) * placement_cell, bounds.y_max),
            )
            for i in range(nx)
        ]
        row = [cell for cell in row if cell.area != 0]
        centers = [cell.center for cell in row]
        if isinstance(density, DensityField):
            # One array pass per placement row, equal to the scalar calls.
            xs, ys = np.array([(c.x, c.y) for c in centers]).reshape(-1, 2).T
            row_density = density.at_many(xs, ys).tolist()
        else:
            row_density = [density(c) for c in centers]
        for cell, cell_density in zip(row, row_density):
            target = cell_density * cell_area
            if target <= 0:
                continue
            # Poisson placement with the statistically correct expectation:
            # a cell whose triangle budget is a fraction of one mean object
            # gets an object only that fraction of the time (a minimum of
            # one object per cell would inflate sparse worlds many-fold).
            expected_count = target / mean_triangles
            count = int(rng.poisson(expected_count))
            attempts = 0
            max_attempts = 4 * count + 8  # keep_clear cells cannot spin forever
            while count > 0 and attempts < max_attempts:
                attempts += 1
                position = cell.sample(rng, 1)[0]
                if keep_clear is not None and keep_clear(position):
                    continue
                kind = mixture.draw(rng)
                obj = make_object(
                    next_id, kind, position, terrain(position), rng
                )
                objects.append(obj)
                next_id += 1
                count -= 1
                if next_id >= max_objects:
                    return Scene(bounds, objects, terrain)

    if clutter_per_m2 > 0:
        if clutter_mixture is None:
            raise ValueError("clutter_per_m2 set but no clutter_mixture given")
        clutter_count = min(
            max_objects - next_id,
            rng.poisson(clutter_per_m2 * bounds.area),
        )
        for position in bounds.sample(rng, max(0, int(clutter_count))):
            if clutter_mask is not None:
                if not clutter_mask(position):
                    continue
            elif keep_clear is not None and keep_clear(position):
                continue
            kind = clutter_mixture.draw(rng)
            objects.append(
                make_object(next_id, kind, position, terrain(position), rng)
            )
            next_id += 1
    return Scene(bounds, objects, terrain)

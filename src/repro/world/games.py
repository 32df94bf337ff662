"""The nine VR games of the paper's study (Tables 2 and 3).

Each :class:`GameSpec` encodes the published facts — world dimension, genre,
foreground-interaction type, indoor/outdoor — plus the procedural knobs that
make the generated world behave like the paper's Unity scene: triangle
density structure (which drives the adaptive cutoff quadtree of Table 3 and
the cutoff-radius CDFs of Fig. 7), terrain, track geometry for the racing
games, and player locomotion parameters.

Grid pitch is 1/32 m everywhere, matching the paper's grid-point counts
(e.g. Viking Village: 187x130 m x 1024 points/m^2 = 24.9 M points); the
racing games additionally restrict reachability to the track band, which is
why their huge worlds have few reachable points (Racing Mountain: 7.7 M of
~1.2 G lattice points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..geometry import Rect, Vec2, WorldGrid
from . import materials as mat
from .generator import DensityBlob, DensityField, KindMixture, generate_scene
from .objects import SceneObject, make_object
from .reachability import FullAreaMask, RoomMask, TrackMask, oval_track
from .scene import Scene, TerrainFn
from .terrain import FlatTerrain, RidgeTerrain, RollingTerrain

GRID_PITCH = 1.0 / 32.0  # metres; 1024 grid points per square metre

# A chunky procedural-terrain mesh tile (the CTS asset is a terrain shader
# whose patches are far heavier than individual props).
TERRAIN_TILE = mat.ObjectKind(
    "terrain_tile", (80_000, 250_000), (4.0, 8.0), 0.38, 0.35
)


@dataclass(frozen=True)
class PlayerProfile:
    """Locomotion parameters used by the trajectory generators."""

    speed: float  # m/s typical
    speed_jitter: float  # fractional speed variation
    eye_height: float  # metres above the foothold
    turn_rate: float  # rad/s max heading change

    def __post_init__(self) -> None:
        if self.speed <= 0 or self.eye_height < 0 or self.turn_rate <= 0:
            raise ValueError(f"invalid player profile: {self}")


@dataclass(frozen=True)
class GameSpec:
    """Static description of one of the nine study games."""

    name: str
    title: str
    genre: str
    fi_description: str
    indoor: bool
    dimensions: Tuple[float, float]  # metres (Table 3)
    seed: int
    base_density: float  # tri/m^2 away from features
    blob_count: int
    blob_sigma: Tuple[float, float]
    blob_amplitude: Tuple[float, float]
    mixture_kinds: Tuple[str, ...]
    mixture_weights: Tuple[float, ...]
    player: PlayerProfile = field(
        default_factory=lambda: PlayerProfile(2.0, 0.25, 1.7, 1.2)
    )
    has_track: bool = False
    track_margin: float = 0.0
    track_half_width: float = 4.0
    track_band_width: float = 30.0
    track_band_density: float = 0.0
    track_blob_arcs: Tuple[float, ...] = ()  # arc fractions with forests etc.
    track_blob_amplitude: float = 0.0
    track_blob_sigma: float = 30.0
    fi_triangles: int = 400_000  # avatar/vehicle FI render load per player
    terrain_kind: str = "rolling"  # "flat" | "rolling" | "ridge"
    clutter_kinds: Tuple[str, ...] = ("grass", "rock")
    clutter_weights: Tuple[float, ...] = (0.7, 0.3)
    clutter_per_m2: float = 0.0  # light near-player props per square metre
    rim_mountains: int = 0  # distant scenery meshes ringing the world
    rim_ring_fraction: float = 0.88  # ring radius as a fraction of world half-size

    @property
    def bounds(self) -> Rect:
        w, h = self.dimensions
        return Rect(0.0, 0.0, w, h)

    @property
    def area(self) -> float:
        w, h = self.dimensions
        return w * h


@dataclass
class GameWorld:
    """A fully built game: scene + grid + masks, ready for the pipeline."""

    spec: GameSpec
    scene: Scene
    grid: WorldGrid
    terrain: TerrainFn
    track: Optional[TrackMask]
    scale: float  # 1.0 = paper-scale dimensions

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def bounds(self) -> Rect:
        return self.scene.bounds

    def spawn_points(self, count: int) -> List[Vec2]:
        """Starting positions for ``count`` players, clustered together the
        way the paper observes multiplayer groups travel (§4.1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self.track is not None:
            spacing = 8.0 * self.scale
            return [self.track.point_at(k * spacing) for k in range(count)]
        center = self.bounds.center
        offset = min(2.0, self.bounds.width / 8.0)
        points = []
        for k in range(count):
            angle = 2.0 * math.pi * k / max(count, 1)
            candidate = Vec2(
                center.x + offset * math.cos(angle),
                center.y + offset * math.sin(angle),
            )
            points.append(self.bounds.clamp(candidate))
        return points

    def grid_point_count(self, rng: Optional[np.random.Generator] = None) -> int:
        """Estimated reachable grid points (Table 3's "Grid Points")."""
        rng = rng if rng is not None else np.random.default_rng(0)
        return self.grid.count_reachable(rng)


def _terrain_for(spec: GameSpec, scale: float) -> TerrainFn:
    if spec.terrain_kind == "flat":
        return FlatTerrain()
    if spec.terrain_kind == "ridge":
        w, h = spec.dimensions
        return RidgeTerrain(
            valley_center=Vec2(w * scale / 2, h * scale / 2),
            valley_radius=min(w, h) * scale * 0.32,
        )
    return RollingTerrain(phase_seed=spec.seed)


def _mixture_for(spec: GameSpec) -> KindMixture:
    kinds = tuple(
        TERRAIN_TILE if name == "terrain_tile" else mat.kind(name)
        for name in spec.mixture_kinds
    )
    return KindMixture(kinds=kinds, weights=spec.mixture_weights)


def _perimeter_walls(
    bounds: Rect, terrain: TerrainFn, rng: np.random.Generator, start_id: int
) -> List[SceneObject]:
    """Wall panels every ~3 m along an indoor room's perimeter."""
    walls = []
    next_id = start_id
    spacing = 3.0
    perimeter_points: List[Vec2] = []
    x = bounds.x_min
    while x <= bounds.x_max:
        perimeter_points.append(Vec2(x, bounds.y_min))
        perimeter_points.append(Vec2(x, bounds.y_max))
        x += spacing
    y = bounds.y_min
    while y <= bounds.y_max:
        perimeter_points.append(Vec2(bounds.x_min, y))
        perimeter_points.append(Vec2(bounds.x_max, y))
        y += spacing
    for position in perimeter_points:
        walls.append(
            make_object(next_id, mat.WALL_PANEL, position, terrain(position), rng)
        )
        next_id += 1
    return walls


def build_game(name: str, scale: float = 1.0) -> GameWorld:
    """Construct a game world.

    ``scale`` < 1 shrinks the world's linear dimensions (and proportionally
    the blob count) for fast tests; benchmarks use ``scale=1.0``.
    Everything is deterministic in (name, scale).
    """
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    spec = game_spec(name)
    w = spec.dimensions[0] * scale
    h = spec.dimensions[1] * scale
    bounds = Rect(0.0, 0.0, w, h)
    terrain = _terrain_for(spec, scale)
    rng = np.random.default_rng(spec.seed)

    track: Optional[TrackMask] = None
    keep_clear = None
    if spec.has_track:
        waypoints = oval_track(bounds, margin=spec.track_margin * scale)
        track = TrackMask(waypoints, half_width=spec.track_half_width)
        keep_clear = track  # nothing is placed on the drivable surface

    blobs = DensityField.random_blobs(
        bounds,
        max(1, int(round(spec.blob_count * scale))),
        spec.blob_sigma,
        spec.blob_amplitude,
        rng,
    )
    if track is not None and spec.track_blob_amplitude > 0:
        total = track.length()
        for arc_fraction in spec.track_blob_arcs:
            arc = arc_fraction * total
            heading = track.heading_at(arc)
            # Forest / stadium clusters sit just off the track edge.
            offset = Vec2.from_angle(
                heading + math.pi / 2, spec.track_half_width + spec.track_blob_sigma
            )
            blobs.append(
                DensityBlob(
                    center=track.point_at(arc) + offset,
                    sigma=spec.track_blob_sigma,
                    amplitude=spec.track_blob_amplitude,
                )
            )

    density = DensityField(
        base=spec.base_density,
        blobs=blobs,
        track=track,
        track_band_width=spec.track_band_width,
        track_band_density=spec.track_band_density,
    )
    clutter_mixture = None
    clutter_mask = None
    if spec.clutter_per_m2 > 0:
        clutter_mixture = KindMixture(
            kinds=tuple(mat.kind(n) for n in spec.clutter_kinds),
            weights=spec.clutter_weights,
        )
        if track is not None:
            # Track-side clutter only: on the verge, never on the asphalt.
            verge_inner = spec.track_half_width
            verge_outer = spec.track_band_width

            def clutter_mask(p, _t=track, _i=verge_inner, _o=verge_outer):
                return _i < _t.distance_to_centerline(p) <= _o

    scene = generate_scene(
        bounds=bounds,
        terrain=terrain,
        density=density,
        mixture=_mixture_for(spec),
        seed=spec.seed + 1,
        keep_clear=keep_clear,
        clutter_mixture=clutter_mixture,
        clutter_per_m2=spec.clutter_per_m2,
        clutter_mask=clutter_mask,
    )
    scene = Scene(
        bounds, scene.objects, terrain, ground_seed=spec.seed
    )
    if spec.indoor:
        walls = _perimeter_walls(
            bounds, terrain, np.random.default_rng(spec.seed + 2), len(scene)
        )
        scene = Scene(bounds, scene.objects + walls, terrain, ground_seed=spec.seed)
    if spec.rim_mountains > 0:
        mountain_rng = np.random.default_rng(spec.seed + 3)
        ring_radius = min(w, h) / 2.0 * spec.rim_ring_fraction
        center = bounds.center
        mountains = []
        for k in range(spec.rim_mountains):
            angle = 2.0 * math.pi * k / spec.rim_mountains
            position = bounds.clamp(
                Vec2(
                    center.x + ring_radius * math.cos(angle),
                    center.y + ring_radius * math.sin(angle),
                )
            )
            mountains.append(
                make_object(
                    len(scene) + k, mat.MOUNTAIN, position, terrain(position), mountain_rng
                )
            )
        scene = Scene(
            bounds, scene.objects + mountains, terrain, ground_seed=spec.seed
        )

    if spec.has_track:
        mask: Callable[[Vec2], bool] = track
    elif spec.indoor:
        mask = RoomMask(bounds)
    else:
        mask = FullAreaMask(bounds)
    grid = WorldGrid(bounds, GRID_PITCH, reachable=mask)
    return GameWorld(
        spec=spec, scene=scene, grid=grid, terrain=terrain, track=track, scale=scale
    )


# ----------------------------------------------------------------------
# The nine game specs (Table 2 genres; Table 3 dimensions)
# ----------------------------------------------------------------------

_WALK = PlayerProfile(speed=2.0, speed_jitter=0.25, eye_height=1.7, turn_rate=1.2)
_RUN = PlayerProfile(speed=3.0, speed_jitter=0.30, eye_height=1.7, turn_rate=1.5)
_DRIVE = PlayerProfile(speed=28.0, speed_jitter=0.15, eye_height=1.2, turn_rate=0.8)
_INDOOR = PlayerProfile(speed=1.2, speed_jitter=0.20, eye_height=1.7, turn_rate=1.0)

_SPECS: Dict[str, GameSpec] = {}


def _spec(s: GameSpec) -> GameSpec:
    if s.name in _SPECS:
        raise ValueError(f"duplicate game spec {s.name}")
    _SPECS[s.name] = s
    return s


VIKING = _spec(GameSpec(
    name="viking",
    title="Viking Village",
    genre="competing shooting",
    fi_description="roaming and killing enemies",
    indoor=False,
    dimensions=(187.0, 130.0),
    seed=11,
    # Strongly non-uniform density: mead halls and packed hut clusters over
    # a vegetated floor -> deep quadtree with many leaf regions (Table 3).
    base_density=850.0,
    blob_count=30,
    blob_sigma=(6.0, 16.0),
    blob_amplitude=(1_000.0, 3_600.0),
    mixture_kinds=("tree", "hut", "longhouse", "hall", "rock", "crate", "fence"),
    mixture_weights=(0.29, 0.23, 0.14, 0.02, 0.12, 0.12, 0.08),
    player=_RUN,
    clutter_kinds=("grass", "rock", "crate"),
    clutter_weights=(0.6, 0.25, 0.15),
    clutter_per_m2=0.06,
))

CTS = _spec(GameSpec(
    name="cts",
    title="CTS Procedural World",
    genre="group adventure/mission",
    fi_description="walking and jumping",
    indoor=False,
    dimensions=(512.0, 512.0),
    seed=23,
    # Heavy terrain-shader tiles with gentle large-scale variation ->
    # shallow, even quadtree (235 leaves at depth ~4).
    base_density=460.0,
    blob_count=10,
    blob_sigma=(70.0, 140.0),
    blob_amplitude=(100.0, 300.0),
    mixture_kinds=("terrain_tile", "tree", "rock"),
    mixture_weights=(0.55, 0.30, 0.15),
    player=_WALK,
    clutter_kinds=("grass", "bush", "rock"),
    clutter_weights=(0.5, 0.3, 0.2),
    clutter_per_m2=0.008,
))

RACING = _spec(GameSpec(
    name="racing",
    title="Racing Mountain",
    genre="racing/chasing",
    fi_description="racing car movement",
    indoor=False,
    dimensions=(1090.0, 1096.0),
    seed=37,
    base_density=2.0,
    blob_count=6,
    blob_sigma=(60.0, 120.0),
    blob_amplitude=(20.0, 80.0),
    mixture_kinds=("grove", "tree", "rock", "barrier", "billboard"),
    mixture_weights=(0.10, 0.40, 0.15, 0.20, 0.15),
    player=_DRIVE,
    has_track=True,
    track_margin=280.0,
    track_half_width=5.0,
    track_band_width=20.0,
    track_band_density=12.0,
    # A few sections run right past a forest -> small cutoffs there,
    # huge cutoffs elsewhere (Fig. 7: radii spread 10-180 m).
    track_blob_arcs=(0.14, 0.55),
    track_blob_amplitude=8_000.0,
    track_blob_sigma=16.0,
    fi_triangles=600_000,
    terrain_kind="ridge",
    rim_mountains=45,
    rim_ring_fraction=0.85,
    clutter_kinds=("grass", "rock", "barrier"),
    clutter_weights=(0.5, 0.3, 0.2),
    clutter_per_m2=0.0012,
))

DS = _spec(GameSpec(
    name="ds",
    title="DS Racing",
    genre="racing/chasing",
    fi_description="racing car movement",
    indoor=False,
    dimensions=(1286.0, 361.0),
    seed=41,
    base_density=2.0,
    blob_count=4,
    blob_sigma=(40.0, 90.0),
    blob_amplitude=(15.0, 60.0),
    mixture_kinds=("tree", "grove", "barrier", "billboard", "grandstand", "person"),
    mixture_weights=(0.20, 0.35, 0.15, 0.10, 0.08, 0.12),
    player=_DRIVE,
    has_track=True,
    track_margin=60.0,
    track_half_width=5.0,
    track_band_width=25.0,
    track_band_density=80.0,
    # Start/finish straight is packed with stadiums and people (S4.4:
    # "regions near start/end locations of racing are densely populated").
    track_blob_arcs=(0.0, 0.015, 0.985),
    track_blob_amplitude=12_000.0,
    track_blob_sigma=12.0,
    fi_triangles=600_000,
    clutter_kinds=("grass", "barrier", "person"),
    clutter_weights=(0.45, 0.35, 0.2),
    clutter_per_m2=0.0012,
))

FPS = _spec(GameSpec(
    name="fps",
    title="FPS Arena",
    genre="competing shooting",
    fi_description="roaming and killing enemies",
    indoor=False,
    dimensions=(71.0, 70.0),
    seed=53,
    base_density=900.0,
    blob_count=20,
    blob_sigma=(2.5, 6.0),
    blob_amplitude=(4_000.0, 15_000.0),
    mixture_kinds=("crate", "house", "tower", "fence", "rock"),
    mixture_weights=(0.30, 0.22, 0.13, 0.20, 0.15),
    player=_RUN,
    clutter_kinds=("crate", "rock", "grass"),
    clutter_weights=(0.4, 0.3, 0.3),
    clutter_per_m2=0.05,
))

SOCCER = _spec(GameSpec(
    name="soccer",
    title="Soccer Field",
    genre="group adventure/mission",
    fi_description="moving and hitting balls",
    indoor=False,
    dimensions=(104.0, 140.0),
    seed=61,
    # An open pitch ringed by stands: density concentrated at the borders.
    base_density=300.0,
    blob_count=14,
    blob_sigma=(8.0, 16.0),
    blob_amplitude=(1_200.0, 4_500.0),
    mixture_kinds=("grandstand", "billboard", "fence", "tree"),
    mixture_weights=(0.28, 0.22, 0.30, 0.20),
    player=_RUN,
    clutter_kinds=("grass", "fence"),
    clutter_weights=(0.75, 0.25),
    clutter_per_m2=0.04,
))

POOL = _spec(GameSpec(
    name="pool",
    title="Pool Hall",
    genre="static sports",
    fi_description="walking and hitting balls",
    indoor=True,
    dimensions=(10.0, 13.0),
    seed=71,
    base_density=55_000.0,
    blob_count=3,
    blob_sigma=(1.5, 3.0),
    blob_amplitude=(60_000.0, 160_000.0),
    mixture_kinds=("pool_table", "chair", "lamp", "bookcase"),
    mixture_weights=(0.30, 0.30, 0.25, 0.15),
    player=_INDOOR,
    fi_triangles=200_000,
    terrain_kind="flat",
    clutter_kinds=("chair", "lamp"),
    clutter_weights=(0.6, 0.4),
    clutter_per_m2=0.15,
))

BOWLING = _spec(GameSpec(
    name="bowling",
    title="Bowling Alley",
    genre="static sports",
    fi_description="walking and throwing balls",
    indoor=True,
    dimensions=(34.0, 41.0),
    seed=83,
    base_density=10_000.0,
    blob_count=4,
    blob_sigma=(3.0, 6.0),
    blob_amplitude=(15_000.0, 45_000.0),
    mixture_kinds=("bowling_lane", "chair", "table", "lamp"),
    mixture_weights=(0.35, 0.25, 0.22, 0.18),
    player=_INDOOR,
    fi_triangles=200_000,
    terrain_kind="flat",
    clutter_kinds=("chair", "crate"),
    clutter_weights=(0.6, 0.4),
    clutter_per_m2=0.08,
))

CORRIDOR = _spec(GameSpec(
    name="corridor",
    title="Corridor",
    genre="group adventure",
    fi_description="roaming",
    indoor=True,
    dimensions=(50.0, 30.0),
    seed=97,
    base_density=10_000.0,
    blob_count=6,
    blob_sigma=(2.5, 5.0),
    blob_amplitude=(15_000.0, 45_000.0),
    mixture_kinds=("pillar", "bookcase", "table", "lamp", "chair"),
    mixture_weights=(0.28, 0.22, 0.20, 0.15, 0.15),
    player=_INDOOR,
    fi_triangles=250_000,
    terrain_kind="flat",
    clutter_kinds=("crate", "chair", "lamp"),
    clutter_weights=(0.4, 0.35, 0.25),
    clutter_per_m2=0.10,
))

# The three headline evaluation apps (§7) and the full study set (§4).
HEADLINE_GAMES = ("viking", "cts", "racing")
OUTDOOR_GAMES = ("racing", "ds", "viking", "cts", "fps", "soccer")
INDOOR_GAMES = ("pool", "bowling", "corridor")
ALL_GAMES = OUTDOOR_GAMES + INDOOR_GAMES


def game_spec(name: str) -> GameSpec:
    """Look up a game spec by short name (see ``ALL_GAMES``)."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(f"unknown game {name!r}; known: {sorted(_SPECS)}") from None


@lru_cache(maxsize=None)
def _load_game(name: str, scale: float) -> GameWorld:
    return build_game(name, scale=scale)


def load_game(name: str, scale: float = 1.0) -> GameWorld:
    """Memoized :func:`build_game`.

    World construction is deterministic, and benchmarks repeatedly need the
    same worlds; treat the returned :class:`GameWorld` as read-only.
    Every spelling of the arguments shares one cache entry.
    """
    return _load_game(name, scale)


load_game.cache_info = _load_game.cache_info
load_game.cache_clear = _load_game.cache_clear

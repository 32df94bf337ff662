"""High-level experiment runner: one entry point for every system.

The benchmarks (and examples) drive everything through
:func:`run_system`, which dispatches by system name and owns the
artifact-preparation step Coterie needs.
"""

from __future__ import annotations

from typing import Optional

from ..codec import FrameCodec
from ..core.preprocess import OfflineArtifacts, preprocess_game
from ..render import RenderCostModel
from ..world.games import GameWorld, load_game
from .base import RunResult, SessionConfig
from .coterie import run_coterie
from .mobile import run_mobile
from .multi_furion import run_multi_furion
from .thin_client import run_thin_client

SYSTEMS = (
    "mobile",
    "thin_client",
    "multi_furion",
    "multi_furion_cache",
    "coterie",
    "coterie_nocache",
)

_ARTIFACT_CACHE = {}


def prepare_artifacts(
    world: GameWorld,
    config: SessionConfig,
    seed: int = 3,
    cache_dir: Optional[str] = None,
) -> OfflineArtifacts:
    """Run (and memoize) the offline preprocessing for a game.

    Keyed on the game, render resolution, and seed — the expensive part of
    a Coterie experiment that every run over the same game shares.
    ``cache_dir`` additionally persists the artifacts on disk (see
    :func:`~repro.core.preprocess.preprocess_game`).
    """
    key = (
        world.name,
        world.scale,
        config.render_config.width,
        config.render_config.height,
        seed,
        cache_dir,
    )
    cached = _ARTIFACT_CACHE.get(key)
    if cached is not None:
        return cached
    artifacts = preprocess_game(
        world,
        RenderCostModel(config.device),
        config.render_config,
        FrameCodec(crf=config.codec_crf),
        seed=seed,
        cache_dir=cache_dir,
    )
    _ARTIFACT_CACHE[key] = artifacts
    return artifacts


def run_system(
    system: str,
    game: str,
    n_players: int,
    config: Optional[SessionConfig] = None,
    artifacts: Optional[OfflineArtifacts] = None,
    scale: float = 1.0,
) -> RunResult:
    """Run one (system, game, player-count) experiment end to end."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    config = config if config is not None else SessionConfig()
    world = load_game(game, scale=scale)
    if system == "mobile":
        return run_mobile(world, n_players, config)
    if system == "thin_client":
        return run_thin_client(world, n_players, config)
    if system == "multi_furion":
        return run_multi_furion(world, n_players, config, exact_cache=False)
    if system == "multi_furion_cache":
        return run_multi_furion(world, n_players, config, exact_cache=True)
    if artifacts is None:
        artifacts = prepare_artifacts(world, config)
    if system == "coterie":
        return run_coterie(world, n_players, config, artifacts, use_cache=True)
    return run_coterie(world, n_players, config, artifacts, use_cache=False)

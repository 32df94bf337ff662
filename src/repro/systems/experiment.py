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
) -> OfflineArtifacts:
    """Run (and memoize) the offline preprocessing for a game.

    The expensive part of a Coterie experiment, shared by every run over
    the same game.  Keyed on every input :func:`preprocess_game` reads:
    the world, render config, device (cost model), codec CRF and seed.
    """
    key = (
        world.name,
        world.scale,
        config.render_config,
        config.device,
        config.codec_crf,
        seed,
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
    )
    _ARTIFACT_CACHE[key] = artifacts
    return artifacts


def run_system(
    system: str,
    game: str,
    n_players: int,
    config: Optional[SessionConfig] = None,
) -> RunResult:
    """Run one (system, game, player-count) experiment end to end."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    config = config if config is not None else SessionConfig()
    world = load_game(game)
    if system == "mobile":
        return run_mobile(world, n_players, config)
    if system == "thin_client":
        return run_thin_client(world, n_players, config)
    if system == "multi_furion":
        return run_multi_furion(world, n_players, config, exact_cache=False)
    if system == "multi_furion_cache":
        return run_multi_furion(world, n_players, config, exact_cache=True)
    artifacts = prepare_artifacts(world, config)
    if system == "coterie":
        return run_coterie(world, n_players, config, artifacts, use_cache=True)
    return run_coterie(world, n_players, config, artifacts, use_cache=False)

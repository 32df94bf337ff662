"""The four workloads: what is set up, what one pass runs, at which size.

Every workload is a closed loop with one client (the benchmark process):
``setup`` builds worlds and offline artifacts, ``run_pass`` is the
operation timed twice (``cold`` then ``warm`` on the same artifacts), and
``extra`` is the optional third phase.  Layers are reached only through
``repro``'s public functions.

Sizes.  Each workload has one measured size, chosen so that an untraced
run fits the driver's budget (92 runs in 57 minutes) and so that ten
different seeds agree: a pass is several short sessions with sub-seeds
``seed * sessions + i`` rather than one long session, because a single
party's walk decides how many dist-thresh leaves it crosses (4 to 17 on
viking over 30 s), so one long session makes host time swing by 2x from
seed to seed while a few short ones from the same spawn are steady to a
few percent.  ``smoke`` is the self-tests' hook: it only exercises the
plumbing, its numbers are not comparable and its shape checks are off.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.codec import FrameCodec
from repro.core.cutoff import CutoffSchemeConfig
from repro.core.preprocess import preprocess_game
from repro.fleet import ArrivalTrace, FleetConfig, PlayerArrival, run_fleet
from repro.render import RenderCostModel
from repro.systems import (
    SessionConfig,
    prepare_artifacts,
    run_coterie,
    run_mobile,
    run_multi_furion,
    run_thin_client,
)
from repro.world.games import build_game, load_game

PLAYERS = 4
#: ``prepare_artifacts``' preprocessing seed, so artifacts match ``repro run``.
PREPROCESS_SEED = 3


@dataclass
class Op:
    """One system run: the unit ``ops_attempted`` / ``ops_failed`` count."""

    name: str
    player_s: float  # simulated player-seconds it covers
    wall_s: float = 0.0
    result: Any = None  # RunResult, or FleetResult for ``run_fleet``
    error: Optional[str] = None


def _run_op(name: str, player_s: float, fn: Callable[[], Any]) -> Op:
    op = Op(name, player_s)
    start = time.perf_counter()
    try:
        op.result = fn()
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        op.error = traceback.format_exc(limit=8)
    op.wall_s = time.perf_counter() - start
    return op


@dataclass(frozen=True)
class SessionSize:
    """How much one pass of a sessions workload runs."""

    sessions: int
    duration_s: float
    extra_duration_s: float = 0.0
    cutoff_depth: Optional[int] = None  # None: the paper's quadtree depth


@dataclass(frozen=True)
class SessionsWorkload:
    """Coterie sessions on one game, optionally followed by the baselines."""

    game: str
    size: SessionSize
    smoke: SessionSize
    render_frames: bool = False

    @property
    def games(self) -> Tuple[str, ...]:
        return (self.game,)

    def setup(self, smoke: bool):
        size = self.smoke if smoke else self.size
        config = SessionConfig()
        world = build_game(self.game)
        cutoff = None
        if size.cutoff_depth is not None:
            cutoff = CutoffSchemeConfig(max_depth=size.cutoff_depth)
        artifacts = preprocess_game(
            world,
            RenderCostModel(config.device),
            config.render_config,
            FrameCodec(crf=config.codec_crf),
            seed=PREPROCESS_SEED,
            cutoff_config=cutoff,
        )
        return world, artifacts, size

    def artifacts(self, state) -> list:
        """The OfflineArtifacts the passes ran on (for leaf counts)."""
        return [state[1]]

    def _configs(self, size: SessionSize, seed: int):
        return [
            SessionConfig(
                duration_s=size.duration_s,
                seed=seed * size.sessions + index,
                render_frames=self.render_frames,
            )
            for index in range(size.sessions)
        ]

    def run_pass(self, state, seed: int) -> List[Op]:
        world, artifacts, size = state
        return [
            _run_op(
                "coterie", PLAYERS * size.duration_s,
                lambda c=config: run_coterie(world, PLAYERS, c, artifacts),
            )
            for config in self._configs(size, seed)
        ]

    def extra(self, state, seed: int) -> List[Op]:
        world, _, size = state
        if size.extra_duration_s <= 0:
            return []
        config = SessionConfig(duration_s=size.extra_duration_s, seed=seed)
        player_s = PLAYERS * size.extra_duration_s
        return [
            _run_op("multi_furion", player_s,
                    lambda: run_multi_furion(world, PLAYERS, config, exact_cache=False)),
            _run_op("multi_furion_cache", player_s,
                    lambda: run_multi_furion(world, PLAYERS, config, exact_cache=True)),
            _run_op("thin_client", player_s,
                    lambda: run_thin_client(world, PLAYERS, config)),
            _run_op("mobile", player_s,
                    lambda: run_mobile(world, PLAYERS, config)),
        ]


@dataclass(frozen=True)
class FleetSize:
    """How much one pass of the fleet workload runs."""

    arrivals: int
    horizon_s: float
    session_duration_s: float


@dataclass(frozen=True)
class FleetWorkload:
    """``run_fleet`` at full fidelity over a seeded arrival trace."""

    games: Tuple[str, ...]
    size: FleetSize
    smoke: FleetSize

    def setup(self, smoke: bool):
        # run_fleet reaches worlds and artifacts through memos, so set-up
        # fills them.  Its admission model and demand_for call
        # load_game(game), its session replays (run_system) call
        # load_game(game, scale=1.0), and lru_cache keys the two spellings
        # apart: a ``repro fleet`` process builds every world twice.
        # Set-up pays both builds, so ``cold`` starts from built worlds as
        # it does in the sessions workloads.
        for game in self.games:
            load_game(game, scale=1.0)
            prepare_artifacts(load_game(game), SessionConfig(), seed=PREPROCESS_SEED)
        return self.smoke if smoke else self.size

    def artifacts(self, size: FleetSize) -> list:
        """The OfflineArtifacts the passes ran on (memo hits by now)."""
        return [
            prepare_artifacts(load_game(game), SessionConfig(), seed=PREPROCESS_SEED)
            for game in self.games
        ]

    def _arrivals(self, size: FleetSize, seed: int) -> ArrivalTrace:
        """A Poisson process conditioned on its count: ``arrivals`` players
        at sorted uniform times, an equal share per game in shuffled
        order.  A free count (Poisson(24) has a 20 % standard deviation)
        would make every host-time metric track the draw, not the code."""
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, size.horizon_s * 1000.0, size.arrivals))
        games = np.array([self.games[i % len(self.games)] for i in range(size.arrivals)])
        rng.shuffle(games)
        return ArrivalTrace(
            [PlayerArrival(float(t), str(g)) for t, g in zip(times, games)]
        )

    def run_pass(self, size: FleetSize, seed: int) -> List[Op]:
        config = FleetConfig(
            arrivals=self._arrivals(size, seed + 7),
            seed=seed + 7,
            games=self.games,
            fidelity="full",
            session_duration_s=size.session_duration_s,
        )
        fleet = _run_op("fleet", 0.0, lambda: run_fleet(config))
        ops = [fleet]
        if fleet.error is None:
            for run in fleet.result.session_runs:
                ops.append(Op("fleet_session", run.n_players * run.duration_s, result=run))
        return ops

    def extra(self, size: FleetSize, seed: int) -> List[Op]:
        return []


WORKLOADS = {
    "racing_cold": SessionsWorkload(
        game="racing",
        size=SessionSize(sessions=1, duration_s=5.0),
        smoke=SessionSize(sessions=1, duration_s=0.25, cutoff_depth=2),
    ),
    "viking_systems": SessionsWorkload(
        game="viking",
        size=SessionSize(sessions=4, duration_s=3.0, extra_duration_s=3.0),
        smoke=SessionSize(sessions=2, duration_s=0.5, extra_duration_s=0.5),
    ),
    "cts_fullrender": SessionsWorkload(
        game="cts",
        render_frames=True,
        size=SessionSize(sessions=4, duration_s=1.0),
        smoke=SessionSize(sessions=1, duration_s=0.25),
    ),
    "fleet_full": FleetWorkload(
        games=("viking", "cts"),
        size=FleetSize(arrivals=24, horizon_s=12.0, session_duration_s=3.0),
        smoke=FleetSize(arrivals=6, horizon_s=2.0, session_duration_s=0.5),
    ),
}

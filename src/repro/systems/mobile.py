"""The Mobile baseline: everything rendered on the phone (§2.2).

No network involvement at all — the phone renders FI plus the entire BE
every frame, which is why commodity phones cap out at 24-27 FPS on the
study's 4K apps (Table 1) with the GPU pinned at ~90-99 %.
"""

from __future__ import annotations

from ..world.games import GameWorld
from .base import RunResult, Session, SessionConfig
from .loop import FetchStrategy, FrameOutcome, run_clients


class MobileStrategy(FetchStrategy):
    """Fetch nothing: the frame is one local render stage."""

    networked = False

    def frame(self, player_id: int, t0: float, sample):
        """Render FI + whole BE locally; yields no sim events."""
        session = self.session
        whole_ms = session.cost_model.whole_be_ms(session.world.scene, sample.position)
        out = FrameOutcome()
        render_ms = out.render_ms = session.cost_model.frame_ms(session.fi_ms, whole_ms)
        # Rendering IS the frame interval: the GPU is the bottleneck and
        # the display shows frames as they complete (sub-60 FPS).
        self.pace_sequential(out, t0, render_ms, (("render", render_ms),))
        return out
        yield  # a generator, like every strategy's frame()


def run_mobile(world: GameWorld, n_players: int, config: SessionConfig) -> RunResult:
    """Simulate N players on the local-rendering baseline."""
    if config.churn is not None:
        raise ValueError(
            "the mobile baseline has no network session to supervise; "
            "churn requires coterie, multi_furion, or thin_client"
        )
    session = Session(world, n_players, config)
    run_clients(session, MobileStrategy(session))
    return session.finish("mobile")

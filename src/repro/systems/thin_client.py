"""The Thin-client baseline: remote rendering, streamed frames (§2.2).

The server renders each client's full view, H.264-encodes it, and streams
it over the shared WiFi; the phone only decodes and displays.  The frame
path is inherently sequential — pose upload, server render, encode,
transfer, decode, display — so even one player sits at 41-50 ms per frame,
and each extra player inflates the transfer stage through medium
contention (Table 1's 52-64 ms at 2 players).
"""

from __future__ import annotations

from typing import Optional

from ..codec import FOUR_K_PIXELS
from ..core.preprocess import FrameSizeModel
from ..render import GTX1080TI, RenderCostModel
from ..world.games import GameWorld
from .base import RunResult, Session, SessionConfig
from .loop import FrameOutcome, run_clients
from .whole_frame import WholeFrameStrategy

# Pose upload + server-side session/compositor scheduling per frame; the
# calibrated residual between the measurable stages and the paper's 41-50 ms
# single-player inter-frame latency.
POSE_UPLOAD_MS = 2.0
SERVER_SCHEDULING_MS = 14.0


class ThinClientStrategy(WholeFrameStrategy):
    """Fetch the fully rendered frame as one sequential stream."""

    def __init__(self, session: Session, size_model: Optional[FrameSizeModel]) -> None:
        super().__init__(session, size_model, calibration_seed=5)
        self.server_model = RenderCostModel(GTX1080TI)

    def frame(self, player_id: int, t0: float, sample):
        """Upload pose → server render + encode → transfer → decode."""
        session = self.session
        world = session.world
        out = FrameOutcome()
        out.render_ms = 1.0  # phone GPU only composites the stream
        frame_bytes = self.wire_bytes(player_id, world.grid.snap(sample.position), t0)
        if frame_bytes is None:
            # Dropped: hold the previous streamed frame for one display
            # interval; no pose upload, render, or transfer.
            out.dropped = True
            out.stale_age_ms = t0 - self.last_frame_ms[player_id]
            server_ms = decode_ms = 0.0
            latency = 1000.0 / 60.0
        else:
            server_render_ms = self.server_model.frame_ms(
                session.cost_model.fi_ms(world.spec.fi_triangles) / 10.0,
                self.server_model.whole_be_ms(world.scene, sample.position),
            )
            stall_ms, transfer_ms = yield from self.stream(frame_bytes, t0)
            encode_ms = session.codec_timing.encode_ms(FOUR_K_PIXELS)
            self.observe(player_id, frame_bytes, transfer_ms)
            decode_ms = session.cost_model.decode_ms(3840, 2160)
            out.frame_bytes = frame_bytes
            out.transfer_ms = transfer_ms
            server_ms = stall_ms + server_render_ms + encode_ms
            latency = (
                POSE_UPLOAD_MS
                + SERVER_SCHEDULING_MS
                + stall_ms
                + server_render_ms
                + encode_ms
                + transfer_ms
                + decode_ms
            )
        self.pace_sequential(
            out, t0, latency,
            (
                ("upload", POSE_UPLOAD_MS + SERVER_SCHEDULING_MS),
                ("server", server_ms),
                ("transfer", out.transfer_ms),
                ("decode", decode_ms),
            ),
        )
        if not out.dropped:
            self.last_frame_ms[player_id] = t0 + out.interval_ms
        return out


def run_thin_client(
    world: GameWorld,
    n_players: int,
    config: SessionConfig,
    size_model: Optional[FrameSizeModel] = None,
) -> RunResult:
    """Simulate N players on the remote-rendering baseline."""
    session = Session(world, n_players, config)
    run_clients(session, ThinClientStrategy(session, size_model))
    return session.finish("thin_client", decoding=True)

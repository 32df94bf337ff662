"""What Multi-Furion and the thin client share: a whole frame per interval.

Both fetch one frame-sized object from the server every display interval
(a whole-BE panorama, or the fully rendered view), sized by a calibrated
:class:`~repro.core.preprocess.FrameSizeModel`.  So they share the
late-joiner handshake, Constraint 2's BE term, and the closed-loop
adaptation sequence — ladder-scale the wire size, maybe drop, stall,
transfer, observe.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.preprocess import FrameSizeModel, calibrate_size_model
from .base import Session
from .loop import FetchStrategy


class WholeFrameStrategy(FetchStrategy):
    """Per-interval whole-frame fetches off one frame-size model."""

    def __init__(
        self, session: Session, size_model: Optional[FrameSizeModel], calibration_seed: int
    ) -> None:
        super().__init__(session)
        config = session.config
        world = session.world
        if size_model is None:
            size_model = calibrate_size_model(
                world, config.render_config, session.codec, None, kind="whole",
                samples=6, seed=config.seed + calibration_seed,
                eye_height=world.spec.player.eye_height,
            )
        self.size_model = size_model
        # Closed-loop adaptation (None when config.adapt is off).  Without
        # a far-BE prefetcher there is nothing to throttle: the ladder
        # scales the frame's wire size, and the drop policy re-displays
        # the previous frame when the forecast says a fetch cannot land
        # in time.
        self.abr = session.init_abr(size_model.mean_bytes)
        # When each slot's displayed frame last refreshed (None: nothing
        # shown yet this incarnation, so nothing to fall back on).
        self.last_frame_ms: List[Optional[float]] = [None] * session.total_slots

    def reset(self, slot: int) -> None:
        """A rejoiner renumbers its frames and has shown nothing yet."""
        self.frame_index[slot] = 0
        self.last_frame_ms[slot] = None

    def be_kbps_for(self, slot: int) -> float:
        """A fresh frame every display interval: 60 Hz x the mean wire
        size — which is why whole-frame joins are usually rejected on
        links that admit Coterie joins comfortably."""
        return 60.0 * self.size_model.mean_bytes * 8.0 / 1000.0

    def warmup(self, player_id: int):
        """Late-joiner handshake: block on one whole frame.

        A Furion-style client needs the next grid point's panorama before
        it can display anything, and a thin client's stream is not
        established until one full frame got through; streaming it over
        the shared link (with any scripted server stall) is the whole
        warm-up.
        """
        session = self.session
        if not session.supervisor.poll(player_id):
            return None
        sample = session.position_at(player_id, session.sim.now)
        frame_bytes = self.size_model.sample(session.world.grid.snap(sample.position))
        yield from self.stream(frame_bytes, session.sim.now)
        return {"bytes": frame_bytes}

    def wire_bytes(self, player_id: int, grid_point, t0: float) -> Optional[int]:
        """This frame's wire size at the current rung, or None for an
        app-layer drop: the forecast says the transfer cannot land near
        the deadline, so the previous frame is re-displayed instead of
        pushing a doomed transfer into the congested medium."""
        frame_bytes = self.size_model.sample(grid_point)
        if self.abr is not None:
            controller = self.abr[player_id]
            frame_bytes = controller.scaled_bytes(frame_bytes)
            if self.last_frame_ms[player_id] is not None and controller.should_drop(
                t0, frame_bytes
            ):
                return None
        return frame_bytes

    def stream(self, frame_bytes: int, t0: float):
        """Serve one frame: any scripted server stall, then the transfer.

        Generator returning ``(stall_ms, wire_ms)``.
        """
        session = self.session
        stall_ms = session.faults.server_stall_ms(t0)
        if stall_ms > 0:
            yield stall_ms
        wire_ms = yield session.link.transfer(frame_bytes, tag="be")
        return stall_ms, wire_ms

    def observe(self, player_id: int, frame_bytes: int, wire_ms: float) -> None:
        """Feed a landed transfer to the player's rate estimator."""
        if self.abr is not None:
            self.abr[player_id].observe_transfer(self.session.sim.now, frame_bytes, wire_ms)

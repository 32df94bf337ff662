"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a live run.

The injector is the single point the system loops query — "is this player
offline right now?", "how slow is the server right now?" — so every system
(Coterie, Multi-Furion, Thin-client) experiences an identical fault
timeline.  It is pure bookkeeping over the schedule: all randomness lives
in the seeded link-impairment model, so a (schedule, seed) pair is fully
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .schedule import FaultSchedule, _PlayerWindow


def _any_covers(
    windows: Iterable[_PlayerWindow], player_id: int, now_ms: float
) -> bool:
    """Whether any of ``windows`` holds for ``player_id`` at ``now_ms``."""
    return any(window.covers(player_id, now_ms) for window in windows)


class FaultInjector:
    """Query interface over a fault schedule during a simulation."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule

    def server_stall_ms(self, now_ms: float) -> float:
        """Extra server response latency for a fetch issued at ``now_ms``."""
        extra = 0.0
        for stall in self.schedule.stalls:
            if stall.start_ms <= now_ms < stall.end_ms:
                extra += stall.extra_ms
        return extra

    def outage_resume_ms(self, player_id: int, now_ms: float) -> Optional[float]:
        """When a player paused at ``now_ms`` may resume, or None if online.

        Back-to-back outage windows are chased to the latest reachable
        end, so a schedule cannot strand a client mid-outage.
        """
        resume = None
        t = now_ms
        advanced = True
        while advanced:
            advanced = False
            for outage in self.schedule.outages:
                if outage.covers(player_id, t) and (
                    resume is None or outage.end_ms > resume
                ):
                    resume = outage.end_ms
                    t = outage.end_ms
                    advanced = True
        return resume

    # ------------------------------------------------------------------
    # Speculation / sync faults (repro.predict, repro.session.sync)
    # ------------------------------------------------------------------

    def speculation_frozen(self, player_id: int, now_ms: float) -> bool:
        """Whether a stale-speculation storm freezes pose observations."""
        return _any_covers(self.schedule.spec_storms, player_id, now_ms)

    def speculation_corrupted(self, player_id: int, now_ms: float) -> bool:
        """Whether a speculative fetch completing now arrives corrupted."""
        return _any_covers(self.schedule.spec_corruptions, player_id, now_ms)

    def desync_event_ms(
        self, player_id: int, since_ms: float, until_ms: float
    ) -> Optional[float]:
        """Earliest scripted desync for ``player_id`` in ``(since, until]``.

        The sync validator calls this once per validation round to decide
        whether the player's exchanged state hash was corrupted in flight
        since the previous round; the returned injection time anchors the
        detection-latency measurement.
        """
        best = None
        for desync in self.schedule.desyncs:
            if desync.player_id != player_id:
                continue
            if since_ms < desync.t_ms <= until_ms:
                if best is None or desync.t_ms < best:
                    best = desync.t_ms
        return best

"""Photon Unity Networking (PUN) substitute: FI state synchronization.

Multiplayer clients exchange foreground-interaction state — "position,
rotation and animation" of FI objects — through the server each frame
(§3, §5.1 task 4).  The paper measures 2-3 ms per sync round and Kbps-scale
bandwidth that grows with the player count (Table 9: 1 Kbps for one player
up to ~275 Kbps for four).

The model: every send tick each client uploads its FI state blob; the
server aggregates and fans the other players' states back out.  A lone
player only emits a presence heartbeat.  Traffic is recorded on the shared
link for Table 9 accounting; sync latency is the small UDP round trip.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim import Simulator
from .link import WifiLink


# PUN-like sync parameters (PUN's ~20 Hz send rate).
SEND_RATE_HZ = 20.0
STATE_BYTES = 80  # serialized position + rotation + animation
HEARTBEAT_BYTES = 12
HEARTBEAT_HZ = 10.0
BASE_LATENCY_MS = 1.6  # UDP RTT through the server
SERVER_PROC_MS = 0.6


def fi_sync_kbps(n_players: int) -> float:
    """Closed-form FI sync bandwidth for an ``n_players`` roster (Table 9).

    Heartbeats only for a lone player, ``n`` uploads plus ``n*(n-1)``
    fanout downloads per tick otherwise.
    """
    if n_players <= 0:
        return 0.0
    if n_players == 1:
        return HEARTBEAT_BYTES * 8 * HEARTBEAT_HZ / 1000.0
    per_tick = (
        n_players * STATE_BYTES
        + n_players * (n_players - 1) * STATE_BYTES
    )
    return per_tick * 8 * SEND_RATE_HZ / 1000.0


class PunChannel:
    """FI sync channel shared by the players of one game session."""

    def __init__(
        self,
        sim: Simulator,
        link: WifiLink,
        n_players: int,
        seed: int = 0,
    ) -> None:
        if n_players < 1:
            raise ValueError("n_players must be >= 1")
        self.sim = sim
        self.link = link
        self.n_players = n_players
        self._rng = np.random.default_rng(seed)
        self._last_tick_ms: Optional[float] = None  # None until first send

    # ------------------------------------------------------------------
    # Roster (session supervision: membership changes mid-run)
    # ------------------------------------------------------------------

    def add_player(self) -> None:
        """A player entered the room: FI fanout grows immediately."""
        self.n_players += 1

    def remove_player(self) -> None:
        """A player left the room (graceful leave or eviction)."""
        if self.n_players <= 0:
            raise ValueError("no players left to remove")
        self.n_players -= 1

    # ------------------------------------------------------------------
    # Latency (what the per-frame pipeline sees)
    # ------------------------------------------------------------------

    def sync_latency_ms(self) -> float:
        """One FI sync round: client -> server -> all clients.

        Matches the paper's measured 2-3 ms; small seeded jitter models
        scheduling noise.
        """
        jitter = float(self._rng.uniform(0.0, 0.7))
        return BASE_LATENCY_MS + SERVER_PROC_MS + jitter

    # ------------------------------------------------------------------
    # Bandwidth accounting (Table 9's FI column)
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance the sync clock to *now*, recording any due send ticks.

        Called by the session loop once per rendering interval; emits
        traffic at the PUN send rate regardless of frame rate.
        The send clock advances in whole period multiples: a tick that
        arrives late (a slow frame) keeps the fractional remainder, so
        the long-run send rate stays at ``SEND_RATE_HZ`` instead of
        drifting below it by one frame's jitter per tick.
        """
        if self.n_players < 1:
            return  # empty room: nothing syncs, nothing heartbeats
        period_ms = 1000.0 / (SEND_RATE_HZ if self.n_players > 1 else HEARTBEAT_HZ)
        if self._last_tick_ms is None:
            self._last_tick_ms = self.sim.now
        else:
            elapsed = self.sim.now - self._last_tick_ms
            if elapsed < period_ms:
                return
            self._last_tick_ms += int(elapsed / period_ms) * period_ms
        if self.n_players == 1:
            self.link.record_datagram(HEARTBEAT_BYTES, tag="fi")
            return
        n = self.n_players
        uploads = n * STATE_BYTES
        fanout = n * (n - 1) * STATE_BYTES
        self.link.record_datagram(uploads + fanout, tag="fi")

    def expected_bandwidth_kbps(self, n_players: Optional[int] = None) -> float:
        """Closed-form FI bandwidth (for validation against Table 9).

        ``n_players`` evaluates a hypothetical roster size — admission
        control forecasts the post-join FI load this way — and defaults
        to the live roster.
        """
        n = self.n_players if n_players is None else n_players
        return fi_sync_kbps(n)

"""Declarative fault schedules for the online runtime.

A :class:`FaultSchedule` scripts *when* things go wrong during a run, in
simulated milliseconds, independent of which system is running — the
same schedule can be applied to Coterie, Multi-Furion, and Thin-client
so their degradation behaviour is directly comparable.  Three fault
kinds cover the failure modes that matter for shared-WiFi VR:

* :class:`LinkDegradation` — an interference window: the medium serves at
  a fraction of nominal capacity and/or carries extra bursty loss.  These
  windows are compiled into the link-impairment model's
  :class:`~repro.net.impairment.DipEpisode` schedule.
* :class:`ServerStall` — the frame server responds slowly (GC pause,
  overload): every fetch issued during the window pays extra latency.
* :class:`ClientOutage` — a player's device drops off the network (or the
  player pauses); the client produces no frames until the window ends and
  then must recover (Coterie re-warms its frame cache on reconnect).

Schedules are plain frozen dataclasses — hashable, comparable, trivially
serialisable — and :meth:`FaultSchedule.parse` reads the compact CLI
spec, e.g. ``"dip@3000-8000:0.02,stall@1000-1500:25,outage@2000-4000:1"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..net.impairment import DipEpisode


def _finite(*values: float) -> None:
    """Refuse NaN and infinities in a parsed spec: a NaN time or argument
    compares false against every range check a record makes."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{value} is not a finite number")


def _check_window(start_ms: float, end_ms: float) -> None:
    if start_ms < 0 or end_ms <= start_ms:
        raise ValueError("fault window must satisfy 0 <= start < end")


@dataclass(frozen=True)
class LinkDegradation:
    """An interference window on the shared medium."""

    start_ms: float
    end_ms: float
    capacity_factor: float = 1.0  # fraction of nominal capacity left
    loss_rate: float = 0.0  # extra bursty loss during the window

    def __post_init__(self) -> None:
        _check_window(self.start_ms, self.end_ms)
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")

    def to_dip(self) -> DipEpisode:
        """The equivalent impairment-model episode."""
        return DipEpisode(
            start_ms=self.start_ms,
            end_ms=self.end_ms,
            capacity_factor=self.capacity_factor,
            loss_rate=self.loss_rate,
        )


@dataclass(frozen=True)
class ServerStall:
    """A window during which the frame server responds slowly."""

    start_ms: float
    end_ms: float
    extra_ms: float = 25.0  # added response latency per fetch

    def __post_init__(self) -> None:
        _check_window(self.start_ms, self.end_ms)
        if self.extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")


@dataclass(frozen=True)
class _PlayerWindow:
    """A ``[start_ms, end_ms)`` window on one player, or on every player."""

    start_ms: float
    end_ms: float
    player_id: int = -1  # -1: every player

    def __post_init__(self) -> None:
        _check_window(self.start_ms, self.end_ms)
        if self.player_id < -1:
            raise ValueError("player_id must be >= -1")

    def covers(self, player_id: int, now_ms: float) -> bool:
        """Whether this window holds for ``player_id`` at ``now_ms``."""
        if self.player_id not in (-1, player_id):
            return False
        return self.start_ms <= now_ms < self.end_ms


class ClientOutage(_PlayerWindow):
    """A window during which one (or every) client is disconnected."""


@dataclass(frozen=True)
class PoseJump:
    """An instantaneous trajectory discontinuity (teleport / snap-turn).

    From ``t_ms`` on, the affected player's pose is offset by
    ``(dx, dy)`` meters and ``dheading`` radians — a permanent
    discontinuity that a constant-velocity pose predictor cannot have
    seen coming, so it exercises the misprediction/rollback path.
    """

    t_ms: float
    player_id: int = -1  # -1: every player
    dx: float = 0.0
    dy: float = 0.0
    dheading: float = 0.0

    def __post_init__(self) -> None:
        if self.t_ms < 0:
            raise ValueError("t_ms must be non-negative")
        if self.player_id < -1:
            raise ValueError("player_id must be >= -1")

    def applies(self, player_id: int, now_ms: float) -> bool:
        """Whether this jump has taken effect for ``player_id``."""
        if self.player_id not in (-1, player_id):
            return False
        return now_ms >= self.t_ms


class SpeculationStorm(_PlayerWindow):
    """A window during which pose observations freeze (stale speculation).

    The predictor keeps issuing forecasts from its last pre-storm state
    while the player keeps moving — a burst of stale speculative
    prefetches that must all expire or roll back without corrupting the
    display.
    """


class SpeculationCorruption(_PlayerWindow):
    """A window during which speculative frame payloads arrive corrupted.

    Admitted speculative entries carry a perturbed oracle digest, so the
    validation step must detect the mismatch and roll the entry back
    before anything is displayed from it.
    """


@dataclass(frozen=True)
class DesyncInjection:
    """A scripted state divergence for one player at one instant.

    The player's next exchanged state hash is corrupted in flight; the
    :class:`~repro.session.sync.SyncValidator` must raise a desync alarm
    within one validation cadence of ``t_ms``.
    """

    t_ms: float
    player_id: int

    def __post_init__(self) -> None:
        if self.t_ms < 0:
            raise ValueError("t_ms must be non-negative")
        if self.player_id < 0:
            raise ValueError("desync injection needs an explicit player_id")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything scripted to go wrong during one run."""

    link: Tuple[LinkDegradation, ...] = ()
    stalls: Tuple[ServerStall, ...] = ()
    outages: Tuple[ClientOutage, ...] = ()
    poses: Tuple[PoseJump, ...] = ()
    spec_storms: Tuple[SpeculationStorm, ...] = ()
    spec_corruptions: Tuple[SpeculationCorruption, ...] = ()
    desyncs: Tuple[DesyncInjection, ...] = ()

    def __bool__(self) -> bool:
        return bool(
            self.link or self.stalls or self.outages or self.poses
            or self.spec_storms or self.spec_corruptions or self.desyncs
        )

    def dips(self) -> Tuple[DipEpisode, ...]:
        """The link windows as impairment-model dip episodes."""
        return tuple(window.to_dip() for window in self.link)

    def validate_slots(self, total_slots: int) -> None:
        """Reject player references outside the session's slots."""
        worst = max((
            fault.player_id
            for faults in (self.outages, self.poses, self.spec_storms,
                           self.spec_corruptions, self.desyncs)
            for fault in faults
        ), default=-1)
        if worst >= total_slots:
            raise ValueError(
                f"fault schedule references player {worst} but the session "
                f"only has slots 0..{total_slots - 1}"
            )

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse the compact CLI syntax into a schedule.

        Comma-separated entries; windowed kinds use
        ``kind@start-end[:arg]``, instant kinds use ``kind@t[:arg]``
        (times in simulated ms):

        * ``dip@3000-8000:0.02`` — capacity drops to 2 % of nominal;
        * ``loss@3000-8000:0.3`` — 30 % bursty loss in the window;
        * ``stall@1000-1500:25`` — server adds 25 ms per fetch;
        * ``outage@2000-4000:1`` — player 1 disconnects (``all`` or no
          arg: every player);
        * ``teleport@3000:1~8`` — player 1 jumps 8 m at t=3000 (no
          player / ``all``: everyone; default 10 m);
        * ``snapturn@3000:1~90`` — player 1 snap-turns 90° (default 90);
        * ``specstorm@2000-3500:1`` — player 1's pose observations
          freeze (stale speculation; ``all`` or no arg: every player);
        * ``speccorrupt@2000-3500:1`` — player 1's speculative fetches
          arrive corrupted;
        * ``desync@2500:1`` — player 1's next exchanged state hash is
          corrupted (player required).
        """
        link = []
        stalls = []
        outages = []
        poses = []
        storms = []
        corruptions = []
        desyncs = []
        shape = (
            "expected kind@start-end[:arg] (or kind@t[:arg] for instant kinds)"
        )

        def split_player_arg(arg: str, default: float):
            """Parse ``[player][~value]`` into (player_id, value)."""
            player_s, _, value_s = arg.partition("~")
            player_s = player_s.strip()
            player = -1 if player_s in ("", "all") else int(player_s)
            value = float(value_s) if value_s else default
            _finite(value)
            return player, value

        def add(entry: str) -> None:
            """Parse one entry onto its list; any failure — shape, argument
            conversion, or the record's own range check — is a ValueError
            naming the cause."""
            kind, at, rest = entry.partition("@")
            if not at:
                raise ValueError(shape)
            kind = kind.strip().lower()
            window, _, arg = rest.partition(":")
            if kind in ("teleport", "snapturn", "desync"):
                # Instant kinds: kind@t[:arg].
                try:
                    t_ms = float(window)
                except ValueError:
                    raise ValueError(shape) from None
                _finite(t_ms)
                if kind == "teleport":
                    player, meters = split_player_arg(arg, default=10.0)
                    poses.append(PoseJump(t_ms, player_id=player, dx=meters))
                elif kind == "snapturn":
                    player, degrees = split_player_arg(arg, default=90.0)
                    poses.append(PoseJump(
                        t_ms, player_id=player,
                        dheading=math.radians(degrees),
                    ))
                else:  # desync
                    if not arg:
                        raise ValueError(
                            "desync needs an explicit player, "
                            "e.g. desync@2500:1"
                        )
                    desyncs.append(DesyncInjection(t_ms, player_id=int(arg)))
                return
            try:
                start_s, end_s = window.split("-", 1)
                start_ms, end_ms = float(start_s), float(end_s)
            except ValueError:
                raise ValueError(shape) from None
            _finite(start_ms, end_ms)
            if kind == "dip":
                link.append(LinkDegradation(
                    start_ms, end_ms,
                    capacity_factor=float(arg) if arg else 0.1,
                ))
            elif kind == "loss":
                link.append(LinkDegradation(
                    start_ms, end_ms,
                    loss_rate=float(arg) if arg else 0.2,
                ))
            elif kind == "stall":
                extra_ms = float(arg) if arg else 25.0
                _finite(extra_ms)
                stalls.append(ServerStall(start_ms, end_ms, extra_ms=extra_ms))
            elif kind == "outage":
                player = -1 if arg in ("", "all") else int(arg)
                outages.append(ClientOutage(start_ms, end_ms, player_id=player))
            elif kind == "specstorm":
                player = -1 if arg in ("", "all") else int(arg)
                storms.append(SpeculationStorm(
                    start_ms, end_ms, player_id=player,
                ))
            elif kind == "speccorrupt":
                player = -1 if arg in ("", "all") else int(arg)
                corruptions.append(SpeculationCorruption(
                    start_ms, end_ms, player_id=player,
                ))
            else:
                raise ValueError(
                    f"unknown fault kind {kind!r}; use dip/loss/stall/outage/"
                    f"teleport/snapturn/specstorm/speccorrupt/desync"
                )

        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            try:
                add(entry)
            except ValueError as exc:
                raise ValueError(f"bad fault entry {entry!r}: {exc}") from exc
        return cls(link=tuple(link), stalls=tuple(stalls),
                   outages=tuple(outages), poses=tuple(poses),
                   spec_storms=tuple(storms),
                   spec_corruptions=tuple(corruptions),
                   desyncs=tuple(desyncs))

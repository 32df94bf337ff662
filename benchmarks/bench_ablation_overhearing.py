"""Ablation — system-level inter-player overhearing (the rejected design).

§4.6 concludes that caching frames overheard from other players adds
almost nothing once a client already reuses its own similar frames
(Table 5: V5 ~ V3), and the final Coterie drops it (also because Android
NICs block promiscuous mode).  This ablation re-validates the decision on
the *full system*: 4 players with and without overhearing.
"""

from __future__ import annotations

import pytest

from harness import fmt, once, report
from repro.systems import Session, run_coterie
from repro.systems.coterie import CoterieStrategy
from repro.world import load_game

GAMES = ("viking", "cts")


class OverhearingStrategy(CoterieStrategy):
    """Coterie with the rejected inter-player variant (§4.6 Version 5):
    every server reply is also admitted into all other displaying
    players' caches."""

    def admit(self, decision, stored, frame_bytes, now_ms, player_id):
        cached = super().admit(decision, stored, frame_bytes, now_ms, player_id)
        for other in self.roster():
            if other != player_id:
                self.prefetchers[other].admit(
                    decision, stored, frame_bytes, now_ms,
                    origin_player=player_id, digest=cached.digest,
                )
        return cached


def run_overhearing(world, n_players, config, artifacts):
    """:func:`~repro.systems.run_coterie` with overhearing."""
    strategy = OverhearingStrategy(Session(world, n_players, config), artifacts)
    return strategy.run("coterie_overhear")


def _run_all(config, artifacts):
    rows = []
    data = {}
    for game in GAMES:
        world = load_game(game)
        plain = run_coterie(world, 4, config, artifacts[game])
        overhear = run_overhearing(world, 4, config, artifacts[game])
        data[game] = (plain, overhear)
        rows.append(
            (
                game,
                fmt(100 * plain.mean_cache_hit_ratio) + "%",
                fmt(100 * overhear.mean_cache_hit_ratio) + "%",
                fmt(plain.be_mbps, 0),
                fmt(overhear.be_mbps, 0),
            )
        )
    return rows, data


@pytest.mark.benchmark(group="ablation")
def test_ablation_overhearing(benchmark, session_config, headline_artifacts):
    rows, data = once(benchmark, _run_all, session_config, headline_artifacts)
    report(
        "ablation_overhearing",
        ["game", "hit (self only)", "hit (+overhear)", "BE Mbps", "BE Mbps (+ovh)"],
        rows,
        notes="4 Coterie players. The paper's rejection of inter-player "
        "reuse: self-similar reuse already reaps most of the benefit.",
    )
    for game, (plain, overhear) in data.items():
        gain = overhear.mean_cache_hit_ratio - plain.mean_cache_hit_ratio
        # Overhearing never hurts and gains only marginally.
        assert gain > -0.05, f"{game}: overhearing lost hits"
        assert gain < 0.15, f"{game}: overhearing gained too much to reject"
        assert plain.mean_fps > 55 and overhear.mean_fps > 55

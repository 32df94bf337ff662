"""Tests for the WiFi link model and PUN FI sync."""

import pytest

from repro.net import PunChannel, WifiLink
from repro.sim import Simulator


def run_transfer(link, size_bytes, tag="be"):
    results = {}

    def proc():
        duration = yield link.transfer(size_bytes, tag)
        results["duration"] = duration

    link.sim.spawn(proc())
    link.sim.run()
    return results["duration"]


class TestWifiLink:
    def test_single_transfer_duration(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0, overhead_ms=1.5)
        # 550 KB at 500 Mbps ~ 8.8 ms + 1.5 overhead (paper Table 1: ~9.2).
        duration = run_transfer(link, 550_000)
        assert 8.0 < duration + 1.5 < 12.0

    def test_two_concurrent_transfers_double_delay(self):
        """The Multi-Furion scaling wall: 2 players ~ 2x the net delay."""
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0, overhead_ms=0.0)
        durations = []

        def proc():
            d = yield link.transfer(550_000)
            durations.append(d)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        solo_sim = Simulator()
        solo_link = WifiLink(solo_sim, capacity_mbps=500.0, overhead_ms=0.0)
        solo = run_transfer(solo_link, 550_000)
        assert durations[0] == pytest.approx(2 * solo, rel=0.01)

    def test_zero_byte_transfer(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=100.0, overhead_ms=0.5)
        assert run_transfer(link, 0) == pytest.approx(0.0)

    def test_zero_byte_transfer_short_circuits(self):
        """Nothing goes on the air: no overhead, no accounting, no busy time."""
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=100.0, overhead_ms=5.0)
        done = link.transfer(0, tag="be")
        assert done.triggered  # completes immediately, pre-resolved
        assert done.value == 0.0
        assert link.bytes_for("be") == 0.0
        assert link._medium.active_flows == 0
        sim.run_until(100.0)
        assert link.utilization(100.0) == 0.0

    def test_negative_bytes_rejected(self):
        link = WifiLink(Simulator())
        with pytest.raises(ValueError):
            link.transfer(-1)
        with pytest.raises(ValueError):
            link.record_datagram(-1)

    def test_empty_tag_rejected(self):
        link = WifiLink(Simulator())
        with pytest.raises(ValueError):
            link.transfer(1000, tag="")
        with pytest.raises(ValueError):
            link.record_datagram(100, tag="")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WifiLink(Simulator(), capacity_mbps=0)

    @pytest.mark.parametrize("horizon_ms", [0.0, -1.0, -250.0])
    def test_bandwidth_rejects_non_positive_horizon(self, horizon_ms):
        """Regression: a zero/negative horizon must raise at the link
        layer with the offending value, never divide through or rely on
        the medium's internal checks."""
        link = WifiLink(Simulator())
        with pytest.raises(ValueError, match="horizon_ms must be positive"):
            link.bandwidth_mbps("be", horizon_ms)

    @pytest.mark.parametrize("horizon_ms", [0.0, -1.0, -250.0])
    def test_utilization_rejects_non_positive_horizon(self, horizon_ms):
        link = WifiLink(Simulator())
        with pytest.raises(ValueError, match="horizon_ms must be positive"):
            link.utilization(horizon_ms)

    def test_horizon_guard_message_names_value(self):
        link = WifiLink(Simulator())
        with pytest.raises(ValueError, match="-3.0"):
            link.bandwidth_mbps("be", -3.0)
        with pytest.raises(ValueError, match="-3.0"):
            link.utilization(-3.0)

    def test_tag_accounting(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0)
        run_transfer(link, 100_000, tag="be")
        link.record_datagram(500, tag="fi")
        assert link.bytes_for("be") == 100_000
        assert link.bytes_for("fi") == 500
        assert link.total_bytes() == 100_500
        assert link.bytes_for("unknown") == 0.0

    def test_bandwidth_mbps(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0)
        run_transfer(link, 1_250_000)  # 10 megabits
        # over a 1-second horizon -> 10 Mbps
        assert link.bandwidth_mbps("be", 1000.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            link.bandwidth_mbps("be", 0)

    def test_utilization(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0, overhead_ms=0.0)
        run_transfer(link, 625_000)  # 5 megabits -> 10 ms busy
        sim.run_until(100.0)
        assert link.utilization(100.0) == pytest.approx(0.1, abs=0.02)


class TestWifiContention:
    """The processor-sharing medium under multi-station load."""

    def test_per_tag_accounting_under_contention(self):
        """Concurrent transfers with distinct tags stay separately counted."""
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0, overhead_ms=0.0)

        def proc(size, tag):
            yield link.transfer(size, tag)

        sim.spawn(proc(100_000, "be"))
        sim.spawn(proc(40_000, "be"))
        sim.spawn(proc(60_000, "rewarm"))
        sim.run()
        assert link.bytes_for("be") == 140_000
        assert link.bytes_for("rewarm") == 60_000
        assert link.total_bytes() == 200_000

    def test_mac_efficiency_monotonic_in_stations(self):
        """More contending stations -> strictly less aggregate goodput."""
        efficiencies = [
            WifiLink(Simulator(), stations=n).mac_efficiency
            for n in (1, 2, 4, 8)
        ]
        assert efficiencies[0] == 1.0
        for faster, slower in zip(efficiencies, efficiencies[1:]):
            assert slower < faster

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_n_concurrent_transfers_share_capacity(self, n):
        """Each of N simultaneous transfers sees ~capacity/N throughput."""
        solo = run_transfer(
            WifiLink(Simulator(), capacity_mbps=500.0, overhead_ms=0.0),
            550_000,
        )
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0, overhead_ms=0.0)
        durations = []

        def proc():
            d = yield link.transfer(550_000)
            durations.append(d)

        for _ in range(n):
            sim.spawn(proc())
        sim.run()
        assert len(durations) == n
        for duration in durations:
            assert duration == pytest.approx(n * solo, rel=0.01)


class TestPunChannel:
    def test_sync_latency_in_paper_range(self):
        """Footnote 1: FI sync takes 2-3 ms."""
        channel = PunChannel(Simulator(), WifiLink(Simulator()), n_players=4)
        for _ in range(50):
            latency = channel.sync_latency_ms()
            assert 2.0 <= latency <= 3.0

    def test_single_player_heartbeat_only(self):
        sim = Simulator()
        link = WifiLink(sim)
        channel = PunChannel(sim, link, n_players=1)
        # Tick over one simulated second.
        for t in range(0, 1001, 16):
            sim.run_until(float(t))
            channel.tick()
        kbps = link.bytes_for("fi") * 8 / 1000.0
        assert 0.5 < kbps < 2.0  # Table 9: ~1 Kbps for 1P

    @pytest.mark.parametrize(
        "players,lo,hi",
        [(2, 30, 90), (3, 90, 180), (4, 180, 300)],
    )
    def test_multiplayer_bandwidth_matches_table9(self, players, lo, hi):
        channel = PunChannel(Simulator(), WifiLink(Simulator()), n_players=players)
        kbps = channel.expected_bandwidth_kbps()
        assert lo < kbps < hi

    def test_bandwidth_grows_superlinearly(self):
        kbps = [
            PunChannel(Simulator(), WifiLink(Simulator()), n).expected_bandwidth_kbps()
            for n in (2, 3, 4)
        ]
        assert kbps[2] > 2 * kbps[0]

    def test_tick_respects_send_rate(self):
        sim = Simulator()
        link = WifiLink(sim)
        channel = PunChannel(sim, link, n_players=2)
        # Two ticks 1 ms apart: only the first records traffic.
        channel.tick()
        first = link.bytes_for("fi")
        sim.run_until(1.0)
        channel.tick()
        assert link.bytes_for("fi") == first
        sim.run_until(51.0)
        channel.tick()
        assert link.bytes_for("fi") == 2 * first

    def test_tick_rate_has_no_cumulative_drift(self):
        """Regression: jittery tick times must not starve the send rate.

        The old tick snapped its clock to ``sim.now`` on every send, so
        any jitter between the period boundary and the actual tick call
        was lost — a 16.7 ms frame loop against a 50 ms send period
        drifted to ~14 sends/s instead of 20.  The fixed clock advances
        in whole period multiples, so over a long run the recorded FI
        bytes match ``expected_bandwidth_kbps`` exactly.
        """
        sim = Simulator()
        link = WifiLink(sim)
        channel = PunChannel(sim, link, n_players=4)
        horizon_ms = 60_000.0
        # Deterministic jittery call pattern: mostly 16.7 ms apart with
        # periodic long gaps, like a frame loop with slow frames mixed in.
        t, i = 0.0, 0
        while t < horizon_ms:
            sim.run_until(t)
            channel.tick()
            t += 16.666 if i % 7 else 43.21
            i += 1
        recorded_kbps = link.bytes_for("fi") * 8 / horizon_ms
        assert recorded_kbps == pytest.approx(
            channel.expected_bandwidth_kbps(), rel=0.02
        )

    def test_add_remove_player_scales_traffic(self):
        sim = Simulator()
        link = WifiLink(sim)
        channel = PunChannel(sim, link, n_players=2)
        assert channel.expected_bandwidth_kbps() < channel.expected_bandwidth_kbps(3)
        channel.add_player()
        assert channel.n_players == 3
        for _ in range(3):
            channel.remove_player()
        assert channel.n_players == 0
        with pytest.raises(ValueError):
            channel.remove_player()
        assert channel.expected_bandwidth_kbps(0) == 0.0

    def test_empty_room_tick_is_a_noop(self):
        sim = Simulator()
        link = WifiLink(sim)
        channel = PunChannel(sim, link, n_players=1)
        channel.remove_player()  # a fully departed room
        channel.tick()
        assert link.bytes_for("fi") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PunChannel(Simulator(), WifiLink(Simulator()), n_players=0)

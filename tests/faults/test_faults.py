"""Tests for the fault-schedule framework and its injector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ClientOutage,
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
    ServerStall,
)


class TestScheduleTypes:
    def test_window_validation(self):
        for cls in (LinkDegradation, ServerStall, ClientOutage):
            with pytest.raises(ValueError):
                cls(100.0, 100.0)
            with pytest.raises(ValueError):
                cls(-1.0, 100.0)

    def test_link_degradation_to_dip(self):
        window = LinkDegradation(100.0, 200.0, capacity_factor=0.25,
                                 loss_rate=0.1)
        dip = window.to_dip()
        assert dip.start_ms == 100.0
        assert dip.end_ms == 200.0
        assert dip.capacity_factor == 0.25
        assert dip.loss_rate == 0.1

    def test_outage_covers(self):
        mine = ClientOutage(100.0, 200.0, player_id=2)
        assert mine.covers(2, 150.0)
        assert not mine.covers(1, 150.0)
        assert not mine.covers(2, 200.0)
        everyone = ClientOutage(100.0, 200.0)
        assert everyone.covers(0, 150.0) and everyone.covers(7, 150.0)

    def test_schedule_truthiness(self):
        assert not FaultSchedule()
        assert FaultSchedule(stalls=(ServerStall(0.0, 1.0),))


class TestParse:
    def test_full_spec(self):
        schedule = FaultSchedule.parse(
            "dip@3000-8000:0.02, loss@4000-5000:0.3,"
            "stall@1000-1500:25, outage@2000-4000:1"
        )
        assert len(schedule.link) == 2
        assert schedule.link[0].capacity_factor == 0.02
        assert schedule.link[1].loss_rate == 0.3
        assert schedule.stalls[0].extra_ms == 25.0
        assert schedule.outages[0].player_id == 1

    def test_defaults(self):
        schedule = FaultSchedule.parse("dip@0-100,loss@0-100,stall@0-100,outage@0-100")
        assert schedule.link[0].capacity_factor == 0.1
        assert schedule.link[1].loss_rate == 0.2
        assert schedule.stalls[0].extra_ms == 25.0
        assert schedule.outages[0].player_id == -1

    def test_outage_all_keyword(self):
        schedule = FaultSchedule.parse("outage@0-100:all")
        assert schedule.outages[0].player_id == -1

    def test_dips_conversion(self):
        schedule = FaultSchedule.parse("dip@100-200:0.5")
        (dip,) = schedule.dips()
        assert dip.capacity_factor == 0.5

    def test_empty_entries_skipped(self):
        assert not FaultSchedule.parse("")
        assert len(FaultSchedule.parse("stall@0-100, ,").stalls) == 1

    @pytest.mark.parametrize("bad", [
        "freeze@0-100",        # unknown kind
        "dip@100",             # no window
        "dip@200-100",         # inverted window
        "stall@0-100:x",       # non-numeric arg
        "outage@0-100:p1",     # non-integer player
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.parse(bad)

    @pytest.mark.parametrize("bad, cause", [
        ("dip@0-100:abc", "could not convert string to float: 'abc'"),
        ("dip@0-100:7", "capacity_factor must be in (0, 1]"),
        ("loss@100-50:0.5", "fault window must satisfy 0 <= start < end"),
        ("stall@5-9:zz", "could not convert string to float: 'zz'"),
        ("outage@0-100:x", "invalid literal for int() with base 10: 'x'"),
        ("specstorm@0-100:-4", "player_id must be >= -1"),
        ("speccorrupt@0-100:p1", "invalid literal for int() with base 10: 'p1'"),
        ("teleport@-5:1", "t_ms must be non-negative"),
        ("snapturn@5:1~x", "could not convert string to float: 'x'"),
        ("desync@2500", "desync needs an explicit player, e.g. desync@2500:1"),
    ])
    def test_every_kind_locates_its_bad_entry(self, bad, cause):
        """Argument conversion and the record's own range check fail the
        same way for every kind: one line naming the entry and the cause."""
        with pytest.raises(ValueError) as excinfo:
            FaultSchedule.parse(f"stall@0-100:5,{bad}")
        assert str(excinfo.value) == f"bad fault entry {bad!r}: {cause}"


class TestInjector:
    def test_stalls_sum_when_overlapping(self):
        injector = FaultInjector(FaultSchedule(stalls=(
            ServerStall(0.0, 100.0, extra_ms=10.0),
            ServerStall(50.0, 150.0, extra_ms=5.0),
        )))
        assert injector.server_stall_ms(25.0) == 10.0
        assert injector.server_stall_ms(75.0) == 15.0
        assert injector.server_stall_ms(125.0) == 5.0
        assert injector.server_stall_ms(200.0) == 0.0

    def test_outage_resume(self):
        injector = FaultInjector(FaultSchedule(outages=(
            ClientOutage(100.0, 200.0, player_id=0),
        )))
        assert injector.outage_resume_ms(0, 50.0) is None
        assert injector.outage_resume_ms(0, 150.0) == 200.0
        assert injector.outage_resume_ms(1, 150.0) is None

    def test_back_to_back_outages_chain(self):
        """A client paused at t must skip through touching windows."""
        injector = FaultInjector(FaultSchedule(outages=(
            ClientOutage(100.0, 200.0),
            ClientOutage(200.0, 300.0),
            ClientOutage(250.0, 400.0),
        )))
        assert injector.outage_resume_ms(0, 150.0) == 400.0
        assert injector.outage_resume_ms(0, 399.0) == 400.0

    def test_outage_count(self):
        injector = FaultInjector(FaultSchedule(outages=(
            ClientOutage(0.0, 1.0, player_id=0),
            ClientOutage(0.0, 1.0, player_id=1),
            ClientOutage(0.0, 1.0),
        )))
        assert injector.outage_count(0) == 2
        assert injector.outage_count(1) == 2
        assert injector.outage_count(5) == 1


class TestOutageResumeProperties:
    """Property tests: the chase loop terminates and finds the true
    latest reachable outage end, under adversarial window layouts."""

    outage_lists = st.lists(
        st.tuples(
            st.integers(0, 50),            # start_ms
            st.integers(1, 30),            # duration_ms
            st.sampled_from([-1, 0, 1, 2]),  # player_id (-1 = wildcard)
        ).map(lambda t: ClientOutage(float(t[0]), float(t[0] + t[1]),
                                     player_id=t[2])),
        max_size=12,
    )

    @staticmethod
    def reference_resume(outages, player_id, now_ms):
        """Interval-reachability oracle: breadth-first over window ends.

        A time t is "offline-reachable" if some window covers it; from a
        reachable window its end is reachable.  The answer is the max
        end reachable from now_ms, or None when no window covers now_ms.
        """
        reachable = set()
        frontier = [now_ms]
        while frontier:
            t = frontier.pop()
            for outage in outages:
                if outage.covers(player_id, t) and outage.end_ms not in reachable:
                    reachable.add(outage.end_ms)
                    frontier.append(outage.end_ms)
        return max(reachable) if reachable else None

    @given(outages=outage_lists, player_id=st.sampled_from([0, 1, 3]),
           now_ms=st.integers(0, 70).map(float))
    @settings(max_examples=200, deadline=None)
    def test_matches_reachability_oracle(self, outages, player_id, now_ms):
        injector = FaultInjector(FaultSchedule(outages=tuple(outages)))
        assert injector.outage_resume_ms(player_id, now_ms) == \
               self.reference_resume(outages, player_id, now_ms)

    @given(outages=outage_lists, now_ms=st.integers(0, 70).map(float))
    @settings(max_examples=200, deadline=None)
    def test_resume_is_a_fixed_point(self, outages, now_ms):
        """At the resume instant the player is back online — no window
        (wildcard or targeted) still covers it, else the loop lied."""
        injector = FaultInjector(FaultSchedule(outages=tuple(outages)))
        resume = injector.outage_resume_ms(0, now_ms)
        if resume is not None:
            assert resume > now_ms  # covers() is end-exclusive
            assert not any(o.covers(0, resume) for o in outages)
            assert injector.outage_resume_ms(0, resume) is None

    def test_duplicate_and_nested_windows(self):
        """Duplicates and fully nested windows must not loop forever."""
        injector = FaultInjector(FaultSchedule(outages=(
            ClientOutage(10.0, 100.0),
            ClientOutage(10.0, 100.0),           # exact duplicate
            ClientOutage(20.0, 80.0, player_id=0),  # nested
            ClientOutage(90.0, 150.0, player_id=0),  # chained per-player
            ClientOutage(100.0, 120.0),          # chained wildcard
        )))
        assert injector.outage_resume_ms(0, 15.0) == 150.0
        assert injector.outage_resume_ms(1, 15.0) == 120.0

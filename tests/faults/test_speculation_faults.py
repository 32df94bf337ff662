"""Parsing + injector queries for the speculation/desync fault kinds,
and the hardened churn-schedule validation.

New fault kinds (teleport, snapturn, specstorm, speccorrupt, desync)
must parse from the compact CLI syntax with the documented defaults,
answer their applies/covers queries exactly, and reject malformed
entries with actionable errors.  The churn parser must reject
duplicate slot events and overlapping flap windows with errors that
name the offending entries by number.
"""

import math

import pytest

from repro.faults import (
    ChurnSchedule,
    DesyncInjection,
    FaultInjector,
    FaultSchedule,
    PoseJump,
    SpeculationCorruption,
    SpeculationStorm,
)


class TestPoseJump:
    def test_applies_from_t_onward(self):
        jump = PoseJump(1000.0, player_id=1, dx=8.0)
        assert not jump.applies(1, 999.0)
        assert jump.applies(1, 1000.0)
        assert jump.applies(1, 5000.0)
        assert not jump.applies(0, 5000.0)

    def test_all_players_wildcard(self):
        jump = PoseJump(1000.0, dx=8.0)
        assert jump.applies(0, 1000.0) and jump.applies(3, 1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoseJump(-1.0)
        with pytest.raises(ValueError):
            PoseJump(0.0, player_id=-2)


class TestDesyncInjection:
    def test_requires_explicit_player(self):
        with pytest.raises(ValueError, match="player_id"):
            DesyncInjection(1000.0, player_id=-1)
        assert DesyncInjection(1000.0, player_id=0).player_id == 0


class TestParseSpeculationKinds:
    def test_teleport_defaults_and_args(self):
        schedule = FaultSchedule.parse("teleport@3000,teleport@4000:1~8")
        assert schedule.poses[0] == PoseJump(3000.0, player_id=-1, dx=10.0)
        assert schedule.poses[1] == PoseJump(4000.0, player_id=1, dx=8.0)

    def test_snapturn_converts_degrees(self):
        schedule = FaultSchedule.parse("snapturn@2000:0~45")
        jump = schedule.poses[0]
        assert jump.player_id == 0
        assert jump.dx == 0.0
        assert jump.dheading == pytest.approx(math.radians(45))

    def test_snapturn_default_quarter_turn(self):
        schedule = FaultSchedule.parse("snapturn@2000")
        assert schedule.poses[0].dheading == pytest.approx(math.radians(90))

    def test_spec_windows(self):
        schedule = FaultSchedule.parse(
            "specstorm@500-1200:0,speccorrupt@1800-2600"
        )
        assert schedule.spec_storms == (
            SpeculationStorm(500.0, 1200.0, player_id=0),
        )
        assert schedule.spec_corruptions == (
            SpeculationCorruption(1800.0, 2600.0, player_id=-1),
        )

    def test_desync_parses(self):
        schedule = FaultSchedule.parse("desync@2500:1")
        assert schedule.desyncs == (DesyncInjection(2500.0, player_id=1),)

    def test_new_kinds_make_schedule_truthy(self):
        assert FaultSchedule.parse("teleport@100")
        assert FaultSchedule.parse("specstorm@100-200")
        assert FaultSchedule.parse("desync@100:0")
        assert not FaultSchedule.parse("")

    @pytest.mark.parametrize("bad", [
        "desync@2500",  # player required
        "desync@2500:all",  # wildcard forbidden
        "teleport@x",  # non-numeric time
        "snapturn@100:0~x",  # non-numeric degrees
        "specstorm@200-100",  # inverted window
        "speccorrupt@100",  # window kind without a window
        "warp@100",  # unknown kind
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.parse(bad)

    def test_desync_error_names_the_syntax(self):
        with pytest.raises(ValueError, match="desync needs an explicit"):
            FaultSchedule.parse("desync@2500")


class TestInjectorQueries:
    def test_speculation_frozen_window(self):
        injector = FaultInjector(
            FaultSchedule.parse("specstorm@500-1200:1")
        )
        assert not injector.speculation_frozen(1, 499.0)
        assert injector.speculation_frozen(1, 500.0)
        assert injector.speculation_frozen(1, 1199.0)
        assert not injector.speculation_frozen(1, 1200.0)
        assert not injector.speculation_frozen(0, 800.0)

    def test_speculation_corrupted_window(self):
        injector = FaultInjector(FaultSchedule.parse("speccorrupt@100-200"))
        assert injector.speculation_corrupted(0, 150.0)
        assert injector.speculation_corrupted(3, 150.0)
        assert not injector.speculation_corrupted(0, 250.0)

    def test_desync_event_window_query(self):
        injector = FaultInjector(
            FaultSchedule.parse("desync@600:1,desync@900:1,desync@700:0")
        )
        # Earliest injection for the slot inside (since, until].
        assert injector.desync_event_ms(1, 0.0, 1000.0) == 600.0
        assert injector.desync_event_ms(1, 600.0, 1000.0) == 900.0
        assert injector.desync_event_ms(1, 900.0, 1000.0) is None
        assert injector.desync_event_ms(0, 0.0, 1000.0) == 700.0
        # Boundary semantics: since is exclusive, until inclusive.
        assert injector.desync_event_ms(1, 0.0, 600.0) == 600.0
        assert injector.desync_event_ms(2, 0.0, 1000.0) is None


class TestChurnValidation:
    def test_duplicate_slot_event_rejected_with_entry_numbers(self):
        with pytest.raises(ValueError, match=r"entry 2.*first declared in entry 1"):
            ChurnSchedule.parse("leave@1000:0,leave@1000:0")

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChurnSchedule.parse("crash@500:1,crash@500:1")

    def test_same_time_different_slots_allowed(self):
        schedule = ChurnSchedule.parse("leave@1000:0,leave@1000:1")
        assert len(schedule.leaves) == 2

    def test_same_slot_different_times_allowed(self):
        schedule = ChurnSchedule.parse("leave@1000:0,rejoin@2000:0,leave@3000:0")
        assert len(schedule.leaves) == 2

    def test_overlapping_flap_windows_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            ChurnSchedule.parse("flap@1000-5000:2~800,flap@4000-8000:2~800")

    def test_disjoint_flap_windows_allowed(self):
        schedule = ChurnSchedule.parse("flap@1000-3000:2~800,flap@5000-7000:2~800")
        assert schedule  # both windows expanded

    def test_flap_overlap_error_names_entries(self):
        with pytest.raises(ValueError, match="entry 1"):
            ChurnSchedule.parse("flap@1000-5000:2~800,flap@4000-8000:2~800")

    def test_flap_vs_explicit_event_collision_rejected(self):
        # flap@1000-3000:2~1000 expands to leave@1000, rejoin@2000,
        # leave@3000... an explicit leave at an expanded instant collides.
        with pytest.raises(ValueError, match="duplicate"):
            ChurnSchedule.parse("flap@1000-3000:2~1000,leave@1000:2")

    @pytest.mark.parametrize("entry,cause", [
        ("leave@100:-1", "slot must be non-negative"),
        ("join@-5", "time must be non-negative"),
        ("crash@abc:1", "could not convert string to float: 'abc'"),
        ("leave@100", "invalid literal for int() with base 10: ''"),
        ("flap@500-100:1", "flap window must satisfy start < end"),
        ("join@100:0", "join count must be >= 1"),
        ("bogus@1", "unknown churn kind 'bogus'"),
    ])
    def test_bad_entry_names_number_text_and_cause(self, entry, cause):
        with pytest.raises(ValueError) as info:
            ChurnSchedule.parse(f"join@50,{entry}")
        (line,) = str(info.value).splitlines()
        assert line.startswith(f"churn spec entry 2 ({entry!r}): ")
        assert cause in line

"""Span arithmetic and the install/uninstall contract of ``spans.py``."""

import sys
import time

import pytest

import spans


def _burn(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_of_nested_and_aggregated_children_sum_to_the_root():
    tracer = spans.Tracer("t")
    leaf = tracer.wrap(lambda: _burn(0.002), "world.leaf", spans.LIGHT)

    def middle():
        _burn(0.003)
        for _ in range(5):
            leaf()

    middle = tracer.wrap(middle, "core.middle", spans.LIGHT)

    def outer():
        _burn(0.004)
        middle()
        leaf()

    outer = tracer.wrap(outer, "systems.outer", spans.SPAN)
    with tracer.phase("cold"):
        _burn(0.001)
        outer()
        outer()

    parts = tracer.phase_breakdown("cold")
    wall = parts.pop("wall")
    assert sum(parts.values()) == pytest.approx(wall, rel=1e-9)
    assert set(parts) == {"world.leaf", "core.middle", "systems.outer", "bench.unattributed"}
    assert tracer.total("world.leaf")[0] == 12
    assert tracer.total("core.middle")[0] == 2
    # inclusive >= self, and a parent's self time excludes its children
    calls, inclusive, self_s = tracer.total("systems.outer")
    assert calls == 2 and inclusive > self_s >= 2 * 0.004
    assert tracer.total("core.middle")[2] >= 2 * 0.003
    assert inclusive >= 2 * (0.004 + 0.003 + 6 * 0.002)
    assert parts["bench.unattributed"] >= 0.001
    # LIGHT calls leave no span object, only aggregates on the enclosing span
    assert [s["name"] for s in tracer.spans] == ["systems.outer", "systems.outer", "bench.phase"]
    assert tracer.spans[0]["aggregates"]["world.leaf"][0] == 6
    assert tracer.spans[0]["aggregates"]["core.middle"][0] == 1
    assert tracer.spans[0]["parent"] == tracer.spans[2]["id"]


def test_same_name_reentry_is_folded_into_the_outer_call():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: _burn(0.001), "world.scene_query", spans.LIGHT)
    outer = tracer.wrap(lambda: inner(), "world.scene_query", spans.LIGHT)
    with tracer.phase("warm"):
        outer()
    calls, inclusive, self_s = tracer.total("world.scene_query")
    assert calls == 1
    assert inclusive == self_s


def test_wrappers_are_inert_outside_a_phase_and_keep_exceptions():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "core.boom", spans.SPAN)
    with pytest.raises(KeyError):
        wrapped()
    assert not tracer.totals
    with tracer.phase("cold"), pytest.raises(KeyError):
        wrapped()
    assert tracer.total("core.boom")[0] == 1
    with tracer.phase("warm"):  # the stack unwound: a new phase can open
        pass


def test_chrome_trace_has_one_complete_event_per_span():
    tracer = spans.Tracer("id-1")
    work = tracer.wrap(lambda: _burn(0.001), "sim.run", spans.SPAN)
    with tracer.phase("cold"):
        work()
    document = tracer.chrome_trace()
    assert document["metadata"]["trace_id"] == "id-1"
    names = [event["name"] for event in document["traceEvents"]]
    assert names == ["bench.phase", "sim.run"]
    assert all(event["ph"] == "X" and event["dur"] > 0 for event in document["traceEvents"])
    assert document["traceEvents"][1]["args"]["phase"] == "cold"


def _holders():
    """Every (namespace, name) -> object binding install() may touch."""
    import repro.fleet  # noqa: F401  (load every package the targets name)
    import repro.systems  # noqa: F401

    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                if callable(value):
                    bindings[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if callable(member):
                            bindings[(name, key, attr)] = member
    return bindings


def test_install_patches_reexported_names_and_uninstall_restores_everything():
    before = _holders()
    import repro.core
    import repro.core.cutoff
    import repro.core.preprocess
    import repro.fleet.simulation
    import repro.systems.experiment
    from repro.world.scene import Scene

    original = repro.core.cutoff.build_cutoff_map
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        patched = repro.core.cutoff.build_cutoff_map
        assert patched is not original and patched.__wrapped__ is original
        # ``from ..core.cutoff import build_cutoff_map`` in preprocess.py
        assert repro.core.preprocess.build_cutoff_map is patched
        assert repro.core.build_cutoff_map is patched
        # run_system reaches fleet/simulation.py through repro.systems
        assert repro.fleet.simulation.run_system is repro.systems.experiment.run_system
        assert hasattr(repro.fleet.simulation.run_system, "__wrapped__")
        assert hasattr(Scene.objects_within, "__wrapped__")
    finally:
        spans.uninstall(undo)
    assert not undo
    after = _holders()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_every_target_resolves():
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        patched = {(holder, attr) for holder, attr, _ in undo}
        assert len(patched) == len(undo), "a binding was patched twice"
        assert len(undo) >= len(spans.TARGETS)
    finally:
        spans.uninstall(undo)

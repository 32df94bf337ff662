"""Outside-in span tracing: timing wrappers around ``repro``'s public functions.

Nothing under ``src/`` is edited.  :func:`install` replaces each function
in :data:`TARGETS` with a wrapper that reports to a :class:`Tracer`;
:func:`uninstall` puts every original object back.

A span's *self time* is its duration minus the time its direct children
cover, so the self times of everything recorded in a phase plus the
phase's own self time (``bench.unattributed_s``) equal the phase wall.

Two wrapper styles keep the trace small: ``SPAN`` targets (called a few
hundred times a run at most) record one span object per call; ``LIGHT``
targets (``Scene.objects_within``, ``FrameCache.lookup``,
``TrackMask.distance_to_centerline`` ... tens of thousands of calls)
only add to per-name totals and to a (calls, seconds) aggregate on their
nearest enclosing span, but still subtract from their parent's self
time.  A call whose name equals the name directly above it on the stack
(``objects_in_annulus`` calling ``objects_within``, both
``world.scene_query``) is folded into the outer call, so ``.calls``
counts outermost calls and ``.s`` never double-counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SPAN, LIGHT = "span", "light"

_perf_counter = time.perf_counter


class _Frame:
    """One open call on the tracer's stack."""

    __slots__ = ("name", "start", "child_s", "span_id", "parent_id", "aggregates")

    def __init__(self, name, start, span_id, parent_id, aggregates) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.aggregates = aggregates


class Tracer:
    """In-memory span recorder for one workload run (one trace id)."""

    ROOT = "bench.phase"

    def __init__(self, trace_id: str = "") -> None:
        self.trace_id = trace_id
        self.phase_name: Optional[str] = None
        self._stack: List[_Frame] = []
        self._next_id = 0
        #: Closed SPAN-style spans, in closing order.
        self.spans: List[Dict[str, Any]] = []
        #: (phase, name) -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: name -> objects handed over by ``after`` hooks this phase.
        self.collected: Dict[str, List[Any]] = {}
        #: name -> running sums kept by ``after`` hooks.
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record everything called inside the block under phase ``name``."""
        if self._stack:
            raise RuntimeError("phases do not nest")
        self.phase_name = name
        root = self._open(self.ROOT, SPAN)
        try:
            yield
        finally:
            self._close(root, SPAN)
            self.phase_name = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, style: str,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` that records under ``name``.

        ``after(tracer, args, result)`` runs once the call has been timed
        (outside the measured interval).
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = self._open(name, style)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, style)
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _open(self, name: str, style: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if style == SPAN:
            self._next_id += 1
            frame = _Frame(
                name, 0.0, self._next_id,
                parent.span_id if parent is not None else 0, {},
            )
        else:
            frame = _Frame(name, 0.0, parent.span_id, parent.parent_id,
                           parent.aggregates)
        self._stack.append(frame)
        frame.start = _perf_counter()
        return frame

    def _close(self, frame: _Frame, style: str) -> None:
        end = _perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        total = self.totals.get((self.phase_name, frame.name))
        if total is None:
            total = self.totals[(self.phase_name, frame.name)] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if style == SPAN:
            self.spans.append({
                "id": frame.span_id,
                "parent": frame.parent_id,
                "name": frame.name,
                "layer": frame.name.split(".", 1)[0],
                "phase": self.phase_name,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
                "aggregates": frame.aggregates,
            })
        else:
            aggregate = frame.aggregates.get(frame.name)
            if aggregate is None:
                aggregate = frame.aggregates[frame.name] = [0, 0.0]
            aggregate[0] += 1
            aggregate[1] += duration

    # ------------------------------------------------------------------
    # Reading the totals
    # ------------------------------------------------------------------

    def total(self, name: str, phase: Optional[str] = None) -> Tuple[int, float, float]:
        """(calls, inclusive s, self s) of ``name`` in one phase or all."""
        calls, inclusive, self_s = 0, 0.0, 0.0
        for (p, n), (c, s, own) in self.totals.items():
            if n == name and (phase is None or p == phase):
                calls += c
                inclusive += s
                self_s += own
        return int(calls), inclusive, self_s

    def phase_breakdown(self, phase: str) -> Dict[str, float]:
        """Self seconds per span name in ``phase``; the phase's own self
        time is reported as ``bench.unattributed`` and its wall as
        ``wall``.  The other values sum to ``wall``."""
        out: Dict[str, float] = {}
        for (p, name), (_, inclusive, self_s) in self.totals.items():
            if p != phase:
                continue
            if name == self.ROOT:
                out["bench.unattributed"] = self_s
                out["wall"] = inclusive
            else:
                out[name] = self_s
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = []
        for span in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "phase": span["phase"],
                    "self_s": span["self_s"],
                    "aggregated_calls": {
                        name: {"calls": calls, "total_s": total_s}
                        for name, (calls, total_s) in sorted(span["aggregates"].items())
                    },
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"trace_id": self.trace_id},
        }

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _collect(key: str) -> Callable:
    """An ``after`` hook keeping ``args[0]`` (the constructed ``self``)."""

    def hook(tracer: Tracer, args, result) -> None:
        tracer.collected.setdefault(key, []).append(args[0])

    return hook


def _encoded_bytes(tracer: Tracer, args, result) -> None:
    tracer.counters["codec.encoded_bytes"] = (
        tracer.counters.get("codec.encoded_bytes", 0) + result.luma_bytes
    )


#: (owner, attribute, span name, style, after-hook).  ``owner`` is a
#: module path, or ``module:Class`` for a method.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    # world
    ("repro.world.games", "build_game", "world.build_game", SPAN, None),
    ("repro.world.generator", "generate_scene", "world.generate_scene", SPAN, None),
    ("repro.world.reachability:TrackMask", "distance_to_centerline", "world.reachability", LIGHT, None),
    ("repro.world.reachability:TrackMask", "__call__", "world.reachability", LIGHT, None),
    ("repro.world.reachability:TrackMask", "point_at", "world.reachability", LIGHT, None),
    ("repro.world.reachability:TrackMask", "heading_at", "world.reachability", LIGHT, None),
    ("repro.world.reachability:RoomMask", "__call__", "world.reachability", LIGHT, None),
    ("repro.world.reachability:FullAreaMask", "__call__", "world.reachability", LIGHT, None),
    ("repro.geometry.grid:WorldGrid", "is_reachable", "world.reachability", LIGHT, None),
    ("repro.world.scene:Scene", "objects_within", "world.scene_query", LIGHT, None),
    ("repro.world.scene:Scene", "objects_in_annulus", "world.scene_query", LIGHT, None),
    ("repro.world.scene:Scene", "triangles_within", "world.scene_query", LIGHT, None),
    ("repro.world.scene:Scene", "near_object_ids", "world.scene_query", LIGHT, None),
    ("repro.world.scene:Scene", "partition", "world.scene_query", LIGHT, None),
    # trace
    ("repro.trace.movement", "generate_party", "trace.generate_party", SPAN, None),
    # core, offline
    ("repro.core.preprocess", "preprocess_game", "core.preprocess", SPAN, None),
    ("repro.core.cutoff", "build_cutoff_map", "core.cutoff", SPAN, None),
    ("repro.core.preprocess", "calibrate_size_model", "core.size_model", SPAN, None),
    ("repro.core.dist_thresh", "leaf_threshold", "core.dist_thresh", SPAN, None),
    # core, online
    ("repro.core.prefetch:Prefetcher", "plan", "core.prefetch.plan", LIGHT, None),
    ("repro.core.cache:FrameCache", "__init__", "core.cache.init", LIGHT, _collect("caches")),
    ("repro.core.cache:FrameCache", "lookup", "core.cache.lookup", LIGHT, None),
    ("repro.core.cache:FrameCache", "insert", "core.cache.insert", LIGHT, None),
    ("repro.core.preprocess:PanoramaStore", "__init__", "core.store.init", LIGHT, _collect("stores")),
    ("repro.core.preprocess:PanoramaStore", "frame_for", "core.store.frame_for", LIGHT, None),
    ("repro.core.merger", "layer_from_decoded", "core.merger", LIGHT, None),
    ("repro.core.merger", "compose_display", "core.merger", LIGHT, None),
    ("repro.core.merger", "compose_display_into", "core.merger", LIGHT, None),
    # run_coterie's full-render display path merges through the rasterizer's function
    ("repro.render.rasterizer", "merge_layers", "core.merger", LIGHT, None),
    ("repro.core.online:SsimBatchQueue", "flush", "core.ssim_queue.flush", SPAN, None),
    # render
    ("repro.render.timing:RenderCostModel", "near_be_ms", "render.cost_model", LIGHT, None),
    ("repro.render.timing:RenderCostModel", "whole_be_ms", "render.cost_model", LIGHT, None),
    ("repro.render.timing:RenderCostModel", "objects_ms", "render.cost_model", LIGHT, None),
    ("repro.render.splitter", "render_whole_be", "render.raster", LIGHT, None),
    ("repro.render.splitter", "render_far_be", "render.raster", LIGHT, None),
    ("repro.render.splitter", "render_near_be", "render.raster", LIGHT, None),
    ("repro.render.splitter", "render_fi", "render.raster", LIGHT, None),
    ("repro.render.splitter", "render_display_frame", "render.raster", LIGHT, None),
    ("repro.render.splitter", "reference_frame", "render.raster", LIGHT, None),
    # codec
    ("repro.codec.h264like:FrameCodec", "encode", "codec.encode", LIGHT, _encoded_bytes),
    ("repro.codec.h264like:FrameCodec", "decode", "codec.decode", LIGHT, None),
    ("repro.codec.h264like:FrameCodec", "decode_batch", "codec.decode", LIGHT, None),
    # similarity
    ("repro.similarity.ssim", "ssim", "similarity.ssim", LIGHT, None),
    ("repro.similarity.ssim", "ssim_with", "similarity.ssim", LIGHT, None),
    ("repro.similarity.ssim", "ssim_with_update", "similarity.ssim", LIGHT, None),
    ("repro.similarity.ssim", "ssim_many", "similarity.ssim", LIGHT, None),
    ("repro.similarity.ssim", "ssim_many_stacked", "similarity.ssim", LIGHT, None),
    ("repro.similarity.ssim", "ssim_pairs", "similarity.ssim", LIGHT, None),
    # sim
    # Simulator.dispatched only counts under repro's own tracer, so events
    # are counted where they are scheduled (``sim.scheduled``), which also
    # counts the few left in the queue when run_until stops.
    ("repro.sim.engine:Simulator", "schedule", "sim.schedule", LIGHT, None),
    ("repro.sim.engine:Simulator", "run", "sim.run", SPAN, None),
    ("repro.sim.engine:Simulator", "run_until", "sim.run", SPAN, None),
    # net
    ("repro.net.link:WifiLink", "__init__", "net.link", LIGHT, _collect("links")),
    ("repro.net.link:WifiLink", "transfer", "net.link.transfer", LIGHT, None),
    ("repro.net.link:WifiLink", "abort", "net.link", LIGHT, None),
    ("repro.net.link:WifiLink", "record_datagram", "net.link", LIGHT, None),
    ("repro.net.pun:PunChannel", "tick", "net.pun.tick", LIGHT, None),
    # systems
    ("repro.systems.coterie", "run_coterie", "systems.run", SPAN, None),
    ("repro.systems.multi_furion", "run_multi_furion", "systems.run", SPAN, None),
    ("repro.systems.thin_client", "run_thin_client", "systems.run", SPAN, None),
    ("repro.systems.mobile", "run_mobile", "systems.run", SPAN, None),
    ("repro.systems.base:Session", "__init__", "systems.session_init", SPAN, None),
    ("repro.systems.base:Session", "finish", "systems.finish", SPAN, None),
    ("repro.metrics.collector:MetricsCollector", "summary", "systems.finish", SPAN, None),
    # fleet
    ("repro.fleet.simulation", "run_fleet", "fleet.model", SPAN, None),
    ("repro.systems.experiment", "run_system", "fleet.replay", SPAN, None),
    ("repro.fleet.demand", "demand_for", "fleet.demand", SPAN, None),
)


def _repro_namespaces() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer, targets=TARGETS, also=()) -> List[Tuple[Any, str, Any]]:
    """Patch every target; returns the undo list for :func:`uninstall`.

    A module-level function is replaced in *every* loaded ``repro``
    module that holds the original object under any name, because
    ``from ..core.cutoff import build_cutoff_map`` binds a second
    reference that patching the defining module alone would miss.
    ``also`` lists further modules to treat the same way (the benchmark's
    own ``workloads`` module imports its entry points by name too).
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, style, after in targets:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attribute]
                undo.append((cls, attribute, original))
                setattr(cls, attribute, tracer.wrap(original, name, style, after))
                continue
            original = getattr(module, attribute)
            wrapper = tracer.wrap(original, name, style, after)
            for namespace in [*_repro_namespaces(), *also]:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        undo.append((namespace, key, original))
                        setattr(namespace, key, wrapper)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore every object :func:`install` replaced."""
    while undo:
        holder, attribute, original = undo.pop()
        setattr(holder, attribute, original)

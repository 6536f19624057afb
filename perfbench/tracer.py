"""Outside-in span tracing of the ``repro`` layers.

Nothing under ``src/`` knows about this module.  For the length of a
traced run, :func:`install` replaces a fixed set of library functions
and methods with timing wrappers and :meth:`Patches.restore` puts the
originals back.  Three kinds of wrapper are installed:

* around the engine's scheduling entry points (``Simulator.schedule``,
  ``EventQueue.push``), where every scheduled callback is itself
  wrapped, so each fired event becomes a span attributed to the module
  that owns the callback;
* around callbacks that hide their real owner: a ``PeriodicService``
  fires its own ``_fire`` method, so the span is named after the body
  inside it; scheduler work items complete through the scheduler, so
  ``Scheduler.post`` wraps each item's completion; emit-bus subscribers
  are wrapped when they subscribe; ``publish_via`` wraps the writer
  callable it is given, so npz compression counts against the layer
  that serialises, not against storage;
* around public cross-layer calls (``Kswapd.wake``, ``Lmkd.check``,
  ``MemoryManager.touch`` ...) and the public functions of the
  experiments, storage, trace, arena and study packages.

A span has a name, a start, an end and a parent; spans are appended to
flat arrays in memory and turned into per-layer self times only when
the run ends.  Self time is a span's duration minus the durations of
its direct children, so the self times of all spans sum to the
duration of the root spans and never exceed the traced wall clock.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Kernel modules reported as layers of their own; the rest of
#: ``repro.kernel`` (page state, process table, vmstat) is
#: ``kernel.other``.
KERNEL_PARTS = ("kswapd", "lmkd", "mmcqd", "reclaim", "pressure", "manager")

#: Every layer a span can be attributed to, in report order.  ``bench``
#: is the benchmark's own code (phase roots, output checks) and
#: ``other`` any callback owned outside ``repro``.
LAYERS = (
    "sim", "sim.emit", "sched",
    *(f"kernel.{part}" for part in KERNEL_PARTS), "kernel.other",
    "video", "workload", "device", "core",
    "experiments", "storage",
    "trace", "trace.recorder",
    "arena", "arena.policy", "arena.collector",
    "study", "bench", "other",
)


def layer_of(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "bench" if parts[0] == "perfbench" else "other"
    package = parts[1]
    leaf = parts[2] if len(parts) > 2 else ""
    if package == "kernel":
        return f"kernel.{leaf}" if leaf in KERNEL_PARTS else "kernel.other"
    if package == "trace" and leaf == "recorder":
        return "trace.recorder"
    if package == "arena" and leaf == "trace":
        return "arena.collector"
    if package == "arena" and leaf == "policies":
        return "arena.policy"
    if package in LAYERS:
        return package
    return "other"


class SpanLog:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        #: Counts and byte totals gathered at span boundaries.
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one span ``name``."""
        return self.timed_id(self.intern(name), fn)

    def timed_id(self, nid: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self.stack
        push_name = self.name.append
        push_parent = self.parent.append
        push_start = self.start.append
        push_end = self.end.append
        ends = self.end
        clock = self.clock

        def call(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(index)
            push_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        call.__wrapped__ = fn  # type: ignore[attr-defined]
        return call

    def phase(self, name: str) -> "_Phase":
        """A context manager recording one span (benchmark phases)."""
        return _Phase(self, self.intern(name))

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.end)
        if n == 0:
            return {}
        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        child = np.zeros(n, dtype=np.float64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(selfs[i]),
            }
            for i in range(k)
            if calls[i]
        }

    def save(self, path: Path) -> None:
        """Write every span (compressed npz with the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


class _Phase:
    def __init__(self, log: SpanLog, nid: int) -> None:
        self.log = log
        self.nid = nid
        self.index = -1

    def __enter__(self) -> "_Phase":
        log = self.log
        self.index = len(log.end)
        log.name.append(self.nid)
        log.parent.append(log.stack[-1])
        log.end.append(0.0)
        log.stack.append(self.index)
        log.start.append(log.clock())
        return self

    def __exit__(self, *exc: Any) -> None:
        self.log.end[self.index] = self.log.clock()
        self.log.stack.pop()


# ======================================================================
# Installing and removing the wrappers
# ======================================================================

class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace a module-level function in every module that holds it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith(("repro", "perfbench")):
                continue
            space = getattr(mod, "__dict__", {})
            for key, value in list(space.items()):
                if value is original:
                    self.set(mod, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _plain(fn: Any) -> Any:
    """The function object behind a bound method or one of our wrappers."""
    fn = getattr(fn, "__func__", fn)
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Callbacks:
    """Wraps callables handed to the engine so each invocation is a span
    named after the callable's owner."""

    def __init__(self, log: SpanLog, periodic_fire: Any) -> None:
        self.log = log
        self._periodic_fire = periodic_fire
        self._names: Dict[Tuple[Any, str], int] = {}

    def owner(self, fn: Any) -> Any:
        target = _plain(fn)
        if target is self._periodic_fire:
            # PeriodicService._fire: the owner is the body it runs.
            return self.owner(fn.__self__._fn)
        return target

    def wrap(self, fn: Any, kind: str) -> Callable[..., Any]:
        target = self.owner(fn)
        key = (getattr(target, "__code__", target), kind)
        nid = self._names.get(key)
        log = self.log
        if nid is None:
            module = getattr(target, "__module__", None) or type(target).__module__
            qual = getattr(target, "__qualname__", type(target).__qualname__)
            nid = self._names[key] = log.intern(
                f"{layer_of(module)}:{qual}@{kind}"
            )
        return log.timed_id(nid, fn)


def _wrapper(log: SpanLog, name: str, original: Any,
             after: Optional[Callable[..., None]]) -> Any:
    """``original`` timed as span ``name``; ``after`` sees (result,
    args) of each call, for byte and event counts."""
    timed = log.timed(name, original)
    if after is None:
        return functools.wraps(original)(timed)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = timed(*args, **kwargs)
        after(result, args)
        return result
    return wrapper


def _method(patches: Patches, log: SpanLog, cls: type, attr: str,
            layer: str, after: Optional[Callable[..., None]] = None) -> None:
    """Time ``cls.attr`` as span ``<layer>:<Class.attr>``."""
    original = getattr(cls, attr)
    patches.set(cls, attr, _wrapper(log, f"{layer}:{cls.__name__}.{attr}", original, after))


def _function(patches: Patches, log: SpanLog, module: Any, attr: str,
              layer: str, after: Optional[Callable[..., None]] = None) -> None:
    """Time module function ``attr`` as span ``<layer>:<attr>`` wherever
    it has been imported."""
    patches.function(module, attr, lambda original: _wrapper(log, f"{layer}:{attr}", original, after))


def _file_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def install(log: SpanLog) -> Patches:
    """Install every wrapper; the caller must ``restore()`` the result."""
    from repro.arena import driver as arena_driver
    from repro.arena import leaderboard, scoring
    from repro.arena.policies import get_policy, policy_names
    from repro.arena.trace import TraceCollector
    from repro.core.session import StreamingSession
    from repro.device.device import Device
    from repro.experiments import checkpoint, parallel
    from repro.kernel import reclaim
    from repro.kernel.kswapd import Kswapd
    from repro.kernel.lmkd import Lmkd
    from repro.kernel.manager import MemoryManager
    from repro.kernel.mmcqd import Mmcqd
    from repro.kernel.pressure import PressureMonitor
    from repro.sched.scheduler import IoWait, Scheduler
    from repro.sim.engine import Simulator
    from repro.sim.events import EventQueue
    from repro.sim.periodic import PeriodicService
    from repro.storage import atomic, envelope
    from repro.study import cohort, export, fleet
    from repro.trace import analysis as trace_analysis
    from repro.trace import replay, store

    patches = Patches()
    counts = log.counts
    callbacks = Callbacks(log, PeriodicService.__dict__["_fire"])
    wrap = callbacks.wrap

    # -- engine entry points: every scheduled callback becomes a span --
    schedule = log.timed("sim:Simulator.schedule", Simulator.schedule)

    @functools.wraps(Simulator.schedule)
    def traced_schedule(sim: Any, delay: Any, fn: Any, *args: Any,
                        label: str = "") -> Any:
        return schedule(sim, delay, wrap(fn, "event"), *args, label=label)

    push = log.timed("sim:EventQueue.push", EventQueue.push)

    @functools.wraps(EventQueue.push)
    def traced_push(queue: Any, when: Any, fn: Any, args: Any = (),
                    label: str = "") -> Any:
        return push(queue, when, wrap(fn, "event"), args, label)

    patches.set(Simulator, "schedule", traced_schedule)
    patches.set(EventQueue, "push", traced_push)
    _method(patches, log, Simulator, "run", "sim")

    # -- emit bus: deliveries and their subscribers --------------------
    emit = log.timed("sim.emit:Simulator.emit", Simulator.emit)
    original_emit = Simulator.emit

    @functools.wraps(Simulator.emit)
    def traced_emit(sim: Any, topic: str, **payload: Any) -> None:
        if not sim.tracing:
            return original_emit(sim, topic, **payload)
        counts["sim.emit.calls"] += 1
        return emit(sim, topic, **payload)

    original_on = Simulator.on
    original_off = Simulator.off

    @functools.wraps(Simulator.on)
    def traced_on(sim: Any, topic: str, callback: Any) -> None:
        original_on(sim, topic, wrap(callback, "hook"))

    @functools.wraps(Simulator.off)
    def traced_off(sim: Any, topic: str, callback: Any) -> None:
        # Unsubscribe the wrapper that traced_on registered for callback.
        for hook in sim._hooks.get(topic, ()):
            if getattr(hook, "__wrapped__", None) == callback:
                callback = hook
                break
        original_off(sim, topic, callback)

    patches.set(Simulator, "emit", traced_emit)
    patches.set(Simulator, "on", traced_on)
    patches.set(Simulator, "off", traced_off)

    # -- scheduler: work items complete through the scheduler ----------
    original_post = Scheduler.post
    post = log.timed("sched:Scheduler.post", original_post)

    @functools.wraps(original_post)
    def traced_post(sched: Any, thread: Any, item: Any) -> None:
        if item.on_complete is not None:
            item.on_complete = wrap(item.on_complete, "work")
        if isinstance(item, IoWait):
            item.start = wrap(item.start, "work")
        return post(sched, thread, item)

    patches.set(Scheduler, "post", traced_post)
    _method(patches, log, Scheduler, "io_complete", "sched")

    # -- kernel cross-layer calls --------------------------------------
    _method(patches, log, Kswapd, "wake", "kernel.kswapd")
    _method(patches, log, Lmkd, "check", "kernel.lmkd")
    _method(patches, log, Mmcqd, "submit_read", "kernel.mmcqd")
    _method(patches, log, Mmcqd, "submit_write", "kernel.mmcqd")
    for attr in ("request_pages", "touch", "apply_plan"):
        _method(patches, log, MemoryManager, attr, "kernel.manager")
    _method(patches, log, PressureMonitor, "update", "kernel.pressure")
    _function(patches, log, reclaim, "build_plan", "kernel.reclaim")

    # -- device and session construction, per-session counters ----------
    _method(patches, log, Device, "__init__", "device")
    _method(patches, log, Device, "boot", "device")
    _method(patches, log, StreamingSession, "__init__", "core")

    def harvest(result: Any, args: Tuple[Any, ...]) -> None:
        device = args[0].device
        sched = device.scheduler
        counts["sched.context_switches"] += sched.context_switches
        counts["sched.preemptions"] += sched.preemption_count
        counts["sched.elided_slices"] += sched.elided_slices
        counts["kernel.kswapd.wakes"] += device.memory.vmstat.kswapd_wakeups
        counts["kernel.lmkd.kills"] += len(device.lmkd.kill_log)
        counts["kernel.mmcqd.requests"] += device.mmcqd.completed_requests
        counts["video.frames_rendered"] += result.frames_rendered
        counts["video.frames_dropped"] += result.frames_dropped

    _method(patches, log, StreamingSession, "run", "core", after=harvest)

    # -- experiments: fabric, result cache, journal ---------------------
    _function(patches, log, parallel, "cache_key", "experiments")
    _function(patches, log, parallel, "run_sessions", "experiments")
    _function(patches, log, parallel, "run_jobs", "experiments")

    def cache_get(result: Any, args: Tuple[Any, ...]) -> None:
        counts["experiments.cache_hits" if result is not None
               else "experiments.cache_misses"] += 1

    _method(patches, log, parallel.ResultCache, "get", "experiments", after=cache_get)
    _method(patches, log, parallel.ResultCache, "put", "experiments")
    for attr in ("begin", "record", "close"):
        _method(patches, log, checkpoint.SweepJournal, attr, "experiments")

    # -- storage: publishes, verified reads, hashing, fsync -------------
    def publish_make(original: Any) -> Any:
        timed = log.timed("storage:publish_via", original)

        @functools.wraps(original)
        def wrapper(path: Any, fill: Any, **kwargs: Any) -> Any:
            return timed(path, wrap(fill, "fill"), **kwargs)
        return wrapper

    patches.function(atomic, "publish_via", publish_make)
    _function(patches, log, envelope, "verified_read", "storage")

    def hashed_bytes(result: Any, args: Tuple[Any, ...]) -> None:
        counts["storage.sha256.bytes"] += len(args[0])

    def hashed_file(result: Any, args: Tuple[Any, ...]) -> None:
        counts["storage.sha256.bytes"] += _file_size(args[0])

    _function(patches, log, envelope, "sha256_hex", "storage", after=hashed_bytes)
    _function(patches, log, atomic, "_file_sha256", "storage", after=hashed_file)
    patches.set(os, "fsync", log.timed("storage:fsync", os.fsync))

    # -- trace: record, save, load, the §5 queries -----------------------
    def saved(result: Any, args: Tuple[Any, ...]) -> None:
        counts["trace.save.bytes"] += _file_size(result)

    _function(patches, log, store, "save_trace", "trace", after=saved)
    _method(patches, log, store.TraceStore, "load", "trace")
    _function(patches, log, replay, "analyze_view", "trace")
    _function(patches, log, replay, "record_session_trace", "trace")
    for query in ("state_times", "top_running_threads", "state_breakdown",
                  "preemption_stats", "cpu_utilization_series",
                  "migration_counts"):
        _function(patches, log, trace_analysis, query, "trace")

    # -- arena: policies, collector, scoring, leaderboard ----------------
    patched_classes = set()
    for name in policy_names():
        factory = get_policy(name).factory
        if not isinstance(factory, type) or factory in patched_classes:
            continue
        patched_classes.add(factory)
        for attr in ("choose_representation", "on_pressure_signal"):
            _method(patches, log, factory, attr, "arena.policy")
    _method(patches, log, TraceCollector, "finalize", "arena.collector")
    _function(patches, log, scoring, "metrics_from", "arena")
    _function(patches, log, scoring, "score_all", "arena")
    _function(patches, log, leaderboard, "build_leaderboard", "arena")
    _function(patches, log, leaderboard, "write_artifact", "arena")
    _function(patches, log, arena_driver, "run_arena", "arena")
    _function(patches, log, arena_driver, "run_arena_job", "arena")

    # -- study: cohorts, merge, export -----------------------------------
    def exported(result: Any, args: Tuple[Any, ...]) -> None:
        counts["study.export.bytes"] += _file_size(result)

    _function(patches, log, fleet, "run_fleet", "study")
    _function(patches, log, fleet, "run_cohort_job", "study")
    _function(patches, log, cohort, "simulate_cohort", "study")
    _method(patches, log, cohort.FleetSummary, "merge", "study")
    _function(patches, log, export, "save_cohort_columns", "study", after=exported)
    return patches


# ======================================================================
# From spans to per-layer metrics
# ======================================================================

#: The §5 queries ``analyze_view`` runs, reported one by one.
QUERIES = ("state_times", "top_running_threads", "state_breakdown",
           "preemption_stats", "cpu_utilization_series", "migration_counts")


def summarize(log: SpanLog, quarantined: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``<layer>.self_s`` is the summed self time of the layer's spans and
    ``<layer>.self_pct`` its share of all span time; ``*.calls`` count
    span entries; ``*.s`` are inclusive span times.
    """
    totals = log.totals()
    counts = log.counts

    def calls(*names: str) -> int:
        return sum(int(totals[n]["calls"]) for n in names if n in totals)

    def incl(*names: str) -> float:
        return sum(totals[n]["s"] for n in names if n in totals)

    def layer_self(name: str) -> float:
        return totals[name]["self_s"]

    by_layer = {layer: 0.0 for layer in LAYERS}
    for name in totals:
        by_layer[name.split(":", 1)[0]] += layer_self(name)
    span_total = sum(by_layer.values())
    out: Dict[str, Tuple[float, str]] = {}
    for layer, seconds in by_layer.items():
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.self_pct"] = (100.0 * seconds / span_total if span_total else 0.0, "%")
    out["layer_self_sum_s"] = (span_total, "s")
    largest = max(by_layer, key=lambda layer: by_layer[layer])
    out[f"largest_layer.{largest}"] = (by_layer[largest], "s")

    events = [n for n in totals if n.endswith("@event")]
    slice_ends = calls("sched:Scheduler._slice_end@event", "sched:Scheduler._elided_end@event")
    elided = counts["sched.elided_slices"]
    hits, misses = counts["experiments.cache_hits"], counts["experiments.cache_misses"]
    fills = [n for n in totals if n.endswith("@fill")]
    out.update({
        "sim.events": (calls(*events), "count"),
        "sim.emit.calls": (counts["sim.emit.calls"], "count"),
        "sched.calls": (calls(*[n for n in totals if n.startswith("sched:")]), "count"),
        "sched.context_switches": (counts["sched.context_switches"], "count"),
        "sched.preemptions": (counts["sched.preemptions"], "count"),
        "sched.elided_slices": (elided, "count"),
        "sched.elided_ratio": (elided / (elided + slice_ends) if elided + slice_ends else 0.0, "ratio"),
        "kernel.kswapd.wakes": (counts["kernel.kswapd.wakes"], "count"),
        "kernel.lmkd.kills": (counts["kernel.lmkd.kills"], "count"),
        "kernel.mmcqd.requests": (counts["kernel.mmcqd.requests"], "count"),
        "video.frames_rendered": (counts["video.frames_rendered"], "count"),
        "video.frames_dropped": (counts["video.frames_dropped"], "count"),
        "experiments.cache_key.calls": (calls("experiments:cache_key"), "count"),
        "experiments.cache_key.s": (incl("experiments:cache_key"), "s"),
        "experiments.cache_get.calls": (calls("experiments:ResultCache.get"), "count"),
        "experiments.cache_get.s": (incl("experiments:ResultCache.get"), "s"),
        "experiments.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "experiments.cache_put.s": (incl("experiments:ResultCache.put"), "s"),
        "experiments.journal_record.calls": (calls("experiments:SweepJournal.record"), "count"),
        "experiments.journal_record.s": (incl("experiments:SweepJournal.record"), "s"),
        "experiments.journal_close.s": (incl("experiments:SweepJournal.close"), "s"),
        "experiments.run_jobs.overhead_s": (
            totals["experiments:run_jobs"]["self_s"] if "experiments:run_jobs" in totals else 0.0, "s"),
        "storage.publish.calls": (calls("storage:publish_via"), "count"),
        # The writer callables run inside publish_via but serialise for
        # their own layer; the storage cost of a publish excludes them.
        "storage.publish.s": (incl("storage:publish_via") - incl(*fills), "s"),
        "storage.verified_read.calls": (calls("storage:verified_read"), "count"),
        "storage.verified_read.s": (incl("storage:verified_read"), "s"),
        "storage.sha256.bytes": (counts["storage.sha256.bytes"], "bytes"),
        "storage.sha256.s": (incl("storage:sha256_hex", "storage:_file_sha256"), "s"),
        "storage.fsync.calls": (calls("storage:fsync"), "count"),
        "storage.fsync.s": (incl("storage:fsync"), "s"),
        "storage.quarantined": (quarantined, "count"),
        "trace.save.s": (incl("trace:save_trace"), "s"),
        "trace.save.bytes": (counts["trace.save.bytes"], "bytes"),
        "trace.load.s": (incl("trace:TraceStore.load"), "s"),
        "arena.policy.calls": (calls(*[n for n in totals if n.startswith("arena.policy:")
                                       and "@" not in n]), "count"),
        "arena.scoring.s": (incl("arena:metrics_from", "arena:score_all"), "s"),
        "arena.leaderboard.s": (incl("arena:build_leaderboard", "arena:write_artifact"), "s"),
        "study.cohort.calls": (calls("study:run_cohort_job"), "count"),
        "study.cohort.s": (incl("study:run_cohort_job"), "s"),
        "study.merge.s": (incl("study:FleetSummary.merge"), "s"),
        "study.export.s": (incl("study:save_cohort_columns"), "s"),
        "study.export.bytes": (counts["study.export.bytes"], "bytes"),
    })
    for query in QUERIES:
        out[f"trace.analysis.{query}.s"] = (incl(f"trace:{query}"), "s")
    return out

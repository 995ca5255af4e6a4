"""The program's layers, the calls into them the traced run wraps, and
the per-layer metrics computed from the recorded spans.

Each entry of :data:`TARGETS` names the layer, the span name and the
place the wrapper is bound.  A function imported by name into another
module is wrapped at that *call site* binding too (``repro.core.vm``
calls its own ``allocate_message`` binding, not
``repro.core.messages.allocate_message``); the traced run's self-checks
compare span counts with the program's own counters, so a wrapper bound
at the wrong name shows up as a mismatch instead of a silently missing
layer.

Two span names belong to no layer.  ``engine.slice`` (one per
dispatch) and ``engine.park`` (a process thread handing the machine
back and waiting for its next grant) mark wall time that belongs to
another thread on the threaded core: the engine thread waits while a
process thread runs, and the reverse.  They cut their parents' self
time but are not counted as any layer's work.
"""

from __future__ import annotations

import importlib
import re
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import Recorder, self_intervals, self_times, union_length

_TASK_METHODS = ("initiate", "send", "broadcast", "compute", "print",
                 "forcesplit", "export_array", "window", "window_read",
                 "window_write", "file_window", "touch_array", "common",
                 "lock", "declare_common", "free_common")

#: (layer, span name, module, attribute path).  Layer None:
#: ``engine.slice`` / ``engine.park`` (see above).
TARGETS: List[Tuple[Optional[str], str, str, str]] = [
    ("mmos", "engine.run", "repro.mmos.scheduler", "Engine.run"),
    ("mmos", "engine.spawn", "repro.mmos.scheduler", "Engine.spawn"),
    ("mmos", "engine.charge", "repro.mmos.scheduler", "Engine.charge"),
    ("mmos", "engine.preempt", "repro.mmos.scheduler", "Engine.preempt"),
    ("mmos", "engine.block", "repro.mmos.scheduler", "Engine.block"),
    ("mmos", "engine.wake", "repro.mmos.scheduler", "Engine.wake"),
    ("mmos", "engine.kill", "repro.mmos.scheduler", "Engine.kill"),
    ("mmos", "engine.shutdown", "repro.mmos.scheduler", "Engine.shutdown"),
    (None, "engine.slice", "repro.mmos.scheduler", "Engine._run_slice"),
    (None, "engine.slice", "repro.mmos.coop", "CoopEngine._run_slice"),
    (None, "engine.park", "repro.mmos.scheduler", "Engine._yield"),
    (None, "engine.park", "repro.mmos.coop", "CoopEngine._yield"),
    (None, "engine.park", "repro.mmos.scheduler", "Engine._wait_for_grant"),
    (None, "engine.park", "repro.mmos.coop", "CoopEngine._wait_for_grant"),
    ("vm", "vm.boot", "repro.core.vm", "PiscesVM.__init__"),
    ("vm", "vm.code_bytes", "repro.core.task",
     "TaskType.estimate_code_bytes"),
    ("task", "task.start", "repro.core.vm", "PiscesVM.start_task_in_slot"),
    ("task", "msg.alloc", "repro.core.vm", "allocate_message"),
    ("task", "msg.release", "repro.core.vm", "release_message"),
    ("task", "msg.release", "repro.core.task", "release_message"),
    ("task", "msg.release", "repro.core.controllers", "release_message"),
    ("accept", "task.accept", "repro.core.task", "TaskContext.accept"),
    ("sizes", "sizes.message_bytes", "repro.core.sizes", "message_bytes"),
    ("sizes", "sizes.message_bytes", "repro.core.messages", "message_bytes"),
    ("sizes", "sizes.message_bytes", "repro.core.vm", "message_bytes"),
    ("sizes", "sizes.packed_size", "repro.core.sizes", "packed_size"),
    ("memory", "memory.alloc", "repro.flex.memory", "HeapAllocator.alloc"),
    ("memory", "memory.free", "repro.flex.memory", "HeapAllocator.free"),
    ("windows", "windows.read", "repro.core.vm", "PiscesVM.window_read_gen"),
    ("windows", "windows.write", "repro.core.vm",
     "PiscesVM.window_write_gen"),
    ("windows", "windows.serve", "repro.core.windows", "ArrayStore.serve_txn"),
    ("observers", "metrics.counter", "repro.obs.metrics",
     "MetricsRegistry.counter"),
    ("observers", "metrics.gauge", "repro.obs.metrics",
     "MetricsRegistry.gauge"),
    ("observers", "metrics.histogram", "repro.obs.metrics",
     "MetricsRegistry.histogram"),
    ("observers", "metrics.inc", "repro.obs.metrics", "Counter.inc"),
    ("observers", "metrics.set", "repro.obs.metrics", "Gauge.set"),
    ("observers", "metrics.observe", "repro.obs.metrics", "Histogram.observe"),
    ("export", "export.run", "repro.service.executor", "export_run"),
    ("export", "export.manifest", "repro.service.executor", "run_manifest"),
    ("catalog", "catalog.build", "repro.service.catalog", "build"),
    ("catalog", "fortran.preprocess", "repro.fortran.preprocessor",
     "preprocess"),
    ("store", "store.write", "repro.service.store", "RunStore.create"),
    ("store", "store.write", "repro.service.store", "RunStore.transition"),
    ("store", "store.write", "repro.service.store", "RunStore.amend"),
    # The store's one write point: every record write goes through it.
    ("store", "store.atomic_write", "repro.service.store",
     "_atomic_write_json"),
    ("store", "store.read", "repro.service.store", "RunStore.get"),
    ("store", "store.read", "repro.service.store", "RunStore.list"),
    ("store", "store.read", "repro.service.store", "RunStore.tenants"),
    ("admission", "admission.check", "repro.service.admission",
     "AdmissionScheduler.check_submit"),
    ("admission", "admission.usage", "repro.service.admission",
     "AdmissionScheduler.usage"),
    ("executor", "executor.execute", "repro.service.service", "execute_run"),
    ("executor", "executor.build_vm", "repro.service.executor", "build_vm"),
] + [("task", f"task.{m}", "repro.core.task", f"TaskContext.{m}")
     for m in _TASK_METHODS]

#: Spans wrapped by the custom wrappers in :func:`install`.
SPECIAL: Dict[str, Optional[str]] = {
    "vm.run": "vm",
    "admission.select": "admission",
    "tracing.emit": "observers",
    # An emit the tracer filters out (tracing off): the cost of the
    # off switch, kept apart so the observers' share is 0 when off.
    "tracing.filtered": "trace_filter",
    "rest.post": "rest",
    "rest.get": "rest",
    "rest.read": "rest",
}

LAYER_OF: Dict[str, Optional[str]] = dict(SPECIAL)
LAYER_OF.update({name: layer for layer, name, _, _ in TARGETS})

#: Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("mmos.dispatches", "count", "lower"),
    ("mmos.dispatches_per_s", "1/s", "higher"),
    ("mmos.share", "ratio", "lower"),
    ("vm.boot_ms.mean", "ms", "lower"),
    ("vm.run_ms.mean", "ms", "lower"),
    ("vm.boot.share", "ratio", "lower"),
    ("task.sends", "count", "lower"),
    ("task.accepts", "count", "lower"),
    ("task.initiates", "count", "lower"),
    ("accept.self_ms", "ms", "lower"),
    ("task.share", "ratio", "lower"),
    ("sizes.packed_size_calls", "count", "lower"),
    ("sizes.self_ms", "ms", "lower"),
    ("memory.heap_allocs", "count", "lower"),
    ("memory.self_ms", "ms", "lower"),
    ("heap.share", "ratio", "lower"),
    ("windows.reads", "count", "lower"),
    ("windows.writes", "count", "lower"),
    ("windows.bytes_moved", "B", "lower"),
    ("windows.cache_hits", "count", "higher"),
    ("windows.self_ms", "ms", "lower"),
    ("windows.share", "ratio", "lower"),
    ("tracing.events", "count", "lower"),
    ("tracing.emit_self_ms", "ms", "lower"),
    ("tracing.filtered_self_ms", "ms", "lower"),
    ("observers.share", "ratio", "lower"),
    ("export.archive_ms.mean", "ms", "lower"),
    ("export.share", "ratio", "lower"),
    ("catalog.builds_per_run", "count", "lower"),
    ("catalog.build_ms.mean", "ms", "lower"),
    ("fortran.preprocess_ms.mean", "ms", "lower"),
    ("store.writes_per_run", "count", "lower"),
    ("store.write_ms.mean", "ms", "lower"),
    ("admission.select_calls", "count", "lower"),
    ("admission.select_ms.mean", "ms", "lower"),
    ("admission.select_cpu_ms.mean", "ms", "lower"),
    ("admission.queue_wait_ms.p50", "ms", "lower"),
    ("executor.exec_ms.p50", "ms", "lower"),
    ("executor.busy_frac", "ratio", "higher"),
    ("rest.post_ms.p50", "ms", "lower"),
    ("rest.get_ms.p50", "ms", "lower"),
    ("rest.read_ms.p50", "ms", "lower"),
    ("rest.requests_per_run", "count", "lower"),
    ("other.share", "ratio", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder) -> None:
    """Wrap every target; program counters read at the ``vm.run``
    boundary accumulate in ``rec.counters`` and ``rec.vm_runs``."""
    from repro.core.tracing import Tracer
    from repro.core.vm import PiscesVM
    from repro.service.admission import AdmissionScheduler
    from repro.service.rest import _Handler

    for name in sorted(LAYER_OF):
        rec.name_id(name)
    for _, name, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        rec.patch(owner, attr, name)

    def make_run(fn):
        inner = rec.wrap("vm.run", fn)

        def run(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            st, tr = result.stats, self.tracer
            dispatches = self.engine.dispatch_count
            rec.count(
                dispatches=dispatches,
                messages_sent=st.messages_sent, accepts=st.accepts,
                initiates=st.initiates_requested,
                window_reads=st.window_reads, window_writes=st.window_writes,
                window_bytes_moved=st.window_bytes_moved,
                window_cache_hits=st.window_cache_hits,
                window_txns=st.window_txns,
                heap_allocs=self.machine.shared.stats.total_allocs,
                live_messages=sum(
                    1 for a in self.machine.shared.live_allocations()
                    if a.tag == "message"),
                trace_events=len(tr.events) + tr.overflow_dropped,
                trace_filtered=tr.dropped)
            rec.vm_runs.append((self.config.name, dispatches,
                                int(result.elapsed)))
            return result
        return run

    def make_emit(fn):
        kept = rec.wrap("tracing.emit", fn)
        filtered = rec.wrap("tracing.filtered", fn)

        def emit(self, event):
            if self.wants(event.etype, event.task):
                return kept(self, event)
            return filtered(self, event)
        return emit

    def make_get(fn):
        read = rec.wrap("rest.read", fn)
        one = rec.wrap("rest.get", fn)

        def do_GET(self):                          # noqa: N802
            path = self.path.split("?", 1)[0].rstrip("/")
            return (read if path in ("/health", "/runs") else one)(self)
        return do_GET

    def make_select(fn):
        inner = rec.wrap("admission.select", fn)

        def select(self):
            t0 = time.thread_time_ns()
            try:
                return inner(self)
            finally:
                # The selecting thread's CPU time: the span's wall
                # without its waits for the GIL.
                rec.count(select_cpu_ns=time.thread_time_ns() - t0)
        return select

    rec.patch(PiscesVM, "run", "vm.run", make_run)
    rec.patch(AdmissionScheduler, "select", "admission.select", make_select)
    rec.patch(Tracer, "emit", "tracing.emit", make_emit)
    rec.patch(_Handler, "do_GET", "rest.get", make_get)
    rec.patch(_Handler, "do_POST", "rest.post")


# --------------------------------------------------------------- checks --

def self_checks(rec: Recorder) -> List[str]:
    """Span-derived counts against the program's own counters; returns
    the mismatches (empty when the wrappers saw every call)."""
    c = rec.counters.get
    pairs = [
        ("msg.alloc", c("messages_sent", 0) + 2 * c("window_txns", 0),
         "RunStats.messages_sent + 2 * window_txns"),
        ("msg.release", rec.calls("msg.alloc") - c("live_messages", 0),
         "messages allocated - message blocks live when vm.run ends"),
        ("windows.read", c("window_reads", 0), "RunStats.window_reads"),
        ("engine.slice", c("dispatches", 0), "engine.dispatch_count"),
        ("memory.alloc", c("heap_allocs", 0), "HeapStats.total_allocs"),
        ("tracing.emit", c("trace_events", 0), "events kept by the tracer"),
        ("tracing.filtered", c("trace_filtered", 0), "Tracer.dropped"),
        ("store.write", rec.calls("store.atomic_write"),
         "calls of the store's one write point"),
    ]
    bad = [f"{name}: {rec.calls(name)} spans, {want} by {what}"
           for name, want, what in pairs if rec.calls(name) != want]
    seen: Dict[str, set] = {}
    for config, dispatches, ticks in rec.vm_runs:
        # Service VMs are named "<run id>-<app config>".
        key = re.sub(r"^r\d+-", "", config)
        seen.setdefault(key, set()).add((dispatches, ticks))
    bad += [f"{key}: dispatches/ticks differ across runs: {sorted(v)}"
            for key, v in seen.items() if len(v) > 1]
    return bad


# -------------------------------------------------------------- metrics --

#: Spans whose individual durations the metrics read.
_TIMED = ("vm.boot", "vm.run", "vm.code_bytes", "export.run",
          "export.manifest", "catalog.build", "fortran.preprocess",
          "store.write", "admission.select", "rest.post", "rest.get",
          "rest.read")


def _p50(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs: Sequence[float]) -> float:
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(rec: Recorder, *, windows: Sequence[Tuple[float, float]],
                  n_ops: int, op_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``n_ops`` ops ran in the ``(begin, end)`` perf_counter ``windows``
    with ``op_wall_s`` summed op wall.  Counts and ``*.self_ms`` are per
    op; ``*.share`` is self time over summed op wall; ``other.share`` is
    the part of the windows' wall no layer's self time covers on any
    thread.
    """
    end = windows[-1][1]
    names = rec.names
    counted = [LAYER_OF.get(n) is not None for n in names]
    timed = [n in _TIMED for n in names]
    self_by_name: Dict[str, float] = {}
    durs: Dict[str, List[float]] = {}
    pieces: List[Tuple[float, float]] = []
    # Parents are always on the span's own thread, so each thread's
    # spans are reduced on their own.
    for name, start, stop, parent in rec.thread_arrays(until=end):
        name, start, stop, parent = (
            a.tolist() for a in (name, start, stop, parent))
        for nid, s in zip(name, self_times(start, stop, parent)):
            n = names[nid]
            self_by_name[n] = self_by_name.get(n, 0.0) + s
        for nid, s, e in zip(name, start, stop):
            if timed[nid]:
                durs.setdefault(names[nid], []).append(e - s)
        pieces += self_intervals(start, stop, parent,
                                 lambda i: counted[name[i]])
    covered = sum(union_length((max(s, w0), min(e, w1)) for s, e in pieces)
                  for w0, w1 in windows)
    layer_self: Dict[str, float] = {}
    for n, s in self_by_name.items():
        layer = LAYER_OF.get(n)
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + s

    ops = max(n_ops, 1)
    wall = op_wall_s or 1.0
    ms = 1000.0
    c = rec.counters.get

    def per_op(x: float) -> float:
        return x / ops

    def share(*layers: str) -> float:
        return sum(layer_self.get(x, 0.0) for x in layers) / wall

    def mean_ms(span_name: str) -> float:
        return ms * _mean(durs.get(span_name, []))

    def p50_ms(span_name: str) -> float:
        return ms * _p50(durs.get(span_name, []))

    def total(span_name: str) -> float:
        return sum(durs.get(span_name, ()))

    run_wall = total("vm.run")
    selects = rec.calls("admission.select")
    return {
        "mmos.dispatches": per_op(c("dispatches", 0)),
        "mmos.dispatches_per_s": c("dispatches", 0) / run_wall
        if run_wall else 0.0,
        "mmos.share": share("mmos"),
        "vm.boot_ms.mean": mean_ms("vm.boot"),
        "vm.run_ms.mean": mean_ms("vm.run"),
        "vm.boot.share": (total("vm.boot") + total("vm.code_bytes")) / wall,
        "task.sends": per_op(c("messages_sent", 0)),
        "task.accepts": per_op(c("accepts", 0)),
        "task.initiates": per_op(c("initiates", 0)),
        "accept.self_ms": ms * per_op(self_by_name.get("task.accept", 0.0)),
        "task.share": share("task", "accept"),
        "sizes.packed_size_calls": per_op(rec.calls("sizes.packed_size")),
        "sizes.self_ms": ms * per_op(layer_self.get("sizes", 0.0)),
        "memory.heap_allocs": per_op(rec.calls("memory.alloc")),
        "memory.self_ms": ms * per_op(layer_self.get("memory", 0.0)),
        "heap.share": share("sizes", "memory"),
        "windows.reads": per_op(c("window_reads", 0)),
        "windows.writes": per_op(c("window_writes", 0)),
        "windows.bytes_moved": per_op(c("window_bytes_moved", 0)),
        "windows.cache_hits": per_op(c("window_cache_hits", 0)),
        "windows.self_ms": ms * per_op(layer_self.get("windows", 0.0)),
        "windows.share": share("windows"),
        "tracing.events": per_op(c("trace_events", 0)),
        "tracing.emit_self_ms": ms * per_op(
            self_by_name.get("tracing.emit", 0.0)),
        "tracing.filtered_self_ms": ms * per_op(
            self_by_name.get("tracing.filtered", 0.0)),
        "observers.share": share("observers"),
        "export.archive_ms.mean": ms * per_op(
            total("export.run") + total("export.manifest")),
        "export.share": share("export"),
        "catalog.builds_per_run": per_op(rec.calls("catalog.build")),
        "catalog.build_ms.mean": mean_ms("catalog.build"),
        "fortran.preprocess_ms.mean": mean_ms("fortran.preprocess"),
        "store.writes_per_run": per_op(rec.calls("store.write")),
        "store.write_ms.mean": mean_ms("store.write"),
        "admission.select_calls": per_op(rec.calls("admission.select")),
        "admission.select_ms.mean": mean_ms("admission.select"),
        "admission.select_cpu_ms.mean": c("select_cpu_ns", 0) / 1e6
        / selects if selects else 0.0,
        "rest.post_ms.p50": p50_ms("rest.post"),
        "rest.get_ms.p50": p50_ms("rest.get"),
        "rest.read_ms.p50": p50_ms("rest.read"),
        "rest.requests_per_run": per_op(rec.calls("rest.post")
                                        + rec.calls("rest.get")
                                        + rec.calls("rest.read")),
        "other.share": 1.0 - covered / sum(w1 - w0 for w0, w1 in windows),
    }

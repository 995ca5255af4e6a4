"""Wall-clock spans around calls into the program's layers.

A :class:`Recorder` replaces functions and methods of the program with
wrappers that record one span per call: name, start, end, parent and
thread.  Spans live in memory, one buffer per thread, and are written
out when the benchmark ends.  Every thread keeps its own span stack, so
a service worker, an HTTP handler and a callable-body thread of the
threaded core never see each other's spans as children.

Suspending operations return generators.  Their wrapper records one
span per resume of the generator (a *segment*), so the time a task
spends suspended is never charged to the operation; the call itself is
counted once in :attr:`ThreadBuffer.calls`.

The arithmetic at the bottom is what the traced run reports from:
self time is a span's duration minus the union of its children's
intervals on the same thread.
"""

from __future__ import annotations

import inspect
import threading
import time
from array import array
from types import GeneratorType
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


class ThreadBuffer:
    """The spans one thread recorded, in the order they were opened."""

    def __init__(self, n_names: int) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[int] = []
        self.calls = [0] * n_names

    def open(self, name_id: int, now: float) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(-1.0)            # still open
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(i)
        return i

    def close(self, i: int, now: float) -> None:
        self.end[i] = now
        self.stack.pop()


class Recorder:
    """Installs span wrappers and holds what they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: List[ThreadBuffer] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Program counters read at layer boundaries (see ``count``).
        self.counters: Dict[str, int] = {}
        #: One ``(config name, dispatches, virtual ticks)`` per VM run.
        self.vm_runs: List[Tuple[str, int, int]] = []

    # ---------------------------------------------------------- naming --

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            if self.buffers:
                raise RuntimeError("register span names before recording")
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def buffer(self) -> ThreadBuffer:
        """This thread's buffer (created on the thread's first span)."""
        b = getattr(self._local, "buf", None)
        if b is None:
            with self._lock:
                b = ThreadBuffer(len(self.names))
                self.buffers.append(b)
            self._local.buf = b
        return b

    def count(self, **deltas: int) -> None:
        with self._lock:
            for k, v in deltas.items():
                self.counters[k] = self.counters.get(k, 0) + v

    def calls(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            return 0
        return sum(b.calls[i] for b in self.buffers)

    # -------------------------------------------------------- wrapping --

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A function that records a span around each call of ``fn``."""
        nid = self.name_id(name)
        clock = self.clock
        rec = self

        def traced(*args, **kwargs):
            b = rec.buffer()
            b.calls[nid] += 1
            i = b.open(nid, clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                b.close(i, clock())
            if type(out) is GeneratorType:
                return rec._segments(nid, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _segments(self, nid: int, gen: GeneratorType):
        """Delegate to ``gen`` like ``yield from``, one span per resume."""
        clock = self.clock
        value: Any = None
        exc: Any = None
        while True:
            b = self.buffer()
            i = b.open(nid, clock())
            try:
                op = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                b.close(i, clock())
                return stop.value
            except BaseException:
                b.close(i, clock())
                raise
            b.close(i, clock())
            exc = None
            try:
                value = yield op
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:       # forwarded like yield from
                exc, value = e, None

    def patch(self, owner: Any, attr: str, name: str,
              make: Callable[[Callable], Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a class member)
        with its traced form; ``make`` builds a custom wrapper."""
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        new = make(fn) if make is not None else self.wrap(name, fn)
        if isinstance(raw, staticmethod):
            new = staticmethod(new)
        elif isinstance(raw, classmethod):
            new = classmethod(new)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------- export --

    def thread_arrays(self, until: float):
        """Per thread: ``(name, start, end, parent)`` numpy arrays, with
        ``parent`` indexing that thread's spans (-1: a root span).  Spans
        still open are closed at ``until``."""
        import numpy as np

        for b in self.buffers:
            n = len(b.start)
            end = np.array(b.end, dtype=np.float64)[:n]
            end[end < 0] = until
            yield (np.array(b.name, dtype=np.int32)[:n],
                   np.array(b.start, dtype=np.float64)[:n], end,
                   np.array(b.parent, dtype=np.int32)[:n])

    def arrays(self, until: float):
        """All spans as flat arrays ``(name, start, end, parent, thread)``;
        ``parent`` indexes the flat arrays (-1: a thread's root span)."""
        import numpy as np

        cols: List[list] = [[], [], [], [], []]
        offset = 0
        for t, (name, start, end, parent) in enumerate(
                self.thread_arrays(until)):
            parent[parent >= 0] += offset
            offset += len(name)
            for col, a in zip(cols, (name, start, end, parent,
                                     np.full(len(name), t, np.int32))):
                col.append(a)
        return tuple(np.concatenate(c) if c else np.zeros(0) for c in cols)

    def save(self, path, until: float) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        import numpy as np

        name, start, end, parent, thread = self.arrays(until)
        np.savez(path, name=name, start=start, end=end, parent=parent,
                 thread=thread, names=np.array(self.names))


# ------------------------------------------------------------ arithmetic --

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span).  The spans are one thread's: a span a thread
    caused on another thread is that thread's root, so it never reduces
    the span that caused it."""
    kids: Dict[int, List[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(int(p), []).append(i)
    out = [float(end[i] - start[i]) for i in range(len(start))]
    for p, children in kids.items():
        s0, e0 = start[p], end[p]
        out[p] -= union_length((max(start[c], s0), min(end[c], e0))
                               for c in children)
    return out


def self_intervals(start: Sequence[float], end: Sequence[float],
                   parent: Sequence[int], keep: Callable[[int], bool]
                   ) -> List[Tuple[float, float]]:
    """The pieces of one thread's kept spans not covered by their own
    children (their self time, as intervals)."""
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0 and keep(int(p)):
            kids.setdefault(int(p), []).append((start[i], end[i]))
    pieces: List[Tuple[float, float]] = []
    for i in range(len(start)):
        if not keep(i):
            continue
        cur = start[i]
        for s, e in sorted(kids.get(i, ())):
            if s > cur:
                pieces.append((cur, min(s, end[i])))
            cur = max(cur, e)
        if cur < end[i]:
            pieces.append((cur, end[i]))
    return pieces

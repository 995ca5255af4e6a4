"""Deterministic discrete-event multiprocessor engine.

This is the substrate substitution for the real MMOS kernel running on
20 FLEX/32 processors (DESIGN.md section 3).  The contract:

* the engine admits **exactly one** simulated process at a time;
* a process hands control back at *kernel points* -- every PISCES
  run-time library call, plus explicit ``compute(ticks)`` charges;
* each slice executed on PE *p* advances *p*'s virtual clock by the
  ticks charged during the slice; distinct PEs overlap in virtual time,
  processes sharing a PE serialize on it (multiprogramming);
* dispatch order: the runnable process with the least slice start time
  ``max(ready_time, pe_clock)``, ties broken by pid.  Dispatch starts
  are therefore non-decreasing, which guarantees no causality violation
  (a wake or message can never arrive in a receiver's past);
* a blocked process with a deadline is runnable at its deadline (the
  DELAY clause of ACCEPT); whoever wakes it earlier clears the deadline;
* when nothing is runnable and a non-daemon process is still blocked,
  the engine raises :class:`~repro.errors.DeadlockError` with a state
  dump instead of hanging.

Determinism: given the same program and configuration, every dispatch,
message arrival and timeout happens in the same order with the same
virtual timestamps.  The whole test-suite relies on this.

Two pickers share that contract (see ``docs/architecture.md``,
"Dispatch algorithm and determinism contract"):

* ``indexed`` (default) -- a two-level lazy-deletion min-heap over
  runnable processes, O(log n) per dispatch;
* ``scan`` -- the original O(n) linear scan, kept as the reference for
  the heap.  Both must produce bit-identical virtual timestamps and
  dispatch order; the property suite and the engine-throughput
  benchmark assert it.

The default can be forced with the ``PISCES_DISPATCHER`` environment
variable (``indexed`` or ``scan``).

This module holds only scheduling *policy*: the pickers, the dispatch
keys, the steering hooks, the observer list, slice settling and the
``step``/``run``/``shutdown`` loops.  How a dispatched process
actually runs its slice is the execution vehicle's job,
:class:`repro.mmos.coop.CoopEngine`, which :func:`create_engine`
builds: coroutine bodies resume by a plain function call on the engine
thread, callable bodies on a pinned worker thread.  Committed golden
digests (``tests/integration/test_golden_digests.py``) pin the history
that vehicle produces.

``step`` is the one dispatch body (``run``/``run_while`` drive it).
Hooks that *steer* a run keep their own slots (``sched_hook``,
``_fault_pump``, ``on_idle_check``, ``time_limit``); everything that
only *watches* it is an :class:`EngineObserver` on ``engine.observers``.
"""

from __future__ import annotations

import heapq
import inspect
import threading
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config.configuration import env_value
from ..errors import (
    DeadlockError,
    EngineShutdown,
    NotInProcess,
    ProcessKilled,
    TimeLimitExceeded,
)
from ..flex.machine import FlexMachine
from .process import DEFAULT_KERNEL_COST, KernelProcess, ProcState

#: Recognized dispatcher implementations.  ``replay`` re-executes a
#: recorded decision stream (see :mod:`repro.correctness.recorder`).
DISPATCHERS = ("indexed", "scan", "replay")


def default_dispatcher() -> str:
    """Dispatcher used when the Engine caller does not choose one."""
    d = env_value("PISCES_DISPATCHER", "indexed")
    if d not in DISPATCHERS:
        raise ValueError(
            f"PISCES_DISPATCHER={d!r}: must be one of {DISPATCHERS}")
    return d


def _live_dispatcher_for(schedule: Any) -> str:
    """The live dispatcher a replay of ``schedule`` continues with once
    the recorded stream runs dry (prefix schedules name one; anything
    else falls back to the environment default, never ``replay``)."""
    d = getattr(schedule, "live_dispatcher", "") or default_dispatcher()
    return d if d in ("indexed", "scan") else "indexed"


def create_engine(machine: FlexMachine, time_limit: Optional[int] = None,
                  dispatcher: Optional[str] = None,
                  schedule: Optional[Any] = None) -> "Engine":
    """Build the engine for ``machine``: the one place that names the
    execution vehicle class; the VM and benchmarks go through it."""
    from .coop import CoopEngine
    return CoopEngine(machine, time_limit=time_limit,
                      dispatcher=dispatcher, schedule=schedule)


class EngineObserver:
    """A pure observer of the engine's event stream.

    Subscribe by appending to ``engine.observers``; override the events
    you need.  Observers never charge ticks, wake or block anything, or
    touch scheduling state, so a run is bit-identical with any set of
    them installed.  ``parent``/``waker`` is the running process when
    the event comes from inside a slice, else None (the monitor, boot).
    """

    def on_spawn(self, parent: Optional[KernelProcess],
                 p: KernelProcess) -> None:
        """``p`` was created (it is READY at ``p.ready_time``)."""

    def on_wake(self, waker: Optional[KernelProcess], p: KernelProcess,
                at: int) -> None:
        """Blocked ``p`` was made runnable by an event at tick ``at``."""

    def on_kill(self, p: KernelProcess, at: int) -> None:
        """Blocked ``p`` was killed at tick ``at`` (it unwinds next)."""

    def between_slices(self, engine: "Engine") -> None:
        """Top of a dispatch step, before the pick and any fault: the
        engine is between slices, the state a restore reconstructs."""

    def on_slice(self, p: KernelProcess, start: int, end: int,
                 state: ProcState, reason: str, deadline: Optional[int],
                 wall: float) -> None:
        """A dispatched slice ran ``[start, end)`` and left ``p`` in
        ``state`` (with its block ``reason``/``deadline``); ``wall`` is
        the host seconds it took."""


class Engine:
    """The MMOS scheduler/dispatcher policy for one machine.

    Everything that decides *what runs next and when* (picker, keys,
    hooks, observers, slice accounting) lives here; the execution vehicle
    (:class:`repro.mmos.coop.CoopEngine`) supplies the handoff:
    ``_launch``, :meth:`_run_slice`, :meth:`_yield`,
    :meth:`_wait_for_grant` and ``_drain_processes``.
    """

    def __init__(self, machine: FlexMachine, time_limit: Optional[int] = None,
                 dispatcher: Optional[str] = None, schedule: Optional[Any] = None):
        self.machine = machine
        #: PE -> PEClock, cached off the ClockBank: the dispatch hot
        #: path touches a clock several times per slice and the mapping
        #: is immutable for the machine's lifetime.
        self._clockmap = {pe: machine.clocks[pe] for pe in machine.pes}
        self.time_limit = time_limit
        if dispatcher is None:
            dispatcher = "replay" if schedule is not None \
                else default_dispatcher()
        if dispatcher not in DISPATCHERS:
            raise ValueError(
                f"dispatcher {dispatcher!r}: must be one of {DISPATCHERS}")
        self.dispatcher = dispatcher
        self._replay = dispatcher == "replay"
        # Replay reuses the scan picker's data structures only for state
        # dumps; selection itself is driven by the recorded stream.
        self._indexed = dispatcher == "indexed"
        self._procs: Dict[int, KernelProcess] = {}
        #: Indexed-dispatcher index (see "Dispatch algorithm" in
        #: docs/architecture.md).  Two-level, with keys that *never go
        #: stale*: per PE, a "ripe" heap of ``(last_dispatched, pid,
        #: gen)`` over runnable processes whose start time is the PE
        #: clock (``ready_time <= clock``; both components immutable
        #: while queued), and a "future" heap of ``(ready_time|deadline,
        #: last_dispatched, pid, gen)`` over processes that become
        #: runnable at a fixed later tick.  Entries migrate future ->
        #: ripe as the PE clock advances.  A single candidate heap of
        #: ``((start, last_dispatched, pid), pe, pe_gen)`` tracks each
        #: PE's best runnable process; per-PE generations lazily
        #: invalidate superseded candidates, per-process generations
        #: (``sched_gen``) lazily invalidate superseded heap entries.
        self._ripe: Dict[int, list] = {pe: [] for pe in machine.pes}
        self._future: Dict[int, list] = {pe: [] for pe in machine.pes}
        self._pe_gen: Dict[int, int] = {pe: 0 for pe in machine.pes}
        self._cand: List[tuple] = []
        self._current: Optional[KernelProcess] = None
        self._now: int = 0          # start time of the latest dispatch
        self._dispatch_seq: int = 0
        self._shutdown = False
        #: Names of processes whose threads survived :meth:`shutdown`
        #: (stuck mid-slice or unjoinable) -- see the RuntimeWarning.
        self.leaked_threads: List[str] = []
        #: Names of processes that were blocked in an ACCEPT when
        #: :meth:`shutdown` drained them (each raised
        #: :class:`~repro.errors.EngineShutdown` while unwinding).
        self.drained_accept_waiters: List[str] = []
        #: Fault-injection hook (see :mod:`repro.faults`): called with
        #: the next slice's start time before every dispatch, and with
        #: None when nothing is runnable; returns True when a fault
        #: fired (scheduling state may have changed).  None means no
        #: fault plan is installed -- the zero-fault cost is one
        #: attribute test per dispatch.
        self._fault_pump: Optional[Callable[[Optional[int]], bool]] = None
        #: Pure observers of the event stream (see EngineObserver): the
        #: race detector, the causal profiler, the periodic checkpointer
        #: and the metrics subscriber.  Empty for an unobserved run.
        self.observers: List[EngineObserver] = []
        #: When True, every executed slice is appended to ``slices`` as
        #: (pe, start, end, process name) -- the raw material for the
        #: per-PE timeline in :mod:`repro.analysis`.
        self.record_slices = False
        self.slices: List[tuple] = []
        #: Hook invoked (from the engine thread, between slices) after
        #: every dispatch; the execution-environment monitor uses it.
        self.on_idle_check: Optional[Callable[[], None]] = None
        #: Per-run spawn ordinals: kernel pids come from a process-global
        #: counter and are not stable across runs, so the schedule
        #: artifact identifies processes by spawn order instead.
        self._spawn_seq = 0
        self._by_ordinal: List[KernelProcess] = []
        #: Schedule decision hook: a ScheduleRecorder when recording, the
        #: replayed Schedule (consume == verify) when replaying, None
        #: otherwise.  One attribute test per dispatch when unused.
        self.sched_hook: Optional[Any] = None
        self._schedule: Optional[Any] = None
        #: The dispatcher a *live* continuation of this run uses --
        #: equal to ``dispatcher`` except under replay, where it is
        #: what the engine switches to after a prefix schedule runs dry
        #: (checkpoint-manifest stamping).
        self._live_dispatcher = dispatcher
        if self._replay:
            if schedule is None:
                path = env_value("PISCES_REPLAY_SCHEDULE")
                if not path:
                    raise ValueError(
                        "replay dispatcher needs a schedule: pass "
                        "schedule=... or set PISCES_REPLAY_SCHEDULE to a "
                        ".psched path")
                from ..correctness.recorder import Schedule
                schedule = Schedule.load(path)
            schedule.reset()
            self._schedule = schedule
            self.sched_hook = schedule
            self._live_dispatcher = _live_dispatcher_for(schedule)
        else:
            rec_path = env_value("PISCES_RECORD_SCHEDULE")
            if rec_path:
                from ..correctness.recorder import ScheduleRecorder
                self.sched_hook = ScheduleRecorder(path=rec_path)

    # ------------------------------------------------------------ spawn --

    def spawn(self, name: str, pe: int, target: Callable[[], Any], *,
              daemon: bool = False, start_time: Optional[int] = None,
              ) -> KernelProcess:
        """Create a process on PE ``pe``.

        ``target`` is the process body: a generator function (coroutine
        body) or a plain callable, called with no arguments.  The
        process becomes READY at ``start_time`` (default: now).
        """
        if pe not in self.machine.pes:
            raise ValueError(f"no PE {pe}")
        p = KernelProcess(name, pe, target, daemon=daemon)
        p.clock = self._clockmap[pe]
        p.ready_time = self._now if start_time is None else start_time
        p.state = ProcState.READY
        p.spawn_ordinal = self._spawn_seq
        self._spawn_seq += 1
        self._by_ordinal.append(p)
        sh = self.sched_hook
        if sh is not None:
            sh.on_spawn(p.spawn_ordinal, p.name)
        if self.observers:
            parent = self.caller()
            for o in self.observers:
                o.on_spawn(parent, p)
        p.is_coroutine = inspect.isgeneratorfunction(target)
        self._procs[p.pid] = p
        self._requeue(p)
        self._launch(p)
        return p

    # ----------------------------------------------- slice bookkeeping ----

    def _settle_done(self, p: KernelProcess) -> None:
        """Account the final slice and mark ``p`` DONE."""
        cost = p.pending_cost
        end = p.clock.run(p.slice_start, cost)
        if self.record_slices and cost > 0:
            self.slices.append((p.pe, end - cost, end, p.name))
        p.pending_cost = 0
        p.ready_time = end
        p.state = ProcState.DONE
        self._requeue(p)    # invalidate any queued heap entry

    def _settle_yield(self, p: KernelProcess, new_state: ProcState,
                      reason: str, deadline: Optional[int]) -> None:
        """Account a finished (non-final) slice and park/requeue ``p``.

        The single source of truth for end-of-slice state: every body
        form goes through it, which is what keeps virtual timestamps
        bit-identical across body forms.
        """
        cost = p.pending_cost
        end = p.clock.run(p.slice_start, cost)
        if self.record_slices and cost > 0:
            self.slices.append((p.pe, end - cost, end, p.name))
        p.pending_cost = 0
        p.ready_time = end
        if p.killed and new_state is ProcState.BLOCKED:
            # A killed process must not park where nothing will wake
            # it: stay runnable so the next dispatch raises.
            new_state, reason, deadline = ProcState.READY, "killed", None
        p.state = new_state
        p.blocked_on = reason
        p.deadline = deadline
        self._requeue(p)

    # ---------------------------------------------------- vehicle handoff --
    # Implemented by the execution vehicle.  Declared here because the
    # traced benchmark wraps these three names on both classes.

    def _run_slice(self, p: KernelProcess, start: int) -> None:
        raise NotImplementedError

    def _yield(self, p: KernelProcess, new_state: ProcState, *,
               reason: str = "", deadline: Optional[int] = None) -> None:
        raise NotImplementedError

    def _wait_for_grant(self, p: KernelProcess) -> None:
        raise NotImplementedError

    # ---------------------------------------------------- process-side ----

    def caller(self) -> Optional[KernelProcess]:
        """The process whose thread is calling, or None if external."""
        p = self._current
        if p is not None and p.thread is threading.current_thread():
            return p
        return None

    def current(self) -> KernelProcess:
        """The process whose thread is calling; raises if external."""
        p = self.caller()
        if p is None:
            raise NotInProcess("kernel call from outside a simulated process")
        return p

    def in_process(self) -> bool:
        return self.caller() is not None

    def now(self) -> int:
        """Current virtual time as seen by the caller.

        Inside a process: slice start + ticks charged so far.  Outside
        (the monitor, between runs): the global elapsed time.
        """
        p = self.caller()
        if p is not None:
            return p.slice_start + p.pending_cost
        return max(self._now, self.machine.clocks.elapsed())

    def charge(self, ticks: int) -> None:
        """Charge compute ticks to the current slice without yielding."""
        if ticks < 0:
            raise ValueError("cannot charge negative ticks")
        self.current().pending_cost += ticks

    def preempt(self, cost: int = DEFAULT_KERNEL_COST) -> None:
        """A kernel point: charge ``cost`` and let the scheduler switch."""
        p = self.current()
        p.pending_cost += cost
        self._yield(p, ProcState.READY)

    def block(self, reason: str, *, deadline: Optional[int] = None,
              cost: int = DEFAULT_KERNEL_COST) -> Any:
        """Block the current process until woken (or until ``deadline``).

        Returns the waker's ``info`` value; sets ``timed_out`` on the
        process when the deadline fired first.
        """
        p = self.current()
        p.pending_cost += cost
        p.timed_out = False
        p.wake_info = None
        self._yield(p, ProcState.BLOCKED, reason=reason, deadline=deadline)
        return p.wake_info

    def wake(self, p: KernelProcess, info: Any = None,
             at_time: Optional[int] = None) -> bool:
        """Make a blocked process runnable; returns False if not blocked.

        ``at_time`` is the virtual time of the waking event (defaults to
        the caller's current time); the wakee cannot resume earlier than
        both that and the moment it blocked.
        """
        if p.state is not ProcState.BLOCKED:
            return False
        t = self.now() if at_time is None else at_time
        if self.observers:
            waker = self.caller()
            for o in self.observers:
                o.on_wake(waker, p, t)
        p.ready_time = max(p.ready_time, t)
        p.deadline = None
        p.wake_info = info
        p.timed_out = False
        p.blocked_on = ""
        p.state = ProcState.READY
        self._requeue(p)
        return True

    def kill(self, p: KernelProcess) -> None:
        """Mark a process killed; it unwinds at its next dispatch."""
        if not p.live:
            return
        p.killed = True
        if p.state is ProcState.BLOCKED:
            p.deadline = None
            p.blocked_on = "killed"
            p.ready_time = max(p.ready_time, self.now())
            for o in self.observers:
                o.on_kill(p, p.ready_time)
            p.state = ProcState.READY
            self._requeue(p)

    def _kill_exc(self, p: KernelProcess) -> ProcessKilled:
        """The exception a killed process unwinds with."""
        if self._shutdown:
            return EngineShutdown(
                f"engine shut down while {p.name!r} was "
                f"{p.blocked_on or 'running'}")
        return ProcessKilled(p.name)

    # ----------------------------------------------------- engine-side ----

    def _runnable_key(self, p: KernelProcess):
        # Round-robin among equals: earliest start first, then the
        # process that has waited longest since its last slice, then pid.
        pe_clock = p.clock.ticks
        if p.state is ProcState.READY:
            return (max(p.ready_time, pe_clock), p.last_dispatched, p.pid)
        # blocked with a deadline: runnable at the deadline
        return (max(p.deadline, pe_clock), p.last_dispatched, p.pid)

    @staticmethod
    def _is_runnable(p: KernelProcess) -> bool:
        return p.state is ProcState.READY or (
            p.state is ProcState.BLOCKED and p.deadline is not None)

    def _requeue(self, p: KernelProcess) -> None:
        """Re-index ``p`` after any scheduling-state change.

        Bumps the process's generation (invalidating every entry it
        already has in the per-PE heaps), inserts one fresh entry if the
        process is runnable, and refreshes its PE's candidate.  No-op in
        scan mode.
        """
        if not self._indexed:
            return
        p.sched_gen += 1
        pe = p.pe
        # Inlined _is_runnable/_runnable_key/_touch_pe: this runs once
        # per state change, which on the coop core is once per dispatch.
        state = p.state
        if state is ProcState.READY:
            base = p.ready_time
        elif state is ProcState.BLOCKED and p.deadline is not None:
            base = p.deadline
        else:
            # Not runnable any more -- but its departure may still have
            # changed which queued process is this PE's best candidate.
            base = None
        if base is not None:
            if base <= p.clock.ticks:
                heapq.heappush(self._ripe[pe],
                               (p.last_dispatched, p.pid, p.sched_gen))
            else:
                heapq.heappush(self._future[pe],
                               (base, p.last_dispatched, p.pid,
                                p.sched_gen))
        g = self._pe_gen[pe] + 1
        self._pe_gen[pe] = g
        cand = self._pe_candidate(pe)
        if cand is not None:
            heapq.heappush(self._cand, (cand, pe, g))

    def _pe_candidate(self, pe: int) -> Optional[tuple]:
        """The least current dispatch key among PE ``pe``'s queued
        processes, or None.  Migrates newly-ripe future entries and
        discards stale ones on the way (amortized O(1) per queue event).
        """
        procs = self._procs
        clk = self._clockmap[pe].ticks
        future = self._future[pe]
        ripe = self._ripe[pe]
        while future:
            base, ld, pid, gen = future[0]
            p = procs.get(pid)
            if p is None or gen != p.sched_gen:
                heapq.heappop(future)
                continue
            if base > clk:
                break
            # The PE clock caught up: the start time is now the clock,
            # like every other ripe process.
            heapq.heappop(future)
            heapq.heappush(ripe, (ld, pid, gen))
        while ripe:
            ld, pid, gen = ripe[0]
            p = procs.get(pid)
            if p is None or gen != p.sched_gen:
                heapq.heappop(ripe)
                continue
            return (clk, ld, pid)
        if future:
            base, ld, pid, gen = future[0]
            return (base, ld, pid)
        return None

    def _pop_runnable(self) -> Tuple[Optional[KernelProcess], Optional[tuple]]:
        """Pop the runnable process with the least current key.

        Pops PE candidates in key order; per-PE generations identify the
        (at most one) live candidate per PE.  A live candidate is always
        *fresh*: every event that can change a PE's best pick -- slice
        settle, spawn, wake, kill, fault -- re-indexes through
        :meth:`_requeue`, which refreshes the candidate, and a PE's
        clock only advances during a dispatch on that PE, which settles
        (and so touches) before the next pop.  Keys inside the per-PE
        heaps never go stale at all, so -- unlike a single global heap
        keyed by ``max(ready_time, pe_clock)`` -- a slice on one PE
        never forces a re-key of the other processes queued there.
        """
        cand = self._cand
        pe_gen = self._pe_gen
        while cand:
            key, pe, g = heapq.heappop(cand)
            if g != pe_gen[pe]:
                continue
            pid = key[2]
            # Commit: remove the winner from its per-PE heap.  It is the
            # validated head of ripe (start == clock) or future.  The
            # next candidate for this PE is pushed by the settle/requeue
            # that ends the dispatched slice (or by the horizon/fault
            # requeue when the dispatch is abandoned).
            ripe = self._ripe[pe]
            if ripe and ripe[0][1] == pid:
                heapq.heappop(ripe)
            else:
                heapq.heappop(self._future[pe])
            return self._procs[pid], key
        return None, None

    def _pick(self) -> Optional[KernelProcess]:
        """Reference dispatcher: O(n) scan over all processes."""
        best = None
        best_key = None
        for p in self._procs.values():
            if self._is_runnable(p):
                k = self._runnable_key(p)
                if best_key is None or k < best_key:
                    best, best_key = p, k
        return best

    def _peek_replay(self) -> Tuple[Optional[KernelProcess], Optional[tuple]]:
        """Replay selection: the recorded stream *is* the dispatch order.

        Peeks (does not consume) the next D record; the ``on_dispatch``
        verification in :meth:`step` consumes it.  A record naming a
        process that does not exist or is not runnable means the live
        run diverged from the recording.
        """
        from ..errors import ReplayDivergence
        rec = self._schedule.peek_dispatch()
        if rec is None:
            return None, None
        ordinal, start = rec
        if ordinal >= len(self._by_ordinal):
            raise ReplayDivergence(
                f"schedule names spawn #{ordinal} "
                f"({self._schedule.name_of(ordinal)!r}) but only "
                f"{len(self._by_ordinal)} processes have spawned "
                f"({self._schedule.progress()})")
        p = self._by_ordinal[ordinal]
        if not self._is_runnable(p):
            raise ReplayDivergence(
                f"schedule dispatches {p.name!r} (spawn #{ordinal}, "
                f"recorded start {start}) but it is {p.state.value}"
                + (f" on {p.blocked_on!r}" if p.blocked_on else "")
                + f" ({self._schedule.progress()})")
        return p, self._runnable_key(p)

    def _switch_to_live(self) -> None:
        """A *prefix* schedule (a restored checkpoint) ran dry: hand
        selection back to a live dispatcher and keep going.

        Only selection changes -- ``sched_hook`` stays the prefix
        wrapper, which keeps recording the live tail.  During replay the
        indexed heaps were never fed (``_requeue`` no-ops off-index), so
        requeueing every process in pid order rebuilds them exactly as a
        fresh engine would have.
        """
        sched = self._schedule
        dispatcher = _live_dispatcher_for(sched)
        self.dispatcher = dispatcher
        self._live_dispatcher = dispatcher
        self._replay = False
        self._indexed = dispatcher == "indexed"
        self._schedule = None
        for p in sorted(self._procs.values(), key=lambda q: q.pid):
            self._requeue(p)
        cb = getattr(sched, "on_prefix_complete", None)
        if cb is not None:
            # Restore validation: the replayed state must match the
            # snapshot digests before the run continues live.
            cb(self)

    def step(self, horizon: Optional[int] = None) -> bool:
        """Dispatch one slice.  Returns False when nothing is runnable.

        The engine's one dispatch body: :meth:`run` and
        :meth:`run_while` drive it.  With ``horizon``, refuses to
        dispatch a slice that would start after that virtual time --
        the monitor uses this so that pumping the machine "now" does
        not fast-forward through long DELAYs.
        """
        observers = self.observers
        if observers:
            for o in observers:
                o.between_slices(self)
        fault_pump = self._fault_pump
        while True:
            if self._replay:
                p, key = self._peek_replay()
                if p is None and getattr(self._schedule,
                                         "live_after_prefix", False):
                    self._switch_to_live()
                    continue
            elif self._indexed:
                p, key = self._pop_runnable()
            else:
                p = self._pick()
                key = None if p is None else self._runnable_key(p)
            if p is None:
                return False
            if horizon is not None and key[0] > horizon:
                if self._indexed:
                    # The pick was valid; re-index it for the next step.
                    self._requeue(p)
                return False
            if fault_pump is not None and fault_pump(key[0]):
                # A timed fault fired at or before this slice's start;
                # it may have killed/woken processes (including this
                # one), so re-index the pick and re-pick.
                if self._indexed:
                    self._requeue(p)
                continue
            break
        if p.state is ProcState.BLOCKED:
            # Deadline fired: resume with timed_out set.
            p.timed_out = True
            p.wake_info = None
            p.ready_time = max(p.ready_time, p.deadline)
            p.deadline = None
            p.state = ProcState.READY
        clock = p.clock
        rt = p.ready_time
        ticks = clock.ticks
        start = rt if rt > ticks else ticks
        limit = self.time_limit
        if limit is not None and start > limit:
            raise TimeLimitExceeded(limit)
        sh = self.sched_hook
        if sh is not None:
            # Recording appends; replay consumes-and-verifies (the start
            # tick doubles as a virtual-time checksum per dispatch).
            sh.on_dispatch(p.spawn_ordinal, start, p.name)
        if start > self._now:
            self._now = start
        seq = self._dispatch_seq + 1
        self._dispatch_seq = seq
        p.last_dispatched = seq
        if start > ticks:
            clock.ticks = start
        if observers:
            t_wall = time.perf_counter()
            self._run_slice(p, start)
            self._current = None
            # The slice's settle set p.ready_time to its end tick and
            # left the new state/reason/deadline on the process.
            wall = time.perf_counter() - t_wall
            for o in observers:
                o.on_slice(p, start, p.ready_time, p.state, p.blocked_on,
                           p.deadline, wall)
        else:
            self._run_slice(p, start)
            self._current = None
        if p.exc is not None:
            exc, p.exc = p.exc, None
            self.shutdown()
            raise exc
        if self.on_idle_check is not None:
            self.on_idle_check()
        return True

    @property
    def dispatch_count(self) -> int:
        """Total slices dispatched so far (benchmark instrumentation)."""
        return self._dispatch_seq

    def run(self) -> None:
        """Run until no non-daemon process is live, or deadlock.

        On normal completion the remaining daemon (controller) processes
        are left blocked; call :meth:`shutdown` to reap them.
        """
        step = self.step
        try:
            while True:
                if step():
                    continue
                if self._fault_pump is not None and self._fault_pump(None):
                    # Nothing runnable, but a timed fault was pending:
                    # fire it (e.g. the PE crash a blocked receiver was
                    # unknowingly waiting on) and try again.
                    continue
                live_users = [p for p in self._procs.values()
                              if p.live and not p.daemon]
                if live_users:
                    blocked = [(p.name, p.blocked_on, p.deadline)
                               for p in sorted(live_users,
                                               key=lambda q: q.pid)]
                    raise DeadlockError(self.state_dump(), blocked=blocked)
                return
        except Exception:
            self.shutdown()
            raise

    def run_while(self, predicate: Callable[[], bool]) -> None:
        """Run until ``predicate()`` is false or nothing is runnable."""
        while predicate() and self.step():
            pass

    # --------------------------------------------------------- shutdown --

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Kill every live process and join their threads.

        A thread that does not come back to a kernel point within
        ``join_timeout`` wall-clock seconds (it is stuck in user code,
        or swallowed :class:`ProcessKilled`) is recorded in
        :attr:`leaked_threads` and reported with a ``RuntimeWarning`` --
        a leaked thread is a bug to diagnose, never something to ignore
        silently.
        """
        if self._shutdown:
            return
        self._shutdown = True
        sh = self.sched_hook
        if sh is not None and getattr(sh, "autosave", None) is not None:
            # Recorder only (a replayed Schedule has no autosave): flush
            # the .psched artifact even when the run ends in an error.
            sh.autosave()
        # Pending ACCEPT waiters are drained, not abandoned: each one is
        # granted below, observes `killed`, and unwinds with a clear
        # EngineShutdown error instead of waiting on messages that can
        # never arrive.
        self.drained_accept_waiters = sorted(
            p.name for p in self._procs.values()
            if p.live and p.state is ProcState.BLOCKED
            and p.blocked_on.startswith("accept("))
        for p in list(self._procs.values()):
            if p.live:
                p.killed = True
        stuck = self._drain_processes(join_timeout)
        leaked: List[str] = []
        for p in self._procs.values():
            t = p.thread
            if t is None:
                continue
            t.join(timeout=join_timeout if p.name not in stuck else 0.01)
            if t.is_alive():
                leaked.append(p.name)
        self.leaked_threads = sorted(set(stuck) | set(leaked))
        if self.leaked_threads:
            warnings.warn(
                f"engine shutdown leaked {len(self.leaked_threads)} "
                f"thread(s) (stuck outside kernel points): "
                f"{', '.join(self.leaked_threads)}",
                RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------- inspection --

    def processes(self) -> List[KernelProcess]:
        return list(self._procs.values())

    def live_processes(self) -> List[KernelProcess]:
        return [p for p in self._procs.values() if p.live]

    def state_dump(self) -> str:
        lines = [f"engine time {self.now()} ({self.exec_core} core, "
                 f"{self.dispatcher} dispatcher), "
                 f"{len(self.live_processes())} live processes:"]
        failed = self.machine.failed_pes()
        if failed:
            # A hang caused by a crashed PE must be tellable apart from
            # a true deadlock by the dump alone.
            lines.append(f"  failed PEs: {failed} (processes pinned there "
                         f"were killed; blocked peers may be waiting on "
                         f"messages that will never arrive)")
        for p in sorted(self._procs.values(), key=lambda q: q.pid):
            if p.live:
                lines.append("  " + p.describe())
        return "\n".join(lines)

    @property
    def shutting_down(self) -> bool:
        return self._shutdown

"""The execution vehicle: a single-threaded discrete-event core.

:class:`CoopEngine` is the one engine class a run uses.  Its base,
:class:`~repro.mmos.scheduler.Engine`, holds the scheduling policy
(picker, dispatch keys, hooks and observers, slice accounting);
this class supplies the handoff that runs a dispatched slice.  PISCES 2
multiprograms many processes on each PE under MMOS (DESIGN.md section
3); here a context switch is a generator switch (~0.1us), not an OS
thread switch (~10us), which is what makes 1000-process machines
routine.

Two body forms (see :mod:`repro.mmos.process`):

* **coroutine bodies** (generator functions yielding
  :class:`~repro.mmos.process.KernelOp`) run *on the engine thread*.
  No OS thread exists for them: ``leaked_threads`` can never name one,
  and a dispatch costs one ``send``.
* **callable bodies** (ordinary functions) run on a pinned worker
  thread with a raw-lock token handoff: both locks stay held; the
  engine passes control by releasing the process's ``handoff`` lock
  and parks by re-acquiring its own ``_resume`` token; the worker does
  the reverse at every kernel point.  Arbitrary blocking user code
  stays fully supported.

Determinism contract: virtual timestamps, dispatch order and the
trace/profile streams are bit-identical for both body forms of the
same program -- every end-of-slice goes through
``Engine._settle_yield`` / ``Engine._settle_done`` -- and under both
pickers.  The dispatch-equivalence property suite asserts this; the
committed golden digests pin the history itself.
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional

from ..errors import ProcessKilled
from .process import KernelOp, KernelProcess, ProcState
from .scheduler import Engine


class CoopEngine(Engine):
    """Single-threaded discrete-event execution vehicle."""

    exec_core = "coop"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: Engine-side token of the raw-lock handoff (callable bodies):
        #: always held while the engine runs; a worker ends its slice by
        #: releasing it, the engine parks by re-acquiring.
        self._resume = threading.Lock()
        self._resume.acquire()
        #: Thread ident driving the current coroutine slice (the engine
        #: thread while inside ``gen.send``), or None.  This is what
        #: makes ``in_process``/``current`` answer correctly for bodies
        #: that have no thread of their own.
        self._gen_runner: Optional[int] = None

    # ------------------------------------------------ execution strategy --

    def _launch(self, p: KernelProcess) -> None:
        if p.is_coroutine:
            # No thread at all: the body is a generator resumed by the
            # engine loop.  Instantiating it runs no user code.
            p.gen = p.target()
            return
        p.handoff = threading.Lock()
        p.handoff.acquire()
        t = threading.Thread(target=self._thread_body, args=(p,),
                             name=f"pisces-{p.name}-{p.pid}", daemon=True)
        p.thread = t
        t.start()

    def _thread_body(self, p: KernelProcess) -> None:
        """Worker-thread main for a callable body."""
        self._wait_for_grant(p)
        try:
            if p.killed:
                raise ProcessKilled(p.name)
            p.result = p.target()
        except ProcessKilled:
            pass
        except BaseException as e:  # surface in the engine thread
            p.exc = e
        finally:
            if p.on_exit is not None:
                try:
                    p.on_exit(p)
                except BaseException as e:
                    if p.exc is None:
                        p.exc = e
            self._finish_thread(p)

    def _wait_for_grant(self, p: KernelProcess) -> None:
        # Raw-lock park: the engine's _run_slice releases exactly one
        # handoff per dispatch.  Level-triggered, so the release may
        # legally precede this acquire.
        p.handoff.acquire()

    def _run_slice(self, p: KernelProcess, start: int) -> None:
        p.slice_start = start
        p.state = ProcState.RUNNING
        self._current = p
        if p.gen is None:
            p.handoff.release()
            self._resume.acquire()
        else:
            self._step_coroutine(p)

    def _finish_thread(self, p: KernelProcess) -> None:
        # Worker thread exiting: settle DONE, then hand the machine
        # back.  No lock needed -- the engine is parked on _resume and
        # nothing else runs.
        self._settle_done(p)
        self._resume.release()

    def _yield(self, p: KernelProcess, new_state: ProcState, *,
               reason: str = "", deadline: Optional[int] = None) -> None:
        if p.gen is not None:
            raise RuntimeError(
                f"coroutine process {p.name!r} called a blocking kernel "
                "primitive on the coop core; yield co_preempt()/co_block() "
                "instead (charge/now are allowed)")
        self._settle_yield(p, new_state, reason, deadline)
        self._current = None
        self._resume.release()
        p.handoff.acquire()
        if p.killed:
            raise self._kill_exc(p)

    # ------------------------------------------------- coroutine driver --

    def _step_coroutine(self, p: KernelProcess) -> None:
        """One slice of a coroutine body: resume the generator and
        interpret yielded ops until it parks (preempt/block) or ends.

        This is the hot path -- a dispatch is this function call, no OS
        handoff anywhere.
        """
        gen = p.gen
        # The runner ident covers kill/close cleanup too: a generator's
        # GeneratorExit handlers (lock hand-off, barrier retraction) and
        # the exit hooks run kernel calls like wake()/now(), which must
        # see in_process() exactly as a callable body's worker-thread
        # unwinding does.
        self._gen_runner = threading.get_ident()
        try:
            if p.killed:
                # A killed coroutine body never observes ProcessKilled:
                # it sees GeneratorExit via close(), the result stays
                # None.
                try:
                    gen.close()
                except BaseException as e:
                    p.exc = e
                self._proc_exit(p)
                return
            val = p.wake_info
            while True:
                try:
                    op = gen.send(val)
                except StopIteration as e:
                    p.result = e.value
                    self._proc_exit(p)
                    return
                except ProcessKilled:
                    self._proc_exit(p)
                    return
                except BaseException as e:
                    p.exc = e
                    self._proc_exit(p)
                    return
                if not isinstance(op, KernelOp):
                    p.exc = RuntimeError(
                        f"coroutine process {p.name!r} yielded {op!r}; "
                        "expected a KernelOp from co_charge/co_preempt/"
                        "co_block")
                    gen.close()
                    self._proc_exit(p)
                    return
                kind = op.kind
                if kind == "charge":
                    p.pending_cost += op.cost
                    val = None
                    continue
                if kind == "preempt":
                    p.pending_cost += op.cost
                    p.wake_info = None
                    self._settle_yield(p, ProcState.READY, "", None)
                else:  # block
                    p.pending_cost += op.cost
                    p.timed_out = False
                    p.wake_info = None
                    self._settle_yield(p, ProcState.BLOCKED, op.reason,
                                       op.deadline)
                return
        finally:
            self._gen_runner = None

    def _proc_exit(self, p: KernelProcess) -> None:
        """Coroutine-body counterpart of :meth:`_thread_body`'s finally."""
        if p.on_exit is not None:
            try:
                p.on_exit(p)
            except BaseException as e:
                if p.exc is None:
                    p.exc = e
        self._settle_done(p)

    # ---------------------------------------------------- process-side ----

    def caller(self) -> Optional[KernelProcess]:
        p = self._current
        if p is not None and p.gen is not None:
            # A coroutine body runs on the thread driving the loop.
            return p if self._gen_runner == threading.get_ident() else None
        return super().caller()

    # --------------------------------------------------------- shutdown --

    def _drain_processes(self, join_timeout: float) -> List[str]:
        """Give every live process one chance to observe ``killed`` and
        unwind; returns names of processes that stayed stuck in user
        code past ``join_timeout``.

        Coroutine bodies have no thread: closing the generator runs the
        body's finally clauses on the engine thread, the exit hook runs,
        and the process settles DONE -- by construction they can never
        appear in ``leaked_threads``.  Callable bodies are granted their
        handoff so the worker observes ``killed`` and unwinds; one that
        stays stuck is reported as leaked.
        """
        stuck: List[str] = []
        for p in list(self._procs.values()):
            if not p.live:
                continue
            if p.gen is not None:
                self._current = p
                self._gen_runner = threading.get_ident()
                try:
                    try:
                        p.gen.close()
                    except BaseException:
                        pass
                    p.exc = None
                    self._proc_exit(p)
                finally:
                    self._gen_runner = None
                    self._current = None
                continue
            while p.live and p.thread is not None and p.thread.is_alive():
                if p.state is ProcState.DONE:
                    break
                p.state = ProcState.RUNNING
                self._current = p
                p.handoff.release()
                limit = time.monotonic() + join_timeout
                timed_out = False
                # Re-acquire the engine token; absorb any stray release
                # from a previously-stuck thread (the state check, not
                # the lock, decides whether *this* slice ended).
                while p.state is ProcState.RUNNING:
                    if not self._resume.acquire(timeout=0.05) \
                            and time.monotonic() > limit:
                        timed_out = True
                        break
                self._current = None
                p.exc = None
                if timed_out:
                    stuck.append(p.name)
                    break
        return stuck

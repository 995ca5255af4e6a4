"""A SCHEDULE-style baseline (section 3).

Dongarra & Sorensen's SCHEDULE is "a package of routines that provide
an interface between Fortran programs and a parallel machine.  The
Fortran routines communicate with shared variables.  The programmer
defines the dependency relations between the routines (via SCHEDULE
calls), and then SCHEDULE maps the program onto the available hardware
in an appropriate way" -- i.e. the *system* does the mapping, where
PISCES 2 has the *programmer* map algorithm -> virtual machine ->
hardware.

This module reproduces that model on the same MMOS virtual-time
substrate so the two are comparable: the user declares units of work
(callables with tick costs) and dependencies; the scheduler runs one
worker per PE, dispatching ready units by critical-path priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PiscesError
from ..flex.machine import FlexMachine
from ..flex.presets import small_flex
from ..mmos.scheduler import create_engine

#: Scheduling overhead charged per unit dispatch (comparable in spirit
#: to the PISCES initiate/message costs).
DISPATCH_COST = 40


@dataclass
class Unit:
    """One schedulable routine."""

    name: str
    cost: int
    fn: Optional[Callable[[], Any]] = None
    deps: Tuple[str, ...] = ()
    # Filled by the scheduler:
    level: int = 0               # critical-path length to a sink
    start: Optional[int] = None
    end: Optional[int] = None
    pe: Optional[int] = None
    result: Any = None


class ScheduleProgram:
    """The dependency graph a SCHEDULE user declares."""

    def __init__(self) -> None:
        self._units: Dict[str, Unit] = {}

    def unit(self, name: str, cost: int, deps: Sequence[str] = (),
             fn: Optional[Callable[[], Any]] = None) -> "ScheduleProgram":
        """Declare a routine with its dependency relations."""
        if name in self._units:
            raise PiscesError(f"unit {name!r} declared twice")
        for d in deps:
            if d not in self._units:
                raise PiscesError(f"unit {name!r} depends on undeclared {d!r}")
        if cost < 0:
            raise PiscesError("unit cost must be non-negative")
        self._units[name] = Unit(name=name, cost=cost, fn=fn,
                                 deps=tuple(deps))
        return self

    def units(self) -> Dict[str, Unit]:
        return dict(self._units)

    def critical_path(self) -> int:
        """Length of the longest dependency chain (lower bound on any
        schedule's makespan)."""
        self._compute_levels()
        return max((u.level + u.cost for u in self._units.values()),
                   default=0)

    def total_work(self) -> int:
        return sum(u.cost for u in self._units.values())

    def _compute_levels(self) -> None:
        # level = longest path from this unit's completion to a sink.
        succs: Dict[str, List[str]] = {n: [] for n in self._units}
        for u in self._units.values():
            for d in u.deps:
                succs[d].append(u.name)
        order = self._topo_order()
        for name in reversed(order):
            u = self._units[name]
            u.level = max((self._units[s].level + self._units[s].cost
                           for s in succs[name]), default=0)

    def _topo_order(self) -> List[str]:
        indeg = {n: len(u.deps) for n, u in self._units.items()}
        succs: Dict[str, List[str]] = {n: [] for n in self._units}
        for u in self._units.values():
            for d in u.deps:
                succs[d].append(u.name)
        ready = sorted(n for n, k in indeg.items() if k == 0)
        order: List[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for s in sorted(succs[n]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._units):
            cyclic = sorted(set(self._units) - set(order))
            raise PiscesError(f"dependency cycle among {cyclic}")
        return order


@dataclass
class ScheduleResult:
    """Outcome of one SCHEDULE run."""

    elapsed: int
    critical_path: int
    total_work: int
    units: Dict[str, Unit]
    pe_busy: Dict[int, int]

    @property
    def speedup_vs_serial(self) -> float:
        return self.total_work / self.elapsed if self.elapsed else 0.0


class ScheduleRunner:
    """Run a :class:`ScheduleProgram` on ``n_pes`` workers.

    System-chosen mapping: workers pull the ready unit with the longest
    critical path (largest ``level + cost`` first), the classic list
    schedule SCHEDULE-era systems used.
    """

    def __init__(self, program: ScheduleProgram, n_pes: int,
                 machine: Optional[FlexMachine] = None):
        if n_pes < 1:
            raise PiscesError("need at least one PE")
        self.program = program
        need = n_pes + 2  # PEs 1-2 run Unix
        self.machine = machine or small_flex(max(3, need))
        mmos = self.machine.mmos_pes()
        if n_pes > len(mmos):
            raise PiscesError(f"{n_pes} workers exceed {len(mmos)} MMOS PEs")
        self.worker_pes = mmos[:n_pes]

    def run(self) -> ScheduleResult:
        units = self.program.units()
        self.program._compute_levels()
        for name, u in self.program._units.items():
            units[name].level = u.level
        indeg = {n: len(u.deps) for n, u in units.items()}
        succs: Dict[str, List[str]] = {n: [] for n in units}
        for u in units.values():
            for d in u.deps:
                succs[d].append(u.name)
        ready: List[str] = sorted(
            (n for n, k in indeg.items() if k == 0),
            key=lambda n: (-(units[n].level + units[n].cost), n))
        remaining = len(units)
        engine = create_engine(self.machine)
        idle_workers: List[Any] = []
        state = {"remaining": remaining}

        def worker(pe: int) -> Callable[[], None]:
            def body() -> None:
                while True:
                    if state["remaining"] == 0:
                        return
                    if not ready:
                        proc = engine.current()
                        idle_workers.append(proc)
                        info = engine.block("schedule-idle")
                        if info == "done":
                            return
                        continue
                    name = ready.pop(0)
                    u = units[name]
                    engine.charge(DISPATCH_COST)
                    u.pe = pe
                    u.start = engine.now()
                    if u.fn is not None:
                        u.result = u.fn()
                    engine.charge(u.cost)
                    engine.preempt(0)
                    u.end = engine.now()
                    state["remaining"] -= 1
                    newly = []
                    for s in succs[name]:
                        indeg[s] -= 1
                        if indeg[s] == 0:
                            newly.append(s)
                    if newly:
                        ready.extend(newly)
                        ready.sort(key=lambda n: (
                            -(units[n].level + units[n].cost), n))
                        while idle_workers and ready:
                            engine.wake(idle_workers.pop(0))
                    if state["remaining"] == 0:
                        while idle_workers:
                            engine.wake(idle_workers.pop(0), info="done")
                        return
            return body

        for pe in self.worker_pes:
            engine.spawn(f"sched-worker-{pe}", pe, worker(pe))
        engine.run()
        busy = {pe: self.machine.clocks[pe].busy_ticks
                for pe in self.worker_pes}
        return ScheduleResult(
            elapsed=self.machine.elapsed(),
            critical_path=self.program.critical_path(),
            total_work=self.program.total_work(),
            units=units,
            pe_busy=busy,
        )

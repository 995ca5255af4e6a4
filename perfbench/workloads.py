"""The benchmark's workloads, driven through the public entry points.

Library workloads time one op as registry build + ``api.make_vm`` +
``vm.run`` to the result, boot included.  Service workloads run an
in-process ``RunService`` behind ``rest.serve`` and drive it from one
client thread in a closed loop; an op there is the client's ``POST
/runs`` to the run record's ``finished_at`` (both stamps from the same
host clock, so the client's poll interval does not quantise it).

Every op's output is checked; see ``README.md`` for why each workload
exists and which layer it isolates.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import shutil
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import api
from repro.apps import fortran_programs, jacobi, pipeline
from repro.errors import PiscesError
from repro.obs.export import run_manifest
from repro.service import RunService
from repro.service.client import ServiceClient
from repro.service.executor import standalone_run
from repro.service.rest import serve
from repro.service.spec import RunSpec
from repro.service.store import (ADMITTED, DONE, RUNNING, TERMINAL_STATES,
                                 RunStore)

#: The execution axes a manifest records; all are left at defaults.
AXES = ("exec_core", "dispatcher", "task_bodies", "window_path")


@dataclass
class Op:
    """One timed op: its wall time and whether its output checked out."""

    wall_s: float
    ok: bool
    detail: str = ""


@dataclass
class Phase:
    """A closed-loop phase: its ops and the wall windows it timed."""

    ops: List[Op]
    #: perf_counter ``(begin, end)`` of each timed stretch; service
    #: restarts between stretches are not timed.
    windows: List[Tuple[float, float]]
    wall_s: float         # timed-phase wall for throughput
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def good(self) -> List[Op]:
        return [o for o in self.ops if o.ok]


def _axes(manifest: Dict[str, Any]) -> Tuple[str, ...]:
    return tuple(str(manifest.get(k)) for k in AXES)


# ----------------------------------------------------------------- library --

class LibWorkload:
    """One library app run again and again with the same inputs."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.expected: Optional[Tuple[Any, ...]] = None
        self.axes_seen: set = set()

    def build(self):
        """Return ``(registry, make_vm kwargs, tasktype)`` for one op."""
        raise NotImplementedError

    def output_ok(self, value: Any) -> bool:
        raise NotImplementedError

    def op(self) -> Op:
        t0 = time.perf_counter()
        reg, shape, tasktype = self.build()
        vm = api.make_vm(registry=reg, **shape)
        r = vm.run(tasktype)
        wall = time.perf_counter() - t0
        axes = _axes(run_manifest(vm))
        self.axes_seen.add(axes)
        signature = (vm.engine.dispatch_count, int(r.elapsed), axes)
        if self.expected is None:
            self.expected = signature
        if not self.output_ok(r.value):
            return Op(wall, False, "wrong output")
        if signature != self.expected:
            return Op(wall, False, f"dispatches/ticks/axes {signature} != "
                                   f"{self.expected}")
        return Op(wall, True)

    def setup(self) -> None:
        """The warm-up op (checked like any other)."""
        warm = self.op()
        if not warm.ok:
            raise RuntimeError(f"warm-up op failed: {warm.detail}")

    def teardown(self) -> None:
        pass

    def run_phase(self, seconds: float, min_ops: int) -> Phase:
        ops: List[Op] = []
        begin = time.perf_counter()
        deadline = begin + seconds
        while time.perf_counter() < deadline or len(ops) < min_ops:
            try:
                ops.append(self.op())
            except PiscesError as e:
                ops.append(Op(0.0, False, f"{type(e).__name__}: {e}"))
        end = time.perf_counter()
        return Phase(ops, [(begin, end)], end - begin)

    def record_metrics(self, phase: Phase) -> Dict[str, float]:
        return {"admission.queue_wait_ms.p50": 0.0,
                "executor.exec_ms.p50": 0.0, "executor.busy_frac": 0.0}


class LibPipeline(LibWorkload):
    """``apps.pipeline``: 8 stages x 48 seeded items, 8 slots/cluster."""

    N_STAGES, N_ITEMS, SLOTS = 8, 48, 8

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.items = [rng.randrange(-10**6, 10**6)
                      for _ in range(self.N_ITEMS)]
        self.want = [x + self.N_STAGES for x in self.items]

    def build(self):
        reg = pipeline.build_pipeline_registry(self.N_STAGES, self.items)
        return reg, {"n_clusters": 2, "slots": self.SLOTS}, "COORD"

    def output_ok(self, value: Any) -> bool:
        return value == self.want


class LibJacobiWindows(LibWorkload):
    """``apps.jacobi`` windows variant: n=24, 4 sweeps, 10 workers."""

    N, SWEEPS, WORKERS = 24, 4, 10

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.want = jacobi.reference_solution(self.N, self.SWEEPS)

    def build(self):
        reg = jacobi.build_windows_registry(self.N, self.SWEEPS, self.WORKERS)
        return reg, {"n_clusters": 2, "slots": self.WORKERS}, "JMASTER"

    def output_ok(self, value: Any) -> bool:
        grid, _ = value
        return np.array_equal(grid, self.want)


# ----------------------------------------------------------------- service --

#: The service mix: short catalog runs at default params.
MIX: List[Dict[str, Any]] = [
    {"app": "jacobi"},
    {"app": "pipeline"},
    {"app": "matmul"},
    {"app": "integrate"},
    {"app": "fem"},
    {"app": "fortran", "params": {
        "source": fortran_programs.PROGRAMS["master_worker"][0],
        "tasktype": fortran_programs.PROGRAMS["master_worker"][1]}},
]
TENANTS = ("t1", "t2", "t3")
#: Per-tenant cap on outstanding runs: the default quota's max_queued,
#: so no submission is ever refused.
TENANT_OUTSTANDING = 8
#: Client poll period while waiting on the oldest outstanding run.
POLL_S = 0.01
#: Terminal runs in the history svc_history boots over.
HISTORY_RUNS = 2000
#: Where the generated history is kept between runs in one checkout.
HISTORY_CACHE = (Path(__file__).resolve().parent.parent / ".perfbench"
                 / "history")
#: Runs one service life takes (warm-up included) before the client
#: drains it, prunes the store back to the workload's history and
#: starts a fresh service over it.  Nothing in the service deletes a
#: run, so this keeps the history every admission decision walks the
#: same size however fast the program runs: at most this many runs
#: beyond the seeded history.
RUNS_PER_SERVICE = 150


def _value_repr(value: Any) -> str:
    """The run record's ``exit.value`` form of a result value."""
    r = repr(value)
    return r[:200] + "..." if len(r) > 200 else r


class SvcWorkload:
    """The run service under a closed loop of catalog runs; as is, the
    ``svc_mix`` workload (an empty store for each service)."""

    operator_reads = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.root = work_dir / "store"
        #: Run ids of the seeded history: the runs a pruned store keeps.
        self.history: set = set()
        self.n_workers = len(os.sched_getaffinity(0))
        #: More runs outstanding than workers: the queue never drains.
        self.outstanding = self.n_workers + 4
        self.server = self.svc = self.client = None
        self.life_runs = 0            # runs submitted to this service
        self._order: deque = deque()
        self._read_turn = 0
        self.axes_seen: set = set()
        # The bit-identity references, computed untimed.
        self.ref: List[Tuple[int, str, Tuple[str, ...]]] = []
        for spec in MIX:
            r = standalone_run(RunSpec.from_dict(spec))
            self.ref.append((int(r.elapsed), _value_repr(r.value),
                             _axes(run_manifest(r.vm))))

    def _start(self) -> None:
        self.svc = RunService(self.root, n_workers=self.n_workers)
        self.svc.start()
        self.server, self.thread = serve(self.svc, "127.0.0.1", 0)
        self.client = ServiceClient(self.server.url, timeout=60.0)
        self.life_runs = 0

    def setup(self) -> None:
        self._start()
        # Warm-up: every app of the mix once, checked.
        ids = [(self.client.submit(spec, tenant=TENANTS[i % 3])["run_id"], i)
               for i, spec in enumerate(MIX)]
        self.life_runs = len(ids)
        for rid, i in ids:
            rec = self.client.wait(rid, timeout=120.0, poll=POLL_S)
            op = self._check(rec, rec["submitted_at"], i)
            if not op.ok:
                raise RuntimeError(f"warm-up run {rid} failed: {op.detail}")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10.0)
            self.svc.stop()
            self._prune()
        self.server = self.svc = self.client = None

    def _prune(self) -> None:
        """Remove every run the service lives added, leaving the store
        as the next service would find it fresh: the history only."""
        runs = self.root / "runs"
        for d in runs.iterdir() if runs.is_dir() else ():
            if d.name not in self.history:
                shutil.rmtree(d, ignore_errors=True)

    def _next(self, pending_by_tenant: Dict[str, int]) -> Tuple[int, str]:
        """The seeded mix order (rounds of a shuffled mix) and tenant."""
        if not self._order:
            idx = list(range(len(MIX)))
            self.rng.shuffle(idx)
            self._order.extend(idx)
        tenant = self.rng.choice(TENANTS)
        if pending_by_tenant.get(tenant, 0) >= TENANT_OUTSTANDING:
            tenant = min(TENANTS, key=lambda t: pending_by_tenant.get(t, 0))
        return self._order.popleft(), tenant

    def _check(self, rec: Dict[str, Any], t_post: float, i: int) -> Op:
        wall = (rec.get("finished_at") or time.time()) - t_post
        ticks, value, axes = self.ref[i]
        prov = rec.get("provenance") or {}
        got_axes = _axes(prov)
        self.axes_seen.add(got_axes)
        ex = rec.get("exit") or {}
        if rec["state"] != DONE:
            return Op(wall, False, f"{rec['run_id']} ended {rec['state']}: "
                                   f"{ex.get('error', '')}")
        if ex.get("elapsed_ticks") != ticks or ex.get("value") != value:
            return Op(wall, False, f"{rec['run_id']} output differs from "
                                   f"standalone_run")
        if got_axes != axes:
            return Op(wall, False, f"{rec['run_id']} axes {got_axes}")
        return Op(wall, True)

    def _operator_read(self) -> None:
        if self._read_turn % 2 == 0:
            self.client.health()
        else:
            self.client.list_runs(state=RUNNING)
        self._read_turn += 1

    def run_phase(self, seconds: float, min_ops: int) -> Phase:
        """Service lives of :data:`RUNS_PER_SERVICE` runs until the
        deadline; each life is timed from its first ``POST`` to its last
        ``finished_at``, and the restarts between lives are not."""
        ops: List[Op] = []
        records: List[Dict[str, Any]] = []
        windows: List[Tuple[float, float]] = []
        wall = 0.0
        deadline = time.time() + seconds
        while time.time() < deadline or len(ops) < min_ops:
            if self.life_runs >= RUNS_PER_SERVICE:
                self.teardown()
                self._start()
            begin = time.perf_counter()
            first_post = time.time()
            last_finish = self._life(deadline, min_ops, ops, records)
            windows.append((begin, time.perf_counter()))
            wall += last_finish - first_post
        return Phase(ops, windows, wall, records)

    def _life(self, deadline: float, min_ops: int, ops: List[Op],
              records: List[Dict[str, Any]]) -> float:
        """The closed loop on this service until it has taken its runs
        or the deadline passed, then drained; returns the last run's
        ``finished_at``."""
        c = self.client
        pending: deque = deque()
        by_tenant: Dict[str, int] = {}
        last_finish = time.time()
        while True:
            while len(pending) < self.outstanding \
                    and self.life_runs < RUNS_PER_SERVICE and (
                        time.time() < deadline
                        or len(ops) + len(pending) < min_ops):
                i, tenant = self._next(by_tenant)
                t_post = time.time()
                self.life_runs += 1
                try:
                    rid = c.submit(MIX[i], tenant=tenant)["run_id"]
                except PiscesError as e:          # refused: an error
                    ops.append(Op(0.0, False, f"refused: {e}"))
                    continue
                pending.append((rid, t_post, i, tenant))
                by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
            if not pending:
                break
            rid, t_post, i, tenant = pending[0]
            rec = c.get_run(rid)
            if rec["state"] not in TERMINAL_STATES:
                time.sleep(POLL_S)
                continue
            pending.popleft()
            by_tenant[tenant] -= 1
            records.append(rec)
            ops.append(self._check(rec, t_post, i))
            last_finish = max(last_finish, rec.get("finished_at") or 0.0)
            if self.operator_reads:
                self._operator_read()
        return last_finish

    def record_metrics(self, phase: Phase) -> Dict[str, float]:
        """Admission and executor metrics from the run records alone."""
        recs = [r for r in phase.records if r.get("started_at")]
        waits = [r["started_at"] - r["submitted_at"] for r in recs]
        execs = [r["finished_at"] - r["started_at"] for r in recs
                 if r.get("finished_at")]
        med = statistics.median
        return {
            "admission.queue_wait_ms.p50": 1000.0 * med(waits) if waits
            else 0.0,
            "executor.exec_ms.p50": 1000.0 * med(execs) if execs else 0.0,
            "executor.busy_frac": sum(execs) / (self.n_workers
                                                * phase.wall_s)
            if phase.wall_s > 0 else 0.0,
        }


class SvcHistory(SvcWorkload):
    """``svc_history``: the mix over a store holding a long history,
    with operator reads interleaved."""

    operator_reads = True

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        template = self._history_template()
        shutil.copytree(template, self.root)
        self.history = {d.name for d in (self.root / "runs").iterdir()}

    def _history_template(self) -> Path:
        """The history, generated through the store's own API and kept
        under :data:`HISTORY_CACHE`; later runs in the checkout copy it.

        It is a fixed input, the same for every seed, and it is keyed
        by what shapes its records: the store and spec sources, the mix
        and its reference results, so a change to any of them makes a
        new one.
        """
        h = hashlib.sha256()
        for cls in (RunStore, RunSpec):
            h.update(Path(inspect.getsourcefile(cls)).read_bytes())
        h.update(json.dumps([HISTORY_RUNS, TENANTS, MIX, self.ref],
                            sort_keys=True).encode())
        template = HISTORY_CACHE / h.hexdigest()[:16]
        if template.is_dir():
            return template
        tmp = HISTORY_CACHE / f"{template.name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        store = RunStore(tmp)
        rng = random.Random(0)
        specs = [RunSpec.from_dict(s) for s in MIX]
        for k in range(HISTORY_RUNS):
            i = rng.randrange(len(MIX))
            rec = store.create(TENANTS[k % 3], specs[i])
            store.transition(rec.run_id, ADMITTED)
            t = time.time()
            store.transition(rec.run_id, RUNNING, started_at=t)
            store.transition(rec.run_id, DONE, finished_at=t,
                             exit={"outcome": "done",
                                   "elapsed_ticks": self.ref[i][0],
                                   "value": self.ref[i][1]})
        os.replace(tmp, template)
        return template


WORKLOADS = {
    "lib_pipeline": LibPipeline,
    "lib_jacobi_windows": LibJacobiWindows,
    "svc_mix": SvcWorkload,
    "svc_history": SvcHistory,
}

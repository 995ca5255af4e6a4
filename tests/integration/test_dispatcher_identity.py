"""Every dispatcher leg must replay bit-for-bit.

The scheduler docstring's determinism contract is load-bearing for the
whole suite: swapping the O(n) reference scan for the two-level heap
picker must not move a single virtual timestamp.  Each app here runs
once per live dispatcher and the full observable history -- elapsed
virtual time, dispatch count, per-PE clock readings and run stats --
must match exactly; the replay tests additionally re-execute a
recording under the replay dispatcher, and the chaos test holds both
pickers to the same history under a seeded fault plan.
"""

import os

import pytest

from repro.apps.chaos_jacobi import run_chaos_jacobi
from repro.apps.fem import run_fem
from repro.apps.integrate import run_integrate
from repro.apps.jacobi import build_windows_registry, run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.faults import RESTART, FaultPlan, PECrash

#: The live dispatchers (replay legs are exercised separately below).
LEGS = ["indexed", "scan"]


def _fingerprint(r):
    vm = r.vm
    clocks = vm.machine.clocks.snapshot()
    stats = vm.stats
    fp = {
        "elapsed": int(r.elapsed),
        "dispatches": vm.engine.dispatch_count,
        "clocks": {pe: int(t) for pe, t in clocks.items()},
        "messages_sent": stats.messages_sent,
        "messages_accepted": stats.messages_accepted,
        "tasks_started": stats.tasks_started,
    }
    vm.shutdown()
    return fp


def _run_leg(fn, dispatcher):
    os.environ["PISCES_DISPATCHER"] = dispatcher
    try:
        return _fingerprint(fn())
    finally:
        os.environ.pop("PISCES_DISPATCHER", None)


APPS = [
    ("jacobi", lambda: run_jacobi_windows(n=12, sweeps=2, n_workers=3)),
    ("matmul", lambda: run_matmul_tasks(n=8, n_workers=3)),
    ("fem", lambda: run_fem(n_elements=8)),
    ("pipeline", lambda: run_pipeline(n_stages=3, items=list(range(8)))),
    ("integrate", lambda: run_integrate(pieces=12, points_per_piece=4)),
]


@pytest.mark.parametrize("name,fn", APPS, ids=[a[0] for a in APPS])
def test_app_virtual_history_is_leg_independent(name, fn):
    got = {leg: _run_leg(fn, leg) for leg in LEGS}
    ref = got[LEGS[0]]
    for leg, fp in got.items():
        assert fp == ref, (
            f"{name}: virtual history diverged on {leg} vs {LEGS[0]}")


@pytest.mark.parametrize("name,fn", APPS, ids=[a[0] for a in APPS])
def test_replay_dispatcher_retraces_recorded_history(name, fn, tmp_path,
                                                     monkeypatch):
    """Replay legs: record each app under the indexed dispatcher
    (PISCES_RECORD_SCHEDULE autosaves the .psched at shutdown), then
    re-run under PISCES_DISPATCHER=replay -- the recording must drive
    the run to the identical history."""
    psched = tmp_path / f"{name}.psched"
    monkeypatch.setenv("PISCES_DISPATCHER", "indexed")
    monkeypatch.setenv("PISCES_RECORD_SCHEDULE", str(psched))
    recorded = _fingerprint(fn())
    monkeypatch.delenv("PISCES_RECORD_SCHEDULE")
    assert psched.exists(), "recorder did not autosave at shutdown"
    monkeypatch.setenv("PISCES_DISPATCHER", "replay")
    monkeypatch.setenv("PISCES_REPLAY_SCHEDULE", str(psched))
    replayed = _fingerprint(fn())
    assert replayed == recorded, (
        f"{name}: replay diverged from the recording")


def test_trace_stream_identical_across_dispatchers(monkeypatch):
    """The full trace stream -- not just the summary fingerprint -- is
    part of the determinism contract between pickers."""
    from repro.api import record_run

    runs = {}
    for dispatcher in LEGS:
        monkeypatch.setenv("PISCES_DISPATCHER", dispatcher)
        rec = record_run("JMASTER", registry=build_windows_registry(12, 2, 3))
        rec.result.vm.shutdown()
        runs[dispatcher] = rec
    assert runs["scan"].elapsed == runs["indexed"].elapsed
    assert runs["scan"].trace_lines == runs["indexed"].trace_lines, \
        "trace stream diverged between dispatchers"


CRASH_PLAN = FaultPlan(seed=11, crashes=(PECrash(at=4_000, pe=4),),
                       name="identity-crash-pe4")


def test_chaos_jacobi_fault_plan_identical_across_dispatchers():
    """Fault injection points are virtual-time events, so a seeded plan
    must produce the same crash/restart/recovery history under both
    pickers."""
    got = {}
    for dispatcher in LEGS:
        os.environ["PISCES_DISPATCHER"] = dispatcher
        try:
            r = run_chaos_jacobi(n=12, sweeps=2, n_workers=3,
                                 supervision=RESTART(3, backoff_ticks=500),
                                 on_death="reassign",
                                 fault_plan=CRASH_PLAN)
        finally:
            os.environ.pop("PISCES_DISPATCHER", None)
        fault_kinds = [e.kind for e in r.vm.faults.events]
        restarted = r.vm.stats.tasks_restarted
        got[dispatcher] = (_fingerprint(r), r.completed, r.rounds,
                           fault_kinds, restarted)
    assert got["scan"] == got["indexed"], (
        "chaos_jacobi under the seeded fault plan diverged between "
        "dispatchers")
    assert got["indexed"][1], "crash plan should still converge"
    assert "pe_crash" in got["indexed"][3]

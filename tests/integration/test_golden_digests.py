"""Golden digests: every app's history checked against committed hashes.

Cross-leg agreement (coroutine vs callable bodies, heap vs scan picker)
cannot see a change that moves every leg at once.  This check can: for
each app of the zoo at test sizes, each Pisces Fortran library program,
and the chaos, replay and checkpoint scenarios below, it compares three
sha256 digests against ``golden_digests.json``:

* ``trace`` -- the full trace stream (every event type), line by line;
* ``dispatch`` -- the dispatch stream: ``(pe, start, end, process)``
  for every charged slice in dispatch order, plus the dispatch count;
* ``state`` -- :func:`repro.checkpoint.snapshot.snapshot_state` at run
  end (clocks, scheduling state, in-queues, SHARED COMMON, arrays,
  RNG, run statistics).

Runs under a fault plan also digest the fault-event stream
(``faults``).  The scenarios beyond the app zoo:

* ``chaos_*`` -- the fault-tolerant Jacobi solver under
  ``test_chaos.CRASH_PLAN`` with restart and with reassignment, under
  the lossy transport plan, and the delay-only soak of one zoo app;
* ``replay_jacobi_windows`` -- a recorded run; its replay must
  reproduce the recording's golden;
* ``ckpt_plain`` / ``ckpt_faulty`` -- the two scenarios of
  ``_ckpt_runner.py``, uninterrupted; a run restored from a mid-run
  checkpoint must reproduce the same golden.

The *observed* leg re-runs the app zoo and the Fortran programs with
every observer on -- metrics, the causal profiler and the race detector
in record mode.  It must reproduce the unobserved trace, dispatch and
state digests exactly (observation charges no virtual time), and it
pins what the observers saw under ``observed_<app>``:

* ``metrics`` -- the metrics registry's snapshot at run end;
* ``profile`` -- the profiler's virtual-time record: every slice and
  attributed wait (pids replaced by spawn ordinals, the slice's host
  ``wall`` field dropped) and the critical path.

The goldens were generated on the thread-per-process core that earlier
builds carried next to today's engine; the two agreed on every entry
before that core was removed.  They are asserted for both task-body
vehicles: ``default`` (coroutine bodies where the app has them) and
``callable`` (every body on a worker thread).  To regenerate after
a change that is *meant* to move virtual time or traces::

    PYTHONPATH=src python -m tests.integration.test_golden_digests --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps import fortran_programs
from repro.apps.chaos_jacobi import build_chaos_registry
from repro.apps.jacobi import build_windows_registry
from repro.checkpoint import restore_vm
from repro.checkpoint.format import load_bundle
from repro.checkpoint.snapshot import snapshot_state
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.tracing import TraceEventType
from repro.core.vm import PiscesVM
from repro.correctness import ScheduleRecorder
from repro.faults import RESTART, FaultPlan
from repro.flex.presets import small_flex
from repro.obs.profile import extract_critical_path
from tests.integration import _ckpt_runner as ckpt_runner
from tests.integration.test_chaos import CRASH_PLAN, LOSSY, delay_plan
from tests.properties.test_dispatch_equivalence import APP_CASES

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

_ALL_EVENTS = tuple(t.value for t in TraceEventType)


def _zoo_case(name):
    def build():
        registry, config, tasktype, args = APP_CASES[name]()
        return registry, config, tasktype, args, None
    return build


def _fortran_case(name):
    def build():
        _, main, _, _ = fortran_programs.PROGRAMS[name]
        return (fortran_programs.load(name).registry,
                fortran_programs.default_configuration(name), main, (),
                small_flex(12))
    return build


CASES = {**{name: _zoo_case(name) for name in APP_CASES},
         **{f"fortran_{name}": _fortran_case(name)
            for name in fortran_programs.names()}}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(vm, elapsed: int) -> dict:
    """The golden record of a finished run (``vm.engine.record_slices``
    must have been on from the start)."""
    dispatch = {"count": vm.engine.dispatch_count,
                "slices": [[int(pe), int(start), int(end), name]
                           for pe, start, end, name in vm.engine.slices]}
    out = {
        "elapsed": int(elapsed),
        "dispatches": vm.engine.dispatch_count,
        "trace": _sha("\n".join(e.line() for e in vm.tracer.events)),
        "dispatch": _sha(json.dumps(dispatch)),
        "state": _sha(json.dumps(snapshot_state(vm), sort_keys=True)),
    }
    if vm.faults is not None:
        assert vm.faults.events, "the fault plan must fire"
        out["faults"] = _sha(vm.faults.export_jsonl())
    return out


def _run_digests(vm, tasktype, *args) -> dict:
    vm.engine.record_slices = True
    try:
        r = vm.run(tasktype, *args)
        return _digests(vm, r.elapsed)
    finally:
        vm.shutdown()


def app_digests(app: str, task_bodies: str = "") -> dict:
    """Run ``app`` once with ``task_bodies`` ("" = the default) and digest
    its trace stream, dispatch stream and end-of-run state."""
    registry, config, tasktype, args, machine = CASES[app]()
    config = dataclasses.replace(config, task_bodies=task_bodies,
                                 trace_events=_ALL_EVENTS)
    vm = PiscesVM(config, registry=registry, machine=machine)
    return _run_digests(vm, tasktype, *args)


# ---------------------------------------------------------------- chaos --

def _chaos_jacobi(plan, supervision=None, on_death="abort"):
    def build():
        registry = build_chaos_registry(10, 2, 3, supervision, on_death,
                                        8_000, 60_000, 200)
        config = Configuration(clusters=(ClusterSpec(1, 3, 4),
                                         ClusterSpec(2, 4, 4)),
                               name="chaos-jacobi")
        return registry, config, "CMASTER", (), plan
    return build


def _delay_soak(app, protected):
    def build():
        registry, config, tasktype, args = APP_CASES[app]()
        return registry, config, tasktype, args, delay_plan(1, protected)
    return build


CHAOS = {
    "chaos_crash_restart": _chaos_jacobi(
        CRASH_PLAN, RESTART(3, backoff_ticks=500), "reassign"),
    "chaos_crash_reassign": _chaos_jacobi(CRASH_PLAN, None, "reassign"),
    "chaos_lossy": _chaos_jacobi(
        FaultPlan(seed=7, messages=LOSSY, name="lossy")),
    "chaos_delay_soak_jacobi_windows": _delay_soak("jacobi_windows",
                                                   ("WIN",)),
}


def chaos_digests(name: str, task_bodies: str = "") -> dict:
    registry, config, tasktype, args, plan = CHAOS[name]()
    config = dataclasses.replace(config, task_bodies=task_bodies,
                                 trace_events=_ALL_EVENTS)
    vm = PiscesVM(config, registry=registry, fault_plan=plan)
    return _run_digests(vm, tasktype, *args)


# --------------------------------------------------------------- replay --

REPLAY = "replay_jacobi_windows"


def _replay_vm(task_bodies, **kw):
    config = Configuration(clusters=(ClusterSpec(1, 3, 4),
                                     ClusterSpec(2, 4, 4)),
                           name="replay-jacobi-w", task_bodies=task_bodies,
                           trace_events=_ALL_EVENTS)
    return PiscesVM(config, registry=build_windows_registry(10, 2, 3), **kw)


def replay_digests(task_bodies: str = ""):
    """Record a jacobi-windows run, then replay it: returns the digests
    of the recording and of the replay."""
    recorder = ScheduleRecorder()
    recorded = _run_digests(_replay_vm(task_bodies, recorder=recorder),
                            "JMASTER")
    schedule = recorder.as_schedule()
    replayed = _run_digests(_replay_vm(task_bodies, replay=schedule),
                            "JMASTER")
    schedule.check_complete()
    return recorded, replayed


# ----------------------------------------------------------- checkpoint --

CKPT = ("plain", "faulty")


def _ckpt_vm(scenario, task_bodies, ckpt_dir=""):
    config = dataclasses.replace(ckpt_runner.config(ckpt_dir),
                                 task_bodies=task_bodies,
                                 trace_events=_ALL_EVENTS,
                                 checkpoint_keep=10_000)
    return PiscesVM(config, registry=ckpt_runner.registry(),
                    fault_plan=ckpt_runner.plan(scenario, host_kill=False))


def ckpt_reference_digests(scenario: str, task_bodies: str = "") -> dict:
    """The uninterrupted run of a ``_ckpt_runner`` scenario."""
    return _run_digests(_ckpt_vm(scenario, task_bodies), "CMASTER")


def ckpt_restored_digests(scenario: str, ckpt_dir: Path,
                          task_bodies: str = "") -> dict:
    """Run the scenario with periodic checkpoints, then restore the last
    bundle written before ``_ckpt_runner.KILL_AT`` (where the soak's
    victim dies) and resume it to the end."""
    vm = _ckpt_vm(scenario, task_bodies, str(ckpt_dir))
    vm.run("CMASTER")
    bundles = sorted(ckpt_dir.glob("*.pckpt"))
    marks = [(load_bundle(b)[0]["now"], b) for b in bundles]
    early = [b for now, b in marks if now <= ckpt_runner.KILL_AT]
    assert early, f"no checkpoint before tick {ckpt_runner.KILL_AT}"
    rr = restore_vm(early[-1], registry=ckpt_runner.registry())
    rr.vm.engine.record_slices = True
    try:
        res = rr.resume()
        return _digests(rr.vm, res.elapsed)
    finally:
        rr.vm.shutdown()


# ------------------------------------------------------------- observed --

def _profile_record(vm, elapsed: int) -> dict:
    """The profiler's virtual-time outputs with run-specific identities
    normalised: kernel pids come from a process-global counter, so they
    are replaced by spawn ordinals, and host wall time is dropped."""
    ordinal = {p.pid: p.spawn_ordinal for p in vm.engine.processes()}

    def cause(c):
        # Spawn causes name the parent's pid, wake causes the waker's.
        if c[0] == "spawn":
            return [c[0], ordinal.get(c[1]), c[2]]
        if c[0] == "woken":
            return [*c[:4], ordinal.get(c[4])]
        return list(c)

    prof = vm.profiler
    slices = [[s.seq, ordinal[s.pid], s.name, s.pe, s.start, s.end,
               s.new_state, cause(s.cause)] for s in prof.slices()]
    waits = [[ordinal[w.pid], w.name, w.pe, w.category, w.reason,
              w.start, w.end] for w in prof.waits()]
    path = extract_critical_path(prof, elapsed=elapsed).as_dict()
    return {"slices": slices, "waits": waits, "critical_path": path}


def observed_digests(app: str, task_bodies: str = "") -> dict:
    """Run ``app`` with metrics, the causal profiler and the race
    detector (record mode) on: the usual digests plus digests of what
    the observers recorded."""
    registry, config, tasktype, args, machine = CASES[app]()
    config = dataclasses.replace(config, task_bodies=task_bodies,
                                 trace_events=_ALL_EVENTS,
                                 metrics_enabled=True, profile=True,
                                 detect_races=True)
    vm = PiscesVM(config, registry=registry, machine=machine)
    vm.engine.record_slices = True
    try:
        r = vm.run(tasktype, *args)
        assert vm.race_detector is not None and vm.profiler is not None
        digests = _digests(vm, r.elapsed)
        observed = {
            "metrics": _sha(json.dumps(vm.metrics.snapshot(),
                                       sort_keys=True)),
            "profile": _sha(json.dumps(_profile_record(vm, r.elapsed))),
        }
        return digests, observed
    finally:
        vm.shutdown()


def all_goldens(task_bodies: str) -> dict:
    goldens = {app: app_digests(app, task_bodies) for app in sorted(CASES)}
    goldens.update({f"observed_{app}": observed_digests(app, task_bodies)[1]
                    for app in sorted(CASES)})
    goldens.update({name: chaos_digests(name, task_bodies)
                    for name in CHAOS})
    goldens[REPLAY] = replay_digests(task_bodies)[0]
    goldens.update({f"ckpt_{s}": ckpt_reference_digests(s, task_bodies)
                    for s in CKPT})
    return goldens


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_app():
    assert sorted(load_goldens()) == sorted(
        [*CASES, *(f"observed_{app}" for app in CASES), *CHAOS, REPLAY,
         *(f"ckpt_{s}" for s in CKPT)])


VEHICLES = pytest.mark.parametrize("task_bodies", ["", "callable"],
                                   ids=["default", "callable"])


@VEHICLES
@pytest.mark.parametrize("app", sorted(CASES))
def test_app_matches_golden_digests(app, task_bodies):
    assert app_digests(app, task_bodies) == load_goldens()[app]


@VEHICLES
@pytest.mark.parametrize("app", sorted(CASES))
def test_observed_app_matches_golden_digests(app, task_bodies):
    digests, observed = observed_digests(app, task_bodies)
    goldens = load_goldens()
    assert digests == goldens[app]
    assert observed == goldens[f"observed_{app}"]


@VEHICLES
@pytest.mark.parametrize("name", sorted(CHAOS))
def test_chaos_matches_golden_digests(name, task_bodies):
    assert chaos_digests(name, task_bodies) == load_goldens()[name]


@VEHICLES
def test_replay_reproduces_recording_golden(task_bodies):
    recorded, replayed = replay_digests(task_bodies)
    golden = load_goldens()[REPLAY]
    assert recorded == golden
    assert replayed == golden


@VEHICLES
@pytest.mark.parametrize("scenario", CKPT)
def test_restored_run_matches_uninterrupted_golden(scenario, task_bodies,
                                                   tmp_path):
    golden = load_goldens()[f"ckpt_{scenario}"]
    assert ckpt_reference_digests(scenario, task_bodies) == golden
    assert ckpt_restored_digests(scenario, tmp_path, task_bodies) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    goldens = all_goldens("")
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDEN_PATH}")

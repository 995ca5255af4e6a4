"""Property: the causal profile is part of the deterministic history.

For any app in the dispatcher-identity matrix and either window
data-plane path, the profiler's complete observable output -- wait
totals by category, the per-task rollup, and the extracted critical
path -- must be bit-identical across the ``indexed`` and ``scan``
dispatchers, across the ``auto`` and ``callable`` task-body vehicles,
and across a record/replay cycle where the recording run
did NOT profile but the replay does (attaching the profiler to a
replay reproduces the original run's profile exactly).

Fingerprints use task *labels* and PE numbers, never kernel pids
(pids are process-global and differ between VMs by construction).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.apps.fem import run_fem
from repro.apps.integrate import run_integrate
from repro.apps.jacobi import run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.obs.profile import extract_critical_path

APPS = [
    ("jacobi", lambda: run_jacobi_windows(n=12, sweeps=2, n_workers=3)),
    ("matmul", lambda: run_matmul_tasks(n=8, n_workers=3)),
    ("fem", lambda: run_fem(n_elements=8)),
    ("pipeline", lambda: run_pipeline(n_stages=3, items=list(range(8)))),
    ("integrate", lambda: run_integrate(pieces=12, points_per_piece=4)),
]

WINDOW_PATHS = ("fast", "reference")


def _profile_fingerprint(vm, elapsed):
    prof = vm.profiler
    assert prof is not None, "PISCES_PROFILE should have enabled profiling"
    acct = prof.accounting()
    cp = extract_critical_path(prof, elapsed=elapsed)
    return {
        "totals": sorted(acct.totals.items()),
        "by_task": sorted(acct.by_task.items()),
        "by_pe": sorted(acct.by_pe.items()),
        "busy_by_pe": sorted(acct.busy_by_pe.items()),
        "path": [(s.kind, s.start, s.end, s.label, s.pe, s.process)
                 for s in cp.segments],
        "elapsed": int(elapsed),
        "work": prof.total_work(),
    }


def _run(fn, env):
    saved = {}
    for k, v in env.items():
        saved[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        r = fn()
        fp = _profile_fingerprint(r.vm, int(r.elapsed)) \
            if env.get("PISCES_PROFILE") else None
        r.vm.shutdown()
        return fp
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@settings(max_examples=8, deadline=None)
@given(app=st.sampled_from(range(len(APPS))),
       window_path=st.sampled_from(WINDOW_PATHS))
def test_profile_is_dispatcher_and_window_path_independent(
        app, window_path, tmp_path_factory):
    name, fn = APPS[app]
    base = {"PISCES_PROFILE": "1", "PISCES_WINDOW_PATH": window_path}

    indexed = _run(fn, {**base, "PISCES_DISPATCHER": "indexed"})
    scan = _run(fn, {**base, "PISCES_DISPATCHER": "scan"})
    assert indexed == scan, (
        f"{name}/{window_path}: profile diverged between dispatchers")

    # The profiler's engine events are body-form-agnostic: callable bodies
    # on worker threads must reproduce the coroutine profile bit for bit.
    callable_ = _run(fn, {**base, "PISCES_DISPATCHER": "indexed",
                          "PISCES_TASK_BODIES": "callable"})
    assert callable_ == indexed, (
        f"{name}/{window_path}: profile diverged between task-body "
        f"vehicles")

    # Record WITHOUT the profiler, replay WITH it: the profile of the
    # replay must reproduce the profiled originals bit for bit.
    psched = tmp_path_factory.mktemp("psched") / f"{name}.psched"
    _run(fn, {"PISCES_DISPATCHER": "indexed",
              "PISCES_WINDOW_PATH": window_path,
              "PISCES_RECORD_SCHEDULE": str(psched)})
    assert psched.exists(), "recorder did not autosave at shutdown"
    replayed = _run(fn, {**base, "PISCES_DISPATCHER": "replay",
                         "PISCES_REPLAY_SCHEDULE": str(psched)})
    assert replayed == indexed, (
        f"{name}/{window_path}: replayed profile diverged from original")

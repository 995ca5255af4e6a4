"""Executing one admitted run: boot, run (or checkpoint-resume),
archive, record the exit.

The executor is where the service's three core guarantees live:

* **Determinism** -- the VM is built from the catalog's pure plan plus
  the spec's execution axes; the service adds only *pure observers*
  (full trace stream, metrics, the kill hook on the engine's
  ``on_idle_check`` seam, periodic checkpointing), so a service run's
  virtual time and trace stream are bit-identical to the same spec run
  standalone.
* **Kill** -- a run is killed by setting its handle's event; the hook
  raises :class:`KilledByService` between engine slices, the engine's
  run loop shuts the VM down cleanly (reaping every simulated process)
  and the exception surfaces here, where the run is marked KILLED.
* **Recovery** -- a run found interrupted at boot re-executes through
  the same path; if it was checkpointing, :func:`find_latest_checkpoint`
  plus :func:`repro.api.restore_vm` (with the catalog-rebuilt registry)
  resume it from the last ``.pckpt`` instead of starting over.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..api import _ALL_TRACE_EVENTS, find_latest_checkpoint, restore_vm
from ..core.vm import PiscesVM
from ..faults import loads as load_fault_plan
from ..obs.export import export_run, run_manifest
from . import catalog
from .store import (DONE, FAILED, KILLED, RUNNING, RunRecord, RunStore)


class KilledByService(BaseException):
    """Raised on the engine thread when a run's kill event is set.

    Deliberately NOT a :class:`~repro.errors.PiscesError` (nor even an
    ``Exception``): simulated task code may legitimately catch broad
    exceptions, and a kill must not be swallowable.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        super().__init__(f"run {run_id} killed by service")


@dataclass
class ExecutionHandle:
    """The service's live view of one executing run."""

    run_id: str
    kill_event: threading.Event
    #: The live VM, set once booted (read by the status/metrics/trace
    #: endpoints while the run executes).
    vm: Optional[PiscesVM] = None

    def kill(self) -> None:
        self.kill_event.set()


#: Axis defaults the service applies when the spec leaves them "".
ServiceDefaults = Dict[str, str]

#: Checkpoints kept per run; > 1 so a bundle torn by kill -9 mid-write
#: still leaves a previous complete one to resume from.
CHECKPOINT_KEEP = 3

_PROVENANCE_KEYS = ("dispatcher", "exec_core", "task_bodies", "window_path",
                    "repro_version", "seed", "fault_plan_hash")


def build_vm(rec: RunRecord, store: RunStore,
             defaults: Optional[ServiceDefaults] = None) -> PiscesVM:
    """Build the (fresh-start) VM for a run record."""
    spec = rec.spec
    defaults = defaults or {}
    plan = catalog.build(spec)
    config = replace(
        plan.config,
        name=f"{rec.run_id}-{plan.config.name}",
        trace_events=_ALL_TRACE_EVENTS if spec.trace else (),
        metrics_enabled=True,
        window_path=spec.window_path or defaults.get("window_path", ""),
        task_bodies=spec.task_bodies or defaults.get("task_bodies", ""),
        run_seed=spec.run_seed,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_dir=str(store.checkpoint_dir(rec.run_id)),
        checkpoint_keep=CHECKPOINT_KEEP,
    )
    if spec.checkpoint_every:
        store.checkpoint_dir(rec.run_id).mkdir(parents=True, exist_ok=True)
    fault_plan = (load_fault_plan(spec.fault_plan)
                  if spec.fault_plan else None)
    return PiscesVM(config, registry=plan.registry, fault_plan=fault_plan)


def _install_kill_hook(vm: PiscesVM, handle: ExecutionHandle) -> None:
    """Arm the per-run kill seam on the engine's idle-check hook.

    The hook runs between dispatches on the engine thread and only
    reads an Event, so it is a pure observer: virtual time is
    untouched (it does disable the engine's fast batch path, which is
    a host-speed matter only).
    """

    def check() -> None:
        if handle.kill_event.is_set():
            raise KilledByService(handle.run_id)

    vm.engine.on_idle_check = check


def _archive(vm: PiscesVM, rec: RunRecord,
             store: RunStore) -> Tuple[Dict[str, Any], List[Dict[str, str]]]:
    """Write the run's artifact bundle; returns provenance metadata and
    the archive steps that failed, as ``{"step", "error"}`` entries.

    Best-effort by design: archiving a killed or crashed run keeps
    whatever evidence exists (partial trace, fault events so far), so a
    failing step does not stop the others.
    """
    art = store.artifacts_dir(rec.run_id)
    art.mkdir(parents=True, exist_ok=True)
    provenance: Dict[str, Any] = {}

    def manifest() -> None:
        m = run_manifest(vm)
        provenance.update((k, m.get(k)) for k in _PROVENANCE_KEYS)

    def faults() -> None:
        if vm.faults is not None:
            vm.faults.write_jsonl(art / "run.faults.jsonl")

    def psched() -> None:
        hook = vm.sched_hook
        if hook is not None and hasattr(hook, "dumps"):
            (art / "run.psched").write_text(hook.dumps(), encoding="utf-8")

    errors: List[Dict[str, str]] = []
    for step, write in (("manifest", manifest),
                        ("export", lambda: export_run(vm, art, prefix="run")),
                        ("faults", faults), ("psched", psched)):
        try:
            write()
        except Exception as e:
            errors.append({"step": step, "error": f"{type(e).__name__}: {e}"})
    return provenance, errors


def _finish(vm: Optional[PiscesVM], rec: RunRecord, store: RunStore,
            state: str, exit_info: Dict[str, Any]) -> RunRecord:
    """Archive what the run left and make its terminal transition; a
    failed archive step is recorded in the record's
    ``exit["archive_errors"]``."""
    provenance: Dict[str, Any] = {}
    if vm is not None:
        provenance, errors = _archive(vm, rec, store)
        if errors:
            exit_info["archive_errors"] = errors
    return store.transition(rec.run_id, state, finished_at=time.time(),
                            provenance=provenance,
                            artifacts=store.list_artifacts(rec.run_id),
                            exit=exit_info)


def standalone_run(spec, defaults: Optional[ServiceDefaults] = None):
    """Run a spec outside the service: the bit-identity reference leg.

    Builds the same catalog plan with the same execution axes but none
    of the service's observers (no kill hook, no checkpointing, no
    run-id config name) and runs it to completion.  The soak tests
    compare a service run's virtual time and trace stream against this
    -- equality is the proof that the service added nothing but pure
    observers.
    """
    defaults = defaults or {}
    plan = catalog.build(spec)
    config = replace(
        plan.config,
        trace_events=_ALL_TRACE_EVENTS if spec.trace else (),
        metrics_enabled=True,
        window_path=spec.window_path or defaults.get("window_path", ""),
        task_bodies=spec.task_bodies or defaults.get("task_bodies", ""),
        run_seed=spec.run_seed,
    )
    fault_plan = (load_fault_plan(spec.fault_plan)
                  if spec.fault_plan else None)
    vm = PiscesVM(config, registry=plan.registry, fault_plan=fault_plan)
    return vm.run(plan.tasktype, *plan.args, shutdown=True)


def execute_run(rec: RunRecord, store: RunStore, handle: ExecutionHandle,
                defaults: Optional[ServiceDefaults] = None) -> RunRecord:
    """Run one ADMITTED record to a terminal state.  Called on a worker
    thread; never raises (failures become the FAILED state)."""
    if handle.kill_event.is_set():        # killed while waiting to start
        return store.transition(rec.run_id, KILLED,
                                finished_at=time.time(),
                                exit={"outcome": "killed",
                                      "detail": "killed before start"})

    vm: Optional[PiscesVM] = None
    restored = None
    try:
        # Prefer checkpoint-resume for recovered runs that were
        # checkpointing; anything else starts fresh.
        if rec.recovered and rec.spec.checkpoint_every:
            ckpt = find_latest_checkpoint(store.checkpoint_dir(rec.run_id))
            if ckpt is not None:
                try:
                    restored = restore_vm(
                        ckpt, registry=catalog.build(rec.spec).registry)
                    vm = restored.vm
                    rec = store.amend(rec.run_id, resumed_from=ckpt.name)
                except Exception:
                    restored, vm = None, None     # fall back to fresh
        if vm is None:
            vm = build_vm(rec, store, defaults)
        handle.vm = vm
        _install_kill_hook(vm, handle)
        rec = store.transition(rec.run_id, RUNNING, started_at=time.time())

        plan_app = catalog.build(rec.spec)
        if restored is not None:
            result = restored.resume(shutdown=True)
        else:
            result = vm.run(plan_app.tasktype, *plan_app.args, shutdown=True)

        value_repr = repr(result.value)
        if len(value_repr) > 200:
            value_repr = value_repr[:200] + "..."
        return _finish(vm, rec, store, DONE,
                       {"outcome": "done",
                        "elapsed_ticks": int(result.elapsed),
                        "value": value_repr,
                        "resumed_from": rec.resumed_from})
    except KilledByService:
        return _finish(vm, rec, store, KILLED,
                       {"outcome": "killed",
                        "elapsed_ticks": (int(vm.machine.elapsed())
                                          if vm is not None else None)})
    except Exception as e:
        return _finish(vm, rec, store, FAILED,
                       {"outcome": "failed",
                        "error": f"{type(e).__name__}: {e}",
                        "traceback": traceback.format_exc(limit=8)})
    finally:
        handle.vm = None
        if vm is not None:
            try:
                vm.shutdown()
            except Exception:
                pass

"""Golden digests: every app's history checked against committed hashes.

Cross-leg agreement (threaded vs coop, auto vs callable) cannot see a
change that moves every leg at once.  This check can: for each app of
the zoo at test sizes, and each Pisces Fortran library program, it
compares three sha256 digests against ``golden_digests.json``:

* ``trace`` -- the full trace stream (every event type), line by line;
* ``dispatch`` -- the dispatch stream: ``(pe, start, end, process)``
  for every charged slice in dispatch order, plus the dispatch count;
* ``state`` -- :func:`repro.checkpoint.snapshot.snapshot_state` at run
  end (clocks, scheduling state, in-queues, SHARED COMMON, arrays,
  RNG, run statistics).

The goldens were generated on the threaded core.  They are asserted on
the default core and on ``exec_core="threaded"``.  To regenerate after
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
from repro.checkpoint.snapshot import snapshot_state
from repro.core.tracing import TraceEventType
from repro.core.vm import PiscesVM
from repro.flex.presets import small_flex
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


def app_digests(app: str, exec_core: str = "") -> dict:
    """Run ``app`` once on ``exec_core`` ("" = the default) and digest
    its trace stream, dispatch stream and end-of-run state."""
    registry, config, tasktype, args, machine = CASES[app]()
    config = dataclasses.replace(config, exec_core=exec_core,
                                 trace_events=_ALL_EVENTS)
    vm = PiscesVM(config, registry=registry, machine=machine)
    vm.engine.record_slices = True
    try:
        r = vm.run(tasktype, *args)
        dispatch = {"count": vm.engine.dispatch_count,
                    "slices": [[int(pe), int(start), int(end), name]
                               for pe, start, end, name in vm.engine.slices]}
        return {
            "elapsed": int(r.elapsed),
            "dispatches": vm.engine.dispatch_count,
            "trace": _sha("\n".join(e.line() for e in vm.tracer.events)),
            "dispatch": _sha(json.dumps(dispatch)),
            "state": _sha(json.dumps(snapshot_state(vm), sort_keys=True)),
        }
    finally:
        vm.shutdown()


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_app():
    assert sorted(load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("exec_core", ["", "threaded"],
                         ids=["default", "threaded"])
@pytest.mark.parametrize("app", sorted(CASES))
def test_app_matches_golden_digests(app, exec_core):
    assert app_digests(app, exec_core) == load_goldens()[app]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    goldens = {app: app_digests(app, "threaded") for app in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDEN_PATH}")

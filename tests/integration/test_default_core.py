"""coop is the default execution core at every entry point; threaded
stays selectable (by configuration, spec or ``PISCES_EXEC_CORE``) as
the determinism oracle."""

import pytest

from repro.api import make_vm
from repro.flex.presets import small_flex
from repro.mmos.coop import CoopEngine
from repro.mmos.kernel import MMOSKernel
from repro.mmos.scheduler import Engine
from repro.obs.export import run_manifest
from repro.service import DONE, RunService
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.service.test_service import QUICK, wait_state


@pytest.fixture(autouse=True)
def _no_core_env(monkeypatch):
    monkeypatch.delenv("PISCES_EXEC_CORE", raising=False)


def _manifest_core(**kw):
    vm = make_vm(**kw)
    try:
        return run_manifest(vm)["exec_core"]
    finally:
        vm.shutdown()


def test_make_vm_with_no_axes_runs_on_coop():
    assert _manifest_core() == "coop"


def test_threaded_stays_selectable(monkeypatch):
    assert _manifest_core(exec_core="threaded") == "threaded"
    monkeypatch.setenv("PISCES_EXEC_CORE", "threaded")
    assert _manifest_core() == "threaded"
    assert _manifest_core(exec_core="coop") == "coop"


def test_kernel_defaults_to_coop():
    assert type(MMOSKernel(small_flex(8)).engine) is CoopEngine
    assert type(MMOSKernel(small_flex(8),
                           exec_core="threaded").engine) is Engine


def test_service_run_with_empty_exec_core_records_coop(tmp_path):
    svc = RunService(tmp_path / "store", n_workers=1).start()
    try:
        rec = svc.submit("alice", QUICK)
        assert rec.spec.exec_core == ""
        final = wait_state(svc, rec.run_id, DONE)
    finally:
        svc.stop(timeout=10.0, kill_live=True)
    assert final.provenance["exec_core"] == "coop"


def test_standalone_reference_leg_runs_on_coop():
    r = standalone_run(RunSpec.from_dict(QUICK))
    assert r.vm.engine.exec_core == "coop"

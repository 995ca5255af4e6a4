"""Every entry point runs on the coop engine, and run specs stored when
the execution core was still selectable run unchanged."""

import pytest

from repro.api import make_vm
from repro.flex.presets import small_flex
from repro.mmos.coop import CoopEngine
from repro.mmos.kernel import MMOSKernel
from repro.obs.export import run_manifest
from repro.service import DONE, RunService
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.service.test_service import QUICK, wait_state


def _manifest_core(**kw):
    vm = make_vm(**kw)
    try:
        return run_manifest(vm)["exec_core"]
    finally:
        vm.shutdown()


def test_make_vm_with_no_axes_runs_on_coop():
    assert _manifest_core() == "coop"


def test_kernel_defaults_to_coop():
    assert type(MMOSKernel(small_flex(8)).engine) is CoopEngine


def _service_run(tmp_path, spec):
    svc = RunService(tmp_path / "store", n_workers=1).start()
    try:
        rec = svc.submit("alice", spec)
        return wait_state(svc, rec.run_id, DONE)
    finally:
        svc.stop(timeout=10.0, kill_live=True)


def test_service_run_with_empty_exec_core_records_coop(tmp_path):
    final = _service_run(tmp_path, dict(QUICK, exec_core=""))
    assert final.provenance["exec_core"] == "coop"


@pytest.mark.parametrize("core", ["coop", "threaded"])
def test_spec_naming_a_core_runs_identically(core, tmp_path):
    final = _service_run(tmp_path, dict(QUICK, exec_core=core))
    assert final.provenance["exec_core"] == "coop"
    ref = standalone_run(RunSpec.from_dict(QUICK))
    assert final.exit["elapsed_ticks"] == ref.elapsed


def test_standalone_reference_leg_runs_on_coop():
    r = standalone_run(RunSpec.from_dict(QUICK))
    assert r.vm.engine.exec_core == "coop"

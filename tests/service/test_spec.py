"""RunSpec: validation and JSON round-trip."""

import pytest

from repro.errors import InvalidRunSpec
from repro.service.spec import RunSpec


class TestRoundTrip:

    def test_defaults_round_trip(self):
        s = RunSpec(app="jacobi")
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_full_round_trip(self):
        s = RunSpec(app="chaos_jacobi", params={"n": 16, "sweeps": 2},
                    fault_plan="pisces-fault-plan v1\n", trace=True,
                    checkpoint_every=5000,
                    window_path="reference", task_bodies="callable",
                    run_seed=42)
        assert RunSpec.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("core", ["", "coop", "threaded"])
    def test_stored_exec_core_is_accepted_and_dropped(self, core):
        """Specs stored when the execution core was selectable carry an
        ``exec_core`` field; every core gave the identical run."""
        from repro.service.store import RunRecord
        d = {"app": "jacobi", "params": {"n": 10}, "exec_core": core}
        assert RunSpec.from_dict(d) == RunSpec(app="jacobi",
                                               params={"n": 10})
        rec = RunRecord.from_dict({"run_id": "r1", "tenant": "alice",
                                   "spec": d})
        assert rec.spec == RunSpec(app="jacobi", params={"n": 10})

    def test_stored_batched_window_path_runs_on_fast(self):
        """Specs stored before the ``batched`` window path was retired
        load onto ``fast``: the same virtual time and trace stream."""
        from repro.service.store import RunRecord
        d = {"app": "jacobi", "window_path": "batched"}
        assert RunSpec.from_dict(d) == RunSpec(app="jacobi",
                                               window_path="fast")
        rec = RunRecord.from_dict({"run_id": "r1", "tenant": "alice",
                                   "spec": d})
        assert rec.spec.window_path == "fast"
        with pytest.raises(InvalidRunSpec, match="window_path"):
            RunSpec(app="jacobi", window_path="batched")

    def test_dict_is_json_stable(self):
        import json
        s = RunSpec(app="spin", params={"rounds": 5})
        assert json.loads(json.dumps(s.to_dict())) == s.to_dict()


class TestValidation:

    def test_missing_app_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="")

    def test_unknown_field_refused(self):
        with pytest.raises(InvalidRunSpec, match="unknown spec field"):
            RunSpec.from_dict({"app": "jacobi", "sweeps": 3})

    def test_bad_exec_core_refused(self):
        with pytest.raises(InvalidRunSpec, match="exec_core"):
            RunSpec.from_dict({"app": "jacobi", "exec_core": "quantum"})

    def test_bad_window_path_refused(self):
        with pytest.raises(InvalidRunSpec, match="window_path"):
            RunSpec(app="jacobi", window_path="slow")

    def test_bad_task_bodies_refused(self):
        with pytest.raises(InvalidRunSpec, match="task_bodies"):
            RunSpec(app="jacobi", task_bodies="threads")

    def test_negative_checkpoint_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="jacobi", checkpoint_every=-1)

    def test_params_must_be_object(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="jacobi", params=[1, 2])

    def test_non_dict_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec.from_dict(["jacobi"])


def test_fingerprint_elides_source():
    s = RunSpec(app="fortran", params={"source": "X" * 999, "slots": 2})
    app, params = s.fingerprint()
    assert app == "fortran"
    assert "999" not in params and "slots=2" in params

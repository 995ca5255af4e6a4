"""The engine's observer list: who subscribes, and what they see.

An unmetered, unprofiled run has no observers at all; metrics, the
causal profiler, the race detector and the periodic checkpointer each
subscribe one :class:`~repro.mmos.scheduler.EngineObserver`.  That
observation leaves the run bit-identical is pinned by the golden
digests' observed leg.
"""

import pytest

from repro import api
from repro.apps.jacobi import build_windows_registry
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.vm import PiscesVM
from repro.mmos.process import co_block, co_charge, co_preempt
from repro.mmos.scheduler import EngineObserver, create_engine
from repro.flex.presets import small_flex
from repro.obs.metrics import EngineMetrics

_OBSERVER_ENV = ("PISCES_PROFILE", "PISCES_DETECT_RACES", "PISCES_CHECKPOINT",
                 "PISCES_CHECKPOINT_DIR")


@pytest.fixture(autouse=True)
def _no_env_observers(monkeypatch):
    for name in _OBSERVER_ENV:
        monkeypatch.delenv(name, raising=False)


def _jacobi_vm(**config):
    cfg = Configuration(clusters=(ClusterSpec(1, 3, 4), ClusterSpec(2, 4, 4)),
                        name="observers", **config)
    return PiscesVM(cfg, registry=build_windows_registry(10, 2, 3))


def test_default_run_has_no_observers():
    vm = api.make_vm(registry=build_windows_registry(10, 2, 3))
    assert vm.engine.observers == []
    vm.run("JMASTER")
    assert vm.engine.observers == []
    assert vm.metrics.families() == []
    vm.shutdown()


def test_enable_and_disable_metrics_subscribe_and_unsubscribe():
    vm = api.make_vm(registry=build_windows_registry(10, 2, 3))
    vm.enable_metrics()
    vm.enable_metrics()                  # idempotent
    subs = [o for o in vm.engine.observers if isinstance(o, EngineMetrics)]
    assert len(subs) == 1 and subs[0].registry is vm.metrics
    vm.disable_metrics()
    assert vm.engine.observers == []
    vm.disable_metrics()                 # idempotent
    vm.enable_metrics()
    vm.run("JMASTER")
    assert (vm.metrics.counter_total("dispatches")
            == vm.engine.dispatch_count)
    vm.shutdown()


def test_metered_config_subscribes_metrics():
    vm = api.make_vm(registry=build_windows_registry(10, 2, 3), metrics=True)
    assert [type(o) for o in vm.engine.observers] == [EngineMetrics]
    vm.shutdown()


def test_every_observer_subscribes(tmp_path):
    vm = _jacobi_vm(metrics_enabled=True, profile=True, detect_races=True,
                    checkpoint_every=2_000, checkpoint_dir=str(tmp_path))
    assert set(vm.engine.observers) == {
        vm.race_detector, vm.profiler, vm._engine_metrics, vm.checkpointer}
    vm.run("JMASTER")
    assert vm.checkpointer.written > 0
    vm.shutdown()


class _Counting(EngineObserver):
    def __init__(self):
        self.events = {"spawn": 0, "wake": 0, "kill": 0, "between": 0,
                       "slice": 0}
        self.external_spawns = 0

    def on_spawn(self, parent, p):
        self.events["spawn"] += 1
        self.external_spawns += parent is None

    def on_wake(self, waker, p, at):
        self.events["wake"] += 1

    def on_kill(self, p, at):
        self.events["kill"] += 1

    def between_slices(self, engine):
        self.events["between"] += 1

    def on_slice(self, p, start, end, state, reason, deadline, wall):
        assert end >= start and wall >= 0.0
        self.events["slice"] += 1


def test_observer_sees_every_event_kind():
    eng = create_engine(small_flex(4))
    pes = sorted(eng.machine.pes)
    obs = _Counting()
    eng.observers.append(obs)
    sleeper = {}

    def sleep():
        yield co_block("nap")

    def waker():
        yield co_charge(3)
        eng.wake(sleeper["p"])
        yield co_preempt(1)

    def victim():
        yield co_block("forever")

    sleeper["p"] = eng.spawn("sleeper", pes[0], sleep)
    eng.spawn("waker", pes[1], waker)
    v = eng.spawn("victim", pes[2], victim, daemon=True)
    eng.run_while(lambda: v.state.value != "blocked")
    eng.kill(v)
    eng.run()
    assert obs.events["spawn"] == 3 and obs.external_spawns == 3
    assert obs.events["wake"] == 1 and obs.events["kill"] == 1
    assert obs.events["slice"] == eng.dispatch_count
    # One between-slices event per step, including the final idle one.
    assert obs.events["between"] > eng.dispatch_count
    eng.shutdown()


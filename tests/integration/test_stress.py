"""Stress tests: many processes, heavy churn, windows inside forces."""

import numpy as np
import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import ANY, PARENT
from repro.core.vm import PiscesVM
from repro.flex.machine import FlexMachine, MachineSpec
from repro.flex.presets import nasa_langley_flex32, small_flex
from repro.mmos.scheduler import create_engine


class TestEngineStress:
    def test_two_hundred_processes(self):
        """The one-runner thread handshake holds up at scale and the
        virtual-time accounting stays exact."""
        m = FlexMachine(MachineSpec(n_pes=20, unix_pes=(1, 2),
                                    disk_pes=(1, 2)))
        eng = create_engine(m)
        N = 200
        done = []

        def body(i):
            def run():
                for _ in range(3):
                    eng.charge(10)
                    eng.preempt(0)
                done.append(i)
            return run

        for i in range(N):
            eng.spawn(f"p{i}", 3 + (i % 18), body(i))
        eng.run()
        assert len(done) == N
        # exact accounting: total busy == total charged
        total_busy = sum(m.clocks[pe].busy_ticks for pe in range(1, 21))
        assert total_busy == N * 30

    def test_on_idle_check_hook_fires(self):
        eng = create_engine(small_flex(6))
        count = {"n": 0}
        eng.on_idle_check = lambda: count.__setitem__("n", count["n"] + 1)
        eng.spawn("t", 3, lambda: eng.preempt(0))
        eng.run()
        assert count["n"] >= 2      # one per dispatched slice


class TestChurn:
    def test_slot_churn_five_waves(self, registry):
        """Five waves of tasks through two single-slot clusters: unique
        numbers climb, storage stays clean."""

        @registry.tasktype("BLIP")
        def blip(ctx, k):
            ctx.compute(10)
            ctx.send(PARENT, "BYE", k)

        @registry.tasktype("MAIN")
        def main(ctx):
            got = []
            for wave in range(5):
                for k in range(4):
                    ctx.initiate("BLIP", (wave, k), on=ANY)
                res = ctx.accept(("BYE", 4), delay=2_000_000)
                got.extend(m.args[0] for m in res.messages)
            return got

        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),
                                      ClusterSpec(2, 4, 1)), name="churn")
        vm = PiscesVM(cfg, registry=registry, machine=small_flex(8))
        r = vm.run("MAIN")
        assert len(r.value) == 20
        assert r.stats.tasks_started == 21
        # slot 1 of cluster 2 was reused many times: uniques climbed
        uniques = [t.unique for t in vm.tasks if t == t]  # all taskids
        assert max(t.unique for t in vm.tasks) >= 5
        assert vm.storage_report()["message_bytes_live"] == 0


class TestWindowsInsideForces:
    def test_force_members_read_windows_concurrently(self, registry):
        """Each force member window-reads its own block of a remote
        task's array -- the two mechanisms compose."""

        @registry.tasktype("OWNER")
        def owner(ctx):
            a = np.arange(64.0).reshape(8, 8)
            ctx.export_array("A", a)
            w = ctx.accept("WANT").args and None  # never: just export
            return None

        # simpler: owner is the parent itself
        @registry.tasktype("FTASK")
        def ftask(ctx):
            a = np.arange(64.0).reshape(8, 8)
            full = ctx.export_array("A", a)

            def region(m, w):
                mine = w.split(m.force_size, axis=0)[m.member]
                data = m.window_read(mine)
                return float(data.sum())

            parts = ctx.forcesplit(region, full)
            return sum(parts)

        cfg = Configuration(clusters=(
            ClusterSpec(1, 3, 2, secondary_pes=(4, 5, 6)),), name="wf")
        vm = PiscesVM(cfg, registry=registry, machine=small_flex(8))
        r = vm.run("FTASK")
        assert r.value == float(np.arange(64.0).sum())
        assert r.stats.window_reads == 4

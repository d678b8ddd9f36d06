"""End-to-end tests for dynamic epoch policies and PiCL re-logging."""

from repro.baselines import PiCL, PiCLL2
from repro.core import NVOverlay, NVOverlayParams
from repro.sim import Machine, store
from repro.sim.config import BurstyEpochPolicy

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


class TestBurstyEpochs:
    def test_nvoverlay_captures_more_epochs_in_burst_window(self):
        # 400 stores total; stores 100..200 use epochs of 8 instead of 200.
        policy = BurstyEpochPolicy(base_size=200, bursts=((100, 200, 8),))
        config = tiny_config(epoch_policy=policy)
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(config, scheme=scheme)
        ops = [[store(0x4000 + 64 * (i % 64))] for i in range(400)]
        machine.run(ScriptedWorkload([ops]))
        # Base policy alone would give ~2-3 epochs; the burst adds ~12.
        assert machine.stats.get("epoch.advances") >= 8

    def test_picl_epochs_follow_policy_too(self):
        policy = BurstyEpochPolicy(base_size=200, bursts=((100, 200, 10),))
        config = tiny_config(epoch_policy=policy)
        scheme = PiCL()
        machine = Machine(config, scheme=scheme)
        ops = [[store(0x4000 + 64 * (i % 64))] for i in range(400)]
        machine.run(ScriptedWorkload([ops]))
        assert scheme.epoch > 8

    def test_bursts_increase_log_traffic_for_picl(self):
        def run(policy):
            config = tiny_config(epoch_policy=policy)
            machine = Machine(config, scheme=PiCL())
            machine.run(
                RandomWorkload(num_threads=4, txns_per_thread=200, seed=5)
            )
            return machine.nvm.bytes_written("log")

        steady = run(BurstyEpochPolicy(base_size=400, bursts=()))
        bursty = run(BurstyEpochPolicy(base_size=400, bursts=((200, 1400, 20),)))
        assert bursty > steady


class TestPiCLRelogging:
    def test_domain_exit_forces_relog(self):
        """A line that leaves the tracked domain mid-epoch is logged again
        on its next write — PiCL-L2's extra log traffic (§VII-A).  Stores
        to five other lines of its L2 set push it out of the 4-way L2
        through the capacity path; the same stores to the next set leave
        it in place, and each filler is logged once either way."""
        line_addr = 0x4000
        num_sets = tiny_config().l2_geometry.num_sets

        def run(filler_set):
            machine = Machine(tiny_config(epoch_size_stores=1 << 30),
                              scheme=PiCLL2())
            fillers = [
                store(line_addr + 64 * (filler_set + num_sets * k))
                for k in range(1, 6)
            ]
            machine.run(ScriptedWorkload(
                [[[store(line_addr)], fillers, [store(line_addr)]]]
            ))
            return machine.stats

        evicted, kept = run(filler_set=0), run(filler_set=1)
        assert kept.get("nvm.writes.log") == 1 + 5
        assert evicted.get("nvm.writes.log") == 2 + 5
        assert evicted.get("l2.dirty_evictions") > kept.get("l2.dirty_evictions")

    def test_no_relog_without_domain_exit(self):
        scheme = PiCLL2()
        machine = Machine(tiny_config(epoch_size_stores=1 << 30), scheme=scheme)
        machine.run(ScriptedWorkload([[[store(0x4000)], [store(0x4000)]]]))
        assert machine.stats.get("nvm.writes.log") == 1

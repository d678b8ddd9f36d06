"""Targeted tests for hierarchy paths not covered by the protocol suites:
multi-line operations, L1 replacement, NVOverlay's finalize flush, the
memory image, interconnect accounting."""

from repro.core import NVOverlay, NVOverlayParams
from repro.sim import Interconnect, Machine, MESI, Stats, SystemConfig, load, store

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


class TestMultiLineOps:
    def test_store_spanning_lines_dirties_all(self):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(ScriptedWorkload([[[store(0x4000, 256)]]]))
        lines = {line for line, *_ in machine.hierarchy.store_log}
        assert lines == {0x100, 0x101, 0x102, 0x103}

    def test_unaligned_op_touches_both_lines(self):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(ScriptedWorkload([[[store(0x403C, 8)]]]))  # straddles
        lines = {line for line, *_ in machine.hierarchy.store_log}
        assert lines == {0x100, 0x101}

    def test_load_spanning_lines_costs_more(self):
        machine_small = Machine(tiny_config())
        r1 = machine_small.run(ScriptedWorkload([[[load(0x4000, 8)]]]))
        machine_big = Machine(tiny_config())
        r2 = machine_big.run(ScriptedWorkload([[[load(0x4000, 512)]]]))
        assert r2.cycles > r1.cycles


class TestL1Replacement:
    def test_dirty_l1_victim_written_back_to_l2(self):
        config = tiny_config()
        machine = Machine(config, capture_store_log=True)
        # Stores to many lines mapping across L1 sets force L1 victims.
        ops = [[store(0x40000 + i * 64)] for i in range(64)]
        machine.run(ScriptedWorkload([ops]))
        assert machine.stats.get("l1.dirty_evictions") > 0
        # Every token remains reachable through the hierarchy image.
        golden = {line: token for line, _e, token, *_ in machine.hierarchy.store_log}
        image = machine.hierarchy.memory_image()
        assert all(image.get(line) == token for line, token in golden.items())


#: Two stores on one core, and 1,038 lines stored by four threads.
FLUSHED_WORKLOADS = [
    lambda: ScriptedWorkload([[[store(0x4000)], [store(0x8000)]]]),
    lambda: RandomWorkload(num_threads=4, txns_per_thread=300, seed=4),
]


def _nvoverlay_run(workload):
    machine = Machine(tiny_config(),
                      scheme=NVOverlay(NVOverlayParams(num_omcs=1)),
                      capture_store_log=True)
    machine.run(workload)
    return machine


class TestFlushHelpers:
    def test_finalize_settles_into_main_memory(self):
        """NVOverlay's finalize flush persists every dirty version, and
        the working image follows the OMC: main memory ends with every
        stored line's final token."""
        for workload in FLUSHED_WORKLOADS:
            machine = _nvoverlay_run(workload())
            golden = {line: token
                      for line, _e, token, *_ in machine.hierarchy.store_log}
            assert golden
            for line, token in golden.items():
                assert machine.mem.data_of(line) == token

    def test_finalize_leaves_lines_clean(self):
        for workload in FLUSHED_WORKLOADS:
            machine = _nvoverlay_run(workload())
            assert machine.stats.get("evict_reason.other") > 0
            for l1 in machine.hierarchy.l1s:
                assert not list(l1.dirty_lines())
            for vd in machine.hierarchy.vds:
                assert not list(vd.l2.dirty_lines())

    def test_memory_image_prefers_cache_over_memory(self):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(ScriptedWorkload([[[store(0x4000)]]]))
        token = machine.hierarchy.store_log[-1][2]
        # Memory still stale (no flush), yet the image sees the L1 value.
        assert machine.mem.data_of(0x100) != token
        assert machine.hierarchy.memory_image()[0x100] == token


class TestInterconnect:
    def test_hop_costs(self):
        stats = Stats()
        net = Interconnect(SystemConfig(), stats)
        assert net.request(0, 1) == (net.hop, False)
        assert net.invalidation(1, 0) == (net.hop, False)
        assert net.forward(0, 1) == (2 * net.hop, False)
        assert net.transfer(1, 0) == (net.hop, False)
        assert net.epoch_sync_notify() == net.hop
        # The rules count nothing; the one Hierarchy message counts here.
        assert stats.counters() == {"net.epoch_sync_msgs": 1}

    def test_socket_crossings_pay_the_penalty(self):
        config = SystemConfig.scaled(8, cores_per_vd=2, num_sockets=2)
        net = Interconnect(config, Stats())
        far_vd = config.num_vds - 1
        far_slice = config.llc_slices - 1
        assert net.socket_of_vd(far_vd) == net.socket_of_slice(far_slice) == 1
        crossing = net.hop + net.penalty
        assert net.request(0, far_slice) == (crossing, True)
        assert net.request(far_vd, far_slice) == (net.hop, False)
        assert net.invalidation(far_slice, 0) == (crossing, True)
        assert net.forward(0, far_vd) == (net.hop + crossing, True)
        assert net.transfer(far_vd, 0) == (crossing, True)
        assert net.snoop(config.num_vds) == 2 * net.hop + config.num_vds * net.hop // 8

    def test_omc_traffic_counted_only_when_versioned(self):
        plain = Machine(tiny_config())
        plain.run(ScriptedWorkload([[[store(0x4000)]]]))
        assert plain.stats.get("net.omc_msgs") == 0

        versioned = Machine(tiny_config(), scheme=NVOverlay())
        versioned.run(ScriptedWorkload([[[store(0x4000)]]]))
        assert versioned.stats.get("net.omc_msgs") > 0


class TestEvictionStats:
    def test_llc_eviction_counters(self):
        machine = Machine(tiny_config())
        ops = [[store(0x100000 + i * 64)] for i in range(600)]
        machine.run(ScriptedWorkload([ops]))
        assert machine.stats.get("llc.evictions") > 0
        assert machine.stats.get("llc.dirty_evictions") > 0
        assert machine.stats.get("dram.writes") > 0

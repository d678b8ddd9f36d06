"""Tests for the baseline MESI hierarchy (no version protocol).

Scenarios use a 4-core / 2-VD machine and scripted op sequences; data
correctness is checked through the store-token mechanism (each store
writes a unique token, loads must observe the newest one).
"""

import pytest

from repro.sim import MESI, Machine, NoSnapshot, load, store

from tests.util import (
    RandomWorkload,
    ScriptedWorkload,
    check_hierarchy_invariants,
    final_image_matches_stores,
    tiny_config,
)


def run_script(scripts, **config_overrides):
    machine = Machine(tiny_config(**config_overrides), capture_store_log=True)
    machine.run(ScriptedWorkload(scripts))
    return machine


ADDR = 0x4000  # arbitrary shared address
PRIV = 0x9000_0000


class TestSingleCore:
    def test_load_miss_then_hit(self):
        machine = run_script([[[load(ADDR)], [load(ADDR)]]])
        assert machine.stats.get("l1.load_misses") == 1
        assert machine.stats.get("l1.load_hits") == 1

    def test_store_then_load_returns_token(self):
        machine = run_script([[[store(ADDR)], [load(ADDR)]]])
        entry = machine.hierarchy.l1s[0].lookup(ADDR >> 6)
        assert entry.state == MESI.M
        line, _epoch, token, _vd, _core = machine.hierarchy.store_log[0]
        assert entry.data == token

    def test_exclusive_load_gets_e_state(self):
        machine = run_script([[[load(ADDR)]]])
        entry = machine.hierarchy.l1s[0].lookup(ADDR >> 6)
        assert entry.state == MESI.E

    def test_silent_e_to_m_upgrade(self):
        machine = run_script([[[load(ADDR)], [store(ADDR)]]])
        # The store must not go to the directory again.
        assert machine.stats.get("l1.store_hits") == 1

    def test_multi_line_op_touches_every_line(self):
        machine = run_script([[[store(ADDR, 256)]]])
        for offset in range(0, 256, 64):
            assert machine.hierarchy.l1s[0].contains((ADDR + offset) >> 6)


class TestIntraVD:
    """Cores 0 and 1 share VD 0 (inclusive shared L2)."""

    def test_peer_load_after_store_sees_data(self):
        machine = run_script([
            [[store(ADDR)]],
            [[load(ADDR)]],
        ])
        token = machine.hierarchy.store_log[0][2]
        entry = machine.hierarchy.l1s[1].lookup(ADDR >> 6)
        assert entry is not None and entry.data == token

    def test_peer_dirty_copy_downgraded_on_load(self):
        machine = run_script([
            [[store(ADDR)]],
            [[load(ADDR)]],
        ])
        writer = machine.hierarchy.l1s[0].lookup(ADDR >> 6, touch=False)
        assert writer.state == MESI.S

    def test_peer_invalidated_on_store(self):
        machine = run_script([
            [[store(ADDR)]],
            [[store(ADDR)]],
        ])
        writer = machine.hierarchy.l1s[0].lookup(ADDR >> 6, touch=False)
        assert writer is None
        assert machine.hierarchy.l1s[1].lookup(ADDR >> 6).state == MESI.M

    def test_l2_serves_without_directory(self):
        machine = run_script([
            [[load(ADDR)], [load(ADDR + 8)]],
            [[load(ADDR)]],
        ])
        # Second thread's load hits the shared L2 (one directory access
        # for the initial fill only).
        slice_id = machine.hierarchy.slice_of(ADDR >> 6)
        assert machine.stats.get(f"llc.{slice_id}.dir_accesses") == 1


class TestInterVD:
    """Cores 0/1 are VD 0; cores 2/3 are VD 1."""

    def test_remote_dirty_line_forwarded_on_load(self):
        machine = run_script([
            [[store(ADDR)]],
            [],
            [[load(ADDR)]],
        ])
        token = machine.hierarchy.store_log[0][2]
        reader = machine.hierarchy.l1s[2].lookup(ADDR >> 6)
        assert reader.data == token
        # Owner was downgraded to shared.
        owner_l2 = machine.hierarchy.vds[0].l2.lookup(ADDR >> 6, touch=False)
        assert owner_l2.state == MESI.S

    def test_remote_dirty_line_transferred_on_store(self):
        machine = run_script([
            [[store(ADDR)]],
            [],
            [[store(ADDR)]],
        ])
        assert machine.stats.get("coh.c2c_transfers") == 1
        # Old owner fully invalidated.
        assert machine.hierarchy.vds[0].l2.lookup(ADDR >> 6, touch=False) is None
        assert machine.hierarchy.l1s[0].lookup(ADDR >> 6, touch=False) is None

    def test_sharers_invalidated_on_store(self):
        machine = run_script([
            [[load(ADDR)], [store(ADDR)]],
            [],
            [[load(ADDR)]],
        ])
        # Directory ends with VD0 as owner and VD1 holding nothing valid.
        dentry = machine.hierarchy.dir_entry(ADDR >> 6)
        assert dentry.owner == 0
        assert dentry.sharers == set()

    def test_last_writer_wins_global(self):
        machine = run_script([
            [[store(ADDR)]],
            [],
            [[store(ADDR)]],
            [[store(ADDR)]],
        ])
        mismatches, total = final_image_matches_stores(machine)
        assert mismatches == 0 and total == 1


class TestEvictions:
    def test_capacity_eviction_reaches_memory(self):
        # Touch far more lines than L1+L2 can hold; memory must end with
        # the final token of every line.
        ops = [[store(PRIV + i * 64)] for i in range(400)]
        machine = run_script([ops])
        mismatches, total = final_image_matches_stores(machine)
        assert total == 400
        assert mismatches == 0

    def test_llc_holds_recent_victims(self):
        ops = [[store(PRIV + i * 64)] for i in range(200)]
        machine = run_script([ops])
        assert machine.stats.get("l2.evictions") > 0
        llc_lines = sum(len(array) for array in machine.hierarchy.llc)
        assert llc_lines > 0

    def test_invariants_after_random_run(self):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=200, seed=3))
        check_hierarchy_invariants(machine.hierarchy)
        mismatches, _total = final_image_matches_stores(machine)
        assert mismatches == 0


class TestRandomizedCoherence:
    @pytest.mark.parametrize("seed", range(6))
    def test_token_consistency_across_seeds(self, seed):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(
            RandomWorkload(
                num_threads=4, txns_per_thread=250, shared_fraction=0.5, seed=seed
            )
        )
        mismatches, total = final_image_matches_stores(machine)
        assert mismatches == 0
        assert total > 0
        check_hierarchy_invariants(machine.hierarchy)

    def test_loads_always_see_latest_store(self):
        """Interleaved store/load pairs on one hot line across VDs."""
        hot = 0x7777_0000
        scripts = [
            [[store(hot)], [load(hot)]] * 20,
            [[load(hot)], [store(hot)]] * 20,
            [[store(hot)], [store(hot)]] * 20,
            [[load(hot)]] * 40,
        ]
        machine = run_script(scripts)
        mismatches, total = final_image_matches_stores(machine)
        assert mismatches == 0 and total == 1

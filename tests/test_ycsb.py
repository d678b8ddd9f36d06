"""Tests for the YCSB-style workload driver."""

import pytest

from repro.sim import Machine
from repro.workloads import (
    AddressSpace,
    BPlusTree,
    HashTable,
    YCSB_MIXES,
    YCSBWorkload,
    make_workload,
)

from tests.util import tiny_config


def make_ycsb(mix, **kwargs):
    kwargs.setdefault("num_threads", 2)
    kwargs.setdefault("ops_per_thread", 60)
    kwargs.setdefault("records", 200)
    index = BPlusTree(AddressSpace().region())
    return YCSBWorkload(index, mix, **kwargs)


class TestMixes:
    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            make_ycsb("z")

    @pytest.mark.parametrize("mix", sorted(YCSB_MIXES))
    def test_mix_produces_ops(self, mix):
        workload = make_ycsb(mix)
        ops = [op for txn in workload.access_batches(0) for op in txn]
        assert ops

    def test_mix_c_is_read_only(self):
        workload = make_ycsb("c")
        kinds = {is_store for txn in workload.access_batches(0)
                 for _, _, is_store in txn}
        assert kinds == {False}

    def test_mix_a_writes_more_than_mix_b(self):
        def store_fraction(mix):
            workload = make_ycsb(mix, ops_per_thread=200)
            ops = [op for txn in workload.access_batches(0) for op in txn]
            return sum(1 for _, _, is_store in ops if is_store) / len(ops)

        a, b = store_fraction("a"), store_fraction("b")
        assert a > 2 * b > 0  # 50% updates vs 5% updates

    def test_mix_d_grows_key_population(self):
        workload = make_ycsb("d", ops_per_thread=300)
        before = len(workload.keys)
        list(workload.access_batches(0))
        assert len(workload.keys) > before

    def test_mix_e_scans(self):
        workload = make_ycsb("e", ops_per_thread=100)
        ops = [op for txn in workload.access_batches(0) for op in txn]
        # Scans touch leaf runs: far more loads per txn than point reads.
        assert len(ops) / 100 > 15

    def test_mix_e_requires_scannable_index(self):
        index = HashTable(AddressSpace().region())
        with pytest.raises(ValueError, match="scan"):
            YCSBWorkload(index, "e", num_threads=1, ops_per_thread=10)

    def test_zipf_skews_to_hot_keys(self):
        workload = make_ycsb("c", ops_per_thread=500)
        import random

        rng = random.Random(1)
        ranks = [workload._zipf.rank(rng, 200) for _ in range(2000)]
        hot = sum(1 for r in ranks if r < 20)
        assert hot > len(ranks) * 0.3  # top-10% of keys take >30% of traffic


class TestIntegration:
    def test_registered_factories(self):
        for mix in YCSB_MIXES:
            workload = make_workload(f"ycsb_{mix}", num_threads=2, scale=0.05)
            assert workload.num_threads == 2

    def test_runs_on_machine(self):
        machine = Machine(tiny_config(), capture_store_log=True)
        result = machine.run(make_ycsb("a", num_threads=4))
        assert result.transactions == 240
        golden = {l: t for l, _e, t, _v, _c in machine.hierarchy.store_log}
        image = machine.hierarchy.memory_image()
        assert all(image.get(l) == t for l, t in golden.items())

    def test_works_over_hash_table(self):
        index = HashTable(AddressSpace().region())
        workload = YCSBWorkload(index, "b", num_threads=2, ops_per_thread=50)
        machine = Machine(tiny_config())
        assert machine.run(workload).transactions == 100

    def test_read_mostly_mix_cheap_under_nvoverlay(self):
        """Mix C (read-only) leaves essentially nothing to snapshot."""
        from repro.core import NVOverlay

        machine = Machine(tiny_config(), scheme=NVOverlay())
        machine.run(make_ycsb("c", num_threads=4))
        assert machine.stats.get("nvm.bytes.data") == 0

"""Tests for the workload package: allocator, recorder, data structures,
STAMP generators and the registry."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    PAPER_WORKLOADS,
    AdaptiveRadixTree,
    AddressSpace,
    Arena,
    BPlusTree,
    HashTable,
    MemView,
    RedBlackTree,
    make_workload,
    workload_names,
)


class TestArena:
    def test_alloc_monotonic(self):
        arena = Arena(0x1000, 0x1000)
        a = arena.alloc(64)
        b = arena.alloc(64)
        assert b >= a + 64

    def test_alignment(self):
        arena = Arena(0x1000, 0x10000)
        addr = arena.alloc(10, align=64)
        assert addr % 64 == 0

    def test_free_list_reuse(self):
        arena = Arena(0x1000, 0x1000)
        a = arena.alloc(64)
        arena.free(a, 64)
        assert arena.alloc(64) == a

    def test_exhaustion(self):
        arena = Arena(0, 128)
        arena.alloc(128)
        with pytest.raises(MemoryError):
            arena.alloc(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            Arena(0, 0)
        with pytest.raises(ValueError):
            Arena(0, 64).alloc(0)

    def test_address_space_regions_disjoint(self):
        space = AddressSpace()
        a = space.region()
        b = space.region()
        assert a.base + a.size <= b.base


class TestMemView:
    def test_records_ops(self):
        view = MemView()
        view.read(0x100, 8)
        view.write(0x108, 8)
        ops = view.take_accesses()
        assert [is_store for _, _, is_store in ops] == [False, True]
        assert view.take_accesses() == []

    def test_range_strides(self):
        view = MemView()
        view.read_range(0, 256)
        assert len(view.take_accesses()) == 4
        view.write_range(0, 100, stride=32)
        assert len(view.take_accesses()) == 4


class TestHashTable:
    def _table(self):
        return HashTable(AddressSpace().region(), initial_buckets=8)

    def test_insert_lookup_roundtrip(self):
        table = self._table()
        view = MemView()
        assert table.insert(1, 100, view)
        assert table.lookup(1, view) == 100
        assert table.lookup(2, view) is None

    def test_update_existing(self):
        table = self._table()
        view = MemView()
        table.insert(1, 100, view)
        assert not table.insert(1, 200, view)
        assert table.lookup(1, view) == 200
        assert table.size == 1

    def test_rehash_preserves_contents(self):
        table = self._table()
        view = MemView()
        for key in range(100):
            table.insert(key, key * 7, view)
        assert table.rehashes >= 1
        for key in range(100):
            assert table.lookup(key, view) == key * 7

    def test_accesses_recorded(self):
        table = self._table()
        view = MemView()
        table.insert(42, 1, view)
        ops = view.take_accesses()
        assert any(is_store for _, _, is_store in ops)
        assert any(not is_store for _, _, is_store in ops)

    @given(st.dictionaries(st.integers(0, 10**6), st.integers(), max_size=120))
    @settings(max_examples=40)
    def test_behaves_like_dict(self, mapping):
        table = self._table()
        view = MemView()
        for key, value in mapping.items():
            table.insert(key, value, view)
        view.take_accesses()
        for key, value in mapping.items():
            assert table.lookup(key, view) == value


class TestBPlusTree:
    def _tree(self):
        return BPlusTree(AddressSpace().region())

    def test_insert_lookup(self):
        tree = self._tree()
        view = MemView()
        tree.insert(5, 50, view)
        assert tree.lookup(5, view) == 50
        assert tree.lookup(6, view) is None

    def test_update(self):
        tree = self._tree()
        view = MemView()
        tree.insert(5, 50, view)
        tree.insert(5, 51, view)
        assert tree.lookup(5, view) == 51
        assert tree.size == 1

    def test_splits_grow_height(self):
        tree = self._tree()
        view = MemView()
        for key in range(200):
            tree.insert(key, key, view)
        assert tree.splits > 0
        assert tree.height >= 2

    def test_shift_burst_on_leaf_insert(self):
        """Inserting before existing keys writes every shifted slot."""
        tree = self._tree()
        view = MemView()
        for key in (10, 20, 30, 40):
            tree.insert(key, key, view)
        view.take_accesses()
        tree.insert(5, 5, view)  # shifts 4 elements
        stores = [addr for addr, _, is_store in view.take_accesses() if is_store]
        assert len(stores) >= 8  # 4 shifted keys + 4 shifted values

    @given(st.lists(st.integers(0, 10**6), max_size=300))
    @settings(max_examples=30)
    def test_behaves_like_dict(self, keys):
        tree = self._tree()
        view = MemView()
        reference = {}
        for key in keys:
            tree.insert(key, key ^ 0xFF, view)
            reference[key] = key ^ 0xFF
            view.take_accesses()
        for key, value in reference.items():
            assert tree.lookup(key, view) == value
        assert tree.size == len(reference)

    def test_scan_returns_sorted_range(self):
        tree = self._tree()
        view = MemView()
        keys = random.Random(9).sample(range(10**6), 400)
        for key in keys:
            tree.insert(key, key, view)
        ordered = sorted(keys)
        start = ordered[100]
        assert tree.scan(start, 50, view) == ordered[100:150]

    def test_scan_crosses_leaf_boundaries(self):
        tree = self._tree()
        view = MemView()
        for key in range(100):
            tree.insert(key, key * 2, view)
        assert tree.scan(0, 100, view) == [k * 2 for k in range(100)]

    def test_scan_past_end_truncates(self):
        tree = self._tree()
        view = MemView()
        for key in range(10):
            tree.insert(key, key, view)
        assert tree.scan(5, 100, view) == [5, 6, 7, 8, 9]

    def test_scan_count_validation(self):
        with pytest.raises(ValueError):
            self._tree().scan(0, 0, MemView())

    @given(st.lists(st.integers(0, 10**5), min_size=1, max_size=200),
           st.integers(0, 10**5), st.integers(1, 40))
    @settings(max_examples=30)
    def test_scan_matches_sorted_reference(self, keys, start, count):
        tree = self._tree()
        view = MemView()
        for key in keys:
            tree.insert(key, key + 7, view)
        ordered = sorted(set(keys))
        expected = [k + 7 for k in ordered if k >= start][:count]
        assert tree.scan(start, count, view) == expected

    def test_sorted_structure(self):
        tree = self._tree()
        view = MemView()
        keys = random.Random(1).sample(range(10**6), 500)
        for key in keys:
            tree.insert(key, key, view)

        def leaves(node):
            if node.is_leaf:
                yield from node.keys
            else:
                for child in node.children:
                    yield from leaves(child)

        collected = list(leaves(tree.root))
        assert collected == sorted(keys)


class TestART:
    def _tree(self):
        return AdaptiveRadixTree(AddressSpace().region())

    def test_insert_lookup(self):
        tree = self._tree()
        view = MemView()
        tree.insert(0xDEADBEEF, 7, view)
        assert tree.lookup(0xDEADBEEF, view) == 7
        assert tree.lookup(0xDEADBEE0, view) is None

    def test_update(self):
        tree = self._tree()
        view = MemView()
        tree.insert(1, 1, view)
        tree.insert(1, 2, view)
        assert tree.lookup(1, view) == 2
        assert tree.size == 1

    def test_node_growth(self):
        tree = self._tree()
        view = MemView()
        # 300 keys differing in the first byte force Node4->16->48->256.
        for i in range(256):
            tree.insert(i << 56, i, view)
        assert tree.grows >= 3
        for i in range(256):
            assert tree.lookup(i << 56, view) == i

    def test_leaf_split_interposes_nodes(self):
        tree = self._tree()
        view = MemView()
        tree.insert(0x0102030405060708, 1, view)
        tree.insert(0x0102030405060709, 2, view)  # shares 7-byte prefix
        assert tree.lookup(0x0102030405060708, view) == 1
        assert tree.lookup(0x0102030405060709, view) == 2

    @given(st.lists(st.integers(0, (1 << 62) - 1), max_size=200))
    @settings(max_examples=30)
    def test_behaves_like_dict(self, keys):
        tree = self._tree()
        view = MemView()
        reference = {}
        for key in keys:
            tree.insert(key, key & 0xFFFF, view)
            reference[key] = key & 0xFFFF
            view.take_accesses()
        for key, value in reference.items():
            assert tree.lookup(key, view) == value


class TestRedBlackTree:
    def _tree(self):
        return RedBlackTree(AddressSpace().region())

    def test_insert_lookup(self):
        tree = self._tree()
        view = MemView()
        assert tree.insert(5, 50, view)
        assert tree.lookup(5, view) == 50
        assert tree.lookup(9, view) is None

    def test_update(self):
        tree = self._tree()
        view = MemView()
        tree.insert(5, 50, view)
        assert not tree.insert(5, 51, view)
        assert tree.lookup(5, view) == 51

    def test_invariants_random_inserts(self):
        tree = self._tree()
        view = MemView()
        for key in random.Random(3).sample(range(10**6), 500):
            tree.insert(key, key, view)
        tree.check_invariants()

    def test_invariants_sequential_inserts(self):
        """Sorted insertion exercises the rotation-heavy path."""
        tree = self._tree()
        view = MemView()
        for key in range(300):
            tree.insert(key, key, view)
        tree.check_invariants()
        assert tree.rotations > 0

    @given(st.lists(st.integers(0, 10**5), max_size=250))
    @settings(max_examples=30)
    def test_behaves_like_dict_with_invariants(self, keys):
        tree = self._tree()
        view = MemView()
        reference = {}
        for key in keys:
            tree.insert(key, key + 1, view)
            reference[key] = key + 1
        tree.check_invariants()
        for key, value in reference.items():
            assert tree.lookup(key, view) == value


class TestRegistry:
    def test_all_paper_workloads_registered(self):
        for name in PAPER_WORKLOADS:
            assert name in workload_names()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_workload("nope")

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_workload_produces_transactions(self, name):
        workload = make_workload(name, num_threads=4, scale=0.05, seed=2)
        total_ops = 0
        for tid in range(4):
            for txn in workload.access_batches(tid):
                total_ops += len(txn)
        assert total_ops > 0

    @pytest.mark.parametrize("name", ["uniform", "zipf", "stream", "bursty"])
    def test_synthetic_workloads(self, name):
        workload = make_workload(name, num_threads=2, scale=0.05, seed=2)
        txns = list(workload.access_batches(0))
        assert txns and all(len(t) > 0 for t in txns)

    def test_workloads_are_deterministic_per_seed(self):
        def collect(seed):
            workload = make_workload("ssca2", num_threads=2, scale=0.05, seed=seed)
            return [op for txn in workload.access_batches(0) for op in txn]

        assert collect(7) == collect(7)
        assert collect(7) != collect(8)

    def test_kmeans_rewrites_partition_every_pass(self):
        workload = make_workload("kmeans", num_threads=1, scale=0.2, seed=1)
        stores = set()
        repeated = 0
        for txn in workload.access_batches(0):
            for addr, _, is_store in txn:
                if is_store:
                    if addr in stores:
                        repeated += 1
                    stores.add(addr)
        assert repeated > 0  # passes re-dirty the same lines

    def test_yada_is_page_sparse(self):
        from repro.sim import page_of

        workload = make_workload("yada", num_threads=2, scale=0.3, seed=1)
        pages = set()
        for tid in range(2):
            for txn in workload.access_batches(tid):
                for addr, _, _ in txn:
                    pages.add(page_of(addr))
        spread = max(pages) - min(pages)
        assert spread > 10_000  # pages scattered over a large region


"""Tests for the radix mapping tables (per-epoch and Master)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EpochTable, MasterTable, RadixTree, VersionLocation
from repro.core.mapping import ENTRY_BYTES


class TestRadixTree:
    def test_insert_lookup(self):
        tree = RadixTree((4, 4))
        tree.insert(0x12, "a")
        assert tree.lookup(0x12) == "a"
        assert tree.lookup(0x13) is None

    def test_insert_returns_new_nodes_and_previous(self):
        tree = RadixTree((4, 4))
        new_nodes, previous = tree.insert(0x12, "a")
        assert new_nodes == 1 and previous is None
        new_nodes, previous = tree.insert(0x13, "b")  # same level-1 slot
        assert new_nodes == 0 and previous is None
        _, previous = tree.insert(0x12, "c")
        assert previous == "a"

    def test_entries_counted_once(self):
        tree = RadixTree((4, 4))
        tree.insert(1, "a")
        tree.insert(1, "b")
        tree.insert(2, "c")
        assert len(tree) == 2

    def test_key_too_large_rejected(self):
        tree = RadixTree((4, 4))
        with pytest.raises(ValueError):
            tree.insert(1 << 8, "x")

    def test_items_in_key_order(self):
        tree = RadixTree((4, 4))
        for key in (200, 3, 77, 120):
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [3, 77, 120, 200]

    def test_walks_leave_nothing_for_the_collector(self):
        """``items`` and ``check_consistency`` build no reference cycle
        (a nested generator recursing through its own closure cell
        would), so a finished walk is freed by reference counting."""
        import gc

        tree = RadixTree((4, 4, 4))
        for key in (200, 3, 77, 120, 4000):
            tree.insert(key, key)
        gc.collect()
        gc.disable()
        try:
            assert [k for k, _ in tree.items()] == [3, 77, 120, 200, 4000]
            tree.check_consistency()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_node_bytes_grows_with_spread(self):
        dense = RadixTree((8, 8))
        sparse = RadixTree((8, 8))
        for i in range(64):
            dense.insert(i, i)  # one leaf node
            sparse.insert(i << 8, i)  # one leaf node each
        assert sparse.node_bytes() > dense.node_bytes()

    def test_single_level_tree(self):
        tree = RadixTree((6,))
        tree.insert(63, "z")
        assert tree.lookup(63) == "z"
        assert tree.node_bytes() == 64 * ENTRY_BYTES

    @given(st.dictionaries(st.integers(0, (1 << 16) - 1), st.integers(), max_size=80))
    @settings(max_examples=60)
    def test_behaves_like_dict(self, mapping):
        tree = RadixTree((8, 8))
        for key, value in mapping.items():
            tree.insert(key, value)
        for key, value in mapping.items():
            assert tree.lookup(key) == value
        assert len(tree) == len(mapping)
        assert dict(tree.items()) == mapping


class TestEpochTable:
    def test_insert_and_lookup(self):
        table = EpochTable(epoch=3)
        loc = VersionLocation(1, 0)
        assert table.insert(0x1234, loc) is None
        assert table.lookup(0x1234) == loc
        assert table.lookup(0x1235) is None

    def test_replacement_returns_old_location(self):
        table = EpochTable(epoch=3)
        old = VersionLocation(1, 0)
        new = VersionLocation(2, 5)
        table.insert(7, old)
        assert table.insert(7, new) == old
        assert len(table) == 1

    def test_entries_iteration(self):
        table = EpochTable(epoch=1)
        lines = [5, 64, 70, 4096]
        for i, line in enumerate(lines):
            table.insert(line, VersionLocation(i, 0))
        assert [line for line, _ in table.entries()] == sorted(lines)

    def test_dram_bytes_counts_pages(self):
        table = EpochTable(epoch=1)
        table.insert(0, VersionLocation(0, 0))
        one_page = table.dram_bytes()
        table.insert(1, VersionLocation(0, 1))  # same page
        assert table.dram_bytes() == one_page
        table.insert(64, VersionLocation(1, 0))  # next page
        assert table.dram_bytes() > one_page


class TestMasterTable:
    def test_line_granularity(self):
        master = MasterTable()
        a, b = VersionLocation(0, 0), VersionLocation(0, 1)
        master.insert(64, a)
        master.insert(65, b)
        assert master.lookup(64) == a
        assert master.lookup(65) == b
        assert master.mapped_lines() == 2

    def test_insert_reports_replaced_location(self):
        master = MasterTable()
        old = VersionLocation(0, 0)
        master.insert(7, old)
        _nodes, previous = master.insert(7, VersionLocation(1, 1))
        assert previous == old

    def test_node_bytes_lower_bound(self):
        """Dense mapping approaches the 12.5% floor (8 B per 64 B line)."""
        master = MasterTable()
        num_lines = 64 * 64  # 64 full pages
        for line in range(num_lines):
            master.insert(line, VersionLocation(0, 0))
        leaf_bytes = num_lines * ENTRY_BYTES
        data_bytes = num_lines * 64
        assert master.node_bytes() >= leaf_bytes
        # Upper-level overhead stays small for a dense region.
        assert master.node_bytes() < leaf_bytes + 5 * 512 * ENTRY_BYTES
        assert master.node_bytes() / data_bytes < 0.20

    def test_five_levels(self):
        master = MasterTable()
        master.insert((1 << 41) + 3, VersionLocation(9, 9))
        assert master.lookup((1 << 41) + 3) == VersionLocation(9, 9)
        assert len(master.occupancy_per_level()) == 5


class TestVersionLocation:
    def test_equality_and_hash(self):
        assert VersionLocation(1, 2) == VersionLocation(1, 2)
        assert VersionLocation(1, 2) != VersionLocation(1, 3)
        assert len({VersionLocation(1, 2), VersionLocation(1, 2)}) == 1

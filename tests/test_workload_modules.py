"""Unit tests for the previously untested workload modules.

Covers the two index structures that only ever ran end-to-end (the
adaptive radix tree and the red-black tree), fills the accounting gaps
in the allocator and ``MemView`` recorder tests, and pins the stream
contract of every registered workload: well-formed accesses,
determinism under a fixed seed, thread-count scaling, and a recorded
digest of each frozen stream.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.workloads import Workload, freeze_workload, make_workload, workload_names
from repro.workloads.alloc import AddressSpace, Arena
from repro.workloads.art import NODE_SPECS, AdaptiveRadixTree
from repro.workloads.memview import MemView
from repro.workloads.rbtree import RedBlackTree

#: Per-workload digests of the frozen stream at a fixed size and seed.
STREAM_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "stream_digests.json").read_text()
)
#: Workloads whose stream is a fixed pattern the seed does not enter.
SEED_FREE = {"kmeans", "stream"}


def _fresh_arena() -> Arena:
    return AddressSpace().region()


class TestAdaptiveRadixTree:
    def test_insert_lookup_roundtrip(self):
        tree = AdaptiveRadixTree(_fresh_arena())
        view = MemView()
        rng = random.Random(7)
        keys = {rng.getrandbits(30) for _ in range(200)}
        for key in keys:
            tree.insert(key, key ^ 0x5A5A, view)
        assert tree.size == len(keys)
        for key in keys:
            assert tree.lookup(key, view) == key ^ 0x5A5A
        absent = next(k for k in range(1 << 30) if k not in keys)
        assert tree.lookup(absent, view) is None

    def test_update_existing_key(self):
        tree = AdaptiveRadixTree(_fresh_arena())
        view = MemView()
        tree.insert(42, 1, view)
        tree.insert(42, 2, view)
        assert tree.size == 1
        assert tree.lookup(42, view) == 2

    def test_node_growth_through_all_types(self):
        """256 distinct top key bytes force the root through
        Node4 → Node16 → Node48 → Node256."""
        tree = AdaptiveRadixTree(_fresh_arena())
        view = MemView()
        kinds = {tree.root.kind}
        for byte in range(256):
            tree.insert(byte << 56, byte, view)
            kinds.add(tree.root.kind)
        assert kinds == {4, 16, 48, 256}
        assert tree.grows == 3
        for byte in range(256):
            assert tree.lookup(byte << 56, view) == byte

    def test_growth_frees_old_node(self):
        """Growing copies into a bigger node and frees the old one, so
        the next same-size allocation reuses its address (slab reuse)."""
        tree = AdaptiveRadixTree(_fresh_arena())
        view = MemView()
        old_addr = tree.root.addr
        for byte in range(5):  # fifth distinct byte grows Node4 -> Node16
            tree.insert(byte << 56, byte, view)
        assert tree.root.kind == 16
        assert tree.arena.alloc(NODE_SPECS[4][1], align=64) == old_addr

    def test_accesses_recorded_with_stores(self):
        tree = AdaptiveRadixTree(_fresh_arena())
        view = MemView()
        tree.insert(1, 1, view)
        accesses = view.take_accesses()
        assert accesses and any(is_store for _, _, is_store in accesses)
        tree.lookup(1, view)
        assert all(not is_store for _, _, is_store in view.take_accesses())


class TestRedBlackTree:
    def test_insert_lookup_roundtrip(self):
        tree = RedBlackTree(_fresh_arena())
        view = MemView()
        rng = random.Random(11)
        keys = {rng.getrandbits(20) for _ in range(300)}
        for key in keys:
            assert tree.insert(key, key + 1, view) is True
        assert tree.size == len(keys)
        for key in keys:
            assert tree.lookup(key, view) == key + 1
        absent = next(k for k in range(1 << 20) if k not in keys)
        assert tree.lookup(absent, view) is None

    def test_duplicate_insert_updates_in_place(self):
        tree = RedBlackTree(_fresh_arena())
        view = MemView()
        assert tree.insert(5, 1, view) is True
        assert tree.insert(5, 9, view) is False
        assert tree.size == 1
        assert tree.lookup(5, view) == 9

    @pytest.mark.parametrize("order", ["ascending", "descending", "random"])
    def test_invariants_hold_under_insertion_orders(self, order):
        """The red-black properties (BST order, no red-red edge, equal
        black heights, black root) survive adversarial insert orders."""
        keys = list(range(128))
        if order == "descending":
            keys.reverse()
        elif order == "random":
            random.Random(3).shuffle(keys)
        tree = RedBlackTree(_fresh_arena())
        view = MemView()
        for key in keys:
            tree.insert(key, key, view)
        black_height = tree.check_invariants()
        # 128 sorted inserts into an unbalanced BST would be depth 128;
        # a legal red-black tree of 128 keys has black height <= 8.
        assert 1 <= black_height <= 8

    def test_rotations_record_stores(self):
        tree = RedBlackTree(_fresh_arena())
        view = MemView()
        for key in range(8):  # ascending order forces rotations
            tree.insert(key, key, view)
        accesses = view.take_accesses()
        assert sum(1 for _, _, is_store in accesses if is_store) > 8


class TestArenaAccounting:
    def test_allocated_bytes_tracks_alloc_and_free(self):
        arena = Arena(0x1000, 0x10000)
        a = arena.alloc(64)
        arena.alloc(32)
        assert arena.allocated_bytes == 96
        arena.free(a, 64)
        assert arena.allocated_bytes == 32

    def test_used_is_high_water_mark(self):
        """used() measures bump-cursor advance: frees recycle addresses
        but never shrink the footprint."""
        arena = Arena(0x1000, 0x10000)
        a = arena.alloc(64)
        arena.free(a, 64)
        assert arena.used() == 64
        arena.alloc(64)  # comes from the free list
        assert arena.used() == 64

    def test_rounding_matches_alignment(self):
        arena = Arena(0x1000, 0x10000)
        arena.alloc(10, align=16)
        assert arena.allocated_bytes == 16


class TestMemViewContract:
    def test_take_accesses_clears(self):
        view = MemView()
        view.read(0x100)
        view.write(0x108)
        assert len(view) == 2
        assert view.take_accesses() == [(0x100, 8, False), (0x108, 8, True)]
        assert len(view) == 0
        assert view.take_accesses() == []

    def test_range_chunk_never_exceeds_word(self):
        view = MemView()
        view.write_range(0x0, 16, stride=4)
        accesses = view.take_accesses()
        assert [addr for addr, _, _ in accesses] == [0x0, 0x4, 0x8, 0xC]
        assert all(size == 4 for _, size, _ in accesses)


def _digest(frozen) -> dict:
    """Access/batch counts and a sha256 over every thread's batches."""
    digest = hashlib.sha256()
    batches = accesses = 0
    for tid in range(frozen.num_threads):
        digest.update(f"thread {tid}\n".encode())
        for batch in frozen.access_batches(tid):
            batches += 1
            accesses += len(batch)
            digest.update(" ".join(
                f"{addr:x}:{size}:{int(is_store)}"
                for addr, size, is_store in batch
            ).encode() + b"\n")
    return {"accesses": accesses, "batches": batches,
            "sha256": digest.hexdigest()}


def test_access_batches_is_the_one_abstract_method():
    class NoStream(Workload):
        pass

    with pytest.raises(TypeError, match="access_batches"):
        NoStream(num_threads=1)


def test_digests_cover_every_workload():
    assert sorted(STREAM_DIGESTS["workloads"]) == workload_names()


@pytest.mark.parametrize("name", workload_names())
class TestWorkloadContracts:
    def _frozen_at_digest_point(self, name):
        return freeze_workload(make_workload(
            name, num_threads=STREAM_DIGESTS["threads"],
            scale=STREAM_DIGESTS["scale"], seed=STREAM_DIGESTS["seed"],
        ))

    def test_stream_matches_digest(self, name):
        frozen = self._frozen_at_digest_point(name)
        assert _digest(frozen) == STREAM_DIGESTS["workloads"][name]

    def test_accesses_are_well_formed(self, name):
        frozen = self._frozen_at_digest_point(name)
        for batches in frozen.batches.values():
            for batch in batches:
                assert isinstance(batch, list)
                for addr, size, is_store in batch:
                    assert type(addr) is int and addr >= 0
                    assert type(size) is int and size > 0
                    assert type(is_store) is bool

    def test_fixed_seed_is_deterministic(self, name):
        one = freeze_workload(make_workload(name, num_threads=4, scale=0.05,
                                            seed=9))
        two = freeze_workload(make_workload(name, num_threads=4, scale=0.05,
                                            seed=9))
        assert one.batches == two.batches

    def test_seed_changes_the_stream(self, name):
        one = freeze_workload(make_workload(name, num_threads=2, scale=0.05,
                                            seed=1))
        two = freeze_workload(make_workload(name, num_threads=2, scale=0.05,
                                            seed=2))
        assert (one.batches != two.batches) == (name not in SEED_FREE)

    def test_thread_count_scales_stream(self, name):
        per_thread = None
        for threads in (1, 2, 4):
            workload = make_workload(name, num_threads=threads, scale=0.05,
                                     seed=3)
            counts = [
                sum(1 for _ in workload.access_batches(tid))
                for tid in range(threads)
            ]
            assert len(set(counts)) == 1, "threads must get equal shares"
            if per_thread is None:
                per_thread = counts[0]
            assert counts[0] == per_thread
            assert sum(counts) == threads * per_thread

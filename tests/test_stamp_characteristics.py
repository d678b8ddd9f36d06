"""Characteristic tests for the STAMP-like generators.

DESIGN.md claims each generator reproduces the access axes the paper's
evaluation depends on (write-set size, locality, sharing, burstiness);
these tests pin those axes so a refactor cannot silently flatten them.
"""

from collections import Counter

from repro.sim import page_of
from repro.workloads import make_workload


def ops_of(name, threads=4, scale=0.3, seed=2):
    workload = make_workload(name, num_threads=threads, scale=scale, seed=seed)
    per_thread = {}
    for tid in range(threads):
        per_thread[tid] = [
            access for txn in workload.access_batches(tid) for access in txn
        ]
    return per_thread


class TestLabyrinth:
    def test_private_buffers_rewritten_every_transaction(self):
        per_thread = ops_of("labyrinth")
        stores = [addr for addr, _, is_store in per_thread[0] if is_store]
        counts = Counter(stores)
        # The private copy buffer's lines are written once per txn.
        assert counts.most_common(1)[0][1] > 10

    def test_threads_have_disjoint_private_buffers(self):
        per_thread = ops_of("labyrinth")
        hot = []
        for tid in (0, 1):
            stores = Counter(
                addr for addr, _, is_store in per_thread[tid] if is_store
            )
            hot.append({addr for addr, n in stores.items() if n > 5})
        assert not (hot[0] & hot[1])


class TestIntruder:
    def test_queue_head_is_globally_hot(self):
        per_thread = ops_of("intruder")
        all_stores = Counter(
            addr for ops in per_thread.values() for addr, _, is_store in ops
            if is_store
        )
        hottest, count = all_stores.most_common(1)[0]
        # Every transaction of every thread touches the queue head.
        total_txns = sum(1 for ops in per_thread.values() for op in ops) / 10
        assert count > 0.5 * len(per_thread) * 100  # ~txns_per_thread each


class TestKMeans:
    def test_partition_rewritten_across_passes(self):
        per_thread = ops_of("kmeans", scale=0.5)
        stores = Counter(
            addr for addr, size, is_store in per_thread[0]
            if is_store and size == 8 and addr % 64 == 56
        )
        # Label fields are re-dirtied once per pass: multiple passes seen.
        assert stores and max(stores.values()) >= 2

    def test_centroids_shared_across_threads(self):
        per_thread = ops_of("kmeans")
        per_thread_stores = [
            {addr for addr, _, is_store in ops if is_store}
            for ops in per_thread.values()
        ]
        shared = per_thread_stores[0] & per_thread_stores[1]
        assert shared  # the centroid lines


class TestYada:
    def test_leaf_density_high_but_pages_scattered(self):
        per_thread = ops_of("yada")
        pages = Counter(
            page_of(addr) for ops in per_thread.values() for addr, _, _ in ops
        )
        assert max(pages) - min(pages) > 1000  # scattered placement
        # Dense within pages: average touched page sees many accesses.
        assert sum(pages.values()) / len(pages) > 20


class TestGenome:
    def test_alternates_insert_and_lookup_phases(self):
        workload = make_workload("genome", num_threads=1, scale=0.2, seed=2)
        txns = list(workload.access_batches(0))
        store_counts = [sum(1 for _, _, is_store in t if is_store) for t in txns]
        # Insert txns write; matching txns are read-only.
        assert any(c > 0 for c in store_counts[0::2])
        assert all(c == 0 for c in store_counts[1::2])


class TestSSCA2:
    def test_read_dominated(self):
        per_thread = ops_of("ssca2")
        ops = per_thread[0]
        loads = sum(1 for _, _, is_store in ops if not is_store)
        stores = len(ops) - loads
        assert loads > 3 * stores

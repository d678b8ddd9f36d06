"""STAMP-like workload generators (§VI-C).

Running the native STAMP suite is impossible inside a pure-Python
simulator, so each benchmark is replaced by a generator reproducing the
access characteristics that drive the paper's evaluation: write-set size
per epoch, spatial locality, sharing degree, and burstiness (the
substitution is documented in DESIGN.md).  Several reuse the real data
structures from this package, so their traces contain genuine pointer
chasing rather than synthetic noise:

* **labyrinth** — threads copy grid regions into a private buffer and
  write back short paths: large private write bursts, little sharing.
* **bayes** — random dataset reads plus small writes into a shared
  structure learned incrementally.
* **yada** — mesh refinement over a *sparse* node set: few lines per
  page, the paper's Fig. 13 metadata outlier.
* **intruder** — a contended shared queue plus packet reassembly into a
  shared hash table: small transactions, heavy coherence traffic.
* **vacation** — OLTP-ish reservation mix over a shared red-black tree.
* **kmeans** — streaming passes over per-thread point partitions with
  per-point label writes and hammered shared centroids: the L2-thrashing
  workload that favours LLC-level schemes (§VII-B).
* **genome** — segment dedup into a shared hash table, then streaming
  matching reads.
* **ssca2** — scattered reads/writes over a large graph array.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..sim.trace import Access
from .alloc import AddressSpace
from .base import Workload, register_workload
from .hash_table import HashTable
from .memview import MemView
from .rbtree import RedBlackTree

LINE = 64


class _StampWorkload(Workload):
    """Common scaffolding: per-thread RNG + transaction count."""

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.seed = seed

    def _rng(self, thread_id: int) -> random.Random:
        return random.Random((self.seed << 10) ^ (thread_id * 7919))

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = self._rng(thread_id)
        view = MemView()
        for index in range(self.txns_per_thread):
            self.build_txn(thread_id, index, rng, view)
            yield view.take_accesses()

    def build_txn(self, thread_id: int, index: int, rng: random.Random, view: MemView) -> None:
        raise NotImplementedError


class Labyrinth(_StampWorkload):
    """Grid routing: private region copies + short shared write-backs."""

    GRID_BYTES = 1 << 18
    COPY_BYTES = 2048
    #: Routed paths are long contiguous runs written back into the grid.
    PATH_BYTES = 1024

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        space = AddressSpace()
        self.grid = space.region().alloc(self.GRID_BYTES, align=4096)
        # Per-thread buffers are packed into one region, page-aligned so
        # threads never share lines (a real allocator would do the same).
        buffers = space.region()
        self.private = [
            buffers.alloc(self.COPY_BYTES, align=4096)
            for _ in range(num_threads)
        ]

    def build_txn(self, thread_id, index, rng, view):
        src = self.grid + rng.randrange(0, self.GRID_BYTES - self.COPY_BYTES, LINE)
        view.read_range(src, self.COPY_BYTES)
        view.write_range(self.private[thread_id], self.COPY_BYTES)
        path = self.grid + rng.randrange(0, self.GRID_BYTES - self.PATH_BYTES, LINE)
        view.write_range(path, self.PATH_BYTES)


class Bayes(_StampWorkload):
    """Bayesian network learning: scattered reads + adtree updates."""

    DATASET_BYTES = 1 << 17
    ADTREE_BYTES = 1 << 17

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        space = AddressSpace()
        self.dataset = space.region().alloc(self.DATASET_BYTES, align=4096)
        self.adtree = space.region().alloc(self.ADTREE_BYTES, align=4096)

    def build_txn(self, thread_id, index, rng, view):
        for _ in range(12):
            view.read(self.dataset + rng.randrange(0, self.DATASET_BYTES, 8), 8)
        # Adtree updates cluster around a random region of the structure
        # (node counts for related variables are adjacent).
        base = rng.randrange(0, self.ADTREE_BYTES - 512, 64)
        for offset in range(0, 192, 64):
            view.read(self.adtree + base + offset, 8)
            view.write(self.adtree + base + offset, 8)


class Yada(_StampWorkload):
    """Delaunay refinement: sparse mesh nodes, few lines per page."""

    NODE_BYTES = 48
    #: Mesh pages are scattered sparsely across a huge region (low inner
    #: radix-node occupancy — the paper measures 3.54% — while pages
    #: themselves stay dense: 93.66% of leaf slots map a line).
    REGION_BYTES = 1 << 28
    PAGE = 4096

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        self.region = AddressSpace().region().alloc(self.REGION_BYTES, align=4096)
        placement = random.Random(seed ^ 0xDA)
        # Sparse clusters of ~16 dense pages: inner radix nodes end up a
        # few percent occupied while leaves stay nearly full, matching
        # the paper's yada analysis (18.14 pages per inner node).
        pages = [
            base + page_index * self.PAGE
            for base in (
                self.region + placement.randrange(0, self.REGION_BYTES - (1 << 16), 1 << 21)
                for _ in range(6)
            )
            for page_index in range(16)
        ]
        # Dense node placement within each sparsely-chosen page.
        per_page = self.PAGE // LINE
        self.nodes = [
            page + slot * LINE for page in pages for slot in range(per_page)
        ]
        self._fresh_pages = pages

    def build_txn(self, thread_id, index, rng, view):
        cavity = rng.sample(self.nodes, 6)
        for addr in cavity:
            view.read(addr, self.NODE_BYTES)
        for addr in cavity[:3]:
            view.write(addr, self.NODE_BYTES)
        # Refinement touches a fresh node; rarely the mesh spills onto a
        # brand-new sparsely-placed page (keeping inner occupancy low).
        if rng.random() < 0.005:
            page = self.region + rng.randrange(0, self.REGION_BYTES, self.PAGE)
            self._fresh_pages.append(page)
        else:
            page = self._fresh_pages[rng.randrange(len(self._fresh_pages))]
        fresh = page + rng.randrange(0, self.PAGE, LINE)
        view.write(fresh, self.NODE_BYTES)
        self.nodes[rng.randrange(len(self.nodes))] = fresh


class Intruder(_StampWorkload):
    """Network intrusion detection: shared queue + reassembly table."""

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        space = AddressSpace()
        self.queue_head = space.region().alloc(LINE, align=64)
        self.table = HashTable(space.region())
        self.packets = space.region().alloc(1 << 16, align=4096)

    def build_txn(self, thread_id, index, rng, view):
        # Pop from the contended queue: read-modify-write one hot line.
        view.read(self.queue_head, 8)
        view.write(self.queue_head, 8)
        packet = self.packets + rng.randrange(0, 1 << 16, LINE)
        view.read_range(packet, 128)
        flow = rng.getrandbits(20)
        self.table.insert(flow, packet, view)
        if rng.random() < 0.3:
            self.table.lookup(rng.getrandbits(20), view)


class Vacation(_StampWorkload):
    """Travel reservation OLTP over a shared red-black tree."""

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        self.db = RedBlackTree(AddressSpace().region())
        warm = random.Random(seed ^ 0x7A)
        view = MemView()
        for _ in range(512):
            self.db.insert(warm.getrandbits(24), 1, view)
        view.take_accesses()

    def build_txn(self, thread_id, index, rng, view):
        for _ in range(3):
            self.db.lookup(rng.getrandbits(24), view)
        if rng.random() < 0.35:
            self.db.insert(rng.getrandbits(24), index, view)


class KMeans(_StampWorkload):
    """Clustering: streaming point passes + hammered shared centroids.

    Each "transaction" processes a chunk of the thread's partition: the
    point line is read, its label written in place, and one of a few
    shared centroid accumulators updated.  The whole partition is
    re-dirtied every pass while only fitting in the LLC, producing the
    L2-thrashing capacity evictions §VII-B dissects.
    """

    POINT_BYTES = 64
    #: Sized so the full point set fits the (scaled) LLC but thrashes the
    #: per-VD L2s — the regime where the paper's kmeans analysis lives.
    POINTS_PER_THREAD = 192
    CHUNK = 16
    NUM_CENTROIDS = 16

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        space = AddressSpace()
        partition_bytes = self.POINTS_PER_THREAD * self.POINT_BYTES
        region = space.region()
        self.partitions = [
            region.alloc(partition_bytes, align=4096) for _ in range(num_threads)
        ]
        self.centroids = space.region().alloc(self.NUM_CENTROIDS * LINE, align=64)
        self._cursor = [0] * num_threads

    def build_txn(self, thread_id, index, rng, view):
        base = self.partitions[thread_id]
        cursor = self._cursor[thread_id]
        for i in range(self.CHUNK):
            point = (cursor + i) % self.POINTS_PER_THREAD
            addr = base + point * self.POINT_BYTES
            view.read(addr, self.POINT_BYTES)
            view.write(addr + 56, 8)  # label field, same line
            centroid = self.centroids + (point % self.NUM_CENTROIDS) * LINE
            view.read(centroid, 8)
            view.write(centroid, 8)
        self._cursor[thread_id] = (cursor + self.CHUNK) % self.POINTS_PER_THREAD


class Genome(_StampWorkload):
    """Gene sequencing: segment dedup into a shared table + matching."""

    SEGMENTS_BYTES = 1 << 17

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        space = AddressSpace()
        self.segments = space.region().alloc(self.SEGMENTS_BYTES, align=4096)
        self.table = HashTable(space.region())

    def build_txn(self, thread_id, index, rng, view):
        offset = rng.randrange(0, self.SEGMENTS_BYTES - 256, LINE)
        view.read_range(self.segments + offset, 256)
        segment = rng.getrandbits(22)
        if index % 2 == 0:
            self.table.insert(segment, offset, view)  # dedup phase
        else:
            self.table.lookup(segment, view)  # matching phase


class SSCA2(_StampWorkload):
    """Graph kernel: scattered adjacency reads, sparse counter writes."""

    GRAPH_BYTES = 1 << 20

    def __init__(self, num_threads: int, txns_per_thread: int, seed: int) -> None:
        super().__init__(num_threads, txns_per_thread, seed)
        self.graph = AddressSpace().region().alloc(self.GRAPH_BYTES, align=4096)

    def build_txn(self, thread_id, index, rng, view):
        for _ in range(8):
            view.read(self.graph + rng.randrange(0, self.GRAPH_BYTES, 8), 8)
        for _ in range(2):
            view.write(self.graph + rng.randrange(0, self.GRAPH_BYTES, 8), 8)


def _register(name: str, cls, default_txns: int) -> None:
    @register_workload(name)
    def factory(num_threads: int, scale: float, seed: int, _cls=cls, _txns=default_txns) -> Workload:
        return _cls(num_threads, max(1, int(_txns * scale)), seed)


_register("labyrinth", Labyrinth, 80)
_register("bayes", Bayes, 250)
_register("yada", Yada, 300)
_register("intruder", Intruder, 400)
_register("vacation", Vacation, 300)
_register("kmeans", KMeans, 250)
_register("genome", Genome, 300)
_register("ssca2", SSCA2, 350)

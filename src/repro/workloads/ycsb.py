"""YCSB-style key-value workload mixes over the index structures.

The Yahoo! Cloud Serving Benchmark's canonical mixes, driven against any
of this package's indexes (B+Tree, ART, hash table, red-black tree).
Useful beyond the paper's insert-only evaluation: read-heavy mixes show
where NVOverlay's write-path machinery costs nothing, update-heavy mixes
stress same-line re-versioning across epochs.

Mixes (request distribution zipfian unless noted):

* **A** — update heavy: 50% reads / 50% updates
* **B** — read mostly: 95% reads / 5% updates
* **C** — read only
* **D** — read latest: 95% reads / 5% inserts (reads skew to new keys)
* **E** — scan heavy: 95% short range scans / 5% inserts (B+Tree only —
  scans walk the leaf sibling chain)
* **F** — read-modify-write: 50% reads / 50% RMW
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..sim.trace import Access
from .alloc import AddressSpace
from .base import Workload, register_workload
from .btree import BPlusTree
from .hash_table import HashTable
from .memview import MemView

MIXES = {
    "a": {"read": 0.5, "update": 0.5},
    "b": {"read": 0.95, "update": 0.05},
    "c": {"read": 1.0},
    "d": {"read": 0.95, "insert": 0.05},
    "e": {"scan": 0.95, "insert": 0.05},
    "f": {"read": 0.5, "rmw": 0.5},
}
SCAN_LENGTH = 32


class _ZipfSampler:
    """Zipf-distributed ranks over a growing key population."""

    def __init__(self, theta: float = 0.99, max_rank: int = 4096) -> None:
        weights = [1.0 / (i + 1) ** theta for i in range(max_rank)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def rank(self, rng: random.Random, population: int) -> int:
        u = rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo % max(population, 1)


class YCSBWorkload(Workload):
    """One YCSB mix over a shared index."""

    def __init__(
        self,
        index,
        mix: str,
        num_threads: int,
        ops_per_thread: int,
        records: int = 2000,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        if mix not in MIXES:
            raise ValueError(f"unknown YCSB mix {mix!r}; known: {sorted(MIXES)}")
        if "scan" in MIXES[mix] and not hasattr(index, "scan"):
            raise ValueError(
                f"mix {mix!r} needs range scans; {type(index).__name__} "
                "has none (use the B+Tree)"
            )
        self.index = index
        self.mix = MIXES[mix]
        self.mix_name = mix
        self.ops_per_thread = ops_per_thread
        self.seed = seed
        self._zipf = _ZipfSampler()
        # Load phase: populate the index (not part of the measured run).
        loader = random.Random(seed ^ 0x5C5B)
        view = MemView()
        self.keys: List[int] = []
        for _ in range(records):
            key = loader.getrandbits(30)
            self.index.insert(key, key, view)
            self.keys.append(key)
        view.take_accesses()

    def _pick_key(self, rng: random.Random, latest_bias: bool) -> int:
        rank = self._zipf.rank(rng, len(self.keys))
        if latest_bias:
            return self.keys[len(self.keys) - 1 - rank]
        return self.keys[rank]

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = random.Random((self.seed << 9) ^ thread_id)
        view = MemView()
        take = view.take_accesses
        ops, weights = zip(*self.mix.items())
        latest_bias = self.mix_name == "d"
        for _ in range(self.ops_per_thread):
            op = rng.choices(ops, weights)[0]
            if op == "read":
                self.index.lookup(self._pick_key(rng, latest_bias), view)
            elif op == "update":
                self.index.insert(self._pick_key(rng, False), rng.getrandbits(16), view)
            elif op == "insert":
                key = rng.getrandbits(30)
                self.index.insert(key, key, view)
                self.keys.append(key)
            elif op == "scan":
                start = self._pick_key(rng, False)
                self.index.scan(start, rng.randrange(4, SCAN_LENGTH), view)
            elif op == "rmw":
                key = self._pick_key(rng, False)
                self.index.lookup(key, view)
                self.index.insert(key, rng.getrandbits(16), view)
            yield take()


def _make_ycsb(mix: str):
    def factory(num_threads: int, scale: float, seed: int) -> Workload:
        index = BPlusTree(AddressSpace().region())
        return YCSBWorkload(
            index, mix, num_threads,
            ops_per_thread=max(1, int(400 * scale)), seed=seed,
        )

    return factory


for _mix in MIXES:
    register_workload(f"ycsb_{_mix}")(_make_ycsb(_mix))

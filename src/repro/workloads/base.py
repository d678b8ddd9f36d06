"""Workload interface, registry, and the bulk-insert index driver.

A workload exposes per-thread transaction streams.  The data-structure
benchmarks (§VI-C: BTreeOLC, ARTOLC, red-black tree, hash table) all run
the same driver: every thread bulk-inserts random keys into one shared
index, mimicking bulk insertion into a database index.  The STAMP-like
workloads define their own streams.

``WORKLOADS`` maps the paper's benchmark names to factories so the
harness and benches can instantiate them uniformly:

    make_workload("btree", num_threads=16, scale=1.0, seed=7)
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List

from ..sim.trace import Access
from .memview import MemView


class Workload(ABC):
    """Per-thread transaction streams over simulated memory.

    Subclasses implement ``access_batches(tid)``: a lazy iterator that
    yields one list of flat ``(addr, size, is_store)`` accesses per
    transaction, usually recorded into a ``MemView`` and handed over
    with ``take_accesses()``.
    """

    name = "workload"

    def __init__(self, num_threads: int) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        self.num_threads = num_threads

    @abstractmethod
    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        """The transaction stream of one thread."""


class IndexInsertWorkload(Workload):
    """Bulk insertion of random keys into one shared index structure.

    The structure must expose ``insert(key, value, view)`` recording its
    accesses into the ``MemView``.  Streams are lazy: structure state
    mutates in exactly the order the simulator interleaves transactions.
    """

    def __init__(
        self,
        index,
        num_threads: int,
        inserts_per_thread: int,
        seed: int = 1,
        key_bits: int = 30,
    ) -> None:
        super().__init__(num_threads)
        self.index = index
        self.inserts_per_thread = inserts_per_thread
        self.seed = seed
        self.key_bits = key_bits

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = random.Random((self.seed << 8) ^ thread_id)
        view = MemView()
        take = view.take_accesses
        insert = self.index.insert
        for _ in range(self.inserts_per_thread):
            key = rng.getrandbits(self.key_bits)
            insert(key, key ^ 0x5A5A, view)
            yield take()


#: Registry: benchmark name -> factory(num_threads, scale, seed) -> Workload.
#: ``scale`` multiplies the default operation counts (1.0 = harness default,
#: which is itself ~100x below the paper's run lengths — see DESIGN.md).
WorkloadFactory = Callable[[int, float, int], Workload]
WORKLOADS: Dict[str, WorkloadFactory] = {}


def register_workload(name: str):
    def decorator(factory: WorkloadFactory) -> WorkloadFactory:
        if name in WORKLOADS:
            raise ValueError(f"duplicate workload {name!r}")
        WORKLOADS[name] = factory
        return factory

    return decorator


def make_workload(
    name: str, num_threads: int = 16, scale: float = 1.0, seed: int = 1
) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    return factory(num_threads, scale, seed)


def workload_names() -> List[str]:
    return sorted(WORKLOADS)

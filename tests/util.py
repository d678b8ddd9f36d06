"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim import MESI, Machine, SystemConfig, load, store
from repro.sim.hierarchy import Hierarchy
from repro.sim.trace import Access
from repro.workloads import Workload


def tiny_config(**overrides) -> SystemConfig:
    """A 4-core, 2-VD config small enough to force evictions quickly."""
    config = SystemConfig.small()
    if overrides:
        config = config.with_changes(**overrides)
    return config


class ScriptedWorkload(Workload):
    """A workload driven by explicit per-thread transaction lists."""

    def __init__(self, scripts: Sequence[Sequence[Sequence[Access]]]) -> None:
        super().__init__(len(scripts))
        self.scripts = [list(txns) for txns in scripts]

    def access_batches(self, thread_id: int):
        yield from self.scripts[thread_id]


class RandomWorkload(Workload):
    """Random loads/stores over private + shared regions (seeded)."""

    def __init__(
        self,
        num_threads: int = 4,
        txns_per_thread: int = 300,
        footprint: int = 1 << 14,
        shared_fraction: float = 0.3,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.footprint = footprint
        self.shared_fraction = shared_fraction
        self.seed = seed

    def access_batches(self, thread_id: int):
        rng = random.Random((self.seed << 8) ^ thread_id)
        private = 0x1000_0000 * (thread_id + 1)
        shared = 0x9000_0000
        for _ in range(self.txns_per_thread):
            ops: List[Access] = []
            for _ in range(4):
                base = shared if rng.random() < self.shared_fraction else private
                addr = base + rng.randrange(0, self.footprint, 8)
                ops.append(store(addr) if rng.random() < 0.5 else load(addr))
            yield ops


def check_hierarchy_invariants(hierarchy: Hierarchy) -> None:
    """Assert the structural coherence invariants of the hierarchy."""
    from repro.sim.validate import validate_hierarchy

    validate_hierarchy(hierarchy)


def final_image_matches_stores(machine: Machine) -> Tuple[int, int]:
    """(mismatches, total) between the hierarchy image and the store log."""
    assert machine.hierarchy.store_log is not None, "run with capture_store_log"
    golden: Dict[int, int] = {}
    for line, _epoch, token, _vd, _core in machine.hierarchy.store_log:
        golden[line] = token
    image = machine.hierarchy.memory_image()
    mismatches = sum(1 for line, token in golden.items() if image.get(line) != token)
    return mismatches, len(golden)

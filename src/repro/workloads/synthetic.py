"""Generic synthetic access-pattern workloads.

Used by unit tests and the sensitivity studies when a controlled,
single-knob pattern is more informative than a full benchmark: uniform
random, zipfian (hot-set), pure streaming, and bursty write phases.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List

from ..sim.trace import Access
from .alloc import AddressSpace
from .base import Workload, register_workload
from .memview import MemView

LINE = 64


class UniformRandom(Workload):
    """Uniform loads/stores over per-thread regions + a shared region."""

    name = "uniform"

    def __init__(
        self,
        num_threads: int,
        txns_per_thread: int = 500,
        footprint: int = 1 << 16,
        shared_fraction: float = 0.2,
        store_fraction: float = 0.5,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.footprint = footprint
        self.shared_fraction = shared_fraction
        self.store_fraction = store_fraction
        self.seed = seed
        space = AddressSpace()
        self.private = [
            space.region().alloc(footprint, align=4096) for _ in range(num_threads)
        ]
        self.shared = space.region().alloc(footprint, align=4096)

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = random.Random((self.seed << 6) ^ thread_id)
        view = MemView()
        take = view.take_accesses
        for _ in range(self.txns_per_thread):
            for _ in range(4):
                region = (
                    self.shared
                    if rng.random() < self.shared_fraction
                    else self.private[thread_id]
                )
                addr = region + rng.randrange(0, self.footprint, 8)
                if rng.random() < self.store_fraction:
                    view.write(addr, 8)
                else:
                    view.read(addr, 8)
            yield take()


class Zipfian(Workload):
    """Zipf-distributed accesses over a shared region (hot lines)."""

    name = "zipf"

    def __init__(
        self,
        num_threads: int,
        txns_per_thread: int = 500,
        num_lines: int = 4096,
        theta: float = 0.9,
        store_fraction: float = 0.5,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.store_fraction = store_fraction
        self.seed = seed
        self.base = AddressSpace().region().alloc(num_lines * LINE, align=4096)
        # Precompute the zipf CDF once.
        weights = [1.0 / (i + 1) ** theta for i in range(num_lines)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def _pick(self, rng: random.Random) -> int:
        u = rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = random.Random((self.seed << 6) ^ thread_id)
        view = MemView()
        take = view.take_accesses
        for _ in range(self.txns_per_thread):
            for _ in range(4):
                addr = self.base + self._pick(rng) * LINE
                if rng.random() < self.store_fraction:
                    view.write(addr, 8)
                else:
                    view.read(addr, 8)
            yield take()


class Streaming(Workload):
    """Sequential read-modify-write sweeps over per-thread arrays."""

    name = "stream"

    def __init__(
        self,
        num_threads: int,
        txns_per_thread: int = 500,
        array_bytes: int = 1 << 16,
        chunk: int = 512,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.array_bytes = array_bytes
        self.chunk = chunk
        space = AddressSpace()
        self.arrays = [
            space.region().alloc(array_bytes, align=4096) for _ in range(num_threads)
        ]

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        view = MemView()
        take = view.take_accesses
        cursor = 0
        for _ in range(self.txns_per_thread):
            base = self.arrays[thread_id] + cursor
            view.read_range(base, self.chunk)
            view.write_range(base, self.chunk)
            cursor = (cursor + self.chunk) % (self.array_bytes - self.chunk)
            yield take()


class BurstyWrites(Workload):
    """Quiet read phases punctuated by dense write bursts."""

    name = "bursty"

    def __init__(
        self,
        num_threads: int,
        txns_per_thread: int = 500,
        footprint: int = 1 << 16,
        burst_every: int = 20,
        burst_bytes: int = 4096,
        seed: int = 1,
    ) -> None:
        super().__init__(num_threads)
        self.txns_per_thread = txns_per_thread
        self.footprint = footprint
        self.burst_every = burst_every
        self.burst_bytes = burst_bytes
        self.seed = seed
        space = AddressSpace()
        self.regions = [
            space.region().alloc(footprint, align=4096) for _ in range(num_threads)
        ]

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        rng = random.Random((self.seed << 6) ^ thread_id)
        view = MemView()
        take = view.take_accesses
        base = self.regions[thread_id]
        for index in range(self.txns_per_thread):
            if index % self.burst_every == self.burst_every - 1:
                start = base + rng.randrange(0, self.footprint - self.burst_bytes, LINE)
                view.write_range(start, self.burst_bytes)
            else:
                for _ in range(4):
                    view.read(base + rng.randrange(0, self.footprint, 8), 8)
            yield take()


@register_workload("uniform")
def _make_uniform(num_threads: int, scale: float, seed: int) -> Workload:
    return UniformRandom(num_threads, txns_per_thread=max(1, int(500 * scale)), seed=seed)


@register_workload("zipf")
def _make_zipf(num_threads: int, scale: float, seed: int) -> Workload:
    return Zipfian(num_threads, txns_per_thread=max(1, int(500 * scale)), seed=seed)


@register_workload("stream")
def _make_stream(num_threads: int, scale: float, seed: int) -> Workload:
    return Streaming(num_threads, txns_per_thread=max(1, int(500 * scale)), seed=seed)


@register_workload("bursty")
def _make_bursty(num_threads: int, scale: float, seed: int) -> Workload:
    return BurstyWrites(num_threads, txns_per_thread=max(1, int(500 * scale)), seed=seed)

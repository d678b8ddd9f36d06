"""Access-recording facade the workload data structures run against.

Workload code (B+Tree, ART, hash table...) manipulates *simulated*
memory: every field read/write goes through a ``MemView``, which records
a flat ``(addr, size, is_store)`` access at the corresponding byte
address.  The structure's logical state lives in ordinary Python
objects; what the simulator consumes is the faithful address trace of
the operations — descents, splits, shifts, rehashes — at the layout the
structure defines.

One ``MemView`` accumulates the accesses of a single operation, which
the workload then hands over with ``take_accesses()`` and yields as one
transaction.
"""

from __future__ import annotations

from typing import List

from ..sim.trace import Access


class MemView:
    """Collects the memory accesses of one logical operation."""

    def __init__(self) -> None:
        self._accesses: List[Access] = []

    def read(self, addr: int, size: int = 8) -> None:
        self._accesses.append((addr, size, False))

    def write(self, addr: int, size: int = 8) -> None:
        self._accesses.append((addr, size, True))

    def read_range(self, addr: int, size: int, stride: int = 64) -> None:
        """Touch a range with one load per ``stride`` bytes (streaming)."""
        append = self._accesses.append
        chunk = min(stride, 8)
        for offset in range(0, max(size, 1), stride):
            append((addr + offset, chunk, False))

    def write_range(self, addr: int, size: int, stride: int = 64) -> None:
        append = self._accesses.append
        chunk = min(stride, 8)
        for offset in range(0, max(size, 1), stride):
            append((addr + offset, chunk, True))

    def take_accesses(self) -> List[Access]:
        """Return and clear the recorded (addr, size, is_store) tuples."""
        accesses, self._accesses = self._accesses, []
        return accesses

    def __len__(self) -> int:
        return len(self._accesses)

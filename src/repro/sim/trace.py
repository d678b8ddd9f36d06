"""The access record workloads produce and the simulator consumes.

Workloads produce per-thread streams of *transactions*: lists of flat
``(addr, size, is_store)`` accesses that execute back-to-back on one
core (e.g. all the node accesses of a single B+Tree insert).  The
runner interleaves transactions across threads by simulated clock, so
the unit of interleaving is the transaction, not the instruction — see
DESIGN.md fidelity notes.
"""

from __future__ import annotations

from typing import Tuple

#: One memory access: byte address, size in bytes, store flag.
Access = Tuple[int, int, bool]


def load(addr: int, size: int = 8) -> Access:
    return (addr, size, False)


def store(addr: int, size: int = 8) -> Access:
    return (addr, size, True)

"""Host-speed reference: a fixed pure-Python cache model, timed beside the runs.

The benchmark's host-time metrics are reported at a nominal host speed:
a raw rate is multiplied (a raw time divided) by ``NOMINAL_RATE /
measured reference rate``, where the reference rate is measured in the
same process, in chunks run between the cells of each timed call, so
over the same stretch of wall time.  On a shared host the machine slows by up to 2x for
minutes at a time, mostly when neighbours crowd the shared last-level
cache.  The reference is built to slow the same way the simulator does:
interpreter-bound Python that walks dicts spread over a working set of
tens of MB, larger than the private caches.  A small reference that
fits in them did not slow with the simulator.

The reference imports nothing from ``repro``: a change to the simulator
cannot move it.  Change it only together with ``NOMINAL_RATE``, and
only in a change that redefines the benchmark.
"""

from __future__ import annotations

import random
import statistics
from functools import lru_cache
from time import perf_counter
from typing import Dict, List, Tuple

#: Reference accesses per second, about the median on the 2-vCPU
#: x86-64 VM the benchmark was tuned on.  A scale factor only: it fixes
#: the units, not the ratios between runs.
NOMINAL_RATE = 250_000.0

#: Accesses in one reference chunk (0.1 s at the nominal rate).
CHUNK = 25_000

#: Directory lines: a dict of 2^19 ints, ~55 MB once every line has
#: been written, the order of the simulator's own working set.  Ints
#: only, so the garbage collector never scans the reference's state
#: while it times the simulator.
_LINES = 1 << 19


class _Level:
    """One set-associative LRU cache level: dict per set, oldest first."""

    __slots__ = ("sets", "mask", "ways")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.sets = [dict() for _ in range(num_sets)]
        self.mask = num_sets - 1
        self.ways = ways

    def access(self, line: int) -> bool:
        lines = self.sets[line & self.mask]
        if line in lines:
            del lines[line]
            lines[line] = True
            return True
        if len(lines) >= self.ways:
            del lines[next(iter(lines))]
        lines[line] = True
        return False


@lru_cache(maxsize=1)
def _state() -> Tuple[List[int], Dict[int, int], _Level]:
    """Built once per process, outside any timing: the fixed access
    stream (``line << 7 | core << 1 | is_store``), the directory
    (``version << 66 | sharers << 2 | state`` per line) and the LLC,
    which stay warm across chunks."""
    rng = random.Random(20210614)
    trace = [
        rng.randrange(_LINES) << 7 | rng.randrange(64) << 1 | (rng.random() < 0.3)
        for _ in range(CHUNK)
    ]
    return trace, dict.fromkeys(range(_LINES), 0), _Level(16384, 16)


def chunk_rate() -> float:
    """Reference accesses per host second over one chunk."""
    trace, directory, llc = _state()
    l1, l2 = _Level(64, 8), _Level(1024, 8)
    start = perf_counter()
    for word in trace:
        line = word >> 7
        if l1.access(line) or l2.access(line):
            continue
        entry = directory[line]
        core_bit = 1 << ((word >> 1) & 63)
        if word & 1:
            directory[line] = ((entry >> 66) + 1) << 66 | core_bit << 2 | 2
        else:
            directory[line] = entry | core_bit << 2
        llc.access(line)
    return CHUNK / (perf_counter() - start)


def host_factor(rates: List[float]) -> float:
    """How much slower the host ran than nominal, from measured chunk rates.

    Uses the median rate, so one chunk that met a short stall does not
    move it.
    """
    return NOMINAL_RATE / statistics.median(rates)

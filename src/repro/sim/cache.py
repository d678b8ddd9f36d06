"""Set-associative cache arrays with MESI state and per-line OID tags.

Every level of the simulated hierarchy (L1-D, shared L2, LLC slices, and
the battery-backed OMC buffer) is built from ``CacheArray``.  A line holds
the MESI coherence state, the 16-bit OID (epoch in which it was last
written — kept as an unbounded logical epoch internally, see
``repro.core.epoch``), and the opaque data token of the last store.

Replacement is LRU, realised with insertion-ordered dicts: a touch
re-inserts the key, so the first key in a set is always the eviction
victim.  The array never writes anything back itself — victim selection
and insertion are separate steps so the coherence engine can interleave
its write-back protocol between them.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Iterator, Optional

from .config import CacheGeometry
from .stats import Stats


class MESI(IntEnum):
    """Coherence states.  MESI plus the MOESI Owned state (§IV-E notes
    the protocol extends to MOESI; the hierarchy enables O only when
    configured for it).

    Dirty == M or O: both hold data that has not been written back —
    the paper's clean/dirty rule generalized to dirty-shared.
    """

    I = 0
    S = 1
    E = 2
    M = 3
    O = 4


class CacheLine:
    """One cache entry: identity, coherence state, version, data token.

    The access path (``repro.sim.fastpath``) recycles entries: an
    evicted line's object becomes the entry of the line installed in
    its place, with all four fields overwritten.  Nothing may therefore
    keep a ``CacheLine`` across accesses; copy the fields instead.
    """

    __slots__ = ("line", "state", "oid", "data")

    def __init__(self, line: int, state: MESI, oid: int, data: int) -> None:
        self.line = line
        self.state = state
        self.oid = oid
        self.data = data

    @property
    def dirty(self) -> bool:
        return self.state == MESI.M or self.state == MESI.O

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(line={self.line:#x}, state={self.state.name}, "
            f"oid={self.oid}, data={self.data})"
        )


class CacheArray:
    """A set-associative array of ``CacheLine`` with LRU replacement."""

    def __init__(self, geometry: CacheGeometry, name: str, stats: Stats) -> None:
        self.geometry = geometry
        self.name = name
        self.stats = stats
        # Geometry derived values, resolved once: the per-access set
        # decomposition must not recompute dataclass properties.
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._sets: list[Dict[int, CacheLine]] = [
            {} for _ in range(self._num_sets)
        ]

    # -- lookup ----------------------------------------------------------
    def _set_of(self, line: int) -> Dict[int, CacheLine]:
        return self._sets[line % self._num_sets]

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        """Find a line; ``touch`` refreshes its LRU recency."""
        cache_set = self._sets[line % self._num_sets]
        entry = cache_set.get(line)
        if entry is None:
            return None
        if touch:
            del cache_set[line]
            cache_set[line] = entry
        return entry

    def probe(self, line: int) -> Optional[CacheLine]:
        """Read-only lookup: never refreshes LRU recency.

        For directory/snoop oracle reads and peer probes, where the
        access models metadata inspection rather than a cache use.
        """
        return self._sets[line % self._num_sets].get(line)

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self._num_sets]

    # -- replacement -----------------------------------------------------
    def needs_victim(self, line: int) -> bool:
        """Would inserting ``line`` require evicting another line first?"""
        cache_set = self._sets[line % self._num_sets]
        return line not in cache_set and len(cache_set) >= self._ways

    def choose_victim(self, line: int) -> CacheLine:
        """The LRU line of the set ``line`` maps to (not removed)."""
        cache_set = self._sets[line % self._num_sets]
        if not cache_set:
            raise LookupError(f"{self.name}: empty set has no victim")
        return cache_set[next(iter(cache_set))]

    def insert(self, line: int, state: MESI, oid: int, data: int) -> CacheLine:
        """Install (or overwrite) a line.  The set must have room."""
        cache_set = self._sets[line % self._num_sets]
        if line not in cache_set and len(cache_set) >= self._ways:
            raise RuntimeError(
                f"{self.name}: insert of {line:#x} into a full set; evict first"
            )
        cache_set.pop(line, None)
        entry = CacheLine(line, state, oid, data)
        cache_set[line] = entry
        return entry

    def remove(self, line: int) -> Optional[CacheLine]:
        return self._sets[line % self._num_sets].pop(line, None)

    # -- iteration / accounting ------------------------------------------
    def iter_lines(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from list(cache_set.values())

    def iter_set(self, set_index: int) -> Iterator[CacheLine]:
        if not 0 <= set_index < self._num_sets:
            raise IndexError(f"set index {set_index} out of range")
        yield from list(self._sets[set_index].values())

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def dirty_lines(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            for entry in list(cache_set.values()):
                if entry.state >= MESI.M:  # M or O
                    yield entry

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def __len__(self) -> int:
        return self.occupancy()

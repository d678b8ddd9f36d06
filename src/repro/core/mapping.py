"""Overlay mapping tables (§V-C): per-epoch tables and the Master Table.

The OMC tracks versions with two kinds of radix trees, both modelled on
x86-64 page tables:

* a volatile **per-epoch table** ``M_E`` (four levels of 9 bits over
  physical-address bits 47..12) mapping each physical page touched in
  epoch E to the overlay (sub-)pages holding that epoch's versions;
* the persistent **Master Mapping Table** ``M_master`` (the same four
  levels plus a fifth level indexed by address bits 11..6) mapping every
  line of the current consistent image to its NVM location at cache-line
  granularity (Fig. 10).

``RadixTree`` is the shared skeleton; it counts allocated nodes per level
so the Fig. 13 metadata-size experiment reads straight off the structure,
and reports every mutation so the OMC can charge 8-byte NVM metadata
writes for the persistent table.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..sim.config import CACHE_LINE_SHIFT, PAGE_SHIFT

ENTRY_BYTES = 8
#: Four upper levels of 9 bits each cover physical bits 47..12.
UPPER_LEVEL_BITS = (9, 9, 9, 9)
#: The master table's fifth level: bits 11..6, one entry per line.
LEAF_LEVEL_BITS = 6
_PAGE_LINE_SHIFT = PAGE_SHIFT - CACHE_LINE_SHIFT
_PAGE_LINE_MASK = (1 << _PAGE_LINE_SHIFT) - 1


def _walk_items(
    node: Dict[int, object], level_bits: Tuple[int, ...], depth: int, prefix: int
) -> Iterator[Tuple[int, object]]:
    # Module level, not nested in ``items``: a nested generator that
    # recurses through its own closure cell is a reference cycle, and
    # every walk would leave one for the cyclic collector.
    bits = level_bits[depth]
    leaf = depth == len(level_bits) - 1
    for index in sorted(node):
        key = (prefix << bits) | index
        if leaf:
            yield key, node[index]
        else:
            yield from _walk_items(node[index], level_bits, depth + 1, key)  # type: ignore[arg-type]


class RadixTree:
    """An explicit multi-level radix tree with node accounting.

    Keys are integers decomposed most-significant level first according
    to ``level_bits``.  Values live in the leaf level's slots.
    """

    def __init__(self, level_bits: Tuple[int, ...]) -> None:
        if not level_bits:
            raise ValueError("at least one level required")
        self.level_bits = level_bits
        self.root: Dict[int, object] = {}
        self.nodes_per_level: List[int] = [1] + [0] * (len(level_bits) - 1)
        self.entries = 0
        # Precomputed (shift, mask) per level, most-significant first:
        # key decomposition is on every insert/lookup/remove path.
        shift = 0
        pairs = []
        for bits in reversed(level_bits):
            pairs.append((shift, (1 << bits) - 1))
            shift += bits
        self._total_bits = shift
        self._shift_masks: Tuple[Tuple[int, int], ...] = tuple(reversed(pairs))
        # Pre-split upper levels vs leaf: slicing per lookup allocates.
        self._upper_shift_masks = self._shift_masks[:-1]
        self._leaf_shift, self._leaf_mask = self._shift_masks[-1]

    def _indices(self, key: int) -> List[int]:
        if key >> self._total_bits:
            raise ValueError("key has more bits than the tree covers")
        return [(key >> shift) & mask for shift, mask in self._shift_masks]

    def insert(self, key: int, value: object) -> Tuple[int, Optional[object]]:
        """Set ``key`` -> ``value``; returns (new_nodes, previous_value)."""
        if key >> self._total_bits:
            raise ValueError("key has more bits than the tree covers")
        node = self.root
        new_nodes = 0
        depth = 0
        for shift, mask in self._upper_shift_masks:
            index = (key >> shift) & mask
            child = node.get(index)
            if child is None:
                child = {}
                node[index] = child
                self.nodes_per_level[depth + 1] += 1
                new_nodes += 1
            node = child  # type: ignore[assignment]
            depth += 1
        leaf_index = (key >> self._leaf_shift) & self._leaf_mask
        previous = node.get(leaf_index)
        node[leaf_index] = value
        if previous is None:
            self.entries += 1
        return new_nodes, previous

    def lookup(self, key: int) -> Optional[object]:
        if key >> self._total_bits:
            raise ValueError("key has more bits than the tree covers")
        node = self.root
        for shift, mask in self._upper_shift_masks:
            node = node.get((key >> shift) & mask)
            if node is None:
                return None
        return node.get((key >> self._leaf_shift) & self._leaf_mask)

    def remove(self, key: int) -> Optional[object]:
        """Unmap ``key``; returns the removed value, or None.

        Interior nodes stay allocated — removal only happens during
        merge-journal rollback, where the node footprint at crash time is
        what recovery inherits anyway.
        """
        if key >> self._total_bits:
            raise ValueError("key has more bits than the tree covers")
        node = self.root
        for shift, mask in self._upper_shift_masks:
            node = node.get((key >> shift) & mask)
            if node is None:
                return None
        previous = node.pop((key >> self._leaf_shift) & self._leaf_mask, None)
        if previous is not None:
            self.entries -= 1
        return previous

    def items(self) -> Iterator[Tuple[int, object]]:
        """All (key, value) pairs, in key order within each node."""
        return _walk_items(self.root, self.level_bits, 0, 0)

    def check_consistency(self) -> None:
        """Verify the accounting matches the actual structure.

        Walks the whole tree and compares the real node count per level
        and the real leaf-entry count against ``nodes_per_level`` and
        ``entries`` (which insert/remove maintain incrementally — the
        Fig. 13 metadata numbers are read straight off them).  Raises
        ``AssertionError`` on any divergence; used by the property-based
        tests and available to the protocol oracle.
        """
        levels = len(self.level_bits)
        found_nodes = [0] * levels
        found_entries = 0
        # An explicit stack: a nested recursive function is a reference
        # cycle through its own closure cell (see ``_walk_items``).
        stack: List[Tuple[Dict[int, object], int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            found_nodes[depth] += 1
            if depth == levels - 1:
                found_entries += len(node)
            else:
                stack.extend((child, depth + 1) for child in node.values())  # type: ignore[misc]
        if found_nodes != self.nodes_per_level:
            raise AssertionError(
                f"radix node accounting diverged: counted {found_nodes}, "
                f"recorded {self.nodes_per_level}"
            )
        if found_entries != self.entries:
            raise AssertionError(
                f"radix entry accounting diverged: counted {found_entries}, "
                f"recorded {self.entries}"
            )

    def node_bytes(self) -> int:
        """Total bytes of allocated table nodes (Fig. 13 numerator)."""
        total = 0
        for depth, count in enumerate(self.nodes_per_level):
            node_size = (1 << self.level_bits[depth]) * ENTRY_BYTES
            total += count * node_size
        return total

    def occupancy_per_level(self) -> List[Tuple[int, int]]:
        """(nodes, capacity_entries_per_node) per level, for diagnostics."""
        return [
            (count, 1 << self.level_bits[depth])
            for depth, count in enumerate(self.nodes_per_level)
        ]

    def __len__(self) -> int:
        return self.entries


class VersionLocation:
    """Where one version lives on NVM: an overlay sub-page slot."""

    __slots__ = ("subpage_id", "slot")

    def __init__(self, subpage_id: int, slot: int) -> None:
        self.subpage_id = subpage_id
        self.slot = slot

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VersionLocation)
            and other.subpage_id == self.subpage_id
            and other.slot == self.slot
        )

    def __hash__(self) -> int:
        return hash((self.subpage_id, self.slot))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionLocation(subpage={self.subpage_id}, slot={self.slot})"


class EpochTable:
    """Volatile per-epoch overlay table ``M_E`` (page -> line slots)."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self._tree = RadixTree(UPPER_LEVEL_BITS)
        self.versions = 0
        self.pages = 0

    @staticmethod
    def _split(line: int) -> Tuple[int, int]:
        return line >> _PAGE_LINE_SHIFT, line & _PAGE_LINE_MASK

    def insert(self, line: int, location: VersionLocation) -> Optional[VersionLocation]:
        """Map a line's version; returns the location it replaces, if any."""
        page, offset = self._split(line)
        slots = self._tree.lookup(page)
        if slots is None:
            slots = {}
            self._tree.insert(page, slots)
            self.pages += 1
        previous = slots.get(offset)  # type: ignore[union-attr]
        slots[offset] = location  # type: ignore[index]
        if previous is None:
            self.versions += 1
        return previous

    def lookup(self, line: int) -> Optional[VersionLocation]:
        page, offset = self._split(line)
        slots = self._tree.lookup(page)
        if slots is None:
            return None
        return slots.get(offset)  # type: ignore[union-attr]

    def entries(self) -> Iterator[Tuple[int, VersionLocation]]:
        shift = PAGE_SHIFT - CACHE_LINE_SHIFT
        for page, slots in self._tree.items():
            for offset, location in sorted(slots.items()):  # type: ignore[union-attr]
                yield (page << shift) | offset, location

    def dram_bytes(self) -> int:
        """DRAM consumed by this table (volatile metadata footprint).

        Tree nodes plus one 64-entry slot descriptor per touched page
        (the overlay page's line bitmap + slot pointers).
        """
        lines_per_page = 1 << (PAGE_SHIFT - CACHE_LINE_SHIFT)
        return self._tree.node_bytes() + self.pages * lines_per_page * ENTRY_BYTES

    def __len__(self) -> int:
        return self.versions


class MasterTable:
    """Persistent five-level table mapping the consistent image (Fig. 10).

    Every entry update is an 8-byte write to NVM; the caller charges those
    through the device model.  ``node_bytes`` is the persistent metadata
    footprint compared against the write working set in Fig. 13.
    """

    def __init__(self) -> None:
        self._tree = RadixTree(UPPER_LEVEL_BITS + (LEAF_LEVEL_BITS,))

    def insert(self, line: int, location: VersionLocation) -> Tuple[int, Optional[VersionLocation]]:
        """Map ``line`` -> ``location``; returns (new_nodes, old_location)."""
        new_nodes, previous = self._tree.insert(line, location)
        return new_nodes, previous  # type: ignore[return-value]

    def lookup(self, line: int) -> Optional[VersionLocation]:
        return self._tree.lookup(line)  # type: ignore[return-value]

    def remove(self, line: int) -> Optional[VersionLocation]:
        """Unmap ``line`` (merge-journal rollback); returns the old location."""
        return self._tree.remove(line)  # type: ignore[return-value]

    def entries(self) -> Iterator[Tuple[int, VersionLocation]]:
        return self._tree.items()  # type: ignore[return-value]

    def node_bytes(self) -> int:
        return self._tree.node_bytes()

    def mapped_lines(self) -> int:
        return len(self._tree)

    def occupancy_per_level(self) -> List[Tuple[int, int]]:
        return self._tree.occupancy_per_level()

    def __len__(self) -> int:
        return len(self._tree)

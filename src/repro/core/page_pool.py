"""NVM overlay page buffer pool (§V-C): bitmap allocator + sub-pages.

NVM storage for snapshots is a pool of 4 KB pages initialized at startup
and managed by the OMC.  A bitmap tracks page allocation.  Pages are
carved into *sub-pages* of a few size classes so that sparse overlay
pages (epochs that touch only a handful of lines in a page) don't burn a
full 4 KB — the paper inherits this from Page Overlays §4.4.

Deviation (documented in DESIGN.md): where Page Overlays grows a sparse
sub-page by copying it into the next size class, we chain additional
extents instead.  Chaining exercises the same sparse-storage behaviour
without the copy traffic, keeping NVOverlay's write amplification
attributable to the protocol rather than to an allocator artefact.

The pool also acts as the simulated NVM *content store*: each occupied
slot remembers (line, oid, data-token) so crash recovery and time-travel
reads can materialise real snapshot images.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.config import CACHE_LINE_SIZE, PAGE_SIZE
from ..sim.stats import Stats

#: Sub-page size classes, in cache lines (256 B, 1 KB, 4 KB).
SIZE_CLASSES = (4, 16, 64)


class PoolExhaustedError(RuntimeError):
    """The OMC ran out of overlay pages (the §V-D OS exception)."""


class SubPage:
    """One allocated sub-page: a run of version slots inside a page."""

    __slots__ = ("id", "page_id", "capacity", "used", "master_refs", "retained")

    def __init__(self, subpage_id: int, page_id: int, capacity: int) -> None:
        self.id = subpage_id
        self.page_id = page_id
        self.capacity = capacity
        self.used = 0
        #: Slots currently referenced by the Master Table.
        self.master_refs = 0
        #: True while the owning per-epoch table is retained (time travel).
        self.retained = True

    @property
    def bytes(self) -> int:
        return self.capacity * CACHE_LINE_SIZE

    def full(self) -> bool:
        return self.used >= self.capacity


class PagePool:
    """Bitmap-managed pool of NVM pages, carved into sub-page slabs."""

    def __init__(self, num_pages: int, stats: Stats, name: str = "pool") -> None:
        if num_pages <= 0:
            raise ValueError("pool needs at least one page")
        self.num_pages = num_pages
        self.stats = stats
        self.name = name
        self.bitmap = bytearray(num_pages)  # 0 free, 1 allocated
        self._free_pages: List[int] = list(range(num_pages - 1, -1, -1))
        self._next_subpage_id = 0
        self._subpages: Dict[int, SubPage] = {}
        # Partially-carved page per size class: (page_id, subpages_left).
        self._partial: Dict[int, Tuple[int, int]] = {}
        # Live sub-pages per page, for lazy whole-page reclamation.
        self._page_live: Dict[int, int] = {}
        # Slot contents: (subpage_id, slot) -> (line, oid, data).
        self._contents: Dict[Tuple[int, int], Tuple[int, int, int]] = {}

    # -- page-level allocation --------------------------------------------
    def _alloc_page(self) -> int:
        if not self._free_pages:
            raise PoolExhaustedError(
                f"{self.name}: all {self.num_pages} overlay pages in use"
            )
        page_id = self._free_pages.pop()
        self.bitmap[page_id] = 1
        self.stats.inc(f"{self.name}.pages_allocated")
        return page_id

    def _release_page(self, page_id: int) -> None:
        if not self.bitmap[page_id]:
            raise ValueError(f"{self.name}: double free of page {page_id}")
        self.bitmap[page_id] = 0
        self._free_pages.append(page_id)
        self.stats.inc(f"{self.name}.pages_released")

    def grow(self, extra_pages: int) -> None:
        """The OS granted more pages after a ``PoolExhaustedError``."""
        if extra_pages <= 0:
            raise ValueError("must grow by a positive number of pages")
        first_new = self.num_pages
        self.num_pages += extra_pages
        self.bitmap.extend(b"\x00" * extra_pages)
        self._free_pages.extend(range(self.num_pages - 1, first_new - 1, -1))

    # -- sub-page allocation ------------------------------------------------
    def alloc_subpage(self, size_class: int) -> SubPage:
        if size_class not in SIZE_CLASSES:
            raise ValueError(f"unknown size class {size_class}")
        slot = self._partial.get(size_class)
        if slot is None or slot[1] == 0:
            page_id = self._alloc_page()
            per_page = PAGE_SIZE // (size_class * CACHE_LINE_SIZE)
            slot = (page_id, per_page)
        page_id, remaining = slot
        self._partial[size_class] = (page_id, remaining - 1)
        subpage = SubPage(self._next_subpage_id, page_id, size_class)
        self._next_subpage_id += 1
        self._subpages[subpage.id] = subpage
        self._page_live[page_id] = self._page_live.get(page_id, 0) + 1
        self.stats.inc(f"{self.name}.subpages_allocated")
        return subpage

    def free_subpage(self, subpage_id: int) -> None:
        """Drop a sub-page.  Whole pages are reclaimed lazily: a page
        returns to the free list once no live sub-page references it."""
        subpage = self._subpages.pop(subpage_id, None)
        if subpage is None:
            raise ValueError(f"{self.name}: free of unknown sub-page {subpage_id}")
        for slot in range(subpage.capacity):
            self._contents.pop((subpage_id, slot), None)
        self.stats.inc(f"{self.name}.subpages_freed")
        page_id = subpage.page_id
        self._page_live[page_id] -= 1
        if self._page_live[page_id] == 0:
            del self._page_live[page_id]
            for size_class, (pid, _remaining) in list(self._partial.items()):
                if pid == page_id:
                    del self._partial[size_class]
            self._release_page(page_id)

    def subpage(self, subpage_id: int) -> SubPage:
        return self._subpages[subpage_id]

    def subpages(self) -> Iterable[SubPage]:
        """Every live sub-page (a view: don't free while iterating it)."""
        return self._subpages.values()

    # -- version slots --------------------------------------------------------
    def write_version(self, subpage: SubPage, line: int, oid: int, data: int) -> int:
        """Store a version into the next slot; returns the slot index."""
        if subpage.full():
            raise ValueError(f"{self.name}: sub-page {subpage.id} is full")
        slot = subpage.used
        subpage.used += 1
        self._contents[(subpage.id, slot)] = (line, oid, data)
        return slot

    def read_version(self, subpage_id: int, slot: int) -> Tuple[int, int, int]:
        return self._contents[(subpage_id, slot)]

    # -- accounting -------------------------------------------------------------
    def pages_in_use(self) -> int:
        return self.num_pages - len(self._free_pages)

    def bytes_in_use(self) -> int:
        return self.pages_in_use() * PAGE_SIZE

    def utilization(self) -> float:
        """Fraction of allocated bytes holding *live* version slots.

        Live means referenced by the Master Table (``master_refs``), not
        merely written (``used``): a slot whose master reference was
        dropped is dead space awaiting reclamation, and counting it made
        the pool look denser than it is — exactly when compaction-trigger
        decisions need to see the real occupancy.
        """
        in_use = self.bytes_in_use()
        if in_use == 0:
            return 1.0
        live = sum(sp.master_refs for sp in self._subpages.values()) * CACHE_LINE_SIZE
        return live / in_use

    def live_slots(self) -> int:
        """Version slots the Master Table references (true live count)."""
        return sum(sp.master_refs for sp in self._subpages.values())

    def live_subpages(self) -> int:
        return len(self._subpages)

"""NVM endurance (wear) accounting.

The paper motivates avoiding write amplification partly through device
lifetime: NVM cells endure a limited number of program/erase cycles
[17], so a scheme that writes 2x the bytes ages the device 2x faster —
and a scheme that concentrates writes (logs appended to one region)
ages *those* pages faster still.

``WearTracker`` counts line-granularity writes per NVM page and distils
them into the numbers a device architect asks for: total writes, the
hottest page, the imbalance between the hottest page and the mean, and
an estimated device lifetime given a per-cell endurance budget and a
write rate.  The NVM device counts every write into it as part of its
one write frame (``NVM._write``); the tracker holds the counts and
summarizes them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .config import PAGE_SHIFT, CACHE_LINE_SHIFT

#: A line number shifted right by this is its page number.
LINE_PAGE_SHIFT = PAGE_SHIFT - CACHE_LINE_SHIFT
LINES_PER_PAGE = 1 << LINE_PAGE_SHIFT


@dataclass(frozen=True)
class WearReport:
    """Summary of device aging after a run."""

    total_line_writes: int
    pages_touched: int
    max_page_writes: int
    mean_page_writes: float
    #: Hottest page's writes relative to the mean (1.0 = perfectly even).
    imbalance: float
    #: Fraction of all writes absorbed by the hottest 1% of pages.
    hot1pct_share: float

    def estimated_lifetime_fraction(self, endurance_cycles: int) -> float:
        """Remaining lifetime of the hottest page, as a fraction.

        With cell endurance ``endurance_cycles`` (e.g. 10^7 for PCM-class
        media) and per-line wear ``max_page_writes / LINES_PER_PAGE`` on
        average within the hottest page, this is how much of that page's
        budget the run consumed... subtracted from 1.
        """
        if endurance_cycles <= 0:
            raise ValueError("endurance must be positive")
        per_line = self.max_page_writes / LINES_PER_PAGE
        return max(0.0, 1.0 - per_line / endurance_cycles)


class WearTracker:
    """Per-page write counters with a cheap summary."""

    def __init__(self) -> None:
        #: page -> line writes, in first-write order.  ``NVM._write``
        #: adds one per line it writes.
        self._page_writes: Dict[int, int] = defaultdict(int)
        self.total_line_writes = 0

    def page_writes(self, page: int) -> int:
        return self._page_writes.get(page, 0)

    def hottest_pages(self, count: int = 10) -> List[Tuple[int, int]]:
        """The ``count`` most-written pages as (page, writes)."""
        ranked = sorted(
            self._page_writes.items(), key=lambda item: item[1], reverse=True
        )
        return ranked[:count]

    def report(self) -> WearReport:
        if not self._page_writes:
            return WearReport(0, 0, 0, 0.0, 1.0, 0.0)
        counts = sorted(self._page_writes.values(), reverse=True)
        total = sum(counts)
        mean = total / len(counts)
        hot_n = max(1, len(counts) // 100)
        hot_share = sum(counts[:hot_n]) / total
        return WearReport(
            total_line_writes=self.total_line_writes,
            pages_touched=len(counts),
            max_page_writes=counts[0],
            mean_page_writes=mean,
            imbalance=counts[0] / mean,
            hot1pct_share=hot_share,
        )

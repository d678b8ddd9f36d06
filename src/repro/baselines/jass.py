"""JASS-style adaptive checkpointing: per-region strategy switching.

The JASS insight is that neither undo-journaling nor shadow-paging wins
everywhere: journaling pays one log entry per dirtied line (cheap for a
page with a couple of scattered writes, expensive when the whole page is
rewritten), while shadow-paging pays a constant redirection per store
plus one mapping update per page (cheap for densely rewritten pages,
wasteful for sparse ones).  ``JASSAdaptive`` keeps a per-page strategy
map and re-decides each touched page at every epoch commit from its
*observed* write density, so phases migrate between the two legs as the
workload's locality changes.

The same feedback idea applied to NVOverlay itself is
``repro.sim.config.AdaptiveEpochPolicy`` — dynamic epoch sizing from the
Fig. 14 sensitivity loop — which this module's scheme pairs with in the
cross-scheme sweeps.
"""

from __future__ import annotations

from typing import Dict, Set

from ..sim.config import CACHE_LINE_SHIFT, CACHE_LINE_SIZE, PAGE_SHIFT
from .base import GlobalEpochScheme
from .sw_shadow import REDIRECTION_CYCLES, TABLE_ENTRY_BYTES
from .sw_undo_log import UNDO_LOG_ENTRY_BYTES

#: Cache lines per page (4 KB / 64 B).
PAGE_LINES = 1 << (PAGE_SHIFT - CACHE_LINE_SHIFT)
#: Pages dirtier than this many distinct lines per epoch flip to the
#: shadow leg (one mapping update then covers the whole page); sparser
#: pages journal (a few log entries beat redirecting every store).
DENSITY_THRESHOLD = 8

UNDO = "undo"
SHADOW = "shadow"


class JASSAdaptive(GlobalEpochScheme):
    """Undo-logging / shadow-paging hybrid, switched per page per epoch."""

    name = "jass_adaptive"
    persistence_barriers = True
    software_redirection = "adaptive"

    def __init__(self) -> None:
        super().__init__()
        #: Current strategy per page; pages start on the undo leg.
        self._strategy: Dict[int, str] = {}
        #: Lines journaled this epoch (undo leg, first store only).
        self._logged: Set[int] = set()
        #: Distinct lines dirtied per page this epoch (the density signal).
        self._page_lines: Dict[int, Set[int]] = {}

    def store_hook(self, core_id: int, line: int, now: int) -> int:
        page = line >> (PAGE_SHIFT - CACHE_LINE_SHIFT)
        self._page_lines.setdefault(page, set()).add(line)
        if self._strategy.get(page, UNDO) == SHADOW:
            self.machine.stats.inc("jass.redirections")
            return REDIRECTION_CYCLES
        if line in self._logged:
            return 0
        self._logged.add(line)
        self.machine.stats.inc("jass.log_entries")
        return self.machine.nvm.write_sync(
            line, UNDO_LOG_ENTRY_BYTES, now, "log"
        )

    def commit_epoch(self, now: int) -> int:
        nvm = self.machine.nvm
        stats = self.machine.stats
        nvm_stall_end = now
        entries_per_flush = CACHE_LINE_SIZE // TABLE_ENTRY_BYTES
        for core_id, lines in self.write_sets.items():
            ordered = sorted(lines)
            shadow_pages = {
                line >> (PAGE_SHIFT - CACHE_LINE_SHIFT)
                for line in ordered
                if self._strategy.get(
                    line >> (PAGE_SHIFT - CACHE_LINE_SHIFT), UNDO
                ) == SHADOW
            }
            # Both legs flush their dirty data behind barriers; only the
            # shadow leg also updates the persistent mapping table (the
            # undo leg's log entries already happened at store time).
            t = now + self._barrier_writes(ordered, CACHE_LINE_SIZE, now, "data")
            table_flushes = -(-len(shadow_pages) // entries_per_flush)
            for i in range(table_flushes):
                t += nvm.write_sync(core_id + i, CACHE_LINE_SIZE, t, "metadata")
            nvm_stall_end = max(nvm_stall_end, t)
        # Re-decide every touched page from this epoch's observed density.
        for page in sorted(self._page_lines):
            density = len(self._page_lines[page])
            old = self._strategy.get(page, UNDO)
            new = SHADOW if density >= DENSITY_THRESHOLD else UNDO
            if new != old:
                stats.inc("jass.switches")
            self._strategy[page] = new
        stats.inc("jass.undo_pages",
                  sum(1 for s in self._strategy.values() if s == UNDO))
        stats.inc("jass.shadow_pages",
                  sum(1 for s in self._strategy.values() if s == SHADOW))
        self._logged.clear()
        self._page_lines.clear()
        self.machine.stall_all_cores_until(nvm_stall_end)
        return nvm_stall_end - now

"""Per-VD opportunistic L2 tag walker (§IV-C) and min-ver reporting.

Each Versioned Domain has a tag walker built into its L2 controller.  It
scans cache tags opportunistically (modelled as a scan budget that
accrues with simulated time) and writes dirty versions of previous
epochs back to the OMC, downgrading them M -> E.  When a full pass over
the L2 completes, the walker computes the VD's ``min-ver`` — the
smallest OID among dirty versions still cached — and reports it to the
master OMC, which drives the recoverable epoch (§V-B).

NVOverlay's correctness does not depend on the walker making progress
(§IV-C): snapshots only become *recoverable* more slowly if it lags,
which the Fig. 15 experiment demonstrates by disabling it outright.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.hierarchy import Hierarchy, VDState
from ..sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover
    from .omc import OMCCluster


class TagWalker:
    """Background scanner over one VD's L2 tags."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        vd: VDState,
        cluster: "OMCCluster",
        stats: Stats,
        tags_per_kilocycle: int,
        enabled: bool = True,
    ) -> None:
        self.hierarchy = hierarchy
        self.vd = vd
        self.cluster = cluster
        self.stats = stats
        self.rate = tags_per_kilocycle
        self.enabled = enabled
        self._cursor = 0  # next L2 set to scan
        self._budget = 0.0  # fractional tags of accrued scan budget
        self._last_poll = 0
        # L2 geometry, resolved once: poll() runs at every transaction
        # boundary and should not chase vd.l2 attributes each time.
        self._l2_ways = vd.l2._ways
        self._l2_num_sets = vd.l2._num_sets
        self._budget_cap = float(self._l2_num_sets * self._l2_ways)
        # Lowering sequence number sampled when the current pass began;
        # reported with the pass so the OMC can detect stale reports.
        self._pass_seq = cluster.min_ver_seq(vd.id)
        self.passes_completed = 0

    def poll(self, now: int) -> None:
        """Give the walker the time that elapsed since the last poll."""
        if not self.enabled:
            return
        elapsed = now - self._last_poll
        if elapsed <= 0:
            return
        self._last_poll = now
        self._budget += elapsed * self.rate / 1000.0
        ways = self._l2_ways
        num_sets = self._l2_num_sets
        # Cap one poll's work at a single full pass; budget beyond that
        # buys nothing (the walker would just re-observe the same tags).
        max_sets = min(int(self._budget // ways), num_sets)
        if max_sets:
            scan = self.hierarchy.walker_scan_set
            vd = self.vd
            for _ in range(max_sets):
                self._budget -= ways
                if self._cursor == 0:
                    self._pass_seq = self.cluster.min_ver_seq(vd.id)
                scan(vd, self._cursor, now)
                self._cursor += 1
                if self._cursor >= num_sets:
                    self._cursor = 0
                    self._complete_pass(now)
        if self._budget > self._budget_cap:
            self._budget = self._budget_cap

    def _complete_pass(self, now: int) -> None:
        """End of a full scan: compute and report min-ver (§V-B)."""
        injector = self.hierarchy.fault_injector
        if injector is not None:
            injector.on_event("walker_pass", now)
        self.passes_completed += 1
        min_ver = self.hierarchy.min_dirty_oid(self.vd)
        oracle = self.hierarchy.oracle
        if oracle is not None:
            oracle.on_walker_pass(self.vd.id, min_ver, now)
        self.cluster.update_min_ver(self.vd.id, min_ver, now, seq=self._pass_seq)
        self.stats.inc("walker.passes")

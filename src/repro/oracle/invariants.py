"""Online protocol-invariant checking (the oracle's checker half).

:class:`ProtocolOracle` hangs off a ``Machine`` the same way the fault
injector does: hooks are bound at build time (``Machine(oracle=...)``)
and unarmed runs never evaluate a guard.  Armed, it observes every
protocol event, keeps a bounded trace (``repro.oracle.trace``), and
checks the paper's step-wise guarantees *as they are supposed to hold*,
not just at run end:

* **MESI exclusivity** — a line modified in one VD is held nowhere else
  (O coexists only with S); checked structurally at transaction
  boundaries and on demand.
* **Epoch monotonicity & skew** — per-VD epochs only move forward and
  inter-VD skew stays below half the wire epoch space (§IV-D).
* **Write-back OID/epoch consistency** — every version written back to
  the OMC carries ``1 <= oid <= cur_epoch`` (a "version from the
  future" means write-backs were reordered) and ``oid > rec_epoch``
  (never resurrect a merged epoch).
* **Mapping-table reachability** — a version that just left the caches
  is findable again: in its epoch's table or the battery-backed buffer
  immediately after the write-back, and via the Master Table once its
  epoch merges.
* **Recoverable-epoch frontier** — ``rec_epoch <= min(min-vers) - 1``
  *and* strictly below every dirty version still cached anywhere
  (§V-B).  The second bound is the ground truth the min-ver protocol
  approximates, so a skipped or inflated walker report trips it.
* **Master reference counts** — at every committed rec-epoch advance
  and before every reclaim, each live sub-page's ``master_refs`` equals
  the number of Master Table entries pointing into it, and no entry
  points at a freed sub-page.  Version compaction reads liveness and
  its skip counts off ``master_refs``, so a drifted count would move or
  strand versions silently.

Violations raise :class:`InvariantViolation` carrying the invariant
name, the cycle, and the window of trace events that preceded the
failure.

The oracle never mutates simulator state: reads use ``probe``/raw set
iteration (no LRU touches), no ``Stats`` counters are incremented, and
no OMC flush/merge paths are invoked.  Armed runs are therefore
bit-identical to unarmed ones (``tests/test_bench.py`` pins this).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from ..sim import validate
from ..sim.cache import MESI
from .trace import TraceBuffer, TraceEvent, format_window


class InvariantViolation(validate.InvariantViolation):
    """A protocol invariant failed; carries the preceding event window."""

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "",
        events: Optional[List[TraceEvent]] = None,
        cycle: int = 0,
    ) -> None:
        self.invariant = invariant
        self.events = list(events or [])
        self.cycle = cycle
        super().__init__(
            f"[{invariant}] {message} (cycle {cycle})\n"
            f"preceding events:\n{format_window(self.events)}"
        )


#: Structural checks reused from repro.sim.validate, with oracle names.
_STRUCTURAL_CHECKS = (
    ("inclusion", validate.check_inclusion),
    ("single-writer", validate.check_single_writer),
    ("version-order", validate.check_version_order),
    ("directory", validate.check_directory_agreement),
)


class ProtocolOracle:
    """Opt-in invariant checker + event tracer for one ``Machine``.

    Pass one to ``Machine(oracle=ProtocolOracle())``; the machine binds
    the per-event hooks into the hierarchy/OMC/walker at build time.
    ``scan_interval`` controls how often the full structural scan runs
    (every N transaction boundaries — boundaries are quiescent points,
    unlike mid-operation epoch advances); ``check_now`` scans on demand.
    """

    def __init__(
        self,
        trace_capacity: int = 4096,
        window: int = 32,
        scan_interval: int = 64,
    ) -> None:
        self.trace = TraceBuffer(trace_capacity)
        self.window = window
        self.scan_interval = max(1, scan_interval)
        self.violations_checked = 0
        self.machine = None
        self.hierarchy = None
        self.cluster = None
        self._half: Optional[int] = None
        self._vd_epochs: Dict[int, int] = {}
        self._txns_since_scan = 0
        self._retain_tables = False

    # -- wiring ----------------------------------------------------------
    def bind(self, machine) -> None:
        """Capture references after the scheme attached (Machine.__init__)."""
        self.machine = machine
        self.hierarchy = machine.hierarchy
        scheme = machine.scheme
        self.cluster = getattr(scheme, "cluster", None)
        if self.cluster is not None:
            self.cluster.oracle = self
        params = getattr(scheme, "params", None)
        self._retain_tables = bool(
            params is not None and getattr(params, "retain_epoch_tables", False)
        )
        space = getattr(scheme, "space", None)
        self._half = space.half if space is not None else None
        sense = getattr(scheme, "sense", None)
        if sense is not None:
            sense.observer = self._on_sense_flip
        self._vd_epochs = {vd.id: vd.cur_epoch for vd in machine.hierarchy.vds}

    def _fail(self, invariant: str, message: str, cycle: int) -> None:
        raise InvariantViolation(
            message,
            invariant=invariant,
            events=self.trace.window(self.window),
            cycle=cycle,
        )

    # -- hierarchy hooks (bound by Hierarchy.oracle setter) ---------------
    def on_store(self, core_id: int, vd, entry, now: int) -> None:
        self.trace.emit("store", now, core=core_id, vd=vd.id,
                        line=entry.line, oid=entry.oid)

    def on_writeback(self, vd, line: int, oid: int, reason: str, now: int) -> None:
        self.trace.emit("writeback", now, vd=vd.id, line=line, oid=oid,
                        reason=reason)
        if oid < 1:
            self._fail(
                "writeback-epoch",
                f"VD {vd.id} wrote back line {line:#x} with pre-history "
                f"version {oid}",
                now,
            )
        if oid > vd.cur_epoch:
            self._fail(
                "writeback-epoch",
                f"VD {vd.id} wrote back line {line:#x} @ epoch {oid} beyond "
                f"its current epoch {vd.cur_epoch} — write-backs reordered "
                "past an epoch boundary",
                now,
            )
        cluster = self.cluster
        if cluster is None:
            return
        if oid <= cluster.rec_epoch:
            self._fail(
                "writeback-merged",
                f"VD {vd.id} wrote back line {line:#x} @ epoch {oid} at or "
                f"below the recoverable epoch {cluster.rec_epoch} — that "
                "snapshot already merged",
                now,
            )
        # Reachability: the version must be findable immediately — in
        # its epoch's table or absorbed by the battery-backed buffer.
        omc = cluster.omc_of(line)
        table = omc.tables.get(oid)
        if table is not None and table.lookup(line) is not None:
            return
        buffer = omc.buffer
        if buffer is not None:
            entry = buffer.array.probe(line)
            if entry is not None and entry.oid == oid:
                return
        self._fail(
            "mapping-reachability",
            f"version of line {line:#x} @ epoch {oid} written back to "
            f"OMC {omc.id} but findable in neither epoch table nor buffer",
            now,
        )

    def on_eviction(self, vd, entry, reason: str, now: int) -> None:
        self.trace.emit("eviction", now, vd=vd.id, line=entry.line,
                        oid=entry.oid, state=entry.state.name, reason=reason)

    def on_coherence(self, action: str, vd_id: int, line: int, oid: int,
                     now: int) -> None:
        self.trace.emit("coherence", now, action=action, vd=vd_id,
                        line=line, oid=oid)

    def on_epoch_advance(self, vd, old: int, new: int, now: int) -> None:
        # Called mid-operation (coherence-driven syncs fire inside
        # loads/stores), so only cheap per-VD checks run here; the full
        # structural scan waits for the next transaction boundary.
        self.trace.emit("epoch_advance", now, vd=vd.id, old=old, new=new)
        recorded = self._vd_epochs.get(vd.id, 0)
        if new <= recorded:
            self._fail(
                "epoch-monotonic",
                f"VD {vd.id} epoch moved {recorded} -> {new}; per-VD epochs "
                "must be strictly monotonic (§III-C)",
                now,
            )
        self._vd_epochs[vd.id] = new
        half = self._half
        if half is not None and len(self._vd_epochs) > 1:
            values = self._vd_epochs.values()
            skew = max(values) - min(values)
            if skew >= half:
                self._fail(
                    "epoch-skew",
                    f"inter-VD epoch skew {skew} reached half the epoch "
                    f"space ({half}); wire ordering is ambiguous (§IV-D)",
                    now,
                )

    # -- scheme-side hooks (sense controller / walker / cluster) ----------
    def _on_sense_flip(self, vd: int, logical: int, sense: int) -> None:
        self.trace.emit("sense_flip", 0, vd=vd, epoch=logical, sense=sense)

    def on_walker_pass(self, vd_id: int, min_ver: int, now: int) -> None:
        self.trace.emit("walker_pass", now, vd=vd_id, min_ver=min_ver)
        hierarchy = self.hierarchy
        if hierarchy is not None:
            cur = hierarchy.vds[vd_id].cur_epoch
            if min_ver > cur:
                self._fail(
                    "min-ver-report",
                    f"VD {vd_id} walker reported min-ver {min_ver} beyond "
                    f"its current epoch {cur}",
                    now,
                )

    def on_min_ver(self, vd_id: int, min_ver: int, now: int) -> None:
        self.trace.emit("min_ver", now, vd=vd_id, min_ver=min_ver)

    def on_merge(self, omc_id: int, through: int, now: int) -> None:
        self.trace.emit("merge", now, omc=omc_id, through=through)

    def on_rec_epoch(self, old: int, new: int, now: int) -> None:
        """The cluster advanced the recoverable epoch (after merging)."""
        self.trace.emit("rec_epoch", now, old=old, new=new)
        cluster = self.cluster
        if cluster is None:
            return
        if new <= old:
            self._fail(
                "rec-monotonic",
                f"recoverable epoch moved {old} -> {new}; it must only "
                "advance",
                now,
            )
        bound = min(cluster.min_vers.values()) - 1
        if new > bound:
            self._fail(
                "rec-frontier",
                f"recoverable epoch advanced to {new} past the reported "
                f"min-ver bound {bound} (min-vers {cluster.min_vers})",
                now,
            )
        # Ground truth, independent of the reports: no dirty version at
        # or below the recoverable epoch may still be cached anywhere.
        # A skipped/inflated min-ver report passes the bound above but
        # fails here.
        hierarchy = self.hierarchy
        if hierarchy is not None:
            for vd in hierarchy.vds:
                floor = hierarchy.min_dirty_oid(vd)
                if floor <= new:
                    self._fail(
                        "rec-frontier",
                        f"recoverable epoch advanced to {new} while VD "
                        f"{vd.id} still caches a dirty version @ epoch "
                        f"{floor} — a min-ver report was skipped or "
                        "inflated",
                        now,
                    )
        for omc in cluster.omcs:
            if omc.merged_through < new:
                self._fail(
                    "rec-merge",
                    f"recoverable epoch {new} persisted but OMC {omc.id} "
                    f"only merged through {omc.merged_through}",
                    now,
                )
        self._check_merged_reachability(old, new, now)
        self._check_master_refs(now)

    def _check_merged_reachability(self, old: int, new: int, now: int) -> None:
        """Every version of a just-merged epoch resolves via the Master
        Table (retained per-epoch tables are the witness set)."""
        if not self._retain_tables or self.cluster is None:
            return
        for omc in self.cluster.omcs:
            for epoch in range(old + 1, new + 1):
                table = omc.tables.get(epoch)
                if table is None:
                    continue
                for line, _location in table.entries():
                    if omc.master.lookup(line) is None:
                        self._fail(
                            "mapping-reachability",
                            f"line {line:#x} versioned in merged epoch "
                            f"{epoch} is unreachable via OMC {omc.id}'s "
                            "Master Table",
                            now,
                        )

    def _check_master_refs(self, now: int) -> None:
        """Each live sub-page's ``master_refs`` counts exactly the Master
        Table entries pointing into it (outside a merge)."""
        for omc in self.cluster.omcs:
            entries = Counter(
                location.subpage_id for _line, location in omc.master.entries()
            )
            for subpage in omc.pool.subpages():
                counted = entries.pop(subpage.id, 0)
                if subpage.master_refs != counted:
                    self._fail(
                        "master-refs",
                        f"OMC {omc.id} sub-page {subpage.id} records "
                        f"{subpage.master_refs} master refs but the Master "
                        f"Table points into it {counted} times",
                        now,
                    )
            if entries:
                self._fail(
                    "master-refs",
                    f"OMC {omc.id}'s Master Table points into freed "
                    f"sub-pages {sorted(entries)}",
                    now,
                )

    # -- snapshot-serving hooks (repro.serve) -----------------------------
    def on_session_acquire(self, session_id: int, epoch: int, now: int) -> None:
        """A snapshot session opened a read view pinned at ``epoch``.

        A servable view must sit at or below the recoverable frontier:
        epochs beyond it are not yet persisted by every VD, so a session
        there could observe a torn mix of flushed and in-flight versions
        across VDs.  The min-ver bound is checked independently of
        ``rec_epoch`` so a frontier bookkeeping bug cannot hide one.
        """
        self.trace.emit("session_acquire", now, session=session_id, epoch=epoch)
        cluster = self.cluster
        if cluster is None:
            return
        if epoch > cluster.rec_epoch:
            self._fail(
                "session-frontier",
                f"session {session_id} acquired epoch {epoch} beyond the "
                f"recoverable frontier {cluster.rec_epoch}",
                now,
            )
        bound = min(cluster.min_vers.values()) - 1
        if epoch > bound:
            self._fail(
                "session-frontier",
                f"session {session_id} acquired epoch {epoch} past the "
                f"min-ver bound {bound} — some VD has not persisted it, "
                "so the view could be torn across VDs",
                now,
            )

    def on_session_read(
        self,
        session_id: int,
        epoch: int,
        line: int,
        oid: Optional[int],
        now: int,
    ) -> None:
        """A session read resolved ``line`` to version ``oid`` (None: miss).

        The consistent-frontier guarantee: a reader pinned at ``epoch``
        never observes a version newer than its snapshot.  Any torn read
        — mixing post-snapshot state into the view — surfaces here as an
        oid beyond the session epoch.
        """
        self.trace.emit(
            "session_read", now, session=session_id, epoch=epoch, line=line, oid=oid
        )
        if oid is None:
            return
        if oid > epoch:
            self._fail(
                "session-read-version",
                f"session {session_id} pinned at epoch {epoch} observed "
                f"line {line:#x} @ version {oid} — newer than its snapshot",
                now,
            )
        if oid < 1:
            self._fail(
                "session-read-version",
                f"session {session_id} observed line {line:#x} @ "
                f"impossible version {oid}",
                now,
            )

    def on_session_release(self, session_id: int, epoch: int, now: int) -> None:
        self.trace.emit("session_release", now, session=session_id, epoch=epoch)

    def on_reclaim(self, floor: int, now: int) -> None:
        """GC is about to drop retained epochs strictly below ``floor``."""
        self.trace.emit("reclaim", now, floor=floor)
        cluster = self.cluster
        if cluster is None:
            return
        pinned = cluster.pinned_epoch_floor()
        if pinned is not None and floor > pinned:
            self._fail(
                "session-pin",
                f"reclaim floor {floor} would drop epoch tables an active "
                f"session still pins (lowest pin {pinned})",
                now,
            )
        if floor > cluster.rec_epoch + 1:
            self._fail(
                "session-pin",
                f"reclaim floor {floor} reaches beyond the recoverable "
                f"frontier {cluster.rec_epoch}",
                now,
            )
        self._check_master_refs(now)

    # -- periodic / on-demand structural scans ----------------------------
    def poll(self, now: int) -> None:
        """Called by ``Machine.run`` at transaction boundaries."""
        self._txns_since_scan += 1
        if self._txns_since_scan >= self.scan_interval:
            self._txns_since_scan = 0
            self.check_now(now)

    def check_now(self, now: int = 0) -> None:
        """Run the full structural + frontier scan immediately."""
        self.violations_checked += 1
        hierarchy = self.hierarchy
        if hierarchy is None:
            return
        for name, checker in _STRUCTURAL_CHECKS:
            try:
                checker(hierarchy)
            except InvariantViolation:
                raise
            except validate.InvariantViolation as exc:
                self._fail(name, str(exc), now)
        if hierarchy.versioned:
            self._check_dirty_version_range(now)
        self._check_frontier(now)

    def _check_dirty_version_range(self, now: int) -> None:
        hierarchy = self.hierarchy
        dirty_floor = MESI.M
        for vd in hierarchy.vds:
            arrays = [vd.l2] + [hierarchy.l1s[core] for core in vd.core_ids]
            cur = vd.cur_epoch
            for array in arrays:
                for cache_set in array._sets:
                    for entry in cache_set.values():
                        if entry.state < dirty_floor:
                            continue
                        if not 1 <= entry.oid <= cur:
                            self._fail(
                                "dirty-version-range",
                                f"VD {vd.id} caches dirty line "
                                f"{entry.line:#x} @ epoch {entry.oid} "
                                f"outside [1, {cur}]",
                                now,
                            )

    def _check_frontier(self, now: int) -> None:
        cluster = self.cluster
        if cluster is None:
            return
        rec = cluster.rec_epoch
        bound = min(cluster.min_vers.values()) - 1
        if rec > bound:
            self._fail(
                "rec-frontier",
                f"recoverable epoch {rec} exceeds the min-ver bound "
                f"{bound} (min-vers {cluster.min_vers})",
                now,
            )
        hierarchy = self.hierarchy
        for vd in hierarchy.vds:
            floor = hierarchy.min_dirty_oid(vd)
            if floor <= rec:
                self._fail(
                    "rec-frontier",
                    f"VD {vd.id} caches a dirty version @ epoch {floor} at "
                    f"or below the recoverable epoch {rec}",
                    now,
                )

    def on_finalize(self, now: int) -> None:
        """Scheme finalize completed: last full scan of the run."""
        self.check_now(now)

    # -- reporting --------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "events": self.trace.total_events,
            "counts": dict(self.trace.counts),
            "scans": self.violations_checked,
        }

"""Garbage collection and version compaction (§V-D).

Merged versions that the Master Table no longer references are reclaimed
automatically through sub-page reference counts (see ``repro.core.omc``).
What remains is the storage-explosion problem the paper calls out:
rarely-updated lines pin their whole overlay (sub-)page alive.  When the
pool exceeds its quota, *version compaction* copies the still-live
versions of the oldest epochs into the most recent epoch — as if those
addresses had just been written — after which the source sub-pages drop
to zero references and their pages return to the pool.

Compaction costs NVM data writes (one line per surviving version), which
is the write-amplification/storage trade-off §V-F lets users make.  It
finds its work from the pool's sub-pages and their ``master_refs``, never
by walking the Master Table: a pass costs the live sub-pages, plus the
slots of partly-live unretained sub-pages, plus the versions it moves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.config import CACHE_LINE_SIZE, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from .omc import OMC, OMCCluster
    from .page_pool import SubPage


def compact_if_needed(cluster: "OMCCluster", now: int) -> int:
    """Compact any OMC whose pool exceeds its share of the quota."""
    if cluster.quota_pages is None:
        return 0
    per_omc_quota = max(1, cluster.quota_pages // len(cluster.omcs))
    pin_floor = cluster.pinned_epoch_floor()
    moved = 0
    for omc in cluster.omcs:
        if omc.pool.pages_in_use() > per_omc_quota:
            moved += compact(
                omc, now, target_pages=per_omc_quota, pin_floor=pin_floor
            )
    return moved


def compact(
    omc: "OMC",
    now: int,
    target_pages: int = 0,
    pin_floor: Optional[int] = None,
) -> int:
    """Copy live versions out of the oldest epochs (§V-D).

    Groups the sub-pages with ``master_refs > 0`` by the epoch that
    produced them and, oldest epoch first, relocates their live versions
    into the current epoch in ascending line order until the pool fits
    within ``target_pages`` (or everything old moved).  Returns the
    number of versions relocated.

    Versions in retained (time-travel) sub-pages are never moved, but
    the skips are accounted rather than silent so callers can retry:
    ``compaction_skipped_pinned`` counts lines an active snapshot
    session still pins (epoch >= ``pin_floor``) — those free up when the
    session releases; ``compaction_skipped_retained`` counts lines whose
    retention the caller could drop first (``drop_epochs_before``).  A
    retained sub-page adds its ``master_refs`` without its lines being
    read, except in an epoch where the quota stops the pass: there only
    lines below the stop line count.

    The result is bit-identical to walking the Master Table line by line:

    * Compaction never runs inside a merge (``reclaim`` and
      ``_advance_rec_epoch`` call it after ``commit_merge``), so
      ``master_refs`` equals the number of Master Table entries pointing
      into the sub-page: the referenced sub-pages span exactly the
      epochs of the table's entries, and a slot is live exactly when
      the table maps its line to that slot.
    * No sub-page changes kind during a pass.  A relocation lowers
      ``master_refs`` only on the moved line's own source sub-page and
      fills only new, unretained sub-pages of ``target_epoch``, above
      every candidate epoch.  So whole sub-pages are skipped as each of
      their lines would be, and an epoch's movable lines, sorted up
      front, are visited in the line-by-line walk's order.
    * The end-of-epoch "freed nothing" break is unchanged.
    """
    if target_pages:
        # An undersized quota must degrade to steady-state packing, not
        # to relocating every live version on every pass: clamp the
        # target to the best perfectly-packed footprint of the live
        # versions (which the master_refs-based accounting now measures
        # honestly), and do nothing when the pool already fits.
        lines_per_page = PAGE_SIZE // CACHE_LINE_SIZE
        best_possible = -(-omc.pool.live_slots() // lines_per_page)
        target_pages = max(target_pages, best_possible)
        if omc.pool.pages_in_use() <= target_pages:
            return 0
    pool = omc.pool
    by_epoch: Dict[int, List["SubPage"]] = {}
    for subpage in pool.subpages():
        epoch = omc._subpage_epoch.get(subpage.id)
        if subpage.master_refs and epoch is not None:
            by_epoch.setdefault(epoch, []).append(subpage)
    if not by_epoch:
        return 0
    target_epoch = max(
        max(omc.tables, default=0), omc.merged_through + 1, max(by_epoch) + 1
    )
    # The newest epoch's sub-pages are the densest with live versions;
    # relocating them frees nothing, so they stay put unless they are
    # all there is.
    candidates = sorted(by_epoch)
    if len(candidates) > 1:
        candidates = candidates[:-1]
    moved = 0
    skipped_pinned = 0
    skipped_retained = 0
    for epoch in candidates:
        pages_before = pool.pages_in_use()
        retained: List["SubPage"] = []
        movable: List[Tuple[int, int, int]] = []
        for subpage in by_epoch[epoch]:
            if subpage.retained:
                retained.append(subpage)
            elif subpage.master_refs < subpage.capacity:
                movable.extend(_live_versions(omc, subpage))
            # else every slot is live: this sub-page wastes no space, so
            # relocating it can never free a page — it would only be
            # write amplification (re-compacting last pass's output).
        stop_line = None
        for line, oid, data in sorted(movable):
            _relocate(omc, line, oid, data, target_epoch, now)
            moved += 1
            # Check the quota after every relocation, not once per epoch:
            # a dense epoch used to be drained wholesale, overshooting the
            # target and burning NVM data writes the quota never asked for.
            if target_pages and pool.pages_in_use() <= target_pages:
                stop_line = line
                break
        if stop_line is None:
            skipped = sum(subpage.master_refs for subpage in retained)
        else:  # only the retained lines a line-by-line walk passed
            skipped = sum(
                version[0] < stop_line
                for subpage in retained for version in _live_versions(omc, subpage)
            )
        if pin_floor is not None and epoch >= pin_floor:
            skipped_pinned += skipped
        else:
            skipped_retained += skipped
        if stop_line is not None:
            break
        if moved and pool.pages_in_use() >= pages_before:
            # Draining the oldest remaining epoch freed nothing; newer
            # epochs are denser still, so pressing on is pure churn.
            break
    if moved:
        omc.stats.inc(f"omc{omc.id}.compacted_versions", moved)
    if skipped_pinned:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_pinned", skipped_pinned)
    if skipped_retained:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_retained", skipped_retained)
    return moved


def _live_versions(omc: "OMC", subpage: "SubPage") -> List[Tuple[int, int, int]]:
    """(line, oid, data) of each slot the Master Table maps its line to."""
    read, lookup, subpage_id = omc.pool.read_version, omc.master.lookup, subpage.id
    live = []
    for slot in range(subpage.used):
        version = read(subpage_id, slot)
        location = lookup(version[0])
        if (location is not None and location.subpage_id == subpage_id
                and location.slot == slot):
            live.append(version)
    return live


def _relocate(omc: "OMC", line: int, oid: int, data: int, target_epoch: int, now: int) -> None:
    """Re-home one live version into ``target_epoch``'s overlay pages.

    The version keeps its *original* OID in the content store so
    time-travel reads still see the correct version epoch; only its
    physical placement (and hence reclamation group) changes.
    """
    page = line >> 6
    subpage = omc._subpage_with_room(target_epoch, page, for_relocation=True)
    slot = omc.pool.write_version(subpage, line, oid, data)
    from .mapping import VersionLocation

    new_location = VersionLocation(subpage.id, slot)
    subpage.master_refs += 1
    _new_nodes, previous = omc.master.insert(line, new_location)
    omc.nvm.write_background(line, CACHE_LINE_SIZE, now, "data")
    if previous is not None:
        omc._drop_master_ref(previous)

"""Tests for garbage collection and version compaction (§V-D)."""

import copy
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OMC,
    OMCCluster,
    PoolExhaustedError,
    compact,
    compact_if_needed,
)
from repro.core.gc import _relocate
from repro.sim import NVM, Stats, SystemConfig
from repro.sim.config import CACHE_LINE_SIZE, PAGE_SIZE


def make_omc(**kwargs):
    stats = Stats()
    nvm = NVM(SystemConfig(), stats)
    kwargs.setdefault("pool_pages", 1024)
    kwargs.setdefault("retain_epoch_tables", False)
    return OMC(0, nvm, stats, **kwargs)


def fill_epochs(omc, epochs, lines_per_epoch=64, stride=1):
    for epoch in epochs:
        for i in range(lines_per_epoch):
            omc.insert_version(i * stride, epoch, epoch * 1000 + i, 0)
        omc.merge_through(epoch, 0)


class TestCompaction:
    def test_compact_moves_old_live_versions(self):
        omc = make_omc()
        # Epoch 1 writes lines 0..63; epoch 2 rewrites only half, so
        # epoch 1's sub-pages stay pinned by the surviving 32 lines.
        for line in range(64):
            omc.insert_version(line, 1, 100 + line, 0)
        omc.merge_through(1, 0)
        for line in range(32):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        before_pages = omc.pool.pages_in_use()
        moved = compact(omc, now=0)
        assert moved == 32  # the surviving epoch-1 versions
        assert omc.pool.pages_in_use() <= before_pages
        # The image is unchanged.
        for line in range(32):
            assert omc.read_master(line) == 200 + line
        for line in range(32, 64):
            assert omc.read_master(line) == 100 + line

    def test_compact_counts_nvm_writes(self):
        omc = make_omc()
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 0, 0)
        omc.merge_through(2, 0)
        before = omc.nvm.bytes_written("data")
        moved = compact(omc, now=0)
        assert moved > 0
        assert omc.nvm.bytes_written("data") == before + moved * 64

    def test_compact_nothing_to_do(self):
        omc = make_omc()
        assert compact(omc, now=0) == 0

    def test_compact_skips_retained_epochs(self):
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        assert compact(omc, now=0) == 0  # retained sub-pages untouched
        # The skips are accounted, not silent, so callers can retry.
        assert omc.stats.get("omc0.compaction_skipped_retained") == 64
        assert omc.stats.get("omc0.compaction_skipped_pinned") == 0

    def test_pinned_skips_counted_separately(self):
        # With a pin floor, retained epochs at/above it are "pinned by an
        # active session" (free up on release), not merely "retained".
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        assert compact(omc, now=0, pin_floor=1) == 0
        assert omc.stats.get("omc0.compaction_skipped_pinned") == 64
        assert omc.stats.get("omc0.compaction_skipped_retained") == 0

    def test_relocated_subpages_are_not_retained(self):
        # Regression: _relocate used to inherit SubPage's retained=True
        # default, permanently pinning every relocated version.
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        omc.drop_epochs_before(2)  # epoch 1's retention released
        moved = compact(omc, now=0)
        assert moved > 0
        for line in range(8, 64):
            location = omc.master.lookup(line)
            assert not omc.pool.subpage(location.subpage_id).retained

    def test_time_travel_sees_original_oid_after_compaction(self):
        omc = make_omc()
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 0, 0)
        omc.merge_through(2, 0)
        compact(omc, now=0)
        # Versions moved physically but keep epoch 1 identity via master.
        assert omc.read_master(40) == 1040


class TestQuota:
    def test_cluster_quota_triggers_compaction(self):
        stats = Stats()
        nvm = NVM(SystemConfig(), stats)
        cluster = OMCCluster(
            1, 1, nvm, stats,
            pool_pages=1024, retain_epoch_tables=False, quota_pages=2,
        )
        for epoch in range(1, 30):
            for line in range(64):
                if epoch == 1 or line < 48:
                    cluster.insert_version(line, epoch, epoch * 1000 + line, 0)
            cluster.update_min_ver(0, epoch + 1, 0)
        assert stats.get("omc0.compacted_versions") > 0

    def test_no_quota_no_compaction(self):
        stats = Stats()
        nvm = NVM(SystemConfig(), stats)
        cluster = OMCCluster(
            1, 1, nvm, stats, pool_pages=1024, retain_epoch_tables=False,
        )
        assert compact_if_needed(cluster, 0) == 0

    def test_quota_checked_per_relocation_not_per_epoch(self):
        # Regression: the quota used to be checked only between epochs,
        # so one sparse epoch spread over many pages was drained
        # wholesale even when freeing a single page would have satisfied
        # the target.  Now compaction stops mid-epoch at the quota.
        omc = make_omc()
        for page in range(8):
            for i in range(64):
                omc.insert_version(page * 64 + i, 1, 1000 + page * 64 + i, 0)
        omc.merge_through(1, 0)
        for page in range(8):
            for i in range(56):  # rewrite 56 of 64: 8 survivors per page
                omc.insert_version(page * 64 + i, 2, 2000 + page * 64 + i, 0)
        omc.merge_through(2, 0)
        before = omc.pool.pages_in_use()
        target = before - 1
        moved = compact(omc, now=0, target_pages=target)
        survivors = 8 * 8
        assert 0 < moved < survivors  # the old code moved all survivors
        assert omc.pool.pages_in_use() <= target

    def test_compact_noop_when_pool_already_fits(self):
        omc = make_omc()
        fill_epochs(omc, [1, 2])
        target = omc.pool.pages_in_use() + 1
        assert compact(omc, now=0, target_pages=target) == 0


def exhaust_pool(pool):
    """Burn every free page and partial-carve slot with dummy sub-pages."""
    dummies = []
    for size_class in (64, 16, 4):
        while True:
            try:
                dummies.append(pool.alloc_subpage(size_class))
            except PoolExhaustedError:
                break
    return dummies


class TestPoolExhaustion:
    def _sparse_omc(self, **kwargs):
        """An OMC with one sparse old epoch worth compacting."""
        omc = make_omc(pool_pages=32, **kwargs)
        fill_epochs(omc, [1])
        for line in range(32):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        return omc

    def test_grow_recovers_mid_compaction_exhaustion(self):
        omc = self._sparse_omc()
        exhaust_pool(omc.pool)
        with pytest.raises(PoolExhaustedError):
            compact(omc, now=0)
        omc.pool.grow(4)
        assert compact(omc, now=0) > 0
        # The image survived the aborted pass and the retry.
        for line in range(32):
            assert omc.read_master(line) == 200 + line
        for line in range(32, 64):
            assert omc.read_master(line) == 1000 + line

    def test_os_grow_pages_absorbs_compaction_exhaustion(self):
        omc = self._sparse_omc(os_grow_pages=4)
        exhaust_pool(omc.pool)
        assert compact(omc, now=0) > 0  # §V-D exception handled inline
        assert omc.stats.get("omc0.os_grows") > 0


# ---------------------------------------------------------------------------
# Reference: compaction as a line-by-line walk of the Master Table
# ---------------------------------------------------------------------------

def _reference_live_versions_by_epoch(omc):
    """Master-referenced lines grouped by the epoch of their sub-page."""
    by_epoch = {}
    for line, location in omc.master.entries():
        epoch = omc._subpage_epoch.get(location.subpage_id)
        if epoch is None:
            continue
        by_epoch.setdefault(epoch, []).append(line)
    return by_epoch


def _reference_free_subpage(omc, subpage_id):
    """Free a sub-page, scanning its epoch's cursors for any pointing at it."""
    epoch = omc._subpage_epoch.pop(subpage_id, None)
    if epoch is not None:
        for cursor_map in (omc._cursors, omc._reloc_cursors):
            cursors = cursor_map.get(epoch)
            if cursors is None:
                continue
            for page, subpage in list(cursors.items()):
                if subpage.id == subpage_id:
                    del cursors[page]
    omc.pool.free_subpage(subpage_id)


def reference_compact(omc, now, target_pages=0, pin_floor=None):
    """The Master-Table-walking compaction ``compact`` must reproduce.

    Groups every mapped line by its sub-page's epoch, then visits each
    candidate epoch's lines in ascending order, looking each one up
    again.  Installs the scanning ``_free_subpage`` on ``omc`` too, so
    the cursor bookkeeping is checked against the original as well.
    """
    omc._free_subpage = types.MethodType(_reference_free_subpage, omc)
    if target_pages:
        lines_per_page = PAGE_SIZE // CACHE_LINE_SIZE
        best_possible = -(-omc.pool.live_slots() // lines_per_page)
        target_pages = max(target_pages, best_possible)
        if omc.pool.pages_in_use() <= target_pages:
            return 0
    by_epoch = _reference_live_versions_by_epoch(omc)
    if not by_epoch:
        return 0
    target_epoch = max(
        max(omc.tables, default=0), omc.merged_through + 1, max(by_epoch) + 1
    )
    candidates = sorted(by_epoch)
    if len(candidates) > 1:
        candidates = candidates[:-1]
    moved = skipped_pinned = skipped_retained = 0
    at_quota = False
    for epoch in candidates:
        if epoch >= target_epoch:
            break
        pages_before = omc.pool.pages_in_use()
        for line in by_epoch[epoch]:
            location = omc.master.lookup(line)
            if location is None:
                continue
            subpage = omc.pool.subpage(location.subpage_id)
            if subpage.retained:
                if pin_floor is not None and epoch >= pin_floor:
                    skipped_pinned += 1
                else:
                    skipped_retained += 1
                continue
            if subpage.master_refs >= subpage.capacity:
                continue
            _line, oid, data = omc.pool.read_version(
                location.subpage_id, location.slot
            )
            _relocate(omc, line, oid, data, target_epoch, now)
            moved += 1
            if target_pages and omc.pool.pages_in_use() <= target_pages:
                at_quota = True
                break
        if at_quota:
            break
        if moved and omc.pool.pages_in_use() >= pages_before:
            break
    if moved:
        omc.stats.inc(f"omc{omc.id}.compacted_versions", moved)
    if skipped_pinned:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_pinned", skipped_pinned)
    if skipped_retained:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_retained", skipped_retained)
    return moved


def omc_state(omc):
    """Everything compaction may touch, in comparable form."""
    pool, nvm, stats = omc.pool, omc.nvm, omc.stats

    def locations(entries):
        return [(line, loc.subpage_id, loc.slot) for line, loc in entries]

    def cursor_ids(cursor_map):
        return {
            epoch: {page: subpage.id for page, subpage in cursors.items()}
            for epoch, cursors in cursor_map.items()
        }

    return {
        "counters": stats.counters(),
        "series": {name: stats.series(name) for name in sorted(stats._series)},
        "master": locations(omc.master.entries()),
        "master_nodes": omc.master.occupancy_per_level(),
        "tables": {e: locations(t.entries()) for e, t in omc.tables.items()},
        "pages_in_use": pool.pages_in_use(),
        "live_slots": pool.live_slots(),
        "num_pages": pool.num_pages,
        "bitmap": bytes(pool.bitmap),
        "free_pages": list(pool._free_pages),
        "subpages": sorted(
            (sp.id, sp.page_id, sp.capacity, sp.used, sp.master_refs, sp.retained)
            for sp in pool.subpages()
        ),
        "contents": dict(pool._contents),
        "partial": dict(pool._partial),
        "page_live": dict(pool._page_live),
        "next_subpage_id": pool._next_subpage_id,
        "cursors": cursor_ids(omc._cursors),
        "reloc_cursors": cursor_ids(omc._reloc_cursors),
        "extent_counts": omc._extent_counts,
        "epoch_subpages": omc._epoch_subpages,
        "subpage_epoch": omc._subpage_epoch,
        "nvm_banks": (list(nvm._backlog), list(nvm._last)),
        "nvm_wear": (dict(nvm.wear._page_writes), nvm.wear.total_line_writes),
    }


def assert_matches_reference(omc, now, target_pages=0, pin_floor=None):
    """Run the reference on a deep copy and ``compact`` on ``omc``."""
    reference = copy.deepcopy(omc)
    expected = reference_compact(reference, now, target_pages, pin_floor)
    moved = compact(omc, now, target_pages=target_pages, pin_floor=pin_floor)
    assert moved == expected
    expected_state, state = omc_state(reference), omc_state(omc)
    for key in expected_state:
        assert state[key] == expected_state[key], key
    return moved


#: One epoch of a history: the runs of lines it writes, as (page, first
#: line, length) within one of 8 pages (overlaps are rewrites within the
#: epoch; long runs fill whole 64-line sub-pages, whose survivors can
#: free a page mid-pass), how far the merge lags it, the retention floor
#: to drop to (as a lag behind the epoch), and an optional compaction
#: pass (pages below the current footprint to aim for, or 0 for no
#: quota; the pin floor as a lag behind the epoch).
_EPOCH = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 63), st.integers(1, 64)),
        max_size=4,
    ),
    st.sampled_from([None, 0, 1]),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from([0, 1, 2, 4]), st.one_of(st.none(), st.integers(0, 3))),
    ),
)


class TestMatchesLineByLineReference:
    @settings(max_examples=150, deadline=None)
    @given(
        retain=st.booleans(),
        grow=st.booleans(),
        epochs=st.lists(_EPOCH, min_size=1, max_size=8),
        final_pin=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_random_histories(self, retain, grow, epochs, final_pin):
        omc = make_omc(
            retain_epoch_tables=retain,
            pool_pages=2 if grow else 1024,
            os_grow_pages=2 if grow else 0,
        )
        now = 0
        for epoch, (runs, merge_lag, drop_lag, pass_) in enumerate(epochs, 1):
            for page, first, length in runs:
                for line in range(page * 64 + first, page * 64 + min(64, first + length)):
                    now += 7
                    omc.insert_version(line, epoch, epoch * 1000 + line, now)
            if merge_lag is not None and epoch - merge_lag > omc.merged_through:
                omc.merge_through(epoch - merge_lag, now)
            if drop_lag is not None:
                omc.drop_epochs_before(epoch - drop_lag)
            if pass_ is not None:
                below, pin_lag = pass_
                target = max(1, omc.pool.pages_in_use() - below) if below else 0
                pin_floor = None if pin_lag is None else max(1, epoch - pin_lag)
                assert_matches_reference(omc, now, target, pin_floor)
        # A final pass without a quota over whatever the history left.
        assert_matches_reference(omc, now + 1, pin_floor=final_pin)

    def test_quota_stop_between_retained_lines(self):
        # Epoch 1 writes pages 1-3; epoch 2 (kept retained) rewrites the
        # first 4 lines of each.  Dropping epoch 1's retention lets a
        # pass relocate the 60 survivors per page into epoch 3, whose
        # write path then adds retained lines 0-3 and 320-323.  Epoch 4
        # rewrites 4 relocated lines per page, leaving each page's 64-line
        # relocation sub-page in epoch 3 partly live.
        omc = make_omc(retain_epoch_tables=True)
        pages = (1, 2, 3)

        def write_epoch(epoch, lines):
            for line in lines:
                omc.insert_version(line, epoch, epoch * 1000 + line, 0)
            omc.merge_through(epoch, 0)

        write_epoch(1, [p * 64 + i for p in pages for i in range(64)])
        write_epoch(2, [p * 64 + i for p in pages for i in range(4)])
        omc.drop_epochs_before(2)
        assert_matches_reference(omc, 0)
        write_epoch(3, list(range(0, 4)) + list(range(320, 324)))
        write_epoch(4, [p * 64 + i for p in pages for i in range(40, 44)])
        # One page below the footprint: the pass stops inside epoch 3
        # once page 1's survivors (lines 108-127) have moved, between
        # retained lines 0-3 below the stop line and 320-323 above it.
        target = omc.pool.pages_in_use() - 1
        assert assert_matches_reference(omc, 0, target_pages=target) == 20
        assert omc.pool.pages_in_use() == target
        assert omc._subpage_epoch[omc.master.lookup(172).subpage_id] == 3
        # Epoch 2's 12 retained lines, then only lines 0-3 of epoch 3.
        assert omc.stats.get("omc0.compaction_skipped_retained") == 12 + 4

"""The MESI/MOESI cache hierarchy and NVOverlay's version access protocol.

The machine (Fig. 2 of the paper): per-core L1-D caches, an inclusive L2
shared by the cores of each *Versioned Domain* (VD), distributed
non-inclusive LLC slices hashed by line address, and a directory at the
LLC tracking VD-granularity ownership.  Working memory is DRAM (the
evaluation gives every scheme a DRAM write-back buffer sized for the
working set).

When the attached scheme sets ``uses_version_protocol`` the hierarchy
additionally runs Coherent Snapshot Tracking (§IV):

* every line carries an OID (logical epoch of its last write);
* dirty versions from previous epochs are immutable — a store to one
  first *store-evicts* the old version to the L2 (Fig. 4);
* an L1 write-back whose OID is newer than a dirty L2 version first
  pushes the L2 version out to the OMC (Fig. 4c);
* external downgrades write the newest version back to LLC + OMC
  (Fig. 5), external invalidations transfer it cache-to-cache without
  touching the OMC (Fig. 6's optimization);
* coherence responses carry the line's OID as RV, and a VD observing
  RV newer than its epoch advances — the Lamport-clock rule (§III-C).

State is modelled without transient coherence states: each memory
operation runs to completion atomically, which is sound for a
deterministic single-threaded simulator.

This module holds the machine's state and its construction, plus the
steps that run outside an access or that the access path calls into:
epoch advance and coherence-driven sync, the tag walkers' set scans,
``flush_vd`` / ``flush_all``, the GETX owner hand-over (Fig. 6) and
their helpers (the PUTX rule, version write-backs, the LLC insert,
working-memory write-backs).  The transitions of an access itself —
fills, store upgrades, owner downgrades, invalidations, evictions,
directory back-invalidation — are written once, in
``repro.sim.fastpath``, for every machine (MESI or MOESI, directory or
snoop, one socket or several, finite directories, DRAM or NVM working
memory).  ``tests/reference_hierarchy.py`` keeps the plain
method-per-transition definition they were written against, frozen, so
the parity tests can compare the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cache import MESI, CacheArray, CacheLine
from .config import (
    CACHE_LINE_SIZE,
    AdaptiveEpochPolicy,
    SystemConfig,
)
from .dram import DRAM
from .interconnect import Interconnect
from .memory import MainMemory
from .nvm import NVM
from .scheme import (
    REASON_CAPACITY,
    REASON_COHERENCE,
    REASON_OTHER,
    REASON_STORE_EVICT,
    REASON_TAG_WALK,
    SnapshotScheme,
)
from .stats import Stats


class DirEntry:
    """Directory state for one line, at VD granularity.

    The access path (``repro.sim.fastpath``) keeps the entries its LLC
    insert drops as empty and hands them to the next line that needs
    one, so nothing may keep a ``DirEntry`` across accesses.
    """

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.sharers: Set[int] = set()

    def holders(self) -> Set[int]:
        holders = set(self.sharers)
        if self.owner is not None:
            holders.add(self.owner)
        return holders

    def is_empty(self) -> bool:
        return self.owner is None and not self.sharers


class VDState:
    """One Versioned Domain: its L2, member cores, and epoch registers."""

    def __init__(self, vd_id: int, core_ids: List[int], l2: CacheArray) -> None:
        self.id = vd_id
        self.core_ids = core_ids
        self.l2 = l2
        self.cur_epoch = 1  # logical; OID 0 means "pre-history / clean"
        self.store_count = 0  # stores since last epoch advance
        self.total_stores = 0  # stores over the whole run
        self.stall_until = 0  # VD-wide stall barrier (epoch advance)


class Hierarchy:
    """The full cache/coherence data path shared by all schemes."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Stats,
        mem: MainMemory,
        dram: DRAM,
        nvm: NVM,
        net: Interconnect,
        scheme: SnapshotScheme,
    ) -> None:
        self.config = config
        self.stats = stats
        self.mem = mem
        self.dram = dram
        self.nvm = nvm
        self.net = net
        self.scheme = scheme
        self.versioned = scheme.uses_version_protocol
        #: MOESI mode: downgraded dirty lines stay dirty-shared (O) at
        #: their owner instead of writing back (§IV-E compatibility).
        self.moesi = config.coherence_protocol == "moesi"
        #: Snoop transport: misses broadcast to every VD instead of
        #: consulting a distributed directory (timing/stats only —
        #: the directory structure doubles as the snoop-result oracle).
        self.snoop = config.coherence_transport == "snoop"
        #: Working data on NVM instead of the DRAM buffer (§III-B).
        self.working_nvm = config.working_memory == "nvm"
        #: Dynamic epoch policies may carry controller state across a
        #: run; re-seeding at machine build keeps back-to-back runs that
        #: share one config object deterministic.  The adaptive policy is
        #: additionally bound here so ``advance_epoch`` can feed each
        #: committed epoch's write set back into the next epoch size.
        if config.epoch_policy is not None:
            config.epoch_policy.reset()
        self._adaptive_policy = (
            config.epoch_policy
            if isinstance(config.epoch_policy, AdaptiveEpochPolicy)
            else None
        )
        #: Batched epoch sync (scale-out mode): coherence-driven advances
        #: move the local epoch register immediately but defer their
        #: cross-VD side effects to the next transaction boundary.  The
        #: lazy import avoids a sim <-> core cycle at module load.
        self._epoch_batcher = None
        if config.batch_epoch_sync and self.versioned:
            from ..core.epoch import EpochSyncBatcher

            self._epoch_batcher = EpochSyncBatcher(config.num_vds)

        self.l1s: List[CacheArray] = [
            CacheArray(config.l1_geometry, f"l1.{core}", stats)
            for core in range(config.num_cores)
        ]
        self.vds: List[VDState] = []
        for vd_id in range(config.num_vds):
            cores = list(
                range(vd_id * config.cores_per_vd, (vd_id + 1) * config.cores_per_vd)
            )
            l2 = CacheArray(config.l2_geometry, f"l2.{vd_id}", stats)
            self.vds.append(VDState(vd_id, cores, l2))
        self.llc: List[CacheArray] = [
            CacheArray(config.llc_slice_geometry, f"llc.{s}", stats)
            for s in range(config.llc_slices)
        ]
        # Sharded directory: one independent insertion-ordered dict per
        # LLC slice, owning exactly the lines that hash to that slice
        # (address-interleaved, ``line % llc_slices``).  There is no
        # global map — every lookup resolves its shard first, so slices
        # never contend on shared structure and the per-shard insertion
        # order doubles as the finite-directory victim queue.
        self._dir_capacity = config.directory_entries_per_slice
        self._dir_shards: List[Dict[int, DirEntry]] = [
            {} for _ in range(config.llc_slices)
        ]

        self._token = 0  # global store token (opaque "data")
        #: Optional capture of (line, epoch, token, vd, core) per committed
        #: store, used by tests to build golden snapshot images and by the
        #: differential checker to compare schemes (tokens are values of a
        #: global counter, so only (core, per-core-index) identities are
        #: comparable across schemes).
        self.store_log: Optional[List[Tuple[int, int, int, int, int]]] = None

        # ---- resolved once (caching only, no semantics) ----
        # Interned per-slice stat keys, the core->VD map, geometry
        # latencies and a bound Stats.inc, shared with the fast path.
        slices = range(config.llc_slices)
        self._llc_dir_access_key = [f"llc.{s}.dir_accesses" for s in slices]
        self._llc_fill_key = [f"llc.{s}.fills" for s in slices]
        self._llc_hit_key = [f"llc.{s}.hits" for s in slices]
        self._llc_miss_key = [f"llc.{s}.misses" for s in slices]
        self._evict_reason_key = {
            reason: f"evict_reason.{reason}"
            for reason in (REASON_CAPACITY, REASON_COHERENCE, REASON_OTHER,
                           REASON_STORE_EVICT, REASON_TAG_WALK)
        }
        self._num_slices = config.llc_slices
        self._l1_latency = config.l1_geometry.latency
        self._l2_latency = config.l2_geometry.latency
        self._llc_latency = config.llc_geometry.latency
        self._core_vd: List[VDState] = [
            self.vds[core // config.cores_per_vd]
            for core in range(config.num_cores)
        ]
        self._inc = stats.inc
        self._mem_lines = mem._lines  # the line->(data, oid) dict itself
        # All L1s share one geometry; peer probes index their set lists
        # directly with a single shared set decomposition.
        self._l1_num_sets = config.l1_geometry.num_sets
        self._l2_num_sets = config.l2_geometry.num_sets
        self._vd_l1_sets = [
            [self.l1s[core]._sets for core in vd.core_ids] for vd in self.vds
        ]
        #: ``scheme.on_store`` bound only when the scheme overrides it —
        #: the base no-op costs nothing instead of a call per store.
        self._scheme_on_store = (
            scheme.on_store
            if type(scheme).on_store is not SnapshotScheme.on_store
            else None
        )
        #: Same treatment for the eviction hooks (e.g. NVOverlay never
        #: overrides them — eviction costs flow through the CST path).
        self._scheme_on_l2_dirty_eviction = (
            scheme.on_l2_dirty_eviction
            if type(scheme).on_l2_dirty_eviction
            is not SnapshotScheme.on_l2_dirty_eviction
            else None
        )
        self._scheme_on_llc_dirty_eviction = (
            scheme.on_llc_dirty_eviction
            if type(scheme).on_llc_dirty_eviction
            is not SnapshotScheme.on_llc_dirty_eviction
            else None
        )
        #: Optional crash-point injector (repro.faults); set by Machine.
        #: Assigning it binds ``_fault_on_event`` once, so un-injected
        #: runs never evaluate an injector guard in the commit path.
        self._fault_injector = None
        self._fault_on_event = None
        #: Optional protocol oracle (repro.oracle); set by Machine.  The
        #: setter binds the per-event methods once, so unarmed runs never
        #: evaluate an oracle guard beyond a ``is not None`` on a local.
        self._oracle = None
        self._oracle_on_store = None
        self._oracle_on_writeback = None
        self._oracle_on_eviction = None
        self._oracle_on_epoch = None
        self._oracle_on_coherence = None

    @property
    def fault_injector(self):
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        self._fault_on_event = injector.on_event if injector is not None else None

    @property
    def oracle(self):
        return self._oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self._oracle = oracle
        if oracle is None:
            self._oracle_on_store = None
            self._oracle_on_writeback = None
            self._oracle_on_eviction = None
            self._oracle_on_epoch = None
            self._oracle_on_coherence = None
        else:
            self._oracle_on_store = oracle.on_store
            self._oracle_on_writeback = oracle.on_writeback
            self._oracle_on_eviction = oracle.on_eviction
            self._oracle_on_epoch = oracle.on_epoch_advance
            self._oracle_on_coherence = oracle.on_coherence

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def vd_of_core(self, core_id: int) -> VDState:
        return self._core_vd[core_id]

    def slice_of(self, line: int) -> int:
        return line % self._num_slices

    def dir_entry(self, line: int) -> Optional[DirEntry]:
        """Directory lookup through the owning shard (validators/tests)."""
        return self._dir_shards[line % self._num_slices].get(line)

    def dir_items(self):
        """Iterate (line, DirEntry) across every shard (validators/tests)."""
        for shard in self._dir_shards:
            yield from shard.items()

    def execute_access(
        self, core_id: int, addr: int, size: int, is_store: bool, now: int
    ) -> int:
        """Run one access outside ``Machine.run``; returns its latency.

        Builds the machine's access path, runs the access on it and
        writes the path's deferred counters back: the code every run
        takes, for a caller that drives single accesses.
        """
        from . import fastpath  # fastpath imports this module

        fast = fastpath.build(self.scheme.machine)
        latency = fast.access(core_id, addr, size, is_store, now)
        fast.flush()
        return latency

    def epoch_due(self, vd: VDState) -> bool:
        return (
            self.versioned
            and vd.store_count >= self.config.vd_epoch_size_at(vd.total_stores)
        )

    def advance_epoch(self, vd: VDState, new_epoch: int, now: int) -> int:
        """Terminate the VD's current epoch (§IV-B2); returns stall cycles."""
        if new_epoch <= vd.cur_epoch:
            return 0
        old = vd.cur_epoch
        scheme_old = old
        batcher = self._epoch_batcher
        if batcher is not None:
            # A pending batched sync folds into this advance: the scheme
            # sees one announcement spanning base -> new_epoch.
            base = batcher.take(vd.id)
            if base is not None:
                scheme_old = base
        adaptive = self._adaptive_policy
        if adaptive is not None:
            # Feed the committed epoch back to the controller before the
            # counters reset: stores this epoch plus the dirty lines its
            # write set left in the VD's L2 (the quantity Fig. 14 shows
            # snapshot overhead actually tracks).
            dirty = sum(1 for entry in vd.l2.iter_lines() if entry.dirty)
            adaptive.observe_commit(vd.store_count, dirty)
        vd.cur_epoch = new_epoch
        vd.store_count = 0
        stall = self.config.epoch_advance_stall
        stall += self.scheme.on_epoch_advance(vd.id, scheme_old, new_epoch, now)
        vd.stall_until = max(vd.stall_until, now + stall)
        self._inc("epoch.advances")
        oracle_hook = self._oracle_on_epoch
        if oracle_hook is not None:
            oracle_hook(vd, old, new_epoch, now)
        return stall

    def flush_epoch_sync(self, vd: VDState, now: int) -> int:
        """Announce a batched coherence-driven advance (boundary only).

        No-op unless ``batch_epoch_sync`` is set and the VD synced its
        epoch register forward since the last boundary.  Fires the
        deferred scheme-side work — sense update, context record and
        dump, advance stall — once, spanning the whole batch, plus one
        explicit sync message on the interconnect.
        """
        batcher = self._epoch_batcher
        if batcher is None:
            return 0
        base = batcher.take(vd.id)
        if base is None:
            return 0
        stall = self.net.epoch_sync_notify(vd.id)
        stall += self.config.epoch_advance_stall
        stall += self.scheme.on_epoch_advance(vd.id, base, vd.cur_epoch, now)
        vd.stall_until = max(vd.stall_until, now + stall)
        self._inc("epoch.advances")
        return stall

    # ------------------------------------------------------------------
    # Intra-VD helpers (recall of peer L1 dirty copies)
    # ------------------------------------------------------------------
    def _find_l1_dirty_peer(
        self, vd: VDState, line: int, exclude_core: Optional[int]
    ) -> Optional[int]:
        l1s = self.l1s
        set_index = line % self._l1_num_sets
        for core in vd.core_ids:
            if core == exclude_core:
                continue
            entry = l1s[core]._sets[set_index].get(line)
            if entry is not None and entry.state >= MESI.M:  # M or O
                return core
        return None

    def _recall_l1_copy(
        self, vd: VDState, core_id: int, line: int, invalidate: bool, now: int
    ) -> int:
        """Pull a (possibly dirty) L1 copy down into the L2 (Figs. 7/8)."""
        cache_set = self.l1s[core_id]._sets[line % self._l1_num_sets]
        entry = cache_set.get(line)
        if entry is None:
            return 0
        latency = self._l2_latency
        if entry.state >= MESI.M:
            self._l2_putx(vd, line, entry.data, entry.oid, now)
        if invalidate:
            del cache_set[line]
        else:
            entry.state = MESI.S
        return latency

    def _invalidate_vd_l1s(
        self, vd: VDState, line: int, exclude_core: Optional[int], now: int
    ) -> None:
        l1s = self.l1s
        set_index = line % self._l1_num_sets
        for core in vd.core_ids:
            if core == exclude_core:
                continue
            cache_set = l1s[core]._sets[set_index]
            entry = cache_set.get(line)
            if entry is None:
                continue
            if entry.state >= MESI.M:  # M or O
                self._l2_putx(vd, line, entry.data, entry.oid, now)
            del cache_set[line]

    # ------------------------------------------------------------------
    # The version-aware PUTX rule
    # ------------------------------------------------------------------
    def _l2_putx(self, vd: VDState, line: int, data: int, oid: int, now: int) -> None:
        """L1 write-back into the inclusive L2, honouring version order.

        If the L2 currently holds an older *dirty* version, that version is
        first evicted to the OMC so it is not overwritten (Fig. 4c).  The
        L2 copy then takes the incoming data and OID.
        """
        l2 = vd.l2
        cache_set = l2._sets[line % l2._num_sets]
        entry = cache_set.get(line)
        assert entry is not None, "inclusion violated: L1 write-back missed in L2"
        # LRU touch, as the unfused lookup(touch=True) did.
        del cache_set[line]
        cache_set[line] = entry
        if self.versioned and entry.state >= MESI.M and entry.oid < oid:
            self._version_writeback(
                vd, entry.line, entry.data, entry.oid, REASON_STORE_EVICT,
                to_llc=False, now=now,
            )
        entry.data = data
        entry.oid = oid
        entry.state = MESI.M

    # ------------------------------------------------------------------
    # Version write-backs, the LLC and working memory
    # ------------------------------------------------------------------
    def _version_writeback(
        self,
        vd: VDState,
        line: int,
        data: int,
        oid: int,
        reason: str,
        to_llc: bool,
        now: int,
    ) -> int:
        """Send a version to the OMC (bypassing the LLC, §IV-A2)."""
        latency = self.net.vd_to_omc(vd.id)
        self._inc("cst.version_writebacks")
        self._inc(self._evict_reason_key.get(reason) or f"evict_reason.{reason}")
        latency += self.scheme.on_version_writeback(vd.id, line, oid, data, reason, now)
        oracle_hook = self._oracle_on_writeback
        if oracle_hook is not None:
            # After the scheme call: the version has reached the OMC, so
            # the oracle can check it is reachable where §V says it is.
            oracle_hook(vd, line, oid, reason, now)
        # The OMC logically serves as the memory controller (§V): once a
        # version is persisted it is the newest servable copy of the
        # address, so the working image follows it.  Without this, a
        # walker-downgraded E line discarded on eviction (§IV-C) would
        # leave a stale working copy behind.
        self._memory_update(line, data, oid)
        if to_llc:
            latency += self._llc_insert(line, data, oid, dirty=True, now=now)
        return latency

    def _llc_insert(self, line: int, data: int, oid: int, dirty: bool, now: int) -> int:
        slice_id = line % self._num_slices
        array = self.llc[slice_id]
        latency = self._llc_latency
        self._inc(self._llc_fill_key[slice_id])
        cache_set = array._sets[line % array._num_sets]
        existing = cache_set.get(line)
        if existing is not None:
            dirty = dirty or existing.state >= MESI.M
        elif len(cache_set) >= array._ways:
            latency += self._evict_llc_victim(array, line, now)
        cache_set.pop(line, None)
        cache_set[line] = CacheLine(line, MESI.M if dirty else MESI.S, oid, data)
        return latency

    def _evict_llc_victim(self, array: CacheArray, incoming: int, now: int) -> int:
        cache_set = array._sets[incoming % array._num_sets]
        victim = cache_set[next(iter(cache_set))]
        latency = 0
        if victim.state >= MESI.M:
            self._inc("llc.dirty_evictions")
            self._working_writeback(victim.line, now)
            self._memory_update(victim.line, victim.data, victim.oid)
            hook = self._scheme_on_llc_dirty_eviction
            if hook is not None:
                latency += hook(victim.line, victim.oid, victim.data, now)
        del cache_set[victim.line]
        self._inc("llc.evictions")
        shard = self._dir_shards[victim.line % self._num_slices]
        dentry = shard.get(victim.line)
        if dentry is not None and dentry.is_empty():
            del shard[victim.line]
        return latency

    def _memory_update(self, line: int, data: int, oid: int) -> None:
        """Working memory keeps the most recent version + its OID (§IV-A4)."""
        lines = self._mem_lines
        current = lines.get(line)
        if current is None or oid >= current[1]:
            lines[line] = (data, oid)

    def _working_writeback(self, line: int, now: int) -> None:
        """Posted write-back of a line to working memory."""
        if self.working_nvm:
            self.nvm.write_background(line, CACHE_LINE_SIZE, now, "working")
        else:
            self.dram.access(line, now, True)

    # ------------------------------------------------------------------
    # Inter-VD coherence: the GETX owner hand-over (Fig. 6)
    # ------------------------------------------------------------------
    def _invalidate_owner_for_getx(
        self, owner: VDState, line: int, now: int
    ) -> Optional[Tuple[int, int, bool]]:
        """DIR-GETX at the owner (Fig. 6): cache-to-cache the newest version.

        Returns (data, oid, dirty).  The owner's copy is handed over even
        when clean — after a tag-walker downgrade the E-state line still
        holds the newest data, which LLC/DRAM may not.  An older dirty L2
        version shadowed by a newer L1 version goes straight to the OMC —
        never to the LLC — per the Fig. 6 optimization.
        """
        peer = self._find_l1_dirty_peer(owner, line, exclude_core=None)
        if peer is not None:
            # Merges the L1 version into the L2, pushing an older dirty L2
            # version to the OMC if OIDs differ (the two-evictions case).
            self._recall_l1_copy(owner, peer, line, invalidate=True, now=now)
        entry = owner.l2.probe(line)
        assert entry is not None, "directory says owner but L2 has no copy"
        oracle_hook = self._oracle_on_coherence
        if oracle_hook is not None:
            oracle_hook("invalidate_owner", owner.id, line, entry.oid, now)
        self._invalidate_vd_l1s(owner, line, exclude_core=None, now=now)
        if entry.state >= MESI.M:
            self._inc("coh.c2c_transfers")
        transfer = (entry.data, entry.oid, entry.state >= MESI.M)
        owner.l2.remove(line)
        return transfer

    # ------------------------------------------------------------------
    # Coherence-driven epoch synchronization (§IV-B2)
    # ------------------------------------------------------------------
    def _epoch_sync(self, vd: VDState, rv: int, now: int) -> int:
        if not self.versioned or rv <= vd.cur_epoch:
            return 0
        self._inc("epoch.coherence_syncs")
        batcher = self._epoch_batcher
        if batcher is None:
            return self.advance_epoch(vd, rv, now)
        # Batched mode: the Lamport advance of the local register is
        # immediate (the version protocol compares OIDs against it), but
        # the announcement waits for the transaction boundary.  Several
        # syncs inside one transaction coalesce into a single batch.
        old = vd.cur_epoch
        if batcher.note_advance(vd.id, old):
            self._inc("epoch.sync_batches")
        vd.cur_epoch = rv
        vd.store_count = 0
        oracle_hook = self._oracle_on_epoch
        if oracle_hook is not None:
            oracle_hook(vd, old, rv, now)
        return 0

    # ------------------------------------------------------------------
    # Whole-hierarchy maintenance (used by walkers / finalize / recovery)
    # ------------------------------------------------------------------
    def min_dirty_oid(self, vd: VDState) -> int:
        """Smallest OID among the VD's dirty versions, or cur-epoch.

        Runs once per completed walker pass over every set of the L2 and
        member L1s; iterates the set dicts directly (read-only).
        """
        dirty_floor = MESI.M
        arrays = [vd.l2] + [self.l1s[core] for core in vd.core_ids]
        dirty_oids = [
            entry.oid
            for array in arrays
            for cache_set in array._sets
            for entry in cache_set.values()
            if entry.state >= dirty_floor
        ]
        return min(dirty_oids) if dirty_oids else vd.cur_epoch

    def walker_scan_set(self, vd: VDState, set_index: int, now: int) -> None:
        """One tag-walker set scan (§IV-C) over every tag in the set.

        Behaviorally identical to the reference model's per-line visit,
        ``walker_persist`` (``tests/reference_hierarchy.py``), applied to
        each resident tag (with the walker's per-tag counter bump), but
        the peer probe and the L2 entry re-check run inline on the held
        entry objects instead of re-resolving the line each time: an L1
        copy dirty in a previous epoch is recalled into the L2 first, and
        a dirty L2 version older than cur-epoch is written back to the
        OMC and downgraded (M -> E, O -> S).
        """
        self._inc("walker.sets_scanned")
        l2_set = vd.l2._sets[set_index]
        if not l2_set:
            return
        entries = list(l2_set.values())
        # Bulk tag-counter bump: no observation point (stats dump or
        # fault-injection hook) can fire inside a single set scan.
        self._inc("walker.tags_scanned", len(entries))
        l1_sets = self._vd_l1_sets[vd.id]
        l1_num_sets = self._l1_num_sets
        # cur_epoch cannot advance mid-scan: nothing reachable from the
        # scan runs the epoch-advance protocol.
        cur_epoch = vd.cur_epoch
        dirty_floor = MESI.M
        if self._l2_num_sets % l1_num_sets == 0:
            # Every line of this L2 set maps to the same L1 set, so the
            # dirty L1 peers (first in core order, the walker_persist
            # rule) can be gathered once instead of probed per tag.
            # Nothing reachable from the scan dirties an L1 line, so the
            # up-front gather sees the same peers the per-tag probes did.
            l1_index = set_index % l1_num_sets
            peers: Optional[Dict[int, CacheLine]] = None
            for sets in l1_sets:
                for peer_line, peer in sets[l1_index].items():
                    if peer.state >= dirty_floor and (
                        peers is None or peer_line not in peers
                    ):
                        if peers is None:
                            peers = {}
                        peers[peer_line] = peer
            if peers is None:
                for entry in entries:
                    if entry.state >= dirty_floor and entry.oid < cur_epoch:
                        self._version_writeback(
                            vd, entry.line, entry.data, entry.oid,
                            REASON_TAG_WALK, to_llc=False, now=now,
                        )
                        entry.state = MESI.S if entry.state == MESI.O else MESI.E
                return
            for entry in entries:
                line = entry.line
                peer = peers.get(line)
                if peer is not None and peer.oid < cur_epoch:
                    # _l2_putx mutates this same L2 entry in place (and
                    # LRU-touches it), exactly as the unfused path did
                    # before its re-lookup.
                    self._l2_putx(vd, line, peer.data, peer.oid, now)
                    peer.state = MESI.E
                if entry.state >= dirty_floor and entry.oid < cur_epoch:
                    self._version_writeback(
                        vd, line, entry.data, entry.oid, REASON_TAG_WALK,
                        to_llc=False, now=now,
                    )
                    # O (dirty-shared) drops to S: other VDs hold copies.
                    entry.state = MESI.S if entry.state == MESI.O else MESI.E
            return
        for entry in entries:
            line = entry.line
            l1_index = line % l1_num_sets
            # First dirty L1 peer, in core order (walker_persist rule).
            for sets in l1_sets:
                peer = sets[l1_index].get(line)
                if peer is not None and peer.state >= dirty_floor:
                    if peer.oid < cur_epoch:
                        self._l2_putx(vd, line, peer.data, peer.oid, now)
                        peer.state = MESI.E
                    break
            if entry.state >= dirty_floor and entry.oid < cur_epoch:
                self._version_writeback(
                    vd, line, entry.data, entry.oid, REASON_TAG_WALK,
                    to_llc=False, now=now,
                )
                # O (dirty-shared) drops to S: other VDs hold copies.
                entry.state = MESI.S if entry.state == MESI.O else MESI.E

    def flush_vd(self, vd: VDState, now: int, reason: str = REASON_OTHER) -> int:
        """Persist every dirty version in a VD, leaving lines clean.

        Used by finalize and by the NVOverlay tag walker's recall step.
        """
        latency = 0
        for core in vd.core_ids:
            for entry in list(self.l1s[core].dirty_lines()):
                self._l2_putx(vd, entry.line, entry.data, entry.oid, now)
                entry.state = MESI.E
        for entry in list(vd.l2.dirty_lines()):
            if self.versioned:
                latency += self._version_writeback(
                    vd, entry.line, entry.data, entry.oid, reason,
                    to_llc=True, now=now,
                )
            else:
                latency += self._llc_insert(
                    entry.line, entry.data, entry.oid, dirty=True, now=now
                )
                latency += self.scheme.on_l2_dirty_eviction(
                    vd.id, entry.line, entry.oid, entry.data, reason, now
                )
            entry.state = MESI.S if entry.state == MESI.O else MESI.E
        return latency

    def flush_all(self, now: int) -> int:
        """Flush every VD and write LLC dirty data to working memory."""
        latency = 0
        for vd in self.vds:
            latency += self.flush_vd(vd, now)
        for array in self.llc:
            for entry in list(array.dirty_lines()):
                self._working_writeback(entry.line, now)
                self._memory_update(entry.line, entry.data, entry.oid)
                latency += self.scheme.on_llc_dirty_eviction(
                    entry.line, entry.oid, entry.data, now
                )
                entry.state = MESI.S
        return latency

    def memory_image(self) -> Dict[int, int]:
        """line -> newest data token across caches and memory (debug aid)."""
        image = self.mem.image()
        for array in self.llc:
            for entry in array.iter_lines():
                if entry.state >= MESI.M:
                    image[entry.line] = entry.data
        for vd in self.vds:
            for entry in vd.l2.iter_lines():
                if entry.state >= MESI.M:
                    image[entry.line] = entry.data
        for l1 in self.l1s:
            for entry in l1.iter_lines():
                if entry.state >= MESI.M:
                    image[entry.line] = entry.data
        return image

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

This module holds the machine's state and its construction, the epoch
steps the access path calls into (epoch advance and coherence-driven
sync, §IV-B2), ``min_dirty_oid`` for the walkers' min-ver reports, and
three entry points: ``execute_access`` (one access outside a run),
``walker_scan_set`` and ``flush_vd``.  Every cache transition — fills,
store upgrades, owner downgrades and hand-overs, invalidations,
evictions, directory back-invalidation, the tag walker's set scan and
NVOverlay's finalize flush — is written once, in ``repro.sim.fastpath``,
for every machine (MESI or MOESI, directory or snoop, one socket or
several, finite directories, DRAM or NVM working memory).
``walker_scan_set`` and ``flush_vd`` forward to the path of the run in
progress, ``self.path``, which ``fastpath.build`` sets and the path's
``flush`` clears; called outside a run, they need a built path.
``tests/reference_hierarchy.py`` keeps the plain method-per-transition
definition the access path was written against, frozen, so the parity
tests can compare the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cache import MESI, CacheArray
from .config import AdaptiveEpochPolicy, SystemConfig
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
        #: The ``FastPath`` of the run in progress, or None: set by
        #: ``fastpath.build`` and cleared by the path's ``flush``.  The
        #: walker scans and the finalize flush run on it.
        self.path = None

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
        """One tag-walker set scan (§IV-C), on the run's access path."""
        self.path.scan_set(vd, set_index, now)

    def flush_vd(self, vd: VDState, now: int) -> None:
        """NVOverlay's finalize flush of one VD, on the run's access path:
        every dirty version is persisted and the VD's lines left clean."""
        self.path.flush_vd(vd, now)

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

"""Two-level MESI cache hierarchy with NVOverlay's version access protocol.

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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cache import MESI, CacheArray, CacheLine
from .config import (
    CACHE_LINE_SHIFT,
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
    """Directory state for one line, at VD granularity."""

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

        # ---- hot-path acceleration state (caching only, no semantics) ----
        # Interned per-slice stat keys so the inner loop never builds
        # f-strings, resolved core->VD map, hoisted geometry latencies,
        # and a bound Stats.inc — the per-access loop runs on locals.
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
        # The counter dict itself (Stats.reset clears it in place): the
        # hottest sites inline Stats.inc's try/except body on it.
        self._counters = stats._counters
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
        """Run one access given as plain fields; returns its latency.

        The runner feeds it straight from workload access batches
        without building ``MemOp`` objects.  Single-line accesses (the
        overwhelmingly common case) skip the per-line loop.
        """
        first = addr >> CACHE_LINE_SHIFT
        last = (addr + size - 1) >> CACHE_LINE_SHIFT
        if is_store:
            if first == last:
                return self._store(core_id, first, now)
            total = 0
            for line in range(first, last + 1):
                total += self._store(core_id, line, now + total)
            return total
        if first == last:
            return self._load(core_id, first, now)
        total = 0
        for line in range(first, last + 1):
            total += self._load(core_id, line, now + total)
        return total

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
    # Load path
    # ------------------------------------------------------------------
    def _load(self, core_id: int, line: int, now: int) -> int:
        l1 = self.l1s[core_id]
        # Fused L1 hit fast path: one set-dict probe, an in-place LRU
        # touch, two counter bumps.  Equivalent to lookup()+inc()+inc()
        # but with no intermediate calls.  state truthiness == "not I".
        cache_set = l1._sets[line % l1._num_sets]
        entry = cache_set.get(line)
        if entry is not None and entry.state:
            del cache_set[line]
            cache_set[line] = entry
            counters = self._counters
            try:
                counters["l1.accesses"] += 1
            except KeyError:
                self._inc("l1.accesses")
            try:
                counters["l1.load_hits"] += 1
            except KeyError:
                self._inc("l1.load_hits")
            return self._l1_latency
        inc = self._inc
        inc("l1.accesses")
        inc("l1.load_misses")
        latency = self._l1_latency
        vd = self._core_vd[core_id]
        fill_latency, data, oid, state = self._vd_fill(
            vd, core_id, line, for_store=False, now=now + latency
        )
        latency += fill_latency
        self._l1_install(core_id, line, state, oid, data, now + latency)
        return latency

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def _store(self, core_id: int, line: int, now: int) -> int:
        l1 = self.l1s[core_id]
        # Fused L1 exclusive-hit fast path (E or M: state >= 2; L1 lines
        # are never O): probe + in-place LRU touch + counters + commit.
        cache_set = l1._sets[line % l1._num_sets]
        entry = cache_set.get(line)
        if entry is not None and entry.state >= MESI.E:
            del cache_set[line]
            cache_set[line] = entry
            counters = self._counters
            try:
                counters["l1.accesses"] += 1
            except KeyError:
                self._inc("l1.accesses")
            try:
                counters["l1.store_hits"] += 1
            except KeyError:
                self._inc("l1.store_hits")
            latency = self._l1_latency
            vd = self._core_vd[core_id]
            return latency + self._commit_store(vd, core_id, entry, now + latency)

        vd = self._core_vd[core_id]
        latency = self._l1_latency
        self._inc("l1.accesses")
        if entry is None or entry.state == MESI.I:
            self._inc("l1.store_misses")
            fill_latency, data, oid, _state = self._vd_fill(
                vd, core_id, line, for_store=True, now=now + latency
            )
            latency += fill_latency
            # Exclusive permission granted; install clean-exclusive and let
            # the common commit path below handle versioning.
            entry = self._l1_install(core_id, line, MESI.E, oid, data, now + latency)
        else:  # MESI.S
            # The seed path LRU-touched the line before upgrading.
            del cache_set[line]
            cache_set[line] = entry
            self._inc("l1.store_upgrades")
            latency += self._upgrade_for_store(vd, core_id, line, now + latency)
            entry = l1.lookup(line)
            assert entry is not None

        latency += self._commit_store(vd, core_id, entry, now + latency)
        return latency

    def _commit_store(
        self, vd: VDState, core_id: int, entry: CacheLine, now: int
    ) -> int:
        """Write into an L1 line we have exclusive permission for."""
        on_store = self._scheme_on_store
        extra = (
            on_store(core_id, vd.id, entry.line, entry.oid, now)
            if on_store is not None
            else 0
        )
        if self.versioned:
            epoch = vd.cur_epoch
            if entry.oid != epoch and entry.state >= MESI.M:
                # Immutable older version: store-eviction (Fig. 4) pushes
                # it to the L2 without invalidating, then the store
                # happens in place.
                assert entry.oid < epoch, "version from the future survived sync"
                self._inc("cst.store_evictions")
                self._l2_putx(vd, entry.line, entry.data, entry.oid, now)
        else:
            epoch = 0
        token = self._token + 1
        self._token = token
        entry.data = token
        entry.oid = epoch
        entry.state = MESI.M
        vd.store_count += 1
        vd.total_stores += 1
        try:
            self._counters["stores"] += 1
        except KeyError:
            self._inc("stores")
        if self.store_log is not None:
            self.store_log.append((entry.line, epoch, token, vd.id, core_id))
        oracle_hook = self._oracle_on_store
        if oracle_hook is not None:
            oracle_hook(core_id, vd, entry, now)
        fault_hook = self._fault_on_event
        if fault_hook is not None:
            # The store has committed (and hit the log): a crash here is
            # "power lost with the new value still volatile in L1".
            fault_hook("store", now)
        return extra

    def _upgrade_for_store(self, vd: VDState, core_id: int, line: int, now: int) -> int:
        """S -> exclusive: invalidate peers (and other VDs if needed)."""
        latency = 0
        dentry = self._dir_shards[line % self._num_slices].get(line)
        owner = dentry.owner if dentry is not None else None
        other_sharers = (
            bool(dentry.sharers - {vd.id}) if dentry is not None else False
        )
        if owner is not None and owner != vd.id:
            # MOESI dirty-shared: another VD owns the line in O state;
            # its (possibly newer-than-memory) version must transfer.
            latency += self._getx_from_remote_owner(vd, core_id, line, now)
        elif owner != vd.id or other_sharers:
            # No exclusive ownership yet (or O-owner with remote S
            # sharers): claim it and invalidate the other holders.
            latency += self._inter_getx_permission_only(vd, line, now)
        self._invalidate_vd_l1s(vd, line, exclude_core=core_id, now=now + latency)
        return latency

    def _getx_from_remote_owner(
        self, vd: VDState, core_id: int, line: int, now: int
    ) -> int:
        """Full GETX for a shared line whose dirty owner is another VD."""
        latency, data, oid, dirty = self._inter_getx(vd, line, now)
        latency += self._epoch_sync(vd, oid, now + latency)
        l2_entry = vd.l2.probe(line)
        if l2_entry is not None:
            l2_entry.data, l2_entry.oid = data, oid
            l2_entry.state = MESI.M if dirty else MESI.E
        else:
            latency += self._install_l2(
                vd, line, data, oid, for_store=True, now=now + latency, dirty=dirty
            )
        l1_entry = self.l1s[core_id].probe(line)
        if l1_entry is not None:
            l1_entry.data, l1_entry.oid = data, oid
            l1_entry.state = MESI.E
        return latency

    def _inter_getx_permission_only(self, vd: VDState, line: int, now: int) -> int:
        """Upgrade a shared line to owned: data already present locally."""
        latency = self._request_latency(vd, line)
        slice_id = line % self._num_slices
        dir_key = self._llc_dir_access_key[slice_id]
        try:
            self._counters[dir_key] += 1
        except KeyError:
            self._inc(dir_key)
        dentry = self._dir_shards[slice_id].get(line)
        if dentry is None:
            dentry = self._dir_lookup_or_create(line, now)
        for other_id in sorted(dentry.holders() - {vd.id}):
            latency += self._invalidate_vd(self.vds[other_id], line, now + latency)
        # The LLC data copy goes stale once the upgrading VD writes; a
        # dirty copy (e.g. from an earlier downgrade) either settles into
        # working memory (CST: already persisted) or hands its dirty
        # obligation to the upgrading VD's L2 (baseline: stays on-chip).
        llc_entry = self.llc[slice_id].probe(line)
        if llc_entry is not None:
            if llc_entry.state >= MESI.M:
                if self.versioned:
                    self._working_writeback(line, now + latency)
                    self._memory_update(line, llc_entry.data, llc_entry.oid)
                else:
                    l2_entry = vd.l2.probe(line)
                    if l2_entry is not None:
                        l2_entry.state = MESI.M
                    else:  # pragma: no cover - S-holder always has L2 copy
                        self._working_writeback(line, now + latency)
                        self._memory_update(line, llc_entry.data, llc_entry.oid)
            self.llc[slice_id].remove(line)
        dentry.owner = vd.id
        dentry.sharers.clear()
        return latency

    # ------------------------------------------------------------------
    # Intra-VD fill (L2 lookup, recall of peer L1 dirty copies)
    # ------------------------------------------------------------------
    def _vd_fill(
        self, vd: VDState, core_id: int, line: int, for_store: bool, now: int
    ) -> Tuple[int, int, int, MESI]:
        """Bring a line into the requesting L1's VD.

        Returns (latency, data, oid, l1_state_to_install).
        """
        latency = self._l2_latency
        counters = self._counters
        try:
            counters["l2.accesses"] += 1
        except KeyError:
            self._inc("l2.accesses")
        l2 = vd.l2
        l2_cache_set = l2._sets[line % l2._num_sets]
        l2_entry = l2_cache_set.get(line)
        if l2_entry is not None:  # LRU touch (lookup(touch=True))
            del l2_cache_set[line]
            l2_cache_set[line] = l2_entry
        dentry = self._dir_shards[line % self._num_slices].get(line)
        vd_owns = dentry is not None and dentry.owner == vd.id
        vd_shares = dentry is not None and vd.id in dentry.sharers

        if l2_entry is not None and (vd_owns or vd_shares):
            try:
                counters["l2.hits"] += 1
            except KeyError:
                self._inc("l2.hits")
            # Serve locally.  A peer L1 may hold a newer dirty copy.
            peer = self._find_l1_dirty_peer(vd, line, exclude_core=core_id)
            if peer is not None:
                latency += self._recall_l1_copy(
                    vd, peer, line, invalidate=for_store, now=now + latency
                )
                l2_entry = vd.l2.lookup(line)
                assert l2_entry is not None
            if for_store:
                other_sharers = (
                    bool(dentry.sharers - {vd.id}) if dentry is not None else False
                )
                if not vd_owns or other_sharers:
                    owner = dentry.owner if dentry is not None else None
                    if owner is not None and owner != vd.id:
                        # MOESI dirty-shared owner elsewhere: full GETX.
                        latency += self._getx_from_remote_owner(
                            vd, core_id, line, now + latency
                        )
                        l2_entry = vd.l2.probe(line)
                        assert l2_entry is not None
                    else:
                        latency += self._inter_getx_permission_only(
                            vd, line, now + latency
                        )
                self._invalidate_vd_l1s(vd, line, exclude_core=core_id, now=now + latency)
                state = MESI.E
            else:
                exclusive = (
                    vd_owns
                    and l2_entry.state != MESI.O  # O: other VDs hold S copies
                    and not self._any_l1_holds(vd, line, exclude_core=core_id)
                )
                state = MESI.E if exclusive else MESI.S
            return latency, l2_entry.data, l2_entry.oid, state

        try:
            counters["l2.misses"] += 1
        except KeyError:
            self._inc("l2.misses")
        # Inter-VD request through the directory.
        if for_store:
            net_latency, data, oid, dirty = self._inter_getx(vd, line, now + latency)
            state = MESI.E
        else:
            net_latency, data, oid = self._inter_gets(vd, line, now + latency)
            dirty = False
            dentry = self._dir_shards[line % self._num_slices].get(line)
            if dentry is None:
                dentry = self._dir_lookup_or_create(line, now)
            state = MESI.E if dentry.owner == vd.id else MESI.S
        latency += net_latency
        latency += self._epoch_sync(vd, oid, now + latency)
        latency += self._install_l2(vd, line, data, oid, for_store, now + latency, dirty=dirty)
        return latency, data, oid, state

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

    def _any_l1_holds(self, vd: VDState, line: int, exclude_core: Optional[int]) -> bool:
        l1s = self.l1s
        set_index = line % self._l1_num_sets
        for core in vd.core_ids:
            if core == exclude_core:
                continue
            entry = l1s[core]._sets[set_index].get(line)
            if entry is not None and entry.state:  # not I
                return True
        return False

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
    # L1/L2 installs and the version-aware PUTX rule
    # ------------------------------------------------------------------
    def _l1_install(
        self, core_id: int, line: int, state: MESI, oid: int, data: int, now: int
    ) -> CacheLine:
        # Fused needs_victim/choose_victim/remove/insert on the raw set
        # dict: one set resolution and no CacheArray calls on the hot path.
        l1 = self.l1s[core_id]
        cache_set = l1._sets[line % self._l1_num_sets]
        if line not in cache_set and len(cache_set) >= l1._ways:
            victim = cache_set[next(iter(cache_set))]
            if victim.state >= MESI.M:
                vd = self.vd_of_core(core_id)
                try:
                    self._counters["l1.dirty_evictions"] += 1
                except KeyError:
                    self._inc("l1.dirty_evictions")
                self._l2_putx(vd, victim.line, victim.data, victim.oid, now)
            del cache_set[victim.line]
            try:
                self._counters["l1.evictions"] += 1
            except KeyError:
                self._inc("l1.evictions")
        else:
            cache_set.pop(line, None)
        entry = CacheLine(line, state, oid, data)
        cache_set[line] = entry
        return entry

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

    def _install_l2(
        self,
        vd: VDState,
        line: int,
        data: int,
        oid: int,
        for_store: bool,
        now: int,
        dirty: bool = False,
    ) -> int:
        """Fill a line into the L2.

        ``dirty`` marks a version that arrived via cache-to-cache transfer
        of modified data (Fig. 6): it is installed in M state so that the
        sole remaining copy of that version keeps its obligation to be
        written back (to the OMC under CST, to the LLC otherwise).
        """
        # Fused room-check/probe/insert on the raw set dict.  The victim
        # eviction never touches ``line`` itself, so probing up front is
        # equivalent to the unfused probe-after-evict order.
        l2 = vd.l2
        cache_set = l2._sets[line % l2._num_sets]
        existing = cache_set.get(line)
        latency = 0
        if existing is None and len(cache_set) >= l2._ways:
            victim = cache_set[next(iter(cache_set))]
            latency = self._evict_l2_entry(vd, victim, REASON_CAPACITY, now)
        if dirty:
            state = MESI.M
        elif for_store:
            state = MESI.E
        else:
            state = self._l2_fill_state(vd, line)
        if existing is not None and existing.state >= MESI.M:
            # Keep a dirty version rather than downgrading it to a fill.
            if self.versioned and existing.oid < oid:
                self._version_writeback(
                    vd, line, existing.data, existing.oid, REASON_STORE_EVICT,
                    to_llc=False, now=now,
                )
                existing.data, existing.oid = data, oid
                if dirty:
                    existing.state = MESI.M
            return latency
        cache_set.pop(line, None)
        cache_set[line] = CacheLine(line, state, oid, data)
        return latency

    def _l2_fill_state(self, vd: VDState, line: int) -> MESI:
        dentry = self._dir_shards[line % self._num_slices].get(line)
        return MESI.E if dentry is not None and dentry.owner == vd.id else MESI.S

    def _ensure_l2_room(self, vd: VDState, line: int, now: int) -> int:
        l2 = vd.l2
        cache_set = l2._sets[line % l2._num_sets]
        if line in cache_set or len(cache_set) < l2._ways:
            return 0
        victim = cache_set[next(iter(cache_set))]
        return self._evict_l2_entry(vd, victim, REASON_CAPACITY, now)

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------
    def _evict_l2_entry(self, vd: VDState, entry: CacheLine, reason: str, now: int) -> int:
        """Evict an L2 line: recall L1 copies, write back, update directory."""
        fault_hook = self._fault_on_event
        if fault_hook is not None:
            fault_hook("eviction", now)
        oracle_hook = self._oracle_on_eviction
        if oracle_hook is not None:
            oracle_hook(vd, entry, reason, now)
        line = entry.line
        latency = 0
        # Inclusive L2: member L1 copies must go.  Dirty L1 data merges
        # into the L2 entry first (possibly pushing an older L2 version
        # out to the OMC via the PUTX rule).
        self._invalidate_vd_l1s(vd, line, exclude_core=None, now=now)
        l2_set = vd.l2._sets[line % vd.l2._num_sets]
        entry = l2_set.get(line)
        assert entry is not None
        if entry.state >= MESI.M:
            try:
                self._counters["l2.dirty_evictions"] += 1
            except KeyError:
                self._inc("l2.dirty_evictions")
            if self.versioned:
                latency += self._version_writeback(
                    vd, line, entry.data, entry.oid, reason, to_llc=True, now=now
                )
            else:
                latency += self._llc_insert(line, entry.data, entry.oid, dirty=True, now=now)
                hook = self._scheme_on_l2_dirty_eviction
                if hook is not None:
                    latency += hook(vd.id, line, entry.oid, entry.data, reason, now)
        else:
            # Clean victim: keep a copy in the non-inclusive LLC.
            latency += self._llc_insert(line, entry.data, entry.oid, dirty=False, now=now)
        del l2_set[line]
        try:
            self._counters["l2.evictions"] += 1
        except KeyError:
            self._inc("l2.evictions")
        shard = self._dir_shards[line % self._num_slices]
        dentry = shard.get(line)
        if dentry is not None:
            dentry.sharers.discard(vd.id)
            if dentry.owner == vd.id:
                dentry.owner = None
            if dentry.is_empty() and not self._llc_has(line):
                del shard[line]
        return latency

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
        counters = self._counters
        try:
            counters["cst.version_writebacks"] += 1
        except KeyError:
            self._inc("cst.version_writebacks")
        key = self._evict_reason_key.get(reason)
        if key is None:
            key = f"evict_reason.{reason}"
        try:
            counters[key] += 1
        except KeyError:
            self._inc(key)
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

    def _llc_has(self, line: int) -> bool:
        return self.llc[self.slice_of(line)].contains(line)

    def _llc_insert(self, line: int, data: int, oid: int, dirty: bool, now: int) -> int:
        slice_id = line % self._num_slices
        array = self.llc[slice_id]
        latency = self._llc_latency
        fill_key = self._llc_fill_key[slice_id]
        try:
            self._counters[fill_key] += 1
        except KeyError:
            self._inc(fill_key)
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
            try:
                self._counters["llc.dirty_evictions"] += 1
            except KeyError:
                self._inc("llc.dirty_evictions")
            self._working_writeback(victim.line, now)
            self._memory_update(victim.line, victim.data, victim.oid)
            hook = self._scheme_on_llc_dirty_eviction
            if hook is not None:
                latency += hook(victim.line, victim.oid, victim.data, now)
        del cache_set[victim.line]
        try:
            self._counters["llc.evictions"] += 1
        except KeyError:
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

    def _working_read(self, line: int, now: int) -> int:
        """Latency of fetching a line from working memory."""
        if self.working_nvm:
            return self.nvm.read(line, now)
        return self.dram.access(line, now, False)

    def _working_writeback(self, line: int, now: int) -> None:
        """Posted write-back of a line to working memory."""
        if self.working_nvm:
            self.nvm.write_background(line, CACHE_LINE_SIZE, now, "working")
        else:
            self.dram.access(line, now, True)

    # ------------------------------------------------------------------
    # Directory storage (finite capacity with back-invalidation)
    # ------------------------------------------------------------------
    def _dir_lookup_or_create(self, line: int, now: int) -> DirEntry:
        """Find or allocate the directory entry, evicting one if full.

        Entirely shard-local: allocation pressure in one slice's shard
        (oldest-entry back-invalidation when ``directory_entries_per_slice``
        is finite) never disturbs the other slices.
        """
        shard = self._dir_shards[self.slice_of(line)]
        dentry = shard.get(line)
        if dentry is not None:
            return dentry
        if (
            self._dir_capacity is not None
            and len(shard) >= self._dir_capacity
        ):
            victim = next(iter(shard))
            self._dir_back_invalidate(victim, now)
            self._inc("dir.back_invalidations")
        dentry = DirEntry()
        shard[line] = dentry
        return dentry

    def _dir_del(self, line: int) -> None:
        self._dir_shards[self.slice_of(line)].pop(line, None)

    def _dir_back_invalidate(self, line: int, now: int) -> None:
        """Evict a directory entry: every holder must give the line up.

        Dirty data is written back through the normal eviction paths so
        nothing is lost; the latency is treated as directory-side
        background work (not charged to the requesting core).
        """
        dentry = self._dir_shards[self.slice_of(line)].get(line)
        if dentry is None:
            return
        if dentry.owner is not None:
            owner = self.vds[dentry.owner]
            entry = owner.l2.probe(line)
            if entry is not None:
                self._evict_l2_entry(owner, entry, REASON_COHERENCE, now)
        for sharer_id in sorted(dentry.sharers):
            self._invalidate_vd(self.vds[sharer_id], line, now)
        self._dir_del(line)

    # ------------------------------------------------------------------
    # Inter-VD coherence through the directory (or snoop bus)
    # ------------------------------------------------------------------
    def _request_latency(self, vd: VDState, line: int) -> int:
        """Cost of getting an inter-VD request adjudicated."""
        if self.snoop:
            return self.net.snoop_broadcast(self.config.num_vds)
        return (
            self.net.vd_to_llc(vd.id, self.slice_of(line))
            + self._llc_latency
        )

    def _forward_latency(self, vd: VDState, owner: VDState) -> int:
        """Cost of reaching the current owner with the request."""
        if self.snoop:
            # The broadcast already reached the owner; it responds
            # point-to-point.
            return self.net.cache_to_cache(owner.id, vd.id)
        return self.net.vd_to_vd_via_directory(vd.id, owner.id)

    def _inter_gets(self, vd: VDState, line: int, now: int) -> Tuple[int, int, int]:
        """GETS at the directory; returns (latency, data, oid=RV)."""
        slice_id = line % self._num_slices
        if self.snoop:
            latency = self.net.snoop_broadcast(self.config.num_vds)
        else:
            latency = self.net.vd_to_llc(vd.id, slice_id) + self._llc_latency
        dir_key = self._llc_dir_access_key[slice_id]
        try:
            self._counters[dir_key] += 1
        except KeyError:
            self._inc(dir_key)
        dentry = self._dir_shards[slice_id].get(line)
        if dentry is None:
            dentry = self._dir_lookup_or_create(line, now)

        if dentry.owner is not None and dentry.owner != vd.id:
            owner = self.vds[dentry.owner]
            latency += self._forward_latency(vd, owner)
            data, oid = self._downgrade_owner(owner, line, now + latency)
            owner_entry = owner.l2.probe(line)
            if (
                self.moesi
                and owner_entry is not None
                and owner_entry.state == MESI.O
            ):
                # MOESI: the owner keeps the dirty line in O state and
                # remains the directory owner (it supplies future reads).
                dentry.sharers.add(vd.id)
            else:
                dentry.sharers.add(owner.id)
                dentry.owner = None
                dentry.sharers.add(vd.id)
            return latency, data, oid

        array = self.llc[slice_id]
        llc_set = array._sets[line % array._num_sets]
        llc_entry = llc_set.get(line)
        if llc_entry is not None:
            del llc_set[line]  # LRU touch (lookup(touch=True))
            llc_set[line] = llc_entry
            hit_key = self._llc_hit_key[slice_id]
            try:
                self._counters[hit_key] += 1
            except KeyError:
                self._inc(hit_key)
            if dentry.is_empty() and not llc_entry.state >= MESI.M:
                dentry.owner = vd.id
            else:
                dentry.sharers.add(vd.id)
            # Versioned mode: the OMC may have refreshed the working
            # copy (tag-walker write-backs) after this LLC copy was
            # inserted; serve whichever is newer.
            data, oid = llc_entry.data, llc_entry.oid
            if self.versioned:
                mem_data, mem_oid = self.mem.read_line(line)
                if mem_oid > oid:
                    data, oid = mem_data, mem_oid
            return latency, data, oid

        miss_key = self._llc_miss_key[slice_id]
        try:
            self._counters[miss_key] += 1
        except KeyError:
            self._inc(miss_key)
        data, oid = self.mem.read_line(line)
        latency += self._working_read(line, now + latency)
        if dentry.is_empty():
            dentry.owner = vd.id
        else:
            dentry.sharers.add(vd.id)
        return latency, data, oid

    def _inter_getx(self, vd: VDState, line: int, now: int) -> Tuple[int, int, int, bool]:
        """GETX at the directory; returns (latency, data, oid=RV, dirty)."""
        slice_id = line % self._num_slices
        if self.snoop:
            latency = self.net.snoop_broadcast(self.config.num_vds)
        else:
            latency = self.net.vd_to_llc(vd.id, slice_id) + self._llc_latency
        dir_key = self._llc_dir_access_key[slice_id]
        try:
            self._counters[dir_key] += 1
        except KeyError:
            self._inc(dir_key)
        dentry = self._dir_shards[slice_id].get(line)
        if dentry is None:
            dentry = self._dir_lookup_or_create(line, now)

        data: Optional[int] = None
        oid = 0
        dirty = False
        if dentry.owner is not None and dentry.owner != vd.id:
            owner = self.vds[dentry.owner]
            latency += self._forward_latency(vd, owner)
            transfer = self._invalidate_owner_for_getx(owner, line, now + latency)
            if transfer is not None:
                # The owner's copy is authoritative even when clean: a
                # tag-walker downgrade leaves the newest version in E
                # state while LLC/DRAM copies may be older.
                data, oid, dirty = transfer
                latency += self.net.cache_to_cache(owner.id, vd.id)
                if dirty and self.versioned:
                    self.scheme.on_version_migrate(owner.id, vd.id, line, oid, now)
                # The LLC's copy (if any) is now stale.
                self.llc[slice_id].remove(line)
        if dentry.sharers:
            for sharer_id in sorted(dentry.sharers - {vd.id}):
                latency += self._invalidate_vd(self.vds[sharer_id], line, now + latency)

        if data is None:
            array = self.llc[slice_id]
            llc_set = array._sets[line % array._num_sets]
            llc_entry = llc_set.get(line)
            if llc_entry is not None:
                del llc_set[line]  # LRU touch (lookup(touch=True))
                llc_set[line] = llc_entry
                hit_key = self._llc_hit_key[slice_id]
                try:
                    self._counters[hit_key] += 1
                except KeyError:
                    self._inc(hit_key)
                data, oid = llc_entry.data, llc_entry.oid
                # Exclusive ownership moves up and the LLC copy becomes
                # stale.  A dirty copy's handling differs by mode: under
                # CST the version was already persisted when it left its
                # VD, so it settles into working memory; otherwise the
                # dirty obligation travels up with the line — it stays
                # on-chip, which is exactly the inclusive-LLC advantage
                # PiCL-style schemes rely on.
                if llc_entry.state >= MESI.M:
                    if self.versioned:
                        self._working_writeback(line, now + latency)
                        self._memory_update(line, llc_entry.data, llc_entry.oid)
                    else:
                        dirty = True
                del llc_set[line]
                if self.versioned:
                    # The working copy may be newer (see _inter_gets).
                    mem_data, mem_oid = self.mem.read_line(line)
                    if mem_oid > oid:
                        data, oid = mem_data, mem_oid
            else:
                miss_key = self._llc_miss_key[slice_id]
                try:
                    self._counters[miss_key] += 1
                except KeyError:
                    self._inc(miss_key)
                data, oid = self.mem.read_line(line)
                latency += self._working_read(line, now + latency)

        dentry.owner = vd.id
        dentry.sharers.clear()
        return latency, data, oid, dirty

    def _downgrade_owner(self, owner: VDState, line: int, now: int) -> Tuple[int, int]:
        """DIR-GETS at a dirty owner (Fig. 5): share the newest version.

        MESI: the version is written back (LLC + OMC under CST) and the
        owner drops to S.  MOESI: the owner keeps the line dirty-shared
        in O state and supplies the data cache-to-cache — no write-back
        happens now; the version persists later via walker or eviction.
        """
        peer = self._find_l1_dirty_peer(owner, line, exclude_core=None)
        if peer is not None:
            self._recall_l1_copy(owner, peer, line, invalidate=False, now=now)
        entry = owner.l2.probe(line)
        assert entry is not None, "directory says owner but L2 has no copy"
        oracle_hook = self._oracle_on_coherence
        if oracle_hook is not None:
            oracle_hook("downgrade", owner.id, line, entry.oid, now)
        self._downgrade_vd_l1s(owner, line, now)
        if entry.state >= MESI.M:
            self._inc("cst.load_downgrades" if self.versioned else "l2.downgrades")
            if self.moesi:
                self._inc("coh.owned_downgrades")
                entry.state = MESI.O
                return entry.data, entry.oid
            if self.versioned:
                self._version_writeback(
                    owner, line, entry.data, entry.oid, REASON_COHERENCE,
                    to_llc=True, now=now,
                )
            else:
                self._llc_insert(line, entry.data, entry.oid, dirty=True, now=now)
                self.scheme.on_l2_dirty_eviction(
                    owner.id, line, entry.oid, entry.data, REASON_COHERENCE, now
                )
        else:
            self._llc_insert(line, entry.data, entry.oid, dirty=False, now=now)
        entry.state = MESI.S
        return entry.data, entry.oid

    def _downgrade_vd_l1s(self, vd: VDState, line: int, now: int) -> None:
        for core in vd.core_ids:
            entry = self.l1s[core].probe(line)
            if entry is not None and entry.state != MESI.I:
                entry.state = MESI.S

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

    def _invalidate_vd(self, vd: VDState, line: int, now: int) -> int:
        """Invalidate a clean sharer VD (its copies are persisted already)."""
        entry = vd.l2.probe(line)
        oracle_hook = self._oracle_on_coherence
        if oracle_hook is not None:
            oracle_hook("invalidate_sharer", vd.id, line,
                        entry.oid if entry is not None else 0, now)
        self._invalidate_vd_l1s(vd, line, exclude_core=None, now=now)
        if entry is not None:
            assert not entry.state >= MESI.M, "sharer VD holds dirty data"
            vd.l2.remove(line)
        return self.net.llc_to_vd(self.slice_of(line), vd.id)

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
    def dirty_versions_in_vd(self, vd: VDState) -> List[CacheLine]:
        """All dirty *versions* currently cached in a VD (L1s + L2).

        The same line may contribute two entries — a newer L1 version
        shadowing an older immutable L2 version (Fig. 4) — and both count
        for min-ver purposes: neither has been persisted yet.
        """
        found: List[CacheLine] = list(vd.l2.dirty_lines())
        for core in vd.core_ids:
            found.extend(self.l1s[core].dirty_lines())
        return found

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

    def walker_persist(self, vd: VDState, line: int, now: int) -> int:
        """Tag-walker visit (§IV-C): persist a line's old dirty versions.

        An L1 copy dirty in a previous epoch is first recalled into the L2
        (downgrading the L1 to E); a dirty L2 version older than cur-epoch
        is then written back to the OMC and downgraded M -> E.  Returns
        the number of versions persisted.
        """
        persisted = 0
        peer = self._find_l1_dirty_peer(vd, line, exclude_core=None)
        if peer is not None:
            l1_entry = self.l1s[peer].probe(line)
            assert l1_entry is not None
            if l1_entry.oid < vd.cur_epoch:
                self._l2_putx(vd, line, l1_entry.data, l1_entry.oid, now)
                l1_entry.state = MESI.E
        entry = vd.l2.probe(line)
        if entry is not None and entry.state >= MESI.M and entry.oid < vd.cur_epoch:
            self._version_writeback(
                vd, line, entry.data, entry.oid, REASON_TAG_WALK,
                to_llc=False, now=now,
            )
            # O (dirty-shared) drops to S: other VDs hold copies.
            entry.state = MESI.S if entry.state == MESI.O else MESI.E
            persisted += 1
        return persisted

    def walker_scan_set(self, vd: VDState, set_index: int, now: int) -> None:
        """One tag-walker set scan: ``walker_persist`` fused over a set.

        Behaviorally identical to calling :meth:`walker_persist` per
        resident tag (with the walker's per-tag counter bump), but the
        peer probe and the L2 entry re-check run inline on the held
        entry objects instead of re-resolving the line each time.
        """
        counters = self._counters
        try:
            counters["walker.sets_scanned"] += 1
        except KeyError:
            self._inc("walker.sets_scanned")
        l2_set = vd.l2._sets[set_index]
        if not l2_set:
            return
        entries = list(l2_set.values())
        # Bulk tag-counter bump: no observation point (stats dump or
        # fault-injection hook) can fire inside a single set scan.
        try:
            counters["walker.tags_scanned"] += len(entries)
        except KeyError:
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

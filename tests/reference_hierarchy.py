"""The frozen reference model of the memory hierarchy's access path.

``repro.sim.fastpath.build`` is the one access path of the simulator:
every transition of an access (fills, store upgrades, owner downgrades
and hand-overs, invalidations, evictions, directory back-invalidation,
the interconnect's message costs) is written once, in its closures.
This module keeps the plain, method-per-transition definition those
closures were written against, moved here verbatim from
``Hierarchy`` and ``Interconnect``, as an independent second
implementation to compare with.  ``tests/test_gc.py`` keeps the
reference ``compact`` and ``tests/test_devices.py`` the step-by-step NVM
write the same way.

:func:`build` has ``fastpath.build``'s signature.  The parity tests
(golden parity's ``reference`` leg, ``test_fast_path._run_both`` and the
fuzzer) patch it in for their reference legs, so the same machine runs
once on each implementation and the two must agree bit for bit.

The model is frozen: edit it only to follow a ``src/`` helper that was
renamed or moved out of ``src/``.
A change in simulated behaviour is made in ``src/`` and shows up here as
a parity failure, never as an edit to this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.cache import MESI, CacheArray, CacheLine
from repro.sim.config import CACHE_LINE_SHIFT, CACHE_LINE_SIZE
from repro.sim.fastpath import FastPath
from repro.sim.hierarchy import DirEntry, Hierarchy, VDState
from repro.sim.interconnect import Interconnect
from repro.sim.scheme import (
    REASON_CAPACITY,
    REASON_COHERENCE,
    REASON_OTHER,
    REASON_STORE_EVICT,
    REASON_TAG_WALK,
)


def build(machine) -> FastPath:
    """The reference model's access path for one run of ``machine``.

    Moves the machine's hierarchy and interconnect onto the classes
    below (same state, the reference methods on top) and returns
    ``execute_access`` as the access function.  ``poll`` is None, so
    ``Machine.run`` keeps the scheme's own ``poll``, and there is
    nothing to flush: every counter goes straight into ``Stats``.
    """
    hierarchy = machine.hierarchy
    hierarchy.__class__ = ReferenceHierarchy
    net = hierarchy.net
    net.__class__ = ReferenceInterconnect
    # The moved message methods count through the machine's Stats and a
    # direct reference into its counter dict (Stats.reset clears it in
    # place), which Interconnect itself no longer keeps.
    net.stats = machine.stats
    net._counters = machine.stats._counters
    return FastPath(hierarchy.execute_access, None, lambda: None)


class ReferenceInterconnect(Interconnect):
    """``Interconnect`` with its per-message counting methods."""

    def _cross(self, socket_a: int, socket_b: int) -> int:
        if self.num_sockets > 1 and socket_a != socket_b:
            try:
                self._counters["net.cross_socket_msgs"] += 1
            except KeyError:
                self._inc("net.cross_socket_msgs")
            return self.penalty
        return 0

    def vd_to_llc(self, vd_id: Optional[int] = None, slice_id: Optional[int] = None) -> int:
        try:
            self._counters["net.vd_llc_msgs"] += 1
        except KeyError:
            self._inc("net.vd_llc_msgs")
        latency = self.hop
        if vd_id is not None and slice_id is not None:
            latency += self._cross(self.socket_of_vd(vd_id), self.socket_of_slice(slice_id))
        return latency

    def llc_to_vd(self, slice_id: Optional[int] = None, vd_id: Optional[int] = None) -> int:
        try:
            self._counters["net.llc_vd_msgs"] += 1
        except KeyError:
            self._inc("net.llc_vd_msgs")
        latency = self.hop
        if vd_id is not None and slice_id is not None:
            latency += self._cross(self.socket_of_slice(slice_id), self.socket_of_vd(vd_id))
        return latency

    def vd_to_vd_via_directory(
        self, from_vd: Optional[int] = None, to_vd: Optional[int] = None
    ) -> int:
        """Request forwarded through the LLC directory to a peer VD."""
        try:
            self._counters["net.forwarded_msgs"] += 1
        except KeyError:
            self._inc("net.forwarded_msgs")
        latency = 2 * self.hop
        if from_vd is not None and to_vd is not None:
            latency += self._cross(self.socket_of_vd(from_vd), self.socket_of_vd(to_vd))
        return latency

    def cache_to_cache(
        self, from_vd: Optional[int] = None, to_vd: Optional[int] = None
    ) -> int:
        """Direct point-to-point transfer between peer caches."""
        try:
            self._counters["net.c2c_msgs"] += 1
        except KeyError:
            self._inc("net.c2c_msgs")
        latency = self.hop
        if from_vd is not None and to_vd is not None:
            latency += self._cross(self.socket_of_vd(from_vd), self.socket_of_vd(to_vd))
        return latency

    def snoop_broadcast(self, num_vds: int) -> int:
        """Bus-snoop request: every VD sees (and must check) the request.

        Arbitration plus a per-snooper term — the linear component that
        makes broadcast coherence stop scaling (§II-D's motivation for
        the distributed directory this simulator defaults to).
        """
        self.stats.inc("net.snoop_broadcasts")
        self.stats.inc("net.snoop_msgs", max(num_vds - 1, 0))
        return 2 * self.hop + (num_vds * self.hop) // 8

    def vd_to_omc(self, vd_id: Optional[int] = None) -> int:
        """LLC-bypass path used for version write-backs (§IV-A2)."""
        self._inc("net.omc_msgs")
        return self.hop


class ReferenceHierarchy(Hierarchy):
    """``Hierarchy`` with the reference definition of every access step."""

    def execute_access(
        self, core_id: int, addr: int, size: int, is_store: bool, now: int
    ) -> int:
        """Run one access given as plain fields; returns its latency.

        The runner feeds it straight from workload access batches; an
        access spanning several lines runs them back to back.
        """
        step = self._store if is_store else self._load
        first = addr >> CACHE_LINE_SHIFT
        last = (addr + size - 1) >> CACHE_LINE_SHIFT
        total = 0
        for line in range(first, last + 1):
            total += step(core_id, line, now + total)
        return total

    def _load(self, core_id: int, line: int, now: int) -> int:
        latency = self._l1_latency
        self._inc("l1.accesses")
        entry = self.l1s[core_id].lookup(line)
        if entry is not None and entry.state != MESI.I:
            self._inc("l1.load_hits")
            return latency
        self._inc("l1.load_misses")
        vd = self._core_vd[core_id]
        fill_latency, data, oid, state = self._vd_fill(
            vd, core_id, line, for_store=False, now=now + latency
        )
        latency += fill_latency
        self._l1_install(core_id, line, state, oid, data, now + latency)
        return latency

    def _store(self, core_id: int, line: int, now: int) -> int:
        l1 = self.l1s[core_id]
        vd = self._core_vd[core_id]
        latency = self._l1_latency
        self._inc("l1.accesses")
        entry = l1.lookup(line)
        if entry is None or entry.state == MESI.I:
            self._inc("l1.store_misses")
            fill_latency, data, oid, _state = self._vd_fill(
                vd, core_id, line, for_store=True, now=now + latency
            )
            latency += fill_latency
            # Exclusive permission granted; install clean-exclusive and let
            # the common commit path below handle versioning.
            entry = self._l1_install(core_id, line, MESI.E, oid, data, now + latency)
        elif entry.state == MESI.S:
            self._inc("l1.store_upgrades")
            latency += self._upgrade_for_store(vd, core_id, line, now + latency)
            entry = l1.lookup(line)
            assert entry is not None
        else:  # E or M (L1 lines are never O)
            self._inc("l1.store_hits")
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
        self._inc(self._llc_dir_access_key[slice_id])
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

    def _vd_fill(
        self, vd: VDState, core_id: int, line: int, for_store: bool, now: int
    ) -> Tuple[int, int, int, MESI]:
        """Bring a line into the requesting L1's VD.

        Returns (latency, data, oid, l1_state_to_install).
        """
        latency = self._l2_latency
        self._inc("l2.accesses")
        l2_entry = vd.l2.lookup(line)
        dentry = self._dir_shards[line % self._num_slices].get(line)
        vd_owns = dentry is not None and dentry.owner == vd.id
        vd_shares = dentry is not None and vd.id in dentry.sharers

        if l2_entry is not None and (vd_owns or vd_shares):
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

        self._inc("l2.misses")
        # Inter-VD request through the directory.
        if for_store:
            net_latency, data, oid, dirty = self._inter_getx(vd, line, now + latency)
            state = MESI.E
        else:
            net_latency, data, oid = self._inter_gets(vd, line, now + latency)
            dirty = False
            dentry = self._dir_lookup_or_create(line, now)
            state = MESI.E if dentry.owner == vd.id else MESI.S
        latency += net_latency
        latency += self._epoch_sync(vd, oid, now + latency)
        latency += self._install_l2(vd, line, data, oid, for_store, now + latency, dirty=dirty)
        return latency, data, oid, state

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

    def _l1_install(
        self, core_id: int, line: int, state: MESI, oid: int, data: int, now: int
    ) -> CacheLine:
        l1 = self.l1s[core_id]
        if l1.needs_victim(line):
            victim = l1.choose_victim(line)
            if victim.state >= MESI.M:
                self._inc("l1.dirty_evictions")
                self._l2_putx(
                    self._core_vd[core_id], victim.line, victim.data,
                    victim.oid, now,
                )
            l1.remove(victim.line)
            self._inc("l1.evictions")
        return l1.insert(line, state, oid, data)

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
        l2 = vd.l2
        latency = 0
        if l2.needs_victim(line):
            latency = self._evict_l2_entry(
                vd, l2.choose_victim(line), REASON_CAPACITY, now
            )
        if dirty:
            state = MESI.M
        elif for_store:
            state = MESI.E
        else:
            state = self._l2_fill_state(vd, line)
        existing = l2.probe(line)
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
        l2.insert(line, state, oid, data)
        return latency

    def _l2_fill_state(self, vd: VDState, line: int) -> MESI:
        dentry = self._dir_shards[line % self._num_slices].get(line)
        return MESI.E if dentry is not None and dentry.owner == vd.id else MESI.S

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
        entry = vd.l2.probe(line)
        assert entry is not None
        if entry.state >= MESI.M:
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
        vd.l2.remove(line)
        self._inc("l2.evictions")
        # The entry stays: the line now sits in the LLC, and the LLC
        # victim path drops entries nobody holds.
        dentry = self._dir_shards[line % self._num_slices].get(line)
        if dentry is not None:
            dentry.sharers.discard(vd.id)
            if dentry.owner == vd.id:
                dentry.owner = None
        return latency

    def _working_read(self, line: int, now: int) -> int:
        """Latency of fetching a line from working memory."""
        if self.working_nvm:
            return self.nvm.read(line, now)
        return self.dram.access(line, now, False)

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
        self._inc(self._llc_dir_access_key[slice_id])
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

        llc_entry = self.llc[slice_id].lookup(line)
        if llc_entry is not None:
            self._inc(self._llc_hit_key[slice_id])
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

        self._inc(self._llc_miss_key[slice_id])
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
        self._inc(self._llc_dir_access_key[slice_id])
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
            llc_entry = array.lookup(line)
            if llc_entry is not None:
                self._inc(self._llc_hit_key[slice_id])
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
                array.remove(line)
                if self.versioned:
                    # The working copy may be newer (see _inter_gets).
                    mem_data, mem_oid = self.mem.read_line(line)
                    if mem_oid > oid:
                        data, oid = mem_data, mem_oid
            else:
                self._inc(self._llc_miss_key[slice_id])
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

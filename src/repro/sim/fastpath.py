"""NVOverlay's common case, hand-inlined: the fast path of ``Machine.run``.

:func:`build` specializes Coherent Snapshot Tracking on a single-socket
MESI directory machine — store-eviction, version write-backs to the OMC
and the per-VD tag walkers — into closures over flat local state: the
cache-set LRU dicts, the walker scan budgets and a local counter dict.
Each closure replays the ``Hierarchy`` transition it replaces step for
step, so a run is bit-identical to the reference path; cold protocol
corners (remote-owner transfers, sharer invalidations, epoch advances,
multi-epoch walker scans) call the ``Hierarchy`` methods themselves.

``Machine.run`` asks for the fast path at the start of every run.
Outside the envelope of :func:`in_envelope`, or with a protocol oracle
or fault injector attached, :func:`build` returns ``None`` and the run
takes the ``Hierarchy`` methods, which stay the single reference
definition of every transition.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

from .cache import MESI, CacheLine
from .config import CACHE_LINE_SHIFT, CACHE_LINE_SIZE
from .hierarchy import DirEntry
from .scheme import REASON_CAPACITY, REASON_STORE_EVICT, SnapshotScheme

__all__ = ["FastPath", "build", "in_envelope"]


class FastPath(NamedTuple):
    """The per-run functions ``Machine.run`` swaps in."""

    #: ``access(core_id, addr, size, is_store, now)`` -> latency, the
    #: twin of ``Hierarchy.execute_access``.
    access: Callable[[int, int, int, bool, int], int]
    #: ``poll(now)``, the twin of ``NVOverlay.poll`` (every tag walker).
    poll: Callable[[int], None]
    #: Writes the deferred counters, the store token and the walker
    #: fields back; ``Machine.run`` calls it once, before ``finalize``.
    flush: Callable[[], None]


def in_envelope(machine) -> bool:
    """Whether the hand-inlined transitions cover this machine.

    They inline the single-socket MESI/directory protocol with the
    version-access extension and NVOverlay's walker loop.  MOESI, snoop
    transport, multi-socket hops, finite directories, NVM working
    memory, scheme hooks on the store or eviction path, an overridden
    or instance-patched ``poll`` / ``on_transaction_boundary`` and an
    attached oracle or fault injector all leave the envelope.  Hooks are
    compared against the class attributes as they are at call time, the
    way ``Machine.run`` resolves them, so class-level wrappers keep a
    machine inside and instance patches take it out.
    """
    if machine.oracle is not None or machine.fault_injector is not None:
        return False
    config = machine.config
    h = machine.hierarchy
    if not h.versioned or h.moesi or h.snoop or h.working_nvm:
        return False
    if config.num_sockets != 1:
        return False
    if config.directory_entries_per_slice is not None:
        return False
    if (
        h._scheme_on_store is not None
        or h._scheme_on_l2_dirty_eviction is not None
        or h._scheme_on_llc_dirty_eviction is not None
    ):
        return False
    from ..core.nvoverlay import NVOverlay
    from ..core.tag_walker import TagWalker

    scheme = machine.scheme
    if not isinstance(scheme, NVOverlay):
        return False
    if getattr(scheme.poll, "__func__", None) is not NVOverlay.poll:
        return False
    if (
        getattr(scheme.on_transaction_boundary, "__func__", None)
        is not SnapshotScheme.on_transaction_boundary
    ):
        return False
    return all(
        type(w) is TagWalker
        and getattr(w.poll, "__func__", None) is TagWalker.poll
        for w in scheme.walkers
    )


def build(machine) -> Optional[FastPath]:
    """The fast path's functions for one run of ``machine``, or None.

    Every counter bumped inline lands in a local dict that ``flush``
    adds into ``Stats`` once at the end — legal because fingerprints
    hash the *final* counter values, never intermediate ones.  Cold
    corners delegate to the hierarchy methods, which keep using
    ``Stats`` directly; both accounting paths only ever add, so the
    totals agree with the reference path exactly.
    """
    if not in_envelope(machine):
        return None

    config = machine.config
    h = machine.hierarchy
    scheme = machine.scheme
    stats = machine.stats

    # -- hoisted structure handles (no semantics, locals only) ---------
    l1_sets = [l1._sets for l1 in h.l1s]
    l1_num_sets = h._l1_num_sets
    l1_ways = config.l1_geometry.ways
    vds = h.vds
    vd_l2_sets = [vd.l2._sets for vd in vds]
    l2_num_sets = h._l2_num_sets
    l2_ways = config.l2_geometry.ways
    llc_sets = [array._sets for array in h.llc]
    llc_num_sets = h.llc[0]._num_sets
    llc_ways = config.llc_geometry.ways
    num_slices = h._num_slices
    dir_shards = h._dir_shards
    core_vd = h._core_vd
    vd_l1_sets = h._vd_l1_sets
    mem_lines = h._mem_lines
    l1_latency = h._l1_latency
    l2_latency = h._l2_latency
    llc_latency = h._llc_latency
    hop = h.net.hop
    # DRAM backlog model, inlined: the per-controller drain/queue
    # arithmetic below mirrors DRAM.access exactly, mutating the
    # device's own lists so cold paths interleave consistently.
    dram_backlog = h.dram._backlog
    dram_last = h.dram._last
    dram_nctrl = h.dram.num_controllers
    dram_latency = h.dram.latency
    dram_occ = h.dram.OCCUPANCY
    line_bytes = CACHE_LINE_SIZE
    on_version_writeback = scheme.on_version_writeback
    on_version_migrate = scheme.on_version_migrate
    token = h._token
    store_log = h.store_log
    M, E, S, I_STATE, O = MESI.M, MESI.E, MESI.S, MESI.I, MESI.O

    dir_key = h._llc_dir_access_key
    fill_key = h._llc_fill_key
    hit_key = h._llc_hit_key
    miss_key = h._llc_miss_key
    k_capacity = h._evict_reason_key[REASON_CAPACITY]
    k_store_evict = h._evict_reason_key[REASON_STORE_EVICT]

    # -- flat local counter accumulation -------------------------------
    c: Dict[str, int] = dict.fromkeys(
        (
            "l1.accesses", "l1.load_hits", "l1.load_misses",
            "l1.store_hits", "l1.store_misses", "l1.store_upgrades",
            "l1.dirty_evictions", "l1.evictions",
            "l2.accesses", "l2.hits", "l2.misses",
            "l2.dirty_evictions", "l2.evictions",
            "llc.dirty_evictions", "llc.evictions",
            "stores", "cst.store_evictions", "cst.version_writebacks",
            "net.omc_msgs", "net.vd_llc_msgs", "net.forwarded_msgs",
            "net.c2c_msgs",
            "dram.reads", "dram.read_bytes",
            "dram.writes", "dram.write_bytes",
            "walker.sets_scanned", "walker.tags_scanned",
            "walker.passes",
            k_capacity, k_store_evict,
        ),
        0,
    )
    for keys in (dir_key, fill_key, hit_key, miss_key):
        for key in keys:
            c[key] = 0

    # -- fused protocol transitions (mirror hierarchy.py exactly) ------
    # Hierarchy._llc_insert / _install_l2 / _inter_gets / _inter_getx
    # are hand-inlined into evict_l2_entry and vd_fill below:
    # on the dominant miss chain every call frame showed up in the
    # profile, and inlining also lets the chain reuse the directory
    # entry and L2 set it already fetched (the hierarchy methods hold
    # the same references across these steps, so reuse is bit-identical).
    def l2_putx(vd, line, data, oid, now):
        cache_set = vd_l2_sets[vd.id][line % l2_num_sets]
        entry = cache_set.get(line)
        assert entry is not None, "inclusion violated: L1 write-back missed in L2"
        del cache_set[line]
        cache_set[line] = entry
        if entry.state >= M and entry.oid < oid:
            # Version write-back to the OMC (latency discarded here,
            # exactly as the hierarchy's PUTX rule discards it).
            c["net.omc_msgs"] += 1
            c["cst.version_writebacks"] += 1
            c[k_store_evict] += 1
            on_version_writeback(
                vd.id, line, entry.oid, entry.data, REASON_STORE_EVICT, now
            )
            current = mem_lines.get(line)
            if current is None or entry.oid >= current[1]:
                mem_lines[line] = (entry.data, entry.oid)
        entry.data = data
        entry.oid = oid
        entry.state = M

    def evict_l2_entry(vd, entry, now):
        # REASON_CAPACITY only; other reasons stay on the cold paths.
        line = entry.line
        latency = 0
        l1_index = line % l1_num_sets
        for sets in vd_l1_sets[vd.id]:
            peer_set = sets[l1_index]
            peer = peer_set.get(line)
            if peer is None:
                continue
            if peer.state >= M:
                l2_putx(vd, line, peer.data, peer.oid, now)
            del peer_set[line]
        l2_set = vd_l2_sets[vd.id][line % l2_num_sets]
        entry = l2_set.get(line)
        assert entry is not None
        dirty = entry.state >= M
        if dirty:
            c["l2.dirty_evictions"] += 1
            # Version write-back to the OMC; this caller keeps the
            # latency and the line lands dirty in the LLC.
            c["net.omc_msgs"] += 1
            c["cst.version_writebacks"] += 1
            c[k_capacity] += 1
            latency += hop
            latency += on_version_writeback(
                vd.id, line, entry.oid, entry.data, REASON_CAPACITY, now
            )
            current = mem_lines.get(line)
            if current is None or entry.oid >= current[1]:
                mem_lines[line] = (entry.data, entry.oid)
        # LLC insert (Hierarchy._llc_insert), at ``now``.
        slice_id = line % num_slices
        latency += llc_latency
        c[fill_key[slice_id]] += 1
        llc_set = llc_sets[slice_id][line % llc_num_sets]
        existing = llc_set.get(line)
        if existing is not None:
            dirty = dirty or existing.state >= M
        elif len(llc_set) >= llc_ways:
            # Victim eviction (_evict_llc_victim): a dirty victim
            # posts a DRAM write-back — queued, latency discarded —
            # and settles into working memory.
            victim = llc_set[next(iter(llc_set))]
            vline = victim.line
            if victim.state >= M:
                c["llc.dirty_evictions"] += 1
                ctrl = (vline ^ (vline >> 4) ^ (vline >> 9)) % dram_nctrl
                last = dram_last[ctrl]
                if now > last:
                    drained = dram_backlog[ctrl] - (now - last)
                    dram_backlog[ctrl] = drained if drained > 0 else 0
                    dram_last[ctrl] = now
                dram_backlog[ctrl] += dram_occ
                c["dram.writes"] += 1
                c["dram.write_bytes"] += line_bytes
                current = mem_lines.get(vline)
                if current is None or victim.oid >= current[1]:
                    mem_lines[vline] = (victim.data, victim.oid)
            del llc_set[vline]
            c["llc.evictions"] += 1
            vshard = dir_shards[slice_id]
            ventry = vshard.get(vline)
            if ventry is not None and ventry.owner is None and not ventry.sharers:
                del vshard[vline]
        llc_set.pop(line, None)
        llc_set[line] = CacheLine(line, M if dirty else S, entry.oid, entry.data)
        del l2_set[line]
        c["l2.evictions"] += 1
        shard = dir_shards[slice_id]
        dentry = shard.get(line)
        if dentry is not None:
            dentry.sharers.discard(vd.id)
            if dentry.owner == vd.id:
                dentry.owner = None
            if (
                dentry.owner is None
                and not dentry.sharers
                and line not in llc_set
            ):
                del shard[line]
        return latency

    def vd_fill(vd, core_id, line, for_store, now):
        latency = l2_latency
        c["l2.accesses"] += 1
        vd_id = vd.id
        l2_cache_set = vd_l2_sets[vd_id][line % l2_num_sets]
        l2_entry = l2_cache_set.get(line)
        if l2_entry is not None:
            del l2_cache_set[line]
            l2_cache_set[line] = l2_entry
        slice_id = line % num_slices
        shard = dir_shards[slice_id]
        dentry = shard.get(line)
        vd_owns = dentry is not None and dentry.owner == vd_id
        vd_shares = dentry is not None and vd_id in dentry.sharers

        if l2_entry is not None and (vd_owns or vd_shares):
            c["l2.hits"] += 1
            l1_index = line % l1_num_sets
            peer = None
            for core in vd.core_ids:
                if core == core_id:
                    continue
                entry = l1_sets[core][l1_index].get(line)
                if entry is not None and entry.state >= M:
                    peer = core
                    break
            if peer is not None:
                latency += h._recall_l1_copy(
                    vd, peer, line, invalidate=for_store, now=now + latency
                )
                l2_entry = l2_cache_set.get(line)
                assert l2_entry is not None
                del l2_cache_set[line]  # lookup(touch=True)
                l2_cache_set[line] = l2_entry
            if for_store:
                other_sharers = (
                    bool(dentry.sharers - {vd_id}) if dentry is not None else False
                )
                if not vd_owns or other_sharers:
                    owner = dentry.owner if dentry is not None else None
                    if owner is not None and owner != vd_id:
                        latency += h._getx_from_remote_owner(
                            vd, core_id, line, now + latency
                        )
                        l2_entry = l2_cache_set.get(line)
                        assert l2_entry is not None
                    else:
                        latency += h._inter_getx_permission_only(
                            vd, line, now + latency
                        )
                for core in vd.core_ids:
                    if core == core_id:
                        continue
                    peer_set = l1_sets[core][l1_index]
                    entry = peer_set.get(line)
                    if entry is None:
                        continue
                    if entry.state >= M:
                        l2_putx(vd, line, entry.data, entry.oid, now + latency)
                    del peer_set[line]
                state = E
            else:
                exclusive = vd_owns and l2_entry.state != O
                if exclusive:
                    for core in vd.core_ids:
                        if core == core_id:
                            continue
                        entry = l1_sets[core][l1_index].get(line)
                        if entry is not None and entry.state:
                            exclusive = False
                            break
                state = E if exclusive else S
            return latency, l2_entry.data, l2_entry.oid, state

        c["l2.misses"] += 1
        # Hierarchy._inter_gets / _inter_getx, inlined.  ``rnow`` is the
        # request submission time, ``nl`` the accumulated network
        # latency; absolute event times are ``rnow + nl`` exactly as
        # in those methods.  The directory entry fetched at the
        # top is reused — nothing between the fetch and here touches
        # this line's entry (the VD-side calls operate on *other*
        # VDs' caches and the victim lines differ by construction).
        rnow = now + latency
        c["net.vd_llc_msgs"] += 1
        nl = hop + llc_latency
        c[dir_key[slice_id]] += 1
        if dentry is None:
            dentry = DirEntry()
            shard[line] = dentry
        if for_store:
            data = None
            oid = 0
            dirty = False
            owner_id = dentry.owner
            if owner_id is not None and owner_id != vd_id:
                owner = vds[owner_id]
                c["net.forwarded_msgs"] += 1
                nl += 2 * hop
                transfer = h._invalidate_owner_for_getx(owner, line, rnow + nl)
                if transfer is not None:
                    data, oid, dirty = transfer
                    c["net.c2c_msgs"] += 1
                    nl += hop
                    if dirty:
                        on_version_migrate(owner_id, vd_id, line, oid, rnow)
                    llc_sets[slice_id][line % llc_num_sets].pop(line, None)
            if dentry.sharers:
                for sharer_id in sorted(dentry.sharers - {vd_id}):
                    nl += h._invalidate_vd(vds[sharer_id], line, rnow + nl)
            if data is None:
                llc_set = llc_sets[slice_id][line % llc_num_sets]
                llc_entry = llc_set.get(line)
                if llc_entry is not None:
                    del llc_set[line]
                    llc_set[line] = llc_entry
                    c[hit_key[slice_id]] += 1
                    data, oid = llc_entry.data, llc_entry.oid
                    if llc_entry.state >= M:
                        # Posted DRAM write-back: queued, latency
                        # discarded.
                        t = rnow + nl
                        ctrl = (line ^ (line >> 4) ^ (line >> 9)) % dram_nctrl
                        last = dram_last[ctrl]
                        if t > last:
                            drained = dram_backlog[ctrl] - (t - last)
                            dram_backlog[ctrl] = drained if drained > 0 else 0
                            dram_last[ctrl] = t
                        dram_backlog[ctrl] += dram_occ
                        c["dram.writes"] += 1
                        c["dram.write_bytes"] += line_bytes
                        current = mem_lines.get(line)
                        if current is None or llc_entry.oid >= current[1]:
                            mem_lines[line] = (llc_entry.data, llc_entry.oid)
                    del llc_set[line]
                    mem_data, mem_oid = mem_lines.get(line, (0, 0))
                    if mem_oid > oid:
                        data, oid = mem_data, mem_oid
                else:
                    c[miss_key[slice_id]] += 1
                    data, oid = mem_lines.get(line, (0, 0))
                    t = rnow + nl
                    ctrl = (line ^ (line >> 4) ^ (line >> 9)) % dram_nctrl
                    last = dram_last[ctrl]
                    if t > last:
                        drained = dram_backlog[ctrl] - (t - last)
                        dram_backlog[ctrl] = drained if drained > 0 else 0
                        dram_last[ctrl] = t
                    nl += dram_backlog[ctrl] + dram_latency
                    dram_backlog[ctrl] += dram_occ
                    c["dram.reads"] += 1
                    c["dram.read_bytes"] += line_bytes
            dentry.owner = vd_id
            dentry.sharers.clear()
            state = E
            istate = M if dirty else E
        else:
            dirty = False
            owner_id = dentry.owner
            if owner_id is not None and owner_id != vd_id:
                owner = vds[owner_id]
                c["net.forwarded_msgs"] += 1
                nl += 2 * hop
                data, oid = h._downgrade_owner(owner, line, rnow + nl)
                # MESI only: the owner always drops to the sharer set.
                dentry.sharers.add(owner_id)
                dentry.owner = None
                dentry.sharers.add(vd_id)
            else:
                llc_set = llc_sets[slice_id][line % llc_num_sets]
                llc_entry = llc_set.get(line)
                if llc_entry is not None:
                    del llc_set[line]
                    llc_set[line] = llc_entry
                    c[hit_key[slice_id]] += 1
                    if (
                        dentry.owner is None
                        and not dentry.sharers
                        and not llc_entry.state >= M
                    ):
                        dentry.owner = vd_id
                    else:
                        dentry.sharers.add(vd_id)
                    data, oid = llc_entry.data, llc_entry.oid
                    mem_data, mem_oid = mem_lines.get(line, (0, 0))
                    if mem_oid > oid:
                        data, oid = mem_data, mem_oid
                else:
                    c[miss_key[slice_id]] += 1
                    data, oid = mem_lines.get(line, (0, 0))
                    t = rnow + nl
                    ctrl = (line ^ (line >> 4) ^ (line >> 9)) % dram_nctrl
                    last = dram_last[ctrl]
                    if t > last:
                        drained = dram_backlog[ctrl] - (t - last)
                        dram_backlog[ctrl] = drained if drained > 0 else 0
                        dram_last[ctrl] = t
                    nl += dram_backlog[ctrl] + dram_latency
                    dram_backlog[ctrl] += dram_occ
                    c["dram.reads"] += 1
                    c["dram.read_bytes"] += line_bytes
                    if dentry.owner is None and not dentry.sharers:
                        dentry.owner = vd_id
                    else:
                        dentry.sharers.add(vd_id)
            state = E if dentry.owner == vd_id else S
            istate = state
        latency += nl
        if oid > vd.cur_epoch:
            latency += h._epoch_sync(vd, oid, now + latency)
        # Hierarchy._install_l2, inlined.  ``l2_entry`` doubles as the
        # ``existing`` lookup (same object, argued above); a capacity
        # victim is evicted at the install submission time ``inow``.
        inow = now + latency
        if l2_entry is None and len(l2_cache_set) >= l2_ways:
            victim = l2_cache_set[next(iter(l2_cache_set))]
            latency += evict_l2_entry(vd, victim, inow)
        if l2_entry is not None and l2_entry.state >= M:
            if l2_entry.oid < oid:
                # Version write-back (latency discarded, as in the
                # hierarchy's install path).
                c["net.omc_msgs"] += 1
                c["cst.version_writebacks"] += 1
                c[k_store_evict] += 1
                on_version_writeback(
                    vd_id, line, l2_entry.oid, l2_entry.data,
                    REASON_STORE_EVICT, inow,
                )
                current = mem_lines.get(line)
                if current is None or l2_entry.oid >= current[1]:
                    mem_lines[line] = (l2_entry.data, l2_entry.oid)
                l2_entry.data, l2_entry.oid = data, oid
                if dirty:
                    l2_entry.state = M
        else:
            l2_cache_set.pop(line, None)
            l2_cache_set[line] = CacheLine(line, istate, oid, data)
        return latency, data, oid, state

    def fused_store(core_id, line, now):
        # commit_store and l1_install are hand-inlined here: at ~one
        # store per four accesses they sit on the critical path, and
        # the call frames alone were measurable.
        nonlocal token
        cache_set = l1_sets[core_id][line % l1_num_sets]
        entry = cache_set.get(line)
        vd = core_vd[core_id]
        if entry is not None and entry.state >= E:
            del cache_set[line]
            cache_set[line] = entry
            c["l1.accesses"] += 1
            c["l1.store_hits"] += 1
            latency = l1_latency
        else:
            latency = l1_latency
            c["l1.accesses"] += 1
            if entry is None or entry.state == I_STATE:
                c["l1.store_misses"] += 1
                fill_latency, data, oid, _state = vd_fill(
                    vd, core_id, line, True, now + latency
                )
                latency += fill_latency
                # L1 install (store fills arrive Exclusive).
                t = now + latency
                if line not in cache_set and len(cache_set) >= l1_ways:
                    victim = cache_set[next(iter(cache_set))]
                    if victim.state >= M:
                        c["l1.dirty_evictions"] += 1
                        l2_putx(vd, victim.line, victim.data, victim.oid, t)
                    del cache_set[victim.line]
                    c["l1.evictions"] += 1
                    # Recycle the evicted CacheLine object: nothing
                    # outside this set holds a reference to it.
                    victim.line = line
                    victim.state = E
                    victim.oid = oid
                    victim.data = data
                    entry = victim
                else:
                    cache_set.pop(line, None)
                    entry = CacheLine(line, E, oid, data)
                cache_set[line] = entry
            else:  # MESI.S
                del cache_set[line]
                cache_set[line] = entry
                c["l1.store_upgrades"] += 1
                latency += h._upgrade_for_store(vd, core_id, line, now + latency)
                entry = cache_set.get(line)
                assert entry is not None
                del cache_set[line]  # lookup(touch=True)
                cache_set[line] = entry
        # -- commit_store --
        epoch = vd.cur_epoch
        if entry.oid != epoch and entry.state >= M:
            assert entry.oid < epoch, "version from the future survived sync"
            c["cst.store_evictions"] += 1
            l2_putx(vd, entry.line, entry.data, entry.oid, now + latency)
        token += 1
        entry.data = token
        entry.oid = epoch
        entry.state = M
        vd.store_count += 1
        vd.total_stores += 1
        c["stores"] += 1
        if store_log is not None:
            store_log.append((entry.line, epoch, token, vd.id, core_id))
        return latency

    def fused_load(core_id, line, now):
        cache_set = l1_sets[core_id][line % l1_num_sets]
        entry = cache_set.get(line)
        if entry is not None and entry.state:
            del cache_set[line]
            cache_set[line] = entry
            c["l1.accesses"] += 1
            c["l1.load_hits"] += 1
            return l1_latency
        c["l1.accesses"] += 1
        c["l1.load_misses"] += 1
        latency = l1_latency
        vd = core_vd[core_id]
        fill_latency, data, oid, state = vd_fill(
            vd, core_id, line, False, now + latency
        )
        latency += fill_latency
        # L1 install, inlined (see fused_store).
        t = now + latency
        if line not in cache_set and len(cache_set) >= l1_ways:
            victim = cache_set[next(iter(cache_set))]
            if victim.state >= M:
                c["l1.dirty_evictions"] += 1
                l2_putx(vd, victim.line, victim.data, victim.oid, t)
            del cache_set[victim.line]
            c["l1.evictions"] += 1
            victim.line = line
            victim.state = state
            victim.oid = oid
            victim.data = data
            cache_set[line] = victim
        else:
            cache_set.pop(line, None)
            cache_set[line] = CacheLine(line, state, oid, data)
        return latency

    # -- fused walker poll (flat per-walker arrays) --------------------
    walkers = [w for w in scheme.walkers if w.enabled]
    cluster = scheme.cluster
    min_ver_seq = cluster.min_ver_seq
    update_min_ver = cluster.update_min_ver
    min_dirty_oid = h.min_dirty_oid
    cold_scan = h.walker_scan_set
    # Mutable per-walker state rides in one list per walker
    # ([last_poll, budget, cursor, pass_seq, passes]); the constants
    # ride in a parallel tuple.  One zip per poll beats a dozen
    # ``array[i]`` index operations per walker per transaction.
    w_state = [
        [w._last_poll, w._budget, w._cursor, w._pass_seq, w.passes_completed]
        for w in walkers
    ]
    w_const = [
        (w.vd, w.vd.id, w.rate, w._l2_ways, w._l2_num_sets, w._budget_cap,
         vd_l2_sets[w.vd.id])
        for w in walkers
    ]
    w_pairs = list(zip(w_state, w_const))

    def fused_poll(now):
        for st, const in w_pairs:
            last = st[0]
            if now <= last:
                continue
            st[0] = now
            vd, vd_id, rate, ways, num_sets, cap, l2_sets = const
            budget = st[1] + (now - last) * rate / 1000.0
            max_sets = int(budget // ways)
            if max_sets > num_sets:
                max_sets = num_sets
            if max_sets:
                cursor = st[2]
                if vd.cur_epoch == 1:
                    # While the VD is still in epoch 1 no dirty line
                    # can predate the epoch (OIDs start at 1), so a
                    # scan is pure accounting: the set bump, plus the
                    # tag bump for non-empty sets — exactly
                    # walker_scan_set's early path.  The epoch can't
                    # advance mid-poll (update_min_ver never touches
                    # cur_epoch), so the branch hoists out of the
                    # per-set loop and the tag counts batch up in
                    # chunked sums.  Repeated ``budget -= ways`` is
                    # exact float arithmetic (integer subtrahend, the
                    # fractional bits stay representable), so the
                    # single fused subtraction is bit-identical.
                    budget -= max_sets * ways
                    tags_n = 0
                    remaining = max_sets
                    while remaining:
                        if cursor == 0:
                            st[3] = min_ver_seq(vd_id)
                        chunk = num_sets - cursor
                        if chunk > remaining:
                            chunk = remaining
                        tags_n += sum(map(len, l2_sets[cursor:cursor + chunk]))
                        cursor += chunk
                        remaining -= chunk
                        if cursor >= num_sets:
                            cursor = 0
                            st[4] += 1
                            update_min_ver(vd_id, 1, now, seq=st[3])
                            c["walker.passes"] += 1
                    c["walker.sets_scanned"] += max_sets
                    c["walker.tags_scanned"] += tags_n
                else:
                    for _ in range(max_sets):
                        budget -= ways
                        if cursor == 0:
                            st[3] = min_ver_seq(vd_id)
                        cold_scan(vd, cursor, now)
                        cursor += 1
                        if cursor >= num_sets:
                            cursor = 0
                            st[4] += 1
                            update_min_ver(
                                vd_id, min_dirty_oid(vd), now, seq=st[3]
                            )
                            c["walker.passes"] += 1
                st[2] = cursor
            if budget > cap:
                budget = cap
            st[1] = budget

    def access(core_id, addr, size, is_store, now):
        # Hierarchy.execute_access's line split.
        step = fused_store if is_store else fused_load
        first = addr >> CACHE_LINE_SHIFT
        last = (addr + size - 1) >> CACHE_LINE_SHIFT
        if first == last:
            return step(core_id, first, now)
        total = 0
        for line in range(first, last + 1):
            total += step(core_id, line, now + total)
        return total

    def flush():
        h._token = token
        for walker, st in zip(walkers, w_state):
            walker._last_poll = st[0]
            walker._budget = st[1]
            walker._cursor = st[2]
            walker._pass_seq = st[3]
            walker.passes_completed = st[4]
        inc = stats.inc
        for key, value in c.items():
            if value:
                inc(key, value)

    return FastPath(access, fused_poll, flush)

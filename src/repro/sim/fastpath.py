"""The access path of every run: each protocol transition, written once.

:func:`build` specializes one machine for one run into closures over
flat local state: the cache-set LRU dicts, a local counter list and,
under stock NVOverlay, the tag walkers' one poll clock.
``Machine.run`` calls the built ``access`` for every access of every
run; there is no other access path.  The closures are the single
definition in ``src/`` of every cache transition: L1 hits and fills,
the L2 fill (``vd_fill``) with its GETS and GETX (``getx``), the GETX
owner hand-over (Fig. 6), store upgrades, owner downgrades (Fig. 5),
sharer invalidations, L2 and LLC evictions, directory
back-invalidation, the working-memory accesses, and, built on those,
the tag walker's set scan (``scan_set``, §IV-C) and NVOverlay's
finalize flush (``flush_vd``).

Each machine configuration is a choice ``build`` makes once, never a
per-access branch on the single-socket MESI directory path:

* the version protocol (store-eviction, version write-backs to the OMC,
  epoch sync) is gated on one closure constant, and the fused walker
  poll on stock NVOverlay (:func:`fuses_walker_poll`);
* the working-memory read and write-back are DRAM's inlined backlog
  arithmetic or the NVM device's own read and background write;
* every message the closures send takes its latency and counter slot
  from a per-endpoint table filled from ``Interconnect``'s hop rules, so
  snoop broadcasts and socket crossings cost nothing extra per message;
* a finite directory's back-invalidation and MOESI's Owned state are
  ``None``-checked locals and closure constants on the paths that
  create a directory entry or downgrade a dirty owner.

The baselines' store and dirty-eviction hooks, the protocol oracle's
per-event hooks and the crash-point injector ride along as
``None``-checked locals, so checked and unchecked runs take the same
code.  The closures call into ``Hierarchy`` only for the epoch steps
(``_epoch_sync`` / ``advance_epoch``) and ``min_dirty_oid``, once per
epoch advance or walker pass.  ``build`` makes the path it returns
``hierarchy.path`` and its ``flush`` clears it:
``Hierarchy.walker_scan_set`` and ``Hierarchy.flush_vd`` forward to the
path's ``scan_set`` and ``flush_vd``, so the unfused walker poll and
``NVOverlay.finalize`` run on the run's own closures, and the fused poll
reaches ``scan_set`` the same way for a VD past epoch 1.  A step called
outside a run needs a built path, as ``Hierarchy.execute_access`` does.

Every counter the closures bump goes into one slot of a flat list,
indexed by the module constants named after :data:`COUNTER_NAMES`, and
``flush`` adds the list into ``Stats`` once at the end.  Some totals are
exact functions of other slots, so no closure bumps them and ``flush``
derives them: ``stores`` = ``l1.store_hits + l1.store_misses +
l1.store_upgrades`` (every ``fused_store`` bumps exactly one of the
three), ``l1.accesses`` = that plus ``l1.load_hits + l1.load_misses``
(likewise every ``fused_load``), ``l2.accesses`` = ``l2.hits +
l2.misses`` (every ``vd_fill`` takes one branch), ``dram.read_bytes`` /
``dram.write_bytes`` = 64 × ``dram.reads`` / ``dram.writes``,
``net.cross_socket_msgs`` = the four crossing slots, and
``net.snoop_msgs`` = (VDs − 1) × ``net.snoop_broadcasts``.

``tests/reference_hierarchy.py`` keeps the plain method-per-transition
model these closures were written against; the parity tests patch its
``build`` in for their reference legs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .cache import MESI, CacheLine
from .config import CACHE_LINE_SHIFT, CACHE_LINE_SIZE
from .hierarchy import DirEntry, VDState
from .scheme import (
    REASON_CAPACITY,
    REASON_COHERENCE,
    REASON_OTHER,
    REASON_STORE_EVICT,
    REASON_TAG_WALK,
    SnapshotScheme,
)

__all__ = ["FastPath", "build", "fuses_walker_poll"]

#: The counters the fast path keeps, one slot each in a flat list, in
#: the order ``flush`` adds them into ``Stats``.  ``build`` appends the
#: evict-reason keys and the per-slice LLC keys.  Five of these no
#: closure bumps; ``flush`` derives them (module docstring).  A new
#: fast-path counter joins this tuple and the unpacking below, which
#: fails at import if the two disagree.
COUNTER_NAMES = (
    "l1.accesses", "l1.load_hits", "l1.load_misses",
    "l1.store_hits", "l1.store_misses", "l1.store_upgrades",
    "l1.dirty_evictions", "l1.evictions",
    "l2.accesses", "l2.hits", "l2.misses",
    "l2.dirty_evictions", "l2.evictions",
    "llc.dirty_evictions", "llc.evictions",
    "stores", "cst.store_evictions", "cst.version_writebacks",
    "net.omc_msgs", "net.vd_llc_msgs", "net.llc_vd_msgs",
    "net.forwarded_msgs", "net.c2c_msgs",
    "l2.downgrades", "cst.load_downgrades",
    "dram.reads", "dram.read_bytes",
    "dram.writes", "dram.write_bytes",
    "walker.sets_scanned", "walker.tags_scanned",
    "walker.passes",
    "dir.back_invalidations",
    # The four table-driven messages once more, for the copies that
    # cross a socket boundary: ``flush`` adds each into its message's
    # total and derives ``net.cross_socket_msgs`` from the four.
    "net.vd_llc_msgs", "net.llc_vd_msgs",
    "net.forwarded_msgs", "net.c2c_msgs",
    "net.cross_socket_msgs", "net.snoop_broadcasts",
    "coh.owned_downgrades", "coh.c2c_transfers",
)
(
    L1_ACCESSES, L1_LOAD_HITS, L1_LOAD_MISSES,
    L1_STORE_HITS, L1_STORE_MISSES, L1_STORE_UPGRADES,
    L1_DIRTY_EVICTIONS, L1_EVICTIONS,
    L2_ACCESSES, L2_HITS, L2_MISSES,
    L2_DIRTY_EVICTIONS, L2_EVICTIONS,
    LLC_DIRTY_EVICTIONS, LLC_EVICTIONS,
    STORES, CST_STORE_EVICTIONS, CST_VERSION_WRITEBACKS,
    NET_OMC_MSGS, NET_VD_LLC_MSGS, NET_LLC_VD_MSGS,
    NET_FORWARDED_MSGS, NET_C2C_MSGS,
    L2_DOWNGRADES, CST_LOAD_DOWNGRADES,
    DRAM_READS, DRAM_READ_BYTES,
    DRAM_WRITES, DRAM_WRITE_BYTES,
    WALKER_SETS_SCANNED, WALKER_TAGS_SCANNED,
    WALKER_PASSES,
    DIR_BACK_INVALIDATIONS,
    NET_VD_LLC_CROSSING, NET_LLC_VD_CROSSING,
    NET_FORWARDED_CROSSING, NET_C2C_CROSSING,
    NET_CROSS_SOCKET_MSGS, NET_SNOOP_BROADCASTS,
    COH_OWNED_DOWNGRADES, COH_C2C_TRANSFERS,
) = range(len(COUNTER_NAMES))


class FastPath(NamedTuple):
    """The per-run functions ``Machine.run`` calls."""

    #: ``access(core_id, addr, size, is_store, now)`` -> latency.
    access: Callable[[int, int, int, bool, int], int]
    #: ``poll(now)``, the fused ``NVOverlay.poll`` (every tag walker);
    #: None unless :func:`fuses_walker_poll`, and the run keeps the
    #: scheme's own ``poll``.
    poll: Optional[Callable[[int], None]]
    #: Writes the deferred counters, the store token and the walker
    #: fields back and clears ``hierarchy.path``; ``Machine.run`` calls
    #: it once, after ``finalize``.
    flush: Callable[[], None]
    #: ``scan_set(vd, set_index, now)``, one tag-walker set scan (§IV-C),
    #: and ``flush_vd(vd, now)``, NVOverlay's finalize flush of one VD:
    #: ``Hierarchy.walker_scan_set`` and ``Hierarchy.flush_vd`` forward
    #: to them.  None unless the version protocol runs.
    scan_set: Optional[Callable[[VDState, int, int], None]] = None
    flush_vd: Optional[Callable[[VDState, int], None]] = None


def fuses_walker_poll(scheme) -> bool:
    """Whether ``build`` swaps the scheme's ``poll`` for its fused one.

    Only stock NVOverlay with plain tag walkers in lockstep qualifies:
    an instance-patched ``poll`` or ``on_transaction_boundary``, a
    walker that is not a plain ``TagWalker`` or a patched walker
    ``poll`` keeps the scheme's own ``poll`` (the fused poll holds the
    walker fields in locals until ``flush``), and so do walkers whose
    rate, L2 geometry, last poll, budget or cursor differ (the fused
    poll keeps one of each for all walkers; ``NVOverlay.attach`` builds
    them equal).  Hooks are compared against the class attributes as
    they are at call time, the way ``Machine.run`` resolves them, so a
    class-level wrapper keeps the fused poll.
    """
    from ..core.nvoverlay import NVOverlay
    from ..core.tag_walker import TagWalker

    if not isinstance(scheme, NVOverlay):
        return False
    if getattr(scheme.poll, "__func__", None) is not NVOverlay.poll:
        return False
    if (
        getattr(scheme.on_transaction_boundary, "__func__", None)
        is not SnapshotScheme.on_transaction_boundary
    ):
        return False
    walkers = scheme.walkers
    if not all(
        type(w) is TagWalker
        and getattr(w.poll, "__func__", None) is TagWalker.poll
        for w in walkers
    ):
        return False
    # Lockstep: the fused poll keeps one clock, budget and cursor for
    # every walker, so they must agree on all three and on what drives
    # them.
    return len({
        (w.enabled, w.rate, w._l2_ways, w._l2_num_sets, w._budget_cap,
         w._last_poll, w._budget, w._cursor)
        for w in walkers
    }) <= 1


def build(machine) -> FastPath:
    """The access path's functions for one run of ``machine``.

    Every counter bumped inline lands in a local list that ``flush``
    adds into ``Stats`` once at the end — legal because fingerprints
    hash the *final* counter values, never intermediate ones, and no
    scheme or oracle hook reads a counter mid-run.  The ``Hierarchy``
    steps that stay there (epoch advance and sync) and the scheme hooks
    keep using ``Stats`` directly; both accounting paths only ever add.

    The returned path becomes ``hierarchy.path`` until its ``flush``,
    so ``Hierarchy.walker_scan_set`` and ``Hierarchy.flush_vd`` reach
    this run's ``scan_set`` and ``flush_vd``.  ``flush`` clears it,
    which also breaks the hierarchy -> closures -> hierarchy cycle.
    """
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
    # The version protocol's steps run only under NVOverlay; the
    # baselines' hooks are the ``None``-checked locals Hierarchy binds.
    versioned = h.versioned
    # MOESI (§IV-E): a downgraded dirty owner keeps its line in O.
    moesi = h.moesi
    on_store = h._scheme_on_store
    on_l2_dirty_eviction = None if versioned else h._scheme_on_l2_dirty_eviction
    on_llc_dirty_eviction = h._scheme_on_llc_dirty_eviction
    on_version_writeback = scheme.on_version_writeback
    on_version_migrate = scheme.on_version_migrate
    # The checkers' hooks, bound the same way: None on an unarmed run.
    oracle_on_store = h._oracle_on_store
    oracle_on_writeback = h._oracle_on_writeback
    oracle_on_eviction = h._oracle_on_eviction
    oracle_on_coherence = h._oracle_on_coherence
    oracle_on_walker_pass = (
        h.oracle.on_walker_pass if h.oracle is not None else None
    )
    fault_on_event = h._fault_on_event
    token = h._token
    store_log = h.store_log
    M, E, S, I_STATE, O = MESI.M, MESI.E, MESI.S, MESI.I, MESI.O

    # -- flat local counters: one list slot per name -------------------
    # The fixed names, then the evict reasons ``omc_writeback`` counts,
    # then the per-slice LLC keys of this geometry.
    reasons = (REASON_CAPACITY, REASON_STORE_EVICT, REASON_COHERENCE,
               REASON_TAG_WALK, REASON_OTHER)
    names = COUNTER_NAMES + tuple(
        h._evict_reason_key[reason] for reason in reasons
    )
    reason_slot = {
        reason: len(COUNTER_NAMES) + i for i, reason in enumerate(reasons)
    }
    slice_slots = []
    for keys in (h._llc_dir_access_key, h._llc_fill_key, h._llc_hit_key,
                 h._llc_miss_key):
        slice_slots.append(list(range(len(names), len(names) + len(keys))))
        names += tuple(keys)
    dir_slot, fill_slot, hit_slot, miss_slot = slice_slots
    c = [0] * len(names)

    # -- interconnect: (latency, counter slot) per message and endpoints -
    # Interconnect's hop rules, tabulated once: ``request[vd][slice]``,
    # ``forward[vd][owner]``, ``transfer[vd][owner]`` (the owner's reply)
    # and ``invalidate[slice][vd]``.  A message that crosses a socket
    # boundary counts in its crossing slot.
    net = h.net
    vd_sockets = [(vd.id, net.socket_of_vd(vd.id)) for vd in vds]
    slice_sockets = [(s, net.socket_of_slice(s)) for s in range(num_slices)]

    def tabulate(cost, sources, targets, slot, crossing_slot, extra=0):
        # A rule depends on its endpoints' sockets only, so each pair of
        # sockets is costed once and endpoints on one socket share a row.
        rows = {}
        for a, socket_a in sources:
            if socket_a in rows:
                continue
            cells = {}
            for b, socket_b in targets:
                if socket_b not in cells:
                    latency, crosses = cost(a, b)
                    cells[socket_b] = (
                        latency + extra, crossing_slot if crosses else slot
                    )
            rows[socket_a] = [cells[socket_b] for _, socket_b in targets]
        return [rows[socket_a] for _, socket_a in sources]

    transfer = tabulate(lambda vd, owner: net.transfer(owner, vd), vd_sockets,
                        vd_sockets, NET_C2C_MSGS, NET_C2C_CROSSING)
    invalidate = tabulate(net.invalidation, slice_sockets, vd_sockets,
                          NET_LLC_VD_MSGS, NET_LLC_VD_CROSSING)
    if h.snoop:
        # Requests broadcast to every VD, and the owner, having seen the
        # broadcast, answers point-to-point.
        broadcast = [(net.snoop(len(vds)), NET_SNOOP_BROADCASTS)] * num_slices
        request = [broadcast] * len(vds)
        forward = transfer
    else:
        request = tabulate(net.request, vd_sockets, slice_sockets,
                           NET_VD_LLC_MSGS, NET_VD_LLC_CROSSING, llc_latency)
        forward = tabulate(net.forward, vd_sockets, vd_sockets,
                           NET_FORWARDED_MSGS, NET_FORWARDED_CROSSING)

    # -- the protocol transitions ----------------------------------------
    # The GETS and the L2 install are inlined into vd_fill below: on the
    # dominant miss chain every call frame showed up in the profile, and
    # inlining also lets the chain reuse the directory entry and L2 set
    # it already fetched.  The GETX and its owner hand-over, the inter-VD
    # coherence corners (upgrades, owner downgrades, sharer
    # invalidations), evictions, the L1 install, the working-memory
    # accesses, the LLC insert, the PUTX rule and the version write-back
    # to the OMC are closures of their own, and the tag walker's set
    # scan and NVOverlay's finalize flush are built on them.

    # Working memory, picked once per run.  A write-back is posted at
    # ``t`` (its latency discarded) and the working image takes the
    # newest version.
    if h.working_nvm:
        # NVM holds the working data (§III-B): the device's own read and
        # background-write paths.
        working_read = h.nvm.read
        nvm_write_background = h.nvm.write_background

        def working_writeback(line, data, oid, t):
            nvm_write_background(line, line_bytes, t, "working")
            current = mem_lines.get(line)
            if current is None or oid >= current[1]:
                mem_lines[line] = (data, oid)
    else:
        def working_read(line, t):
            # DRAM.access's backlog arithmetic on the device's own
            # lists; returns the latency.
            ctrl = (line ^ (line >> 4) ^ (line >> 9)) % dram_nctrl
            last = dram_last[ctrl]
            if t > last:
                drained = dram_backlog[ctrl] - (t - last)
                dram_backlog[ctrl] = drained if drained > 0 else 0
                dram_last[ctrl] = t
            latency = dram_backlog[ctrl] + dram_latency
            dram_backlog[ctrl] += dram_occ
            c[DRAM_READS] += 1
            return latency

        def working_writeback(line, data, oid, t):
            ctrl = (line ^ (line >> 4) ^ (line >> 9)) % dram_nctrl
            last = dram_last[ctrl]
            if t > last:
                drained = dram_backlog[ctrl] - (t - last)
                dram_backlog[ctrl] = drained if drained > 0 else 0
                dram_last[ctrl] = t
            dram_backlog[ctrl] += dram_occ
            c[DRAM_WRITES] += 1
            current = mem_lines.get(line)
            if current is None or oid >= current[1]:
                mem_lines[line] = (data, oid)

    # Entry objects are recycled on the miss chain: an evicted L2 or LLC
    # line's ``CacheLine`` becomes the entry of the line installed in its
    # place, and a directory entry dropped as empty waits in
    # ``spare_dir_entries`` for the next line that needs one.  Nothing
    # may therefore keep an entry object across accesses; the scheme and
    # oracle hooks receive values (the oracle copies the fields it
    # records).
    spare_dir_entries = []

    def llc_insert(line, data, oid, dirty, now):
        # Insert a line into its LLC slice, evicting the set's LRU line
        # if it is full; a line already there is updated in place and
        # stays dirty if it was.
        slice_id = line % num_slices
        latency = llc_latency
        c[fill_slot[slice_id]] += 1
        llc_set = llc_sets[slice_id][line % llc_num_sets]
        entry = llc_set.get(line)
        if entry is not None:
            # Already cached: update in place, most recently used.
            del llc_set[line]
            entry.state = M if dirty or entry.state >= M else S
        elif len(llc_set) >= llc_ways:
            # A dirty victim settles into working memory and leaves the
            # scheme's LLC domain (its stall joins the fill latency).
            entry = llc_set[next(iter(llc_set))]
            vline = entry.line
            if entry.state >= M:
                c[LLC_DIRTY_EVICTIONS] += 1
                working_writeback(vline, entry.data, entry.oid, now)
                if on_llc_dirty_eviction is not None:
                    latency += on_llc_dirty_eviction(
                        vline, entry.oid, entry.data, now
                    )
            del llc_set[vline]
            c[LLC_EVICTIONS] += 1
            vshard = dir_shards[slice_id]
            ventry = vshard.get(vline)
            if ventry is not None and ventry.owner is None and not ventry.sharers:
                del vshard[vline]
                spare_dir_entries.append(ventry)
            # The victim's entry becomes this line's.
            entry.line = line
            entry.state = M if dirty else S
        else:
            llc_set[line] = CacheLine(line, M if dirty else S, oid, data)
            return latency
        entry.oid = oid
        entry.data = data
        llc_set[line] = entry
        return latency

    def omc_writeback(vd, line, data, oid, reason, now):
        # Send a version to the OMC, bypassing the LLC (§IV-A2).  The
        # OMC serves as the memory controller (§V), so the working image
        # follows the newest persisted version.  A caller that also
        # leaves the line dirty in the LLC calls llc_insert itself.
        c[NET_OMC_MSGS] += 1
        c[CST_VERSION_WRITEBACKS] += 1
        c[reason_slot[reason]] += 1
        latency = hop + on_version_writeback(vd.id, line, oid, data, reason, now)
        if oracle_on_writeback is not None:
            oracle_on_writeback(vd, line, oid, reason, now)
        current = mem_lines.get(line)
        if current is None or oid >= current[1]:
            mem_lines[line] = (data, oid)
        return latency

    def l2_putx(vd, line, data, oid, now):
        # The version-aware PUTX rule: an L1 write-back into the
        # inclusive L2 first pushes an older dirty L2 version to the OMC
        # (Fig. 4c), then the L2 copy takes the incoming version.
        cache_set = vd_l2_sets[vd.id][line % l2_num_sets]
        entry = cache_set.get(line)
        assert entry is not None, "inclusion violated: L1 write-back missed in L2"
        del cache_set[line]
        cache_set[line] = entry
        if versioned and entry.state >= M and entry.oid < oid:
            # The PUTX rule discards the write-back latency.
            omc_writeback(
                vd, line, entry.data, entry.oid, REASON_STORE_EVICT, now
            )
        entry.data = data
        entry.oid = oid
        entry.state = M

    def invalidate_l1s(vd, line, exclude_core, now):
        # Every member L1 copy but ``exclude_core``'s goes, a dirty one
        # merging into the L2 first (the PUTX rule).
        l1_index = line % l1_num_sets
        for core in vd.core_ids:
            if core == exclude_core:
                continue
            peer_set = l1_sets[core][l1_index]
            peer = peer_set.get(line)
            if peer is None:
                continue
            if peer.state >= M:
                l2_putx(vd, line, peer.data, peer.oid, now)
            del peer_set[line]

    def invalidate_vd(vd_id, line, slice_id, now):
        # A clean sharer VD gives the line up (its copies are persisted
        # already).
        vd = vds[vd_id]
        l2_set = vd_l2_sets[vd_id][line % l2_num_sets]
        entry = l2_set.get(line)
        if oracle_on_coherence is not None:
            oracle_on_coherence("invalidate_sharer", vd_id, line,
                                entry.oid if entry is not None else 0, now)
        invalidate_l1s(vd, line, None, now)
        if entry is not None:
            assert not entry.state >= M, "sharer VD holds dirty data"
            del l2_set[line]
        latency, slot = invalidate[slice_id][vd_id]
        c[slot] += 1
        return latency

    def upgrade(vd, core_id, line, now):
        # S -> exclusive for a store to a line held in S: claim the line
        # and invalidate the other holders, or, when another VD owns it
        # in O, run the full GETX.
        latency = 0
        vd_id = vd.id
        slice_id = line % num_slices
        shard = dir_shards[slice_id]
        dentry = shard.get(line)
        owner = dentry.owner if dentry is not None else None
        if owner is not None and owner != vd_id:
            # MOESI only: another VD owns the line in O, and its version
            # (possibly newer than memory) must transfer.
            latency = getx_from_remote_owner(
                vd, core_id, line, slice_id, dentry, now
            )
        elif owner is None or dentry.sharers - {vd_id}:
            # Claim ownership; the data is already present locally.
            latency, slot = request[vd_id][slice_id]
            c[slot] += 1
            c[dir_slot[slice_id]] += 1
            if dentry is None:
                if back_invalidate is not None and len(shard) >= dir_capacity:
                    back_invalidate(slice_id, now)
                dentry = (
                    spare_dir_entries.pop() if spare_dir_entries else DirEntry()
                )
                shard[line] = dentry
            for other_id in sorted(dentry.holders() - {vd_id}):
                latency += invalidate_vd(other_id, line, slice_id, now + latency)
            # The LLC copy goes stale: a dirty one settles into working
            # memory (CST) or hands its obligation to this VD's L2.
            llc_set = llc_sets[slice_id][line % llc_num_sets]
            llc_entry = llc_set.get(line)
            if llc_entry is not None:
                if llc_entry.state >= M:
                    l2_entry = vd_l2_sets[vd_id][line % l2_num_sets].get(line)
                    if not versioned and l2_entry is not None:
                        l2_entry.state = M
                    else:
                        working_writeback(
                            line, llc_entry.data, llc_entry.oid, now + latency
                        )
                del llc_set[line]
            dentry.owner = vd_id
            dentry.sharers.clear()
        invalidate_l1s(vd, line, core_id, now + latency)
        return latency

    def downgrade_owner(owner, dentry, vd_id, line, now):
        # DIR-GETS at a remote owner (Fig. 5), with the directory update
        # for the requester ``vd_id``.  MESI: the owner's newest version
        # is written back and the owner drops to a sharer.  MOESI: a
        # dirty owner keeps the line in O, with no write-back, and stays
        # the directory owner.
        owner_id = owner.id
        l1_index = line % l1_num_sets
        owner_l1_sets = vd_l1_sets[owner_id]
        for sets in owner_l1_sets:
            # The first dirty L1 copy, in core order, merges into the
            # L2; it drops to S with the others below.
            peer = sets[l1_index].get(line)
            if peer is not None and peer.state >= M:
                l2_putx(owner, line, peer.data, peer.oid, now)
                break
        entry = vd_l2_sets[owner_id][line % l2_num_sets].get(line)
        assert entry is not None, "directory says owner but L2 has no copy"
        if oracle_on_coherence is not None:
            oracle_on_coherence("downgrade", owner_id, line, entry.oid, now)
        for sets in owner_l1_sets:
            peer = sets[l1_index].get(line)
            if peer is not None and peer.state:
                peer.state = S
        if entry.state >= M:
            c[CST_LOAD_DOWNGRADES if versioned else L2_DOWNGRADES] += 1
            if moesi:
                c[COH_OWNED_DOWNGRADES] += 1
                entry.state = O
                dentry.sharers.add(vd_id)
                return entry.data, entry.oid
            if versioned:
                # The write-back latency is discarded.
                omc_writeback(
                    owner, line, entry.data, entry.oid, REASON_COHERENCE, now
                )
                llc_insert(line, entry.data, entry.oid, True, now)
            else:
                llc_insert(line, entry.data, entry.oid, True, now)
                scheme.on_l2_dirty_eviction(
                    owner_id, line, entry.oid, entry.data, REASON_COHERENCE, now
                )
        else:
            llc_insert(line, entry.data, entry.oid, False, now)
        entry.state = S
        dentry.sharers.add(owner_id)
        dentry.owner = None
        dentry.sharers.add(vd_id)
        return entry.data, entry.oid

    def evict_l2_entry(vd, entry, reason, now):
        # Evict an L2 line (a capacity victim, or the owner's copy when
        # the directory drops the line's entry): the member L1 copies go,
        # a dirty line is written back, the directory forgets the VD.
        if fault_on_event is not None:
            fault_on_event("eviction", now)
        if oracle_on_eviction is not None:
            oracle_on_eviction(vd, entry, reason, now)
        line = entry.line
        latency = 0
        invalidate_l1s(vd, line, None, now)
        l2_set = vd_l2_sets[vd.id][line % l2_num_sets]
        entry = l2_set.get(line)
        assert entry is not None
        dirty = entry.state >= M
        if dirty:
            c[L2_DIRTY_EVICTIONS] += 1
        if dirty and versioned:
            # This caller keeps the write-back latency, and the line
            # lands dirty in the LLC.
            latency += omc_writeback(
                vd, line, entry.data, entry.oid, reason, now
            )
        latency += llc_insert(line, entry.data, entry.oid, dirty, now)
        if dirty and on_l2_dirty_eviction is not None:
            latency += on_l2_dirty_eviction(
                vd.id, line, entry.oid, entry.data, reason, now
            )
        del l2_set[line]
        c[L2_EVICTIONS] += 1
        dentry = dir_shards[line % num_slices].get(line)
        if dentry is not None:
            dentry.sharers.discard(vd.id)
            if dentry.owner == vd.id:
                dentry.owner = None
        return latency

    # A finite directory (directory_entries_per_slice) makes room for a
    # new entry by dropping its shard's oldest one first; an unbounded
    # directory leaves this None.
    dir_capacity = h._dir_capacity
    back_invalidate = None
    if dir_capacity is not None:
        def back_invalidate(slice_id, now):
            # The shard is full: its oldest entry goes, and every holder
            # gives that line up, the owner's copy through the eviction
            # path (its latency is directory-side background work).
            shard = dir_shards[slice_id]
            vline = next(iter(shard))
            ventry = shard[vline]
            if ventry.owner is not None:
                owner = vds[ventry.owner]
                entry = vd_l2_sets[owner.id][vline % l2_num_sets].get(vline)
                if entry is not None:
                    evict_l2_entry(owner, entry, REASON_COHERENCE, now)
            for sharer_id in sorted(ventry.sharers):
                invalidate_vd(sharer_id, vline, slice_id, now)
            shard.pop(vline, None)
            c[DIR_BACK_INVALIDATIONS] += 1

    def handover(owner, line, now):
        # DIR-GETX at the owner (Fig. 6): the owner's newest version
        # moves cache-to-cache and its copies go.  A dirty L1 copy first
        # merges into the L2, so an older dirty L2 version it shadows
        # goes straight to the OMC, never to the LLC.  The copy moves
        # even when clean: after a tag-walker downgrade the E line still
        # holds the newest data, which the LLC and memory may not.
        # Returns (data, oid, dirty).
        owner_id = owner.id
        l1_index = line % l1_num_sets
        for sets in vd_l1_sets[owner_id]:
            peer_set = sets[l1_index]
            peer = peer_set.get(line)
            if peer is not None and peer.state >= M:
                l2_putx(owner, line, peer.data, peer.oid, now)
                del peer_set[line]
                break
        l2_set = vd_l2_sets[owner_id][line % l2_num_sets]
        entry = l2_set.get(line)
        assert entry is not None, "directory says owner but L2 has no copy"
        if oracle_on_coherence is not None:
            oracle_on_coherence("invalidate_owner", owner_id, line, entry.oid,
                                now)
        invalidate_l1s(owner, line, None, now)
        dirty = entry.state >= M
        if dirty:
            c[COH_C2C_TRANSFERS] += 1
        del l2_set[line]
        return entry.data, entry.oid, dirty

    def getx(vd_id, line, slice_id, dentry, rnow, nl):
        # GETX once the request has reached the directory (sent at
        # ``rnow``, ``nl`` cycles spent so far): the owner hands its copy
        # over (Fig. 6), the sharers are invalidated, and without an
        # owner's copy the data comes from the LLC or working memory.
        # Returns (nl, data, oid, dirty).
        data = None
        oid = 0
        dirty = False
        owner_id = dentry.owner
        if owner_id is not None and owner_id != vd_id:
            owner = vds[owner_id]
            message_latency, slot = forward[vd_id][owner_id]
            c[slot] += 1
            nl += message_latency
            data, oid, dirty = handover(owner, line, rnow + nl)
            message_latency, slot = transfer[vd_id][owner_id]
            c[slot] += 1
            nl += message_latency
            if dirty and versioned:
                on_version_migrate(owner_id, vd_id, line, oid, rnow)
            llc_sets[slice_id][line % llc_num_sets].pop(line, None)
        if dentry.sharers:
            for sharer_id in sorted(dentry.sharers - {vd_id}):
                nl += invalidate_vd(sharer_id, line, slice_id, rnow + nl)
        if data is None:
            llc_set = llc_sets[slice_id][line % llc_num_sets]
            llc_entry = llc_set.get(line)
            if llc_entry is not None:
                del llc_set[line]
                llc_set[line] = llc_entry
                c[hit_slot[slice_id]] += 1
                data, oid = llc_entry.data, llc_entry.oid
                if llc_entry.state >= M and not versioned:
                    # The dirty obligation travels up: install in M.
                    dirty = True
                elif llc_entry.state >= M:
                    working_writeback(line, llc_entry.data, llc_entry.oid, rnow + nl)
                del llc_set[line]
                mem_data, mem_oid = mem_lines.get(line, (0, 0))
                if versioned and mem_oid > oid:
                    data, oid = mem_data, mem_oid
            else:
                c[miss_slot[slice_id]] += 1
                data, oid = mem_lines.get(line, (0, 0))
                nl += working_read(line, rnow + nl)
        dentry.owner = vd_id
        dentry.sharers.clear()
        return nl, data, oid, dirty

    def getx_from_remote_owner(vd, core_id, line, slice_id, dentry, now):
        # MOESI only: a store to a line this VD shares while another VD
        # owns it in O runs the full GETX, and the owner's version lands
        # in this VD's L2 copy and the core's L1 copy in place.
        vd_id = vd.id
        latency, slot = request[vd_id][slice_id]
        c[slot] += 1
        c[dir_slot[slice_id]] += 1
        latency, data, oid, dirty = getx(
            vd_id, line, slice_id, dentry, now, latency
        )
        if versioned and oid > vd.cur_epoch:
            latency += h._epoch_sync(vd, oid, now + latency)
        # A sharer VD's inclusive L2 holds the line, and nothing in the
        # GETX touches this VD's caches.
        l2_entry = vd_l2_sets[vd_id][line % l2_num_sets][line]
        l2_entry.data, l2_entry.oid = data, oid
        l2_entry.state = M if dirty else E
        l1_entry = l1_sets[core_id][line % l1_num_sets].get(line)
        if l1_entry is not None:
            l1_entry.data, l1_entry.oid = data, oid
            l1_entry.state = E
        return latency

    def vd_fill(vd, core_id, line, for_store, now):
        latency = l2_latency
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
            c[L2_HITS] += 1
            l1_index = line % l1_num_sets
            for core in vd.core_ids:
                if core == core_id:
                    continue
                peer_set = l1_sets[core][l1_index]
                peer = peer_set.get(line)
                if peer is not None and peer.state >= M:
                    # A peer L1's dirty copy is recalled into the L2
                    # (Figs. 7/8): l2_putx updates this L2 entry in place
                    # and makes it the most recently used.  A store takes
                    # the peer's copy, a load leaves it shared.
                    l2_putx(vd, line, peer.data, peer.oid, now + latency)
                    latency += l2_latency
                    if for_store:
                        del peer_set[line]
                    else:
                        peer.state = S
                    break
            if for_store:
                # The L2 entry survives the upgrade (which at most marks
                # it dirty), so its data and OID are still current.
                latency += upgrade(vd, core_id, line, now + latency)
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

        c[L2_MISSES] += 1
        # The inter-VD request.  ``rnow`` is the request submission
        # time, ``nl`` the accumulated network latency; absolute event
        # times are ``rnow + nl``.  The directory entry fetched at the
        # top is reused — nothing between the fetch and here touches
        # this line's entry (the VD-side calls operate on *other*
        # VDs' caches and the victim lines differ by construction).
        rnow = now + latency
        nl, slot = request[vd_id][slice_id]
        c[slot] += 1
        c[dir_slot[slice_id]] += 1
        if dentry is None:
            if back_invalidate is not None and len(shard) >= dir_capacity:
                back_invalidate(slice_id, rnow)
            dentry = spare_dir_entries.pop() if spare_dir_entries else DirEntry()
            shard[line] = dentry
        if for_store:
            nl, data, oid, dirty = getx(vd_id, line, slice_id, dentry, rnow, nl)
            state = E
            istate = M if dirty else E
        else:
            owner_id = dentry.owner
            if owner_id is not None and owner_id != vd_id:
                owner = vds[owner_id]
                message_latency, slot = forward[vd_id][owner_id]
                c[slot] += 1
                nl += message_latency
                data, oid = downgrade_owner(
                    owner, dentry, vd_id, line, rnow + nl
                )
            else:
                llc_set = llc_sets[slice_id][line % llc_num_sets]
                llc_entry = llc_set.get(line)
                if llc_entry is not None:
                    del llc_set[line]
                    llc_set[line] = llc_entry
                    c[hit_slot[slice_id]] += 1
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
                    if versioned and mem_oid > oid:
                        data, oid = mem_data, mem_oid
                else:
                    c[miss_slot[slice_id]] += 1
                    data, oid = mem_lines.get(line, (0, 0))
                    nl += working_read(line, rnow + nl)
                    if dentry.owner is None and not dentry.sharers:
                        dentry.owner = vd_id
                    else:
                        dentry.sharers.add(vd_id)
            state = E if dentry.owner == vd_id else S
            istate = state
        latency += nl
        if versioned and oid > vd.cur_epoch:
            latency += h._epoch_sync(vd, oid, now + latency)
        # The L2 install.  The directory lists every VD whose L2 holds
        # the line, so a miss never finds a copy here; a capacity victim
        # is evicted at the install submission time and its entry
        # becomes this line's.
        assert l2_entry is None, "L2 copy the directory does not list"
        if len(l2_cache_set) >= l2_ways:
            entry = l2_cache_set[next(iter(l2_cache_set))]
            latency += evict_l2_entry(vd, entry, REASON_CAPACITY, now + latency)
            entry.line = line
            entry.state = istate
            entry.oid = oid
            entry.data = data
            l2_cache_set[line] = entry
        else:
            l2_cache_set[line] = CacheLine(line, istate, oid, data)
        return latency, data, oid, state

    def l1_install(vd, cache_set, line, state, oid, data, t):
        # Install into the requesting core's L1 set; a dirty victim
        # merges into the L2 (the PUTX rule).
        if line not in cache_set and len(cache_set) >= l1_ways:
            victim = cache_set[next(iter(cache_set))]
            if victim.state >= M:
                c[L1_DIRTY_EVICTIONS] += 1
                l2_putx(vd, victim.line, victim.data, victim.oid, t)
            del cache_set[victim.line]
            c[L1_EVICTIONS] += 1
            # Recycle the evicted CacheLine object: nothing outside
            # this set holds a reference to it.
            victim.line = line
            victim.state = state
            victim.oid = oid
            victim.data = data
            entry = victim
        else:
            cache_set.pop(line, None)
            entry = CacheLine(line, state, oid, data)
        cache_set[line] = entry
        return entry

    def fused_store(core_id, line, now):
        # commit_store is hand-inlined here: at ~one store per four
        # accesses it sits on the critical path, and the call frame
        # alone was measurable.
        nonlocal token
        cache_set = l1_sets[core_id][line % l1_num_sets]
        entry = cache_set.get(line)
        vd = core_vd[core_id]
        latency = l1_latency
        if entry is not None and entry.state >= E:
            del cache_set[line]
            cache_set[line] = entry
            c[L1_STORE_HITS] += 1
        elif entry is None or entry.state == I_STATE:
            c[L1_STORE_MISSES] += 1
            fill_latency, data, oid, _state = vd_fill(
                vd, core_id, line, True, now + latency
            )
            latency += fill_latency
            # Store fills arrive Exclusive.
            entry = l1_install(
                vd, cache_set, line, E, oid, data, now + latency
            )
        else:  # MESI.S
            del cache_set[line]
            cache_set[line] = entry
            c[L1_STORE_UPGRADES] += 1
            latency += upgrade(vd, core_id, line, now + latency)
            entry = cache_set.get(line)
            assert entry is not None
            del cache_set[line]  # lookup(touch=True)
            cache_set[line] = entry
        # -- commit_store --
        stall = (
            on_store(core_id, vd.id, line, entry.oid, now + latency)
            if on_store is not None
            else 0
        )
        epoch = vd.cur_epoch if versioned else 0
        if versioned and entry.oid != epoch and entry.state >= M:
            assert entry.oid < epoch, "version from the future survived sync"
            c[CST_STORE_EVICTIONS] += 1
            l2_putx(vd, entry.line, entry.data, entry.oid, now + latency)
        token += 1
        entry.data = token
        entry.oid = epoch
        entry.state = M
        vd.store_count += 1
        vd.total_stores += 1
        if store_log is not None:
            store_log.append((entry.line, epoch, token, vd.id, core_id))
        if oracle_on_store is not None:
            oracle_on_store(core_id, vd, entry, now + latency)
        if fault_on_event is not None:
            fault_on_event("store", now + latency)
        return latency + stall

    def fused_load(core_id, line, now):
        cache_set = l1_sets[core_id][line % l1_num_sets]
        entry = cache_set.get(line)
        if entry is not None and entry.state:
            del cache_set[line]
            cache_set[line] = entry
            c[L1_LOAD_HITS] += 1
            return l1_latency
        c[L1_LOAD_MISSES] += 1
        latency = l1_latency
        vd = core_vd[core_id]
        fill_latency, data, oid, state = vd_fill(
            vd, core_id, line, False, now + latency
        )
        latency += fill_latency
        l1_install(vd, cache_set, line, state, oid, data, now + latency)
        return latency

    # -- NVOverlay's set scan and finalize flush -------------------------
    # The walker's scan visits the tags resident in the set when it
    # starts, and the flush the dirty lines resident when it starts: the
    # PUTX rule and the LLC insert may move or recycle other entries, so
    # both iterate over snapshots.

    def scan_set(vd, set_index, now):
        # One tag-walker set scan (§IV-C).  For each tag, the first dirty
        # L1 copy in core order, if from a previous epoch, merges into
        # the L2 and drops to E; then a dirty L2 version older than
        # cur-epoch goes to the OMC and drops to E (O to S: other VDs
        # hold copies).  Nothing the scan reaches advances the epoch or
        # dirties an L1 line.
        c[WALKER_SETS_SCANNED] += 1
        l2_set = vd_l2_sets[vd.id][set_index]
        if not l2_set:
            return
        entries = list(l2_set.values())
        c[WALKER_TAGS_SCANNED] += len(entries)
        owner_l1_sets = vd_l1_sets[vd.id]
        cur_epoch = vd.cur_epoch
        for entry in entries:
            line = entry.line
            l1_index = line % l1_num_sets
            for sets in owner_l1_sets:
                peer = sets[l1_index].get(line)
                if peer is not None and peer.state >= M:
                    if peer.oid < cur_epoch:
                        l2_putx(vd, line, peer.data, peer.oid, now)
                        peer.state = E
                    break
            if entry.state >= M and entry.oid < cur_epoch:
                omc_writeback(vd, line, entry.data, entry.oid,
                              REASON_TAG_WALK, now)
                entry.state = S if entry.state == O else E

    def flush_vd(vd, now):
        # Persist every dirty version in the VD, leaving its lines
        # clean: each dirty L1 copy merges into the L2 and drops to E,
        # then each dirty L2 version goes to the OMC and lands dirty in
        # the LLC.
        for core in vd.core_ids:
            for entry in list(h.l1s[core].dirty_lines()):
                l2_putx(vd, entry.line, entry.data, entry.oid, now)
                entry.state = E
        for entry in list(vd.l2.dirty_lines()):
            omc_writeback(vd, entry.line, entry.data, entry.oid,
                          REASON_OTHER, now)
            llc_insert(entry.line, entry.data, entry.oid, True, now)
            entry.state = S if entry.state == O else E

    # -- fused walker poll (NVOverlay; one clock for every walker) -----
    fused_walkers = versioned and fuses_walker_poll(scheme)
    walkers = []
    if fused_walkers:
        walkers = [w for w in scheme.walkers if w.enabled]
        cluster = scheme.cluster
        min_ver_seq = cluster.min_ver_seq
        update_min_ver = cluster.update_min_ver
    min_dirty_oid = h.min_dirty_oid
    # Through the Hierarchy entry point, bound now, so a class-level
    # wrapper on it (a tracer) sees every scan of a VD past epoch 1.
    cold_scan = h.walker_scan_set
    # The walkers run in lockstep (fuses_walker_poll): they share rate
    # and L2 geometry, start from equal state and are always polled with
    # the same ``now``, so each walker's float budget arithmetic is the
    # same sequence of operations.  One (last_poll, budget, cursor)
    # stands for all of them, and only a due set scan touches each
    # walker's own [pass_seq, passes].
    poll_last, poll_budget, poll_cursor = 0, 0.0, 0
    rate, ways, num_sets, cap = 0, 1, 1, 0.0
    if walkers:
        lead = walkers[0]
        poll_last, poll_budget, poll_cursor = (
            lead._last_poll, lead._budget, lead._cursor
        )
        rate, ways, num_sets, cap = (
            lead.rate, lead._l2_ways, lead._l2_num_sets, lead._budget_cap
        )
    w_state = [[w._pass_seq, w.passes_completed] for w in walkers]
    w_rows = [
        (st, w.vd, w.vd.id, vd_l2_sets[w.vd.id])
        for st, w in zip(w_state, walkers)
    ]

    def fused_poll(now):
        nonlocal poll_last, poll_budget, poll_cursor
        last = poll_last
        if now <= last:
            return
        poll_last = now
        budget = poll_budget + (now - last) * rate / 1000.0
        max_sets = int(budget // ways)
        if max_sets > num_sets:
            max_sets = num_sets
        if max_sets:
            # Repeated ``budget -= ways`` is exact float arithmetic
            # (integer subtrahend, the fractional bits stay
            # representable), so the single fused subtraction is
            # bit-identical.
            budget -= max_sets * ways
            start = poll_cursor
            for st, vd, vd_id, l2_sets in w_rows:
                cursor = start
                if vd.cur_epoch == 1:
                    # While the VD is still in epoch 1 no dirty line
                    # can predate the epoch (OIDs start at 1), so a
                    # scan is pure accounting: the set bump, plus the
                    # tag bump for non-empty sets — exactly
                    # scan_set's early path.  The epoch can't
                    # advance mid-poll (update_min_ver never touches
                    # cur_epoch), so the branch hoists out of the
                    # per-set loop and the tag counts batch up in
                    # chunked sums.
                    tags_n = 0
                    remaining = max_sets
                    while remaining:
                        if cursor == 0:
                            st[0] = min_ver_seq(vd_id)
                        chunk = num_sets - cursor
                        if chunk > remaining:
                            chunk = remaining
                        tags_n += sum(map(len, l2_sets[cursor:cursor + chunk]))
                        cursor += chunk
                        remaining -= chunk
                        if cursor >= num_sets:
                            # TagWalker._complete_pass, min-ver 1.
                            cursor = 0
                            if fault_on_event is not None:
                                fault_on_event("walker_pass", now)
                            st[1] += 1
                            if oracle_on_walker_pass is not None:
                                oracle_on_walker_pass(vd_id, 1, now)
                            update_min_ver(vd_id, 1, now, seq=st[0])
                            c[WALKER_PASSES] += 1
                    c[WALKER_SETS_SCANNED] += max_sets
                    c[WALKER_TAGS_SCANNED] += tags_n
                else:
                    for _ in range(max_sets):
                        if cursor == 0:
                            st[0] = min_ver_seq(vd_id)
                        cold_scan(vd, cursor, now)
                        cursor += 1
                        if cursor >= num_sets:
                            # TagWalker._complete_pass.
                            cursor = 0
                            if fault_on_event is not None:
                                fault_on_event("walker_pass", now)
                            st[1] += 1
                            min_ver = min_dirty_oid(vd)
                            if oracle_on_walker_pass is not None:
                                oracle_on_walker_pass(vd_id, min_ver, now)
                            update_min_ver(vd_id, min_ver, now, seq=st[0])
                            c[WALKER_PASSES] += 1
            poll_cursor = (start + max_sets) % num_sets
        if budget > cap:
            budget = cap
        poll_budget = budget

    def access(core_id, addr, size, is_store, now):
        # An access spanning several lines runs them back to back.
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
        h.path = None
        h._token = token
        for walker, st in zip(walkers, w_state):
            walker._last_poll = poll_last
            walker._budget = poll_budget
            walker._cursor = poll_cursor
            walker._pass_seq = st[0]
            walker.passes_completed = st[1]
        # The five totals no closure bumps (module docstring).
        store_total = c[L1_STORE_HITS] + c[L1_STORE_MISSES] + c[L1_STORE_UPGRADES]
        c[STORES] = store_total
        c[L1_ACCESSES] = c[L1_LOAD_HITS] + c[L1_LOAD_MISSES] + store_total
        c[L2_ACCESSES] = c[L2_HITS] + c[L2_MISSES]
        c[DRAM_READ_BYTES] = line_bytes * c[DRAM_READS]
        c[DRAM_WRITE_BYTES] = line_bytes * c[DRAM_WRITES]
        c[NET_CROSS_SOCKET_MSGS] = (
            c[NET_VD_LLC_CROSSING] + c[NET_LLC_VD_CROSSING]
            + c[NET_FORWARDED_CROSSING] + c[NET_C2C_CROSSING]
        )
        inc = stats.inc
        for key, value in zip(names, c):
            if value:
                inc(key, value)
        broadcasts = c[NET_SNOOP_BROADCASTS]
        if broadcasts:
            # Every other VD snoops each broadcast (the total is added
            # even when no other VD exists).
            inc("net.snoop_msgs", max(len(vds) - 1, 0) * broadcasts)

    fast = FastPath(
        access, fused_poll if fused_walkers else None, flush,
        scan_set if versioned else None, flush_vd if versioned else None,
    )
    h.path = fast
    return fast

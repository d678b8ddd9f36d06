"""Machine assembly and the deterministic interleaving runner.

``Machine`` wires the hierarchy, devices and a snapshotting scheme into
one simulated system.  ``Machine.run`` drives a multi-threaded workload
with conservative min-clock scheduling: among all threads that still have
work, the one with the smallest local clock executes its next transaction.
This yields a deterministic interleaving that still lets fast threads run
ahead the way real cores do, which matters for the distributed-epoch
experiments (VDs genuinely skew when their threads progress unevenly).

Each run takes its per-access and walker-poll functions from
``fastpath.build``: NVOverlay's common case runs hand-inlined
transitions, everything else (and every oracle- or fault-injected run)
the ``Hierarchy`` methods.  Both paths produce bit-identical results.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import fastpath
from .config import SystemConfig
from .dram import DRAM
from .hierarchy import Hierarchy
from .interconnect import Interconnect
from .memory import MainMemory
from .nvm import NVM
from .scheme import NoSnapshot, SnapshotScheme
from .stats import Stats
from .trace import access_stream


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    cycles: int
    transactions: int
    stores: int
    stats: Stats
    per_thread_cycles: Dict[int, int] = field(default_factory=dict)

    def nvm_bytes(self, category: Optional[str] = None) -> int:
        name = "nvm.bytes.total" if category is None else f"nvm.bytes.{category}"
        return self.stats.get(name)


class Machine:
    """A simulated multicore with an attached snapshotting scheme."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: Optional[SnapshotScheme] = None,
        capture_store_log: bool = False,
        capture_latency: bool = False,
        capture_txn_wall: bool = False,
        fault_injector=None,
        oracle=None,
    ) -> None:
        self.config = config or SystemConfig()
        self.scheme = scheme or NoSnapshot()
        self.stats = Stats()
        self.mem = MainMemory()
        self.dram = DRAM(self.config, self.stats)
        self.nvm = NVM(self.config, self.stats)
        self.net = Interconnect(self.config, self.stats)
        self.hierarchy = Hierarchy(
            self.config, self.stats, self.mem, self.dram, self.nvm, self.net,
            self.scheme,
        )
        if capture_store_log:
            self.hierarchy.store_log = []
        #: Crash-point injector (repro.faults.FaultInjector) or None.
        #: With None — the default — every hook stays disabled and the
        #: simulation path is unchanged.
        self.fault_injector = fault_injector
        self.hierarchy.fault_injector = fault_injector
        #: Protocol oracle (repro.oracle.ProtocolOracle) or None.  Same
        #: contract as the injector: None leaves every hook unbound.
        #: Set before attach so the scheme build is already observed;
        #: bound after attach so the oracle sees the cluster/walkers.
        self.oracle = oracle
        self.hierarchy.oracle = oracle
        #: Record a per-operation latency histogram ("op_latency" /
        #: "txn_latency") — opt-in, it costs a few percent of runtime.
        self.capture_latency = capture_latency
        #: Sample wall-clock seconds per transaction (``repro bench``
        #: p50/p95 per-op cost).  None unless requested: the run loop
        #: never touches ``time.perf_counter`` when disabled.
        self.txn_wall_samples: Optional[List[float]] = (
            [] if capture_txn_wall else None
        )
        self._global_stall_until = 0
        #: Optional per-transaction-boundary callback ``hook(now)`` — the
        #: snapshot-serving reader scheduler (repro.serve) interleaves
        #: point-in-time reads through it.  Resolved to a local before
        #: the run loop; None (the default) costs nothing.  On the fast
        #: path the hook runs mid-run, before the fast path writes its
        #: deferred ``Stats`` counters, the hierarchy's store token and
        #: the tag walkers' fields back (that happens when ``run``
        #: returns), so a hook must not read any of them; the serve
        #: scheduler reads none.
        self.txn_hook: Optional[Callable[[int], None]] = None
        #: Whether the last ``run`` took the fast path (``fastpath``).
        self.fast_path = False
        self.scheme.attach(self)
        if oracle is not None:
            oracle.bind(self)

    # -- scheme services ---------------------------------------------------
    def stall_all_cores_until(self, time: int) -> None:
        """Schemes call this to model system-wide synchronous phases."""
        self._global_stall_until = max(self._global_stall_until, time)

    # -- state services -------------------------------------------------------
    def load_image(self, image: Dict[int, int], oid: int = 0) -> None:
        """Install a recovered memory image (line -> data) into working
        memory — the resume-after-crash flow (§V-E)."""
        for line, data in image.items():
            self.mem.set_line(line, data, oid)

    # -- execution ----------------------------------------------------------
    def run(self, workload, max_transactions: Optional[int] = None) -> RunResult:
        """Drive a workload to completion (or a transaction budget)."""
        num_threads = workload.num_threads
        if num_threads > self.config.num_cores:
            raise ValueError(
                f"workload has {num_threads} threads but the machine only "
                f"has {self.config.num_cores} cores"
            )
        streams = {tid: access_stream(workload, tid) for tid in range(num_threads)}
        clocks = {tid: 0 for tid in range(num_threads)}
        ready = [(0, tid) for tid in range(num_threads)]
        heapq.heapify(ready)

        transactions = 0
        hierarchy = self.hierarchy
        scheme = self.scheme
        execute_access = hierarchy.execute_access
        epoch_due = hierarchy.epoch_due
        vd_of_core = hierarchy.vd_of_core
        heappop = heapq.heappop
        heappush = heapq.heappush
        # The base scheme's boundary/poll hooks are no-ops; skip the call
        # entirely unless the scheme (or an instance patch) overrides them.
        boundary_hook = scheme.on_transaction_boundary
        if getattr(boundary_hook, "__func__", None) is SnapshotScheme.on_transaction_boundary:
            boundary_hook = None
        poll_hook = scheme.poll
        if getattr(poll_hook, "__func__", None) is SnapshotScheme.poll:
            poll_hook = None
        # NVOverlay's common case swaps in the hand-inlined transitions;
        # every other run keeps the Hierarchy methods.
        fast = fastpath.build(self)
        self.fast_path = fast is not None
        if fast is not None:
            execute_access = fast.access
            poll_hook = fast.poll
        # Transaction boundaries are quiescent points, so this is where
        # the oracle may run its full structural scans (epoch advances
        # fire mid-operation and are not safe scan points).
        oracle_poll = self.oracle.poll if self.oracle is not None else None
        txn_hook = self.txn_hook
        # Batched epoch sync drains at transaction boundaries; the local
        # stays None (zero-cost) unless the config opted in.
        epoch_flush = (
            hierarchy.flush_epoch_sync
            if hierarchy._epoch_batcher is not None
            else None
        )
        capture_latency = self.capture_latency
        txn_wall = self.txn_wall_samples
        perf_counter = time.perf_counter
        observe = self.stats.observe
        while ready:
            clock, tid = heappop(ready)
            vd = vd_of_core(tid)
            clock = max(clock, self._global_stall_until, vd.stall_until)

            try:
                txn = next(streams[tid])
            except StopIteration:
                clocks[tid] = clock
                continue

            if epoch_due(vd):
                # advance_epoch folds any pending batched sync into one
                # scheme announcement, so no separate flush is needed.
                clock += hierarchy.advance_epoch(vd, vd.cur_epoch + 1, clock)
            elif epoch_flush is not None:
                clock += epoch_flush(vd, clock)
            if boundary_hook is not None:
                clock += boundary_hook(tid, clock)
            if txn_wall is not None:
                wall_start = perf_counter()
            if capture_latency:
                txn_start = clock
                for addr, size, is_store in txn:
                    latency = execute_access(tid, addr, size, is_store, clock)
                    observe("op_latency", latency)
                    if is_store:
                        observe("store_latency", latency)
                    clock += latency
                observe("txn_latency", clock - txn_start)
            else:
                for addr, size, is_store in txn:
                    clock += execute_access(tid, addr, size, is_store, clock)
            if txn_wall is not None:
                txn_wall.append(perf_counter() - wall_start)
            if poll_hook is not None:
                poll_hook(clock)
            if oracle_poll is not None:
                oracle_poll(clock)
            if txn_hook is not None:
                txn_hook(clock)

            clocks[tid] = clock
            transactions += 1
            if max_transactions is not None and transactions >= max_transactions:
                break
            heappush(ready, (clock, tid))

        if fast is not None:
            fast.flush()
        end = max(clocks.values(), default=0)
        end = max(end, self._global_stall_until)
        scheme.finalize(end)
        if self.oracle is not None:
            self.oracle.on_finalize(end)
        return RunResult(
            cycles=end,
            transactions=transactions,
            stores=self.stats.get("stores"),
            stats=self.stats,
            per_thread_cycles=dict(clocks),
        )


#: The harness builds every machine through this name (kept as a plain
#: alias so callers can wrap or patch the build step in one place).
machine_for = Machine

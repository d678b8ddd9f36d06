"""Shared machinery for the comparison-point snapshotting schemes (§VI-B).

All five baselines use *globally synchronized* epochs (the paper ignores
the cost of reaching that consensus and so do we): a system-wide store
counter rolls the epoch over once it reaches ``epoch_size_stores``.  The
rollover is detected at the next transaction boundary, where each scheme
runs its epoch-commit protocol (log flushes, shadow-table updates, ACS
tag walks...).

``GlobalEpochScheme`` also carries the per-epoch write-set bookkeeping
the software schemes need and the qualitative feature flags behind
Table I.
"""

from __future__ import annotations

from typing import Dict, Set

from ..sim.scheme import SnapshotScheme


class GlobalEpochScheme(SnapshotScheme):
    """Base for schemes running one system-wide epoch counter."""

    # Table I feature flags (overridden per scheme).
    minimum_write_amplification = False
    no_commit_time = False
    no_read_flush = False
    software_redirection = "none"
    persistence_barriers = False
    unbounded_working_set = True
    supports_non_inclusive_llc = True
    distributed_versioning = False

    def __init__(self) -> None:
        super().__init__()
        self.epoch = 1
        self.global_stores = 0
        self.total_stores = 0
        #: Lines dirtied this epoch, per core (software flush granularity).
        self.write_sets: Dict[int, Set[int]] = {}
        #: Lines dirtied this epoch (any core).
        self.epoch_write_set: Set[int] = set()

    # -- store tracking ----------------------------------------------------
    def on_store(self, core_id: int, vd_id: int, line: int, old_oid: int, now: int) -> int:
        self.global_stores += 1
        self.total_stores += 1
        write_set = self.write_sets.get(core_id)
        if write_set is None:
            write_set = self.write_sets[core_id] = set()
        write_set.add(line)
        self.epoch_write_set.add(line)
        return self.store_hook(core_id, line, now)

    def store_hook(self, core_id: int, line: int, now: int) -> int:
        """Per-store scheme work (e.g. undo-log barriers); returns stall."""
        return 0

    # -- epoch rollover ------------------------------------------------------
    def on_transaction_boundary(self, core_id: int, now: int) -> int:
        config = self.machine.config
        if self.global_stores < config.epoch_size_at(self.total_stores):
            return 0
        committed_stores = self.global_stores
        self.global_stores = 0
        stall = self.commit_epoch(now)
        if config.epoch_policy is not None:
            # Dynamic policies (the adaptive controller in particular)
            # learn from the committed epoch's write set; stateless
            # policies take this as a no-op.
            config.epoch_policy.observe_commit(
                committed_stores, len(self.epoch_write_set)
            )
        self.write_sets.clear()
        self.epoch_write_set.clear()
        self.epoch += 1
        self.machine.stats.inc("epoch.advances")
        return stall

    def commit_epoch(self, now: int) -> int:
        """Scheme-specific epoch commit; returns stall for this core."""
        return 0

    def finalize(self, now: int) -> None:
        """Commit whatever the last partial epoch dirtied."""
        if self.epoch_write_set:
            self.commit_epoch(now)
            self.write_sets.clear()
            self.epoch_write_set.clear()
            self.epoch += 1

    # -- helpers ----------------------------------------------------------------
    def _barrier_writes(self, lines, nbytes: int, now: int, category: str) -> int:
        """Serialized persistence-barrier writes (clwb+sfence per line).

        Each write stalls until durable before the next issues — the
        §II-A "execution of multiple barriers may be serialized
        unnecessarily" behaviour.  Returns the total stall.
        """
        nvm = self.machine.nvm
        t = now
        for line in lines:
            t += nvm.write_sync(line, nbytes, t, category)
        return t - now

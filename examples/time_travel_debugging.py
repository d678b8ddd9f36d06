#!/usr/bin/env python3
"""Time-travel debugging over high-frequency snapshots (usage model #1).

The paper motivates NVOverlay with record-and-replay debugging: capture
snapshots around a suspicious region ("watch points") and inspect any
address at any captured moment afterwards.

This example plants a bug: 16 threads concurrently push work into a
shared hash table, and somewhere mid-run a "corrupting" thread stomps a
counter line with a wrong value before fixing it later.  At the end the
final state looks healthy — only the snapshot history reveals when the
corruption happened.  We:

1. run with very short epochs around the suspicious window (the bursty
   debugging pattern of Fig. 17b);
2. open epoch-pinned *snapshot sessions* (``repro.serve``) and scan the
   epoch history with time-travel reads to find the first snapshot where
   the watched line held the bad value — each session is an O(1)
   point-in-time read view whose pin keeps GC from reclaiming the epochs
   it is inspecting.

Run:  python examples/time_travel_debugging.py
"""

from repro import Machine, NVOverlay, NVOverlayParams, SnapshotReader, SystemConfig
from repro.serve import SessionManager
from repro.sim.config import BurstyEpochPolicy
from repro.workloads import AddressSpace, HashTable, MemView, Workload


class BuggyWorkload(Workload):
    """Hash-table inserts plus one thread that corrupts a counter."""

    def __init__(self, num_threads: int = 16, inserts: int = 300) -> None:
        super().__init__(num_threads)
        space = AddressSpace()
        self.table = HashTable(space.region())
        self.counter = space.region().alloc(64, align=64)
        self.inserts = inserts
        #: (thread, txn index) at which corruption happens / gets fixed.
        self.corrupt_at = inserts // 2
        self.fix_at = self.corrupt_at + 40

    def access_batches(self, thread_id: int):
        import random

        rng = random.Random(thread_id * 977)
        view = MemView()
        for index in range(self.inserts):
            self.table.insert(rng.getrandbits(24), index, view)
            if thread_id == 7 and index in (self.corrupt_at, self.fix_at):
                view.read(self.counter, 8)
                view.write(self.counter, 8)  # the stomp (and the fix)
            yield view.take_accesses()


def main() -> None:
    workload = BuggyWorkload()
    # Short epochs around the middle of the run: the debugging burst.
    total_stores_estimate = 16 * workload.inserts * 6
    policy = BurstyEpochPolicy(
        base_size=8000,
        bursts=((total_stores_estimate // 3, 2 * total_stores_estimate // 3, 400),),
    )
    config = SystemConfig(epoch_policy=policy)
    scheme = NVOverlay(NVOverlayParams(num_omcs=2))
    machine = Machine(config, scheme=scheme, capture_store_log=True)

    print("running buggy workload with bursty snapshot epochs ...")
    machine.run(workload)
    reader = SnapshotReader(scheme.cluster)
    final_epoch = reader.recover().epoch
    print(f"  captured {final_epoch} snapshots")

    # The counter was written twice by thread 7; in the store log, each
    # write produced a distinct token.  Treat the first stomp's token as
    # "the bad value" and find the snapshot where it first appears.
    line = workload.counter >> 6
    writes = [
        (epoch, token)
        for l, epoch, token, _vd, _core in machine.hierarchy.store_log
        if l == line
    ]
    assert len(writes) == 2, "expected exactly stomp + fix"
    bad_token = writes[0][1]

    # The watch-point primitive: which snapshots contain versions of the
    # counter at all?
    touched = reader.epochs_touching(workload.counter)
    print(f"  watch point versioned in snapshots {touched}")
    first_write_epoch = touched[0]
    print(f"  watch point first dirtied in snapshot {first_write_epoch}")
    print(f"  stomp recorded in epoch {writes[0][0]}, fix in epoch {writes[1][0]}")
    assert first_write_epoch == writes[0][0]

    # Debugging is served through snapshot sessions: each acquire() is an
    # O(1) pin of one epoch — no copying, no table scan — and while the
    # session is open, version GC will not reclaim that epoch's state.
    manager = SessionManager(scheme.cluster)

    def holds_bad_value(epoch: int) -> bool:
        with manager.acquire(epoch=epoch) as session:
            result = session.read(workload.counter)
            return result is not None and result[0] == bad_token

    stomped = [e for e in range(1, final_epoch + 1) if holds_bad_value(e)]
    print(f"  corrupted value visible in snapshots "
          f"{stomped[0]}..{stomped[-1]} ({len(stomped)} epochs)")

    # A long-lived inspection session survives GC: pin the stomp epoch,
    # reclaim everything unpinned, and the pinned view still answers.
    with manager.acquire(epoch=stomped[0]) as session:
        scheme.cluster.reclaim(0)
        result = session.read(workload.counter)
        assert result is not None and result[0] == bad_token
        print(f"  pinned session at snapshot {stomped[0]} still reads the "
              f"stomped value after GC (staleness {session.staleness()} epochs)")
    assert manager.reads == final_epoch + 1
    print("time travel pinpointed the corruption window: OK")


if __name__ == "__main__":
    main()

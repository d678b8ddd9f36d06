"""Frozen workloads and the trace file format.

``freeze_workload`` materializes a workload's per-thread streams once;
the resulting ``FrozenWorkload`` replays byte-identical streams every
time it runs (the differential checker replays one under every scheme).
Frozen workloads are also what trace files hold, in a small
line-oriented text format:

    # comment
    <thread> <ld|st> <hex addr> <size>
    0 st 0x7f001000 8
    0 ---                    (transaction boundary for that thread)

``save_trace`` writes a frozen workload, ``load_trace`` parses a file
back into per-thread access batches, and ``TraceWorkload`` replays a
file through any scheme — handy for A/B-ing schemes on an identical
access stream, or importing address streams from elsewhere.  Trace
files are input from outside the program, so every line is validated:
a malformed one raises ``TraceFormatError`` naming the line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, TextIO, Union

from ..sim.trace import Access
from .base import Workload

LOAD = "ld"
STORE = "st"
BOUNDARY = "---"

#: {thread: [transaction, ...]}, each transaction a list of accesses.
Batches = Dict[int, List[List[Access]]]


class FrozenWorkload(Workload):
    """A fully materialized per-thread access trace (replayable N times)."""

    def __init__(self, batches: Batches) -> None:
        super().__init__(max(batches, default=-1) + 1)
        self.batches = batches

    def access_batches(self, thread_id: int) -> Iterator[List[Access]]:
        return iter(self.batches.get(thread_id, ()))


def freeze_workload(workload: Workload) -> FrozenWorkload:
    """Materialize a workload into a fixed trace, one thread-round-robin
    transaction at a time.

    The round-robin pull order is itself a valid interleaving of the
    shared data structure, and — unlike a live run — it never changes,
    so every replay sees byte-identical per-thread streams.  It is the
    *generation* order, not a simulated schedule; a ``Machine`` re-times
    it.
    """
    streams = {
        tid: workload.access_batches(tid) for tid in range(workload.num_threads)
    }
    batches: Batches = {tid: [] for tid in streams}
    live = set(streams)
    while live:
        for tid in sorted(live):
            try:
                batches[tid].append(next(streams[tid]))
            except StopIteration:
                live.discard(tid)
    return FrozenWorkload(batches)


def save_trace(path: Union[str, Path], workload: FrozenWorkload) -> int:
    """Write a frozen workload to ``path`` in round-robin thread order;
    returns the access count."""
    threads = workload.batches
    count = 0
    with open(path, "w") as handle:
        handle.write("# repro memory trace v1\n")
        for index in range(max(map(len, threads.values()), default=0)):
            for thread, txns in sorted(threads.items()):
                if index >= len(txns):
                    continue
                for addr, size, is_store in txns[index]:
                    kind = STORE if is_store else LOAD
                    handle.write(f"{thread} {kind} {addr:#x} {size}\n")
                    count += 1
                handle.write(f"{thread} {BOUNDARY}\n")
    return count


def _parse(handle: TextIO) -> Batches:
    threads: Batches = {}
    pending: Dict[int, List[Access]] = {}
    for line_number, raw in enumerate(handle, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        boundary = fields[1:] == [BOUNDARY]
        if not boundary and len(fields) != 4:
            raise TraceFormatError(
                f"line {line_number}: expected 4 fields, got {len(fields)} "
                f"in {text!r}"
            )
        try:
            thread = int(fields[0])
            if not boundary:
                kind, addr, size = fields[1], int(fields[2], 16), int(fields[3])
        except ValueError as error:
            raise TraceFormatError(
                f"line {line_number}: cannot parse {text!r}"
            ) from error
        if thread < 0:
            raise TraceFormatError(f"line {line_number}: negative thread {thread}")
        if boundary:
            threads.setdefault(thread, []).append(pending.pop(thread, []))
            continue
        if kind not in (LOAD, STORE):
            raise TraceFormatError(f"line {line_number}: bad op kind {kind!r}")
        if addr < 0:
            raise TraceFormatError(f"line {line_number}: negative address {addr:#x}")
        if size <= 0:
            raise TraceFormatError(f"line {line_number}: size {size} is not positive")
        pending.setdefault(thread, []).append((addr, size, kind == STORE))
    for thread, ops in pending.items():
        if ops:
            threads.setdefault(thread, []).append(ops)
    return threads


class TraceFormatError(ValueError):
    """The trace file does not follow the expected format."""


def load_trace(path: Union[str, Path]) -> Batches:
    """Parse a trace file into {thread: [transaction, ...]}."""
    with open(path) as handle:
        return _parse(handle)


class TraceWorkload(FrozenWorkload):
    """Replays a captured trace file as a workload."""

    name = "trace"

    def __init__(self, path: Union[str, Path]) -> None:
        batches = load_trace(path)
        if not batches:
            raise TraceFormatError(f"{path}: trace contains no operations")
        super().__init__(batches)

"""NVDIMM device model: banks, write queueing, bandwidth accounting.

This is the component every snapshotting scheme ultimately contends on,
so it does three jobs:

* **Timing** — 16 banks (Table II); a write occupies its bank for a
  configurable window, so concurrent writes to one bank queue up.
  Synchronous writes (software persistence barriers, §II-A) stall the
  caller for the full completion latency.  Background writes (hardware
  schemes persisting in the background, §II-B) only stall the caller when
  the bank queue grows beyond the back-pressure threshold — this is what
  makes PiCL's tag-walk bursts and the software schemes' barrier storms
  cost cycles while NVOverlay's amortized write-backs stay free.
* **Write accounting** — every write carries a *category* (``data``,
  ``log``, ``metadata``, ``context``) so the Fig. 12 write-amplification
  breakdown falls straight out of the counters.
* **Bandwidth time series** — bytes are bucketed by completion time for
  the Fig. 17 bandwidth-over-time plots.

Both write paths run one frame, ``_write``, for all of it: it checks the
category before a bank is charged (a rejected write leaves the device
unchanged), queues the transfer, bumps the counters, counts wear pages
into the device's ``WearTracker`` and buckets the bandwidth series.
"""

from __future__ import annotations

from .config import CACHE_LINE_SIZE, NVM_PROFILES, SystemConfig
from .stats import Stats
from .wear import LINE_PAGE_SHIFT, WearTracker

#: Write categories: snapshot ``data``, undo-``log`` entries, mapping
#: ``metadata``, core-``context`` dumps, and ``working``-memory
#: write-backs (only when the working set itself lives on NVM).
WRITE_CATEGORIES = ("data", "log", "metadata", "context", "working")


def bank_of(line: int, num_banks: int) -> int:
    """The bank a line maps to.

    Real controllers hash address bits into the bank index so that
    strided access patterns (e.g. 256 B-aligned tree nodes touching only
    lines ≡ 0,1 mod 4) don't concentrate on a bank subset.
    """
    return (line ^ (line >> 4) ^ (line >> 9) ^ (line >> 15)) % num_banks


class NVM:
    """Banked NVDIMM with sync/background write paths."""

    def __init__(self, config: SystemConfig, stats: Stats, name: str = "nvm") -> None:
        self.config = config
        self.stats = stats
        self.name = name
        self.num_banks = config.nvm_banks
        # Attachment profile: the "local" NVDIMM is the identity; "cxl"
        # adds the link round-trip to every access and halves the
        # effective per-bank bandwidth (occupancy doubles, back-pressure
        # engages earlier).
        profile = NVM_PROFILES[config.nvm_profile]
        self.profile = profile
        self.write_latency = config.nvm_write_latency + profile.extra_write_latency
        self.read_latency = config.nvm_read_latency + profile.extra_read_latency
        self.bank_occupancy = max(
            1, int(config.nvm_bank_occupancy * profile.occupancy_scale)
        )
        self.backpressure = int(
            config.nvm_backpressure_cycles * profile.backpressure_scale
        )
        self.bandwidth_bucket = config.nvm_bandwidth_bucket
        # Per-bank outstanding-work model: ``_backlog[b]`` cycles of queued
        # transfers, decaying in real time since ``_last[b]``.  A backlog
        # queue rather than a busy-until horizon keeps the model sound
        # under inter-core clock skew: the deterministic runner lets cores
        # run ahead, and a laggard's write must queue behind *outstanding
        # work*, not behind bookings time-stamped in its future.
        self._backlog = [0] * self.num_banks
        self._last = [0] * self.num_banks
        self.wear = WearTracker()
        # Interned stat keys — _write runs on every NVM write.
        self._category_keys = {
            cat: (f"{name}.writes.{cat}", f"{name}.bytes.{cat}")
            for cat in WRITE_CATEGORIES
        }
        self._bytes_total_key = f"{name}.bytes.total"
        self._bandwidth_key = f"{name}.bandwidth"
        self._sync_writes_key = f"{name}.sync_writes"
        self._reads_key = f"{name}.reads"
        self._bp_stalls_key = f"{name}.backpressure_stalls"
        self._bp_cycles_key = f"{name}.backpressure_cycles"
        # Direct ref into the counter dict (Stats.reset clears in place).
        self._counters = stats._counters

    # -- write paths -----------------------------------------------------
    def _write(
        self, line: int, nbytes: int, now: int, category: str
    ) -> tuple[int, int]:
        """Queue and account one write; returns (queue_delay, completion).

        The category is checked before the bank is charged, so a rejected
        write leaves the device as it found it.
        """
        try:
            writes_key, bytes_key = self._category_keys[category]
        except KeyError:
            raise ValueError(f"unknown NVM write category {category!r}") from None
        # Timing: drain the bank's backlog to ``now``, queue behind it.
        bank = bank_of(line, self.num_banks)
        backlog = self._backlog
        last = self._last[bank]
        if now > last:
            drained = backlog[bank] - (now - last)
            backlog[bank] = drained if drained > 0 else 0
            self._last[bank] = now
        queue_delay = backlog[bank]
        lines = -(-nbytes // CACHE_LINE_SIZE)  # ceil-div, at least one
        if lines < 1:
            lines = 1
        backlog[bank] = queue_delay + lines * self.bank_occupancy
        completion = now + queue_delay + self.write_latency
        # Counters, by category and in total.
        counters = self._counters
        try:
            counters[writes_key] += 1
        except KeyError:
            self.stats.inc(writes_key)
        try:
            counters[bytes_key] += nbytes
        except KeyError:
            self.stats.inc(bytes_key, nbytes)
        try:
            counters[self._bytes_total_key] += nbytes
        except KeyError:
            self.stats.inc(self._bytes_total_key, nbytes)
        # Wear: one count per line, on the page holding it.
        wear = self.wear
        wear.total_line_writes += lines
        pages = wear._page_writes
        page = line >> LINE_PAGE_SHIFT
        if (line + lines - 1) >> LINE_PAGE_SHIFT == page:
            pages[page] += lines
        else:
            for written in range(line, line + lines):
                pages[written >> LINE_PAGE_SHIFT] += 1
        # Bandwidth, bucketed by completion time.
        self.stats.record_series(
            self._bandwidth_key, completion, nbytes, self.bandwidth_bucket
        )
        return queue_delay, completion

    def write_sync(self, line: int, nbytes: int, now: int, category: str) -> int:
        """Persistence-barrier write: caller stalls until durable."""
        _queue_delay, completion = self._write(line, nbytes, now, category)
        try:
            self._counters[self._sync_writes_key] += 1
        except KeyError:
            self.stats.inc(self._sync_writes_key)
        return completion - now

    def write_background(self, line: int, nbytes: int, now: int, category: str) -> int:
        """Background write: stalls the caller only on queue back-pressure."""
        queue_delay, _completion = self._write(line, nbytes, now, category)
        if queue_delay > self.backpressure:
            stall = queue_delay - self.backpressure
            self.stats.inc(self._bp_stalls_key)
            self.stats.inc(self._bp_cycles_key, stall)
            return stall
        return 0

    def read(self, line: int, now: int) -> int:
        """Read one line (recovery / time-travel / working data on NVM)."""
        bank = bank_of(line, self.num_banks)
        if now > self._last[bank]:
            drained = now - self._last[bank]
            self._backlog[bank] = max(0, self._backlog[bank] - drained)
            self._last[bank] = now
        queue_delay = self._backlog[bank]
        self._backlog[bank] += self.bank_occupancy
        self.stats.inc(self._reads_key)
        return queue_delay + self.read_latency

    def quiesce(self, now: int = 0) -> None:
        """Reset queue state (e.g. across a simulated power cycle).

        Byte/wear accounting is preserved; only in-flight timing state is
        dropped, so post-recovery accesses start from an idle device.
        """
        self._backlog = [0] * self.num_banks
        self._last = [now] * self.num_banks

    # -- inspection ------------------------------------------------------
    def bytes_written(self, category: str | None = None) -> int:
        if category is None:
            return self.stats.get(f"{self.name}.bytes.total")
        return self.stats.get(f"{self.name}.bytes.{category}")

    def bandwidth_series(self):
        """(bucket_start_cycle, bytes) pairs, time-ordered."""
        return self.stats.series(f"{self.name}.bandwidth")

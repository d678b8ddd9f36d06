"""Tests for the DRAM and NVM device timing models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DRAM, NVM, Stats, SystemConfig
from repro.sim.config import CACHE_LINE_SHIFT, CACHE_LINE_SIZE, PAGE_SHIFT
from repro.sim.nvm import WRITE_CATEGORIES, bank_of
from repro.sim.wear import LINES_PER_PAGE


def make_nvm(**overrides):
    config = SystemConfig().with_changes(**overrides) if overrides else SystemConfig()
    return NVM(config, Stats())


class TestNVMTiming:
    def test_sync_write_pays_full_latency(self):
        nvm = make_nvm()
        stall = nvm.write_sync(0, 64, 0, "data")
        assert stall == nvm.write_latency

    def test_background_write_free_when_queue_short(self):
        nvm = make_nvm()
        assert nvm.write_background(0, 64, 0, "data") == 0

    def test_backpressure_after_sustained_burst(self):
        nvm = make_nvm(nvm_backpressure_cycles=100)
        stalls = [nvm.write_background(0, 64, 0, "data") for _ in range(50)]
        assert stalls[0] == 0
        assert stalls[-1] > 0  # queue built past the threshold

    def test_backlog_drains_with_time(self):
        nvm = make_nvm(nvm_backpressure_cycles=0)
        for _ in range(10):
            nvm.write_background(0, 64, 0, "data")
        early_stall = nvm.write_background(0, 64, 0, "data")
        late_stall = nvm.write_background(0, 64, 10**6, "data")
        assert late_stall == 0
        assert early_stall > 0

    def test_backlog_drains_one_cycle_per_cycle(self):
        nvm = make_nvm()
        nvm.write_background(0, 64, 0, "data")
        almost_drained = nvm.bank_occupancy - 1
        assert nvm.write_sync(0, 64, almost_drained, "data") == 1 + nvm.write_latency

    def test_laggard_writer_does_not_see_future_reservations(self):
        """Skew tolerance: a write stamped in the past only queues behind
        outstanding *work*, never behind a run-ahead core's timestamps."""
        nvm = make_nvm(nvm_backpressure_cycles=0)
        nvm.write_background(0, 64, 1_000_000, "data")  # run-ahead core
        stall = nvm.write_background(0, 64, 10, "data")  # laggard
        assert stall <= 2 * nvm.bank_occupancy

    def test_banks_are_independent(self):
        nvm = make_nvm(nvm_backpressure_cycles=0)
        for _ in range(20):
            nvm.write_background(0, 64, 0, "data")
        hot = nvm.write_background(0, 64, 0, "data")
        # find a line mapping to another bank
        other = next(
            l for l in range(1, 64)
            if bank_of(l, nvm.num_banks) != bank_of(0, nvm.num_banks)
        )
        cold = nvm.write_background(other, 64, 0, "data")
        assert cold < hot

    def test_multi_line_write_occupies_more(self):
        nvm = make_nvm(nvm_backpressure_cycles=0)
        nvm.write_background(0, 72, 0, "log")  # 2 transfers
        stall_after_log = nvm.write_sync(0, 64, 0, "data")
        nvm2 = make_nvm(nvm_backpressure_cycles=0)
        nvm2.write_background(0, 64, 0, "data")  # 1 transfer
        stall_after_data = nvm2.write_sync(0, 64, 0, "data")
        assert stall_after_log > stall_after_data

    def test_read_latency(self):
        nvm = make_nvm()
        assert nvm.read(0, 0) == nvm.read_latency

    def test_bank_hash_spreads_strided_lines(self):
        nvm = make_nvm()
        # 256-byte-aligned structures touch lines = 0 (mod 4); the hash
        # must still spread them over most banks.
        banks = {bank_of(line, nvm.num_banks) for line in range(0, 4096, 4)}
        assert len(banks) >= nvm.num_banks // 2


class TestNVMAccounting:
    def test_categories_tracked(self):
        nvm = make_nvm()
        nvm.write_background(0, 64, 0, "data")
        nvm.write_background(1, 72, 0, "log")
        nvm.write_sync(2, 8, 0, "metadata")
        assert nvm.bytes_written("data") == 64
        assert nvm.bytes_written("log") == 72
        assert nvm.bytes_written("metadata") == 8
        assert nvm.bytes_written() == 144

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            make_nvm().write_background(0, 64, 0, "bogus")

    def test_rejected_write_leaves_the_device_unchanged(self):
        """The category is checked before the bank is charged: a
        rejected write queues nothing, counts nothing, and the next
        write costs what it costs on a fresh device."""
        nvm = make_nvm()
        fresh = make_nvm()
        for write in (nvm.write_background, nvm.write_sync):
            with pytest.raises(ValueError):
                write(0, 64, 100, "bogus")
        assert nvm._backlog == fresh._backlog
        assert nvm._last == fresh._last
        assert nvm.wear.total_line_writes == 0
        assert nvm.wear.hottest_pages() == []
        assert nvm.stats.counters() == {}
        assert not nvm.stats._series
        assert nvm.write_sync(0, 64, 100, "data") == nvm.write_latency
        assert fresh.write_sync(0, 64, 100, "data") == nvm.write_latency

    def test_a_device_that_never_writes_records_no_series(self):
        nvm = make_nvm()
        nvm.read(0, 0)
        nvm.quiesce(10)
        assert nvm.bandwidth_series() == []
        assert not nvm.stats._series

    def test_bandwidth_series_records_completions(self):
        nvm = make_nvm()
        nvm.write_background(0, 64, 0, "data")
        nvm.write_background(1, 64, nvm.bandwidth_bucket * 3, "data")
        series = nvm.bandwidth_series()
        assert len(series) == 2
        assert all(value == 64 for _, value in series)


# -- the fused write path equals the step-by-step device ----------------------

def _reference_occupy(nvm, line, nbytes, now):
    """Queue one transfer on ``nvm``'s banks; (queue_delay, completion)."""
    bank = (line ^ (line >> 4) ^ (line >> 9) ^ (line >> 15)) % nvm.num_banks
    if now > nvm._last[bank]:
        drained = now - nvm._last[bank]
        nvm._backlog[bank] = max(0, nvm._backlog[bank] - drained)
        nvm._last[bank] = now
    queue_delay = nvm._backlog[bank]
    transfers = max(1, -(-nbytes // CACHE_LINE_SIZE))
    nvm._backlog[bank] += transfers * nvm.bank_occupancy
    return queue_delay, now + queue_delay + nvm.write_latency


def _reference_wear(tracker, line, nbytes):
    """One count per line written, on the page holding the line."""
    lines = max(1, -(-nbytes // CACHE_LINE_SIZE))
    tracker.total_line_writes += lines
    for i in range(lines):
        tracker._page_writes[(line + i) >> (PAGE_SHIFT - CACHE_LINE_SHIFT)] += 1


def _reference_account(nvm, line, category, nbytes, completion):
    if category not in WRITE_CATEGORIES:
        raise ValueError(category)
    _reference_wear(nvm.wear, line, nbytes)
    stats = nvm.stats
    stats.inc(f"{nvm.name}.writes.{category}")
    stats.inc(f"{nvm.name}.bytes.{category}", nbytes)
    stats.inc(f"{nvm.name}.bytes.total", nbytes)
    stats.record_series(
        f"{nvm.name}.bandwidth", completion, nbytes, nvm.bandwidth_bucket
    )


def reference_write(nvm, sync, line, nbytes, now, category):
    """The step-by-step write the fused ``NVM._write`` must reproduce:
    queue the transfer, then account it (wear, counters, series), then
    the sync count or the back-pressure stall.  Drives ``nvm``'s own
    timing state, ``Stats`` and ``WearTracker``."""
    queue_delay, completion = _reference_occupy(nvm, line, nbytes, now)
    _reference_account(nvm, line, category, nbytes, completion)
    if sync:
        nvm.stats.inc(f"{nvm.name}.sync_writes")
        return completion - now
    if queue_delay > nvm.backpressure:
        stall = queue_delay - nvm.backpressure
        nvm.stats.inc(f"{nvm.name}.backpressure_stalls")
        nvm.stats.inc(f"{nvm.name}.backpressure_cycles", stall)
        return stall
    return 0


def _device_state(nvm):
    stats = nvm.stats
    return (
        nvm._backlog,
        nvm._last,
        list(nvm.wear._page_writes.items()),
        nvm.wear.total_line_writes,
        list(stats.counters().items()),
        {name: dict(data) for name, data in stats._series.items()},
        stats._series_bucket,
    )


#: A line near a page boundary, so multi-line writes cross it.
_lines = st.one_of(
    st.integers(0, 3 * LINES_PER_PAGE),
    st.integers(1, 1 << 20).map(lambda page: page * LINES_PER_PAGE - 1),
    st.integers(0, 1 << 40),
)
_sizes = st.one_of(st.sampled_from([8, 24, 64, 72, 4096]), st.integers(1, 4096))
#: Mostly close together, so backlogs drain to exact boundaries.
_times = st.one_of(st.integers(0, 400), st.integers(0, 20_000))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.booleans(), _lines, _sizes, _times,
                  st.sampled_from(WRITE_CATEGORIES)),
        st.tuples(st.just("quiesce"), _times),
    ),
    max_size=60,
)


class TestFusedWrite:
    @pytest.mark.parametrize("profile", ["local", "cxl"])
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, banks=st.sampled_from([1, 16]),
           backpressure=st.sampled_from([0, 50, 10_000]),
           bucket=st.sampled_from([100, 50_000]))
    def test_fused_write_equals_the_step_by_step_device(
        self, profile, ops, banks, backpressure, bucket
    ):
        """Random sequences of sync and background writes, of every
        size and category, at times that jump forward and back (as
        skewed cores issue them), with quiesces in between."""
        config = dict(nvm_profile=profile, nvm_banks=banks,
                      nvm_backpressure_cycles=backpressure,
                      nvm_bandwidth_bucket=bucket)
        fused = make_nvm(**config)
        reference = make_nvm(**config)
        for op in ops:
            if op[0] == "quiesce":
                fused.quiesce(op[1])
                reference.quiesce(op[1])
                continue
            _, sync, line, nbytes, now, category = op
            write = fused.write_sync if sync else fused.write_background
            assert write(line, nbytes, now, category) == reference_write(
                reference, sync, line, nbytes, now, category
            )
        assert _device_state(fused) == _device_state(reference)
        assert fused.wear.report() == reference.wear.report()
        assert fused.bandwidth_series() == reference.bandwidth_series()
        if not any(op[0] == "write" for op in ops):
            assert not fused.stats._series


class TestDRAM:
    def test_fixed_latency(self):
        dram = DRAM(SystemConfig(), Stats())
        assert dram.read(0, 0) == dram.latency

    def test_queueing_under_burst(self):
        dram = DRAM(SystemConfig(), Stats())
        latencies = [dram.write(0, 0) for _ in range(30)]
        assert latencies[-1] > latencies[0]

    def test_bytes_accounted(self):
        stats = Stats()
        dram = DRAM(SystemConfig(), stats)
        dram.read(0, 0)
        dram.write(1, 0)
        assert stats.get("dram.read_bytes") == 64
        assert stats.get("dram.write_bytes") == 64

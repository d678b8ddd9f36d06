"""Tests for NVM wear/endurance accounting."""

import pytest

from repro.sim import NVM, Stats, SystemConfig
from repro.sim.wear import LINES_PER_PAGE, WearTracker


def _device():
    return NVM(SystemConfig(), Stats())


def _write(nvm, line, nbytes):
    """One background write; its back-pressure stall does not matter."""
    nvm.write_background(line, nbytes, 0, "data")


class TestWearTracker:
    """The tracker's counts and summaries, fed through the device."""

    def test_empty_report(self):
        report = WearTracker().report()
        assert report.total_line_writes == 0
        assert report.pages_touched == 0
        assert report.imbalance == 1.0

    def test_single_page_counting(self):
        nvm = _device()
        for _ in range(5):
            _write(nvm, line=3, nbytes=64)
        assert nvm.wear.page_writes(0) == 5
        assert nvm.wear.total_line_writes == 5

    def test_multi_line_write_spans_lines(self):
        nvm = _device()
        _write(nvm, line=0, nbytes=256)  # 4 lines
        assert nvm.wear.total_line_writes == 4
        assert nvm.wear.page_writes(0) == 4

    def test_write_across_a_page_boundary_counts_both_pages(self):
        nvm = _device()
        _write(nvm, line=LINES_PER_PAGE - 1, nbytes=128)  # 2 lines, 2 pages
        assert nvm.wear.total_line_writes == 2
        assert nvm.wear.hottest_pages() == [(0, 1), (1, 1)]

    def test_small_write_counts_one_line(self):
        nvm = _device()
        _write(nvm, line=0, nbytes=8)
        assert nvm.wear.total_line_writes == 1

    def test_imbalance_detects_hot_page(self):
        nvm = _device()
        for _ in range(90):
            _write(nvm, line=0, nbytes=64)  # page 0, hot
        for page in range(1, 10):
            _write(nvm, line=page * LINES_PER_PAGE, nbytes=64)
        report = nvm.wear.report()
        assert report.pages_touched == 10
        assert report.max_page_writes == 90
        assert report.imbalance > 5.0
        assert report.hot1pct_share > 0.5

    def test_even_wear_has_unit_imbalance(self):
        nvm = _device()
        for page in range(16):
            _write(nvm, line=page * LINES_PER_PAGE, nbytes=64)
        assert nvm.wear.report().imbalance == pytest.approx(1.0)

    def test_hottest_pages_ranking(self):
        nvm = _device()
        _write(nvm, 0, 64)
        for _ in range(3):
            _write(nvm, LINES_PER_PAGE, 64)
        top = nvm.wear.hottest_pages(1)
        assert top == [(1, 3)]

    def test_lifetime_estimate(self):
        nvm = _device()
        for _ in range(LINES_PER_PAGE * 10):
            _write(nvm, 0, 64)
        report = nvm.wear.report()
        assert report.estimated_lifetime_fraction(100) == pytest.approx(0.9)
        with pytest.raises(ValueError):
            report.estimated_lifetime_fraction(0)


class TestNVMIntegration:
    def test_device_feeds_tracker(self):
        nvm = NVM(SystemConfig(), Stats())
        nvm.write_background(0, 64, 0, "data")
        nvm.write_sync(1, 72, 0, "log")
        report = nvm.wear.report()
        assert report.total_line_writes == 3  # 1 + ceil(72/64)

    def test_logging_scheme_wears_device_faster(self):
        """The paper's endurance motivation, measured: PiCL's log+data
        writes age the NVM faster than NVOverlay's single versions."""
        from repro.harness.runner import run_one
        from repro.harness import runner
        from repro.sim import Machine
        from repro.workloads import make_workload
        from repro.core import NVOverlay
        from repro.baselines import PiCL
        from tests.util import RandomWorkload, tiny_config

        wears = {}
        for scheme_cls in (PiCL, NVOverlay):
            machine = Machine(tiny_config(epoch_size_stores=200), scheme=scheme_cls())
            machine.run(RandomWorkload(num_threads=4, txns_per_thread=300, seed=4))
            wears[scheme_cls.__name__] = machine.nvm.wear.report().total_line_writes
        assert wears["PiCL"] > wears["NVOverlay"]

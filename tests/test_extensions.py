"""Tests for the extension features: OS pool growth, snapshot diff, CSV."""

import pytest

from repro.core import (
    NVOverlay,
    NVOverlayParams,
    PoolExhaustedError,
    SnapshotReader,
)
from repro.harness.report import to_csv
from repro.sim import Machine, store

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


class TestOSPoolGrowth:
    def test_exhaustion_raises_without_growth(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, pool_pages=1))
        machine = Machine(tiny_config(), scheme=scheme)
        with pytest.raises(PoolExhaustedError):
            machine.run(RandomWorkload(num_threads=4, txns_per_thread=300))

    def test_os_grant_absorbs_exhaustion(self):
        scheme = NVOverlay(
            NVOverlayParams(num_omcs=1, pool_pages=1, os_grow_pages=16)
        )
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300))
        assert machine.stats.get("omc0.os_grows") > 0
        # Consistency is unaffected by mid-run pool growth.
        from repro.core import golden_image

        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)


class TestSnapshotDiff:
    def _reader(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(0x4000)]
                yield [store(0x4040)]
                hierarchy.advance_epoch(hierarchy.vds[0], 5, 0)
                yield [store(0x4000)]  # changes in epoch 5

        machine.run(W())
        return SnapshotReader(scheme.cluster)

    def test_diff_reports_changed_lines(self):
        reader = self._reader()
        changed = reader.diff(1, 5)
        assert (0x4000 >> 6) in changed
        assert (0x4040 >> 6) not in changed

    def test_diff_is_order_insensitive(self):
        reader = self._reader()
        assert reader.diff(5, 1) == reader.diff(1, 5)

    def test_diff_same_epoch_empty(self):
        reader = self._reader()
        assert reader.diff(5, 5) == {}

    def test_diff_reports_birth_of_line(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(0x4000)]
                hierarchy.advance_epoch(hierarchy.vds[0], 3, 0)
                yield [store(0x8000)]  # new line in epoch 3

        machine.run(W())
        changed = SnapshotReader(scheme.cluster).diff(1, 3)
        line = 0x8000 >> 6
        assert changed[line][0] is None and changed[line][1] is not None


class TestEpochsTouching:
    def test_reports_writing_epochs_only(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(0x4000)]
                hierarchy.advance_epoch(hierarchy.vds[0], 4, 0)
                yield [store(0x8000)]
                hierarchy.advance_epoch(hierarchy.vds[0], 9, 0)
                yield [store(0x4000)]

        machine.run(W())
        reader = SnapshotReader(scheme.cluster)
        assert reader.epochs_touching(0x4000) == [1, 9]
        assert reader.epochs_touching(0x8000) == [4]
        assert reader.epochs_touching(0xF000) == []


class TestCSVExport:
    def test_csv_rendering(self):
        text = to_csv(["a", "b"], {"w1": {"a": 1.25, "b": 3}, "w2": {"a": 0.5}})
        lines = text.splitlines()
        assert lines[0] == "workload,a,b"
        assert lines[1] == "w1,1.25,3"
        assert lines[2] == "w2,0.5,"

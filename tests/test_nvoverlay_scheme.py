"""End-to-end tests for the assembled NVOverlay scheme."""

import pytest

from repro.core import (
    EpochSkewError,
    NVOverlay,
    NVOverlayParams,
    SnapshotReader,
    golden_image,
)
from repro.sim import Machine, store

from tests.util import RandomWorkload, check_hierarchy_invariants, tiny_config


class TestLifecycle:
    def test_requires_attach_before_hooks(self):
        scheme = NVOverlay()
        assert scheme.cluster is None

    def test_attach_builds_per_vd_walkers(self):
        scheme = NVOverlay()
        machine = Machine(tiny_config(), scheme=scheme)
        assert len(scheme.walkers) == machine.config.num_vds

    def test_buffer_defaults_to_llc_geometry(self):
        scheme = NVOverlay(NVOverlayParams(use_omc_buffer=True))
        machine = Machine(tiny_config(), scheme=scheme)
        buffer = scheme.cluster.omcs[0].buffer
        assert buffer is not None
        assert (
            buffer.array.geometry.size_bytes
            == machine.config.llc_geometry.size_bytes
        )

    def test_finalize_makes_everything_recoverable(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=150))
        final = max(vd.cur_epoch for vd in machine.hierarchy.vds)
        assert scheme.rec_epoch() == final - 1


class TestEndToEnd:
    def test_heavy_sharing_consistency(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=2))
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        machine.run(
            RandomWorkload(
                num_threads=4, txns_per_thread=400, shared_fraction=0.8, seed=21
            )
        )
        check_hierarchy_invariants(machine.hierarchy)
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)

    def test_context_bytes_accounted(self):
        scheme = NVOverlay()
        machine = Machine(tiny_config(epoch_size_stores=64), scheme=scheme)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=200))
        assert machine.nvm.bytes_written("context") > 0

    def test_epoch_advance_stalls_vd(self):
        scheme = NVOverlay()
        machine = Machine(tiny_config(epoch_size_stores=64), scheme=scheme)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=200))
        assert machine.stats.get("epoch.advances") > 2

    def test_with_omc_buffer_consistency(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, use_omc_buffer=True))
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300, seed=4))
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)

    def test_buffer_reduces_nvm_data_writes(self):
        def run(use_buffer):
            scheme = NVOverlay(
                NVOverlayParams(num_omcs=1, use_omc_buffer=use_buffer)
            )
            machine = Machine(
                tiny_config(epoch_size_stores=1 << 40), scheme=scheme
            )
            machine.run(
                RandomWorkload(
                    num_threads=4, txns_per_thread=400, footprint=1 << 12, seed=6
                )
            )
            return machine.stats.get("nvm.writes.data")

        assert run(True) < run(False)

    def test_multi_omc_matches_single_omc_image(self):
        images = []
        for num_omcs in (1, 3):
            scheme = NVOverlay(NVOverlayParams(num_omcs=num_omcs))
            machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
            machine.run(RandomWorkload(num_threads=4, txns_per_thread=250, seed=13))
            images.append(SnapshotReader(scheme.cluster).recover().lines)
        assert images[0] == images[1]


class TestEpochWrapAround:
    def test_tiny_epoch_space_wraps_cleanly(self):
        """With 6-bit epochs the run crosses several group boundaries."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(
            tiny_config(epoch_bits=6, epoch_size_stores=32),
            scheme=scheme,
            capture_store_log=True,
        )
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=400, seed=3))
        assert scheme.sense is not None
        assert scheme.sense.flips >= 1
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)

    def test_skew_error_when_walker_cannot_keep_up(self):
        """Extreme skew beyond half the epoch space must be detected, not
        silently corrupt wire ordering."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(epoch_bits=4), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 3

            def access_batches(self, tid):
                if tid == 0:
                    for epoch in range(2, 12):
                        hierarchy.advance_epoch(hierarchy.vds[0], epoch, 0)
                        yield [store(0x4000)]

        with pytest.raises(EpochSkewError):
            machine.run(W())


class TestIntrospection:
    def test_metadata_accessors(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=100))
        assert scheme.mapped_working_set_bytes() > 0
        assert scheme.master_metadata_bytes() > 0
        assert scheme.rec_epoch() > 0

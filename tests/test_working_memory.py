"""Tests for working memory placement (DRAM buffer vs NVM, §III-B)."""

import pytest

from repro.core import NVOverlay, NVOverlayParams, SnapshotReader, golden_image
from repro.sim import Machine, SystemConfig

from tests.util import RandomWorkload, final_image_matches_stores, tiny_config


class TestWorkingMemoryOnNVM:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(working_memory="optane-ish")

    def test_misses_pay_nvm_latency(self):
        def run(kind):
            machine = Machine(tiny_config(working_memory=kind))
            return machine.run(
                RandomWorkload(num_threads=4, txns_per_thread=200, seed=4)
            ).cycles

        assert run("nvm") > run("dram")

    def test_working_writes_accounted_separately(self):
        machine = Machine(tiny_config(working_memory="nvm"))
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300, seed=4))
        assert machine.nvm.bytes_written("working") > 0
        assert machine.stats.get("dram.writes") == 0

    def test_dram_mode_never_touches_nvm_for_working_data(self):
        machine = Machine(tiny_config(working_memory="dram"))
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=200, seed=4))
        assert machine.nvm.bytes_written("working") == 0
        assert machine.stats.get("dram.writes") > 0

    def test_coherence_correct_on_nvm_working_memory(self):
        machine = Machine(tiny_config(working_memory="nvm"), capture_store_log=True)
        machine.run(RandomWorkload(
            num_threads=4, txns_per_thread=300, shared_fraction=0.5, seed=8
        ))
        mismatches, total = final_image_matches_stores(machine)
        assert mismatches == 0 and total > 0

    def test_nvoverlay_recovery_on_nvm_working_memory(self):
        """Snapshot traffic and working traffic share the device; the
        consistency guarantees are unaffected."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(
            tiny_config(working_memory="nvm", epoch_size_stores=64),
            scheme=scheme, capture_store_log=True,
        )
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=250, seed=9))
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)
        assert machine.nvm.bytes_written("working") >= 0
        assert machine.nvm.bytes_written("data") > 0

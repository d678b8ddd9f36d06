"""Tests for the per-VD tag walker and min-ver reporting."""

from repro.core import NVOverlay, NVOverlayParams
from repro.sim import Machine, store

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


def machine_with_walker(enabled=True, rate=64, **overrides):
    scheme = NVOverlay(
        NVOverlayParams(num_omcs=1, pool_pages=4096, enable_tag_walker=enabled)
    )
    config = tiny_config(tag_walk_rate=rate, **overrides)
    return Machine(config, scheme=scheme, capture_store_log=True), scheme


class TestWalking:
    def test_walker_makes_passes_during_run(self):
        machine, scheme = machine_with_walker()
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300))
        assert machine.stats.get("walker.passes") > 0
        assert all(w.passes_completed > 0 for w in scheme.walkers)

    def test_walker_persists_old_versions(self):
        machine, scheme = machine_with_walker(epoch_size_stores=64)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300))
        assert machine.stats.get("evict_reason.tag_walk") > 0

    def test_disabled_walker_never_scans(self):
        machine, scheme = machine_with_walker(enabled=False)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=200))
        assert machine.stats.get("walker.passes") == 0
        assert machine.stats.get("evict_reason.tag_walk") == 0

    def test_rec_epoch_advances_during_run_with_walker(self):
        machine, scheme = machine_with_walker(epoch_size_stores=64)
        rec_seen = []

        class Probe(RandomWorkload):
            def access_batches(self, tid):
                for txn in super().access_batches(tid):
                    rec_seen.append(scheme.cluster.rec_epoch)
                    yield txn

        machine.run(Probe(num_threads=4, txns_per_thread=400))
        assert max(rec_seen) > 0  # recoverable mid-run, not only at finalize

    def test_scan_rate_limits_progress(self):
        """A slower walker completes fewer passes over the same run."""
        fast, _ = machine_with_walker(rate=256)
        fast.run(RandomWorkload(num_threads=4, txns_per_thread=200, seed=3))
        slow, _ = machine_with_walker(rate=4)
        slow.run(RandomWorkload(num_threads=4, txns_per_thread=200, seed=3))
        assert slow.stats.get("walker.passes") < fast.stats.get("walker.passes")

    def test_correctness_without_walker(self):
        """§IV-C: protocol correctness never depends on walker progress."""
        from repro.core import SnapshotReader, golden_image

        machine, scheme = machine_with_walker(enabled=False, epoch_size_stores=64)
        machine.run(RandomWorkload(num_threads=4, txns_per_thread=300, seed=8))
        image = SnapshotReader(scheme.cluster).recover()
        golden = golden_image(machine.hierarchy.store_log, image.epoch)
        assert image.lines == golden


class TestMinVerReports:
    def test_completed_pass_reports_to_cluster(self):
        machine, scheme = machine_with_walker()
        machine.run(ScriptedWorkload([[[store(0x4000)]] * 50]))
        # After finalize, every VD's min-ver equals the final epoch.
        final = max(vd.cur_epoch for vd in machine.hierarchy.vds)
        assert all(v == final for v in scheme.cluster.min_vers.values())

"""Tests for NVOverlay's version access protocol (CST, §IV) in the
hierarchy: OID tagging, store-eviction, version-ordered write-backs,
coherence-driven epoch synchronization and the walker entry points."""

import pytest

from repro.core import NVOverlay, NVOverlayParams
from repro.sim import MESI, Machine, fastpath, load, store

from tests import reference_hierarchy
from tests.reference_hierarchy import ReferenceHierarchy
from tests.util import ScriptedWorkload, tiny_config

ADDR = 0x4000
LINE = ADDR >> 6


def nvo_machine(scripts, **config_overrides):
    scheme = NVOverlay(NVOverlayParams(num_omcs=1, pool_pages=4096))
    machine = Machine(
        tiny_config(**config_overrides), scheme=scheme, capture_store_log=True
    )
    machine.run(ScriptedWorkload(scripts))
    return machine, scheme


class TestOIDTagging:
    def test_store_tags_line_with_vd_epoch(self):
        machine, _ = nvo_machine([[[store(ADDR)]]])
        entry = machine.hierarchy.l1s[0].lookup(LINE)
        assert entry.oid == 1  # first epoch

    def test_oid_advances_with_epoch(self):
        # epoch_size 64 globally -> 32 per VD; 33 stores cross a boundary.
        ops = [[store(ADDR + 8 * (i % 8))] for i in range(40)]
        machine, _ = nvo_machine([ops], epoch_size_stores=64)
        entry = machine.hierarchy.l1s[0].lookup(LINE)
        assert entry.oid >= 2


class TestStoreEviction:
    def test_old_dirty_version_pushed_to_l2(self):
        """A store to an immutable old version store-evicts it (Fig. 4)."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        hierarchy = machine.hierarchy
        observed = {}

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]  # version @1 in L1
                hierarchy.advance_epoch(hierarchy.vds[0], 5, 0)
                yield [store(ADDR)]  # must store-evict version @1
                l1 = hierarchy.l1s[0].lookup(LINE, touch=False)
                l2 = hierarchy.vds[0].l2.lookup(LINE, touch=False)
                observed["l1"] = (l1.oid, l1.dirty)
                observed["l2"] = (l2.oid, l2.dirty)

        machine.run(W())
        assert machine.stats.get("cst.store_evictions") == 1
        assert observed["l1"] == (5, True)
        assert observed["l2"] == (1, True)

    def test_clean_old_version_overwritten_in_place(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [load(ADDR)]  # clean E copy @0
                hierarchy.advance_epoch(hierarchy.vds[0], 5, 0)
                yield [store(ADDR)]

        machine.run(W())
        assert machine.stats.get("cst.store_evictions") == 0

    def test_two_versions_coexist_and_both_persist(self):
        """The L1@new / L2@old state persists both versions eventually."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme, capture_store_log=True)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]
                hierarchy.advance_epoch(hierarchy.vds[0], 5, 0)
                yield [store(ADDR)]

        machine.run(W())  # finalize flushes everything
        omc = scheme.cluster.omcs[0]
        assert omc.time_travel_read(LINE, 1) is not None
        assert omc.time_travel_read(LINE, 5)[1] == 5


class TestEpochSynchronization:
    def test_reader_vd_adopts_writer_epoch(self):
        """Lamport rule: observing data from a newer epoch advances the
        local epoch (Fig. 3)."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 3

            def access_batches(self, tid):
                if tid == 0:  # VD0 writes at an advanced epoch
                    hierarchy.advance_epoch(hierarchy.vds[0], 9, 0)
                    yield [store(ADDR)]
                elif tid == 2:  # core 2 = VD1 reads it later
                    yield [load(PRIME)]  # spacer to order after the store
                    yield [load(ADDR)]

        PRIME = 0xABC0
        machine.run(W())
        assert hierarchy.vds[1].cur_epoch >= 9
        assert machine.stats.get("epoch.coherence_syncs") >= 1

    def test_store_count_epoch_advance(self):
        ops = [[store(0x8000 + 8 * i)] for i in range(100)]
        machine, _ = nvo_machine([ops], epoch_size_stores=64)
        assert machine.stats.get("epoch.advances") >= 2

    def test_migrated_dirty_version_lowers_min_ver(self):
        """The Fig. 6 c2c transfer must lower the receiver's min-ver."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 3

            def access_batches(self, tid):
                if tid == 0:
                    yield [store(ADDR)]  # dirty version @1 in VD0
                elif tid == 2:
                    yield [load(0xABC0)]
                    # VD1's walker pretends to have reported a high min-ver.
                    scheme.cluster.min_vers[1] = 50
                    yield [store(ADDR)]  # c2c transfer of version @1

        machine.run(W())
        assert machine.stats.get("coh.c2c_transfers") == 1
        assert machine.stats.get("omc.min_ver_lowered") == 1


@pytest.fixture
def on_the_model(monkeypatch):
    """Runs later machines on the reference model, whose hierarchy
    defines the per-line walker steps."""
    monkeypatch.setattr(fastpath, "build", reference_hierarchy.build)


class TestWalkerEntryPoints:
    """The per-line walker visit and the dirty-version listing live in the
    reference model (the access path's ``scan_set`` is their fused
    form); the machines that call them run on the model."""

    @pytest.mark.usefixtures("on_the_model")
    def test_walker_persist_downgrades_old_dirty(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy
        vd = hierarchy.vds[0]
        observed = {}

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]
                hierarchy.advance_epoch(vd, 5, 0)
                observed["persisted"] = ReferenceHierarchy.walker_persist(
                    hierarchy, vd, LINE, 0
                )
                observed["l1_state"] = hierarchy.l1s[0].lookup(LINE, touch=False).state
                observed["l2_state"] = vd.l2.lookup(LINE, touch=False).state

        machine.run(W())
        assert observed["persisted"] == 1
        # L1 recalled to E, L2 holds the persisted version clean.
        assert observed["l1_state"] == MESI.E
        assert observed["l2_state"] == MESI.E

    @pytest.mark.usefixtures("on_the_model")
    def test_walker_persist_skips_current_epoch(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]

        machine.run(W())
        assert ReferenceHierarchy.walker_persist(
            hierarchy, hierarchy.vds[0], LINE, 0
        ) == 0

    def test_min_dirty_oid_counts_shadowed_l2_version(self):
        """A newer L1 version must not hide an older dirty L2 version."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy
        vd = hierarchy.vds[0]

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]
                hierarchy.advance_epoch(vd, 7, 0)
                yield [store(ADDR)]  # store-evicts @1 into L2

        machine.run(W())
        # After finalize everything is persisted; re-create the state:
        hierarchy2 = machine.hierarchy
        # min over dirty versions right after the run's last store would
        # have been 1; by finalize all are clean again.
        assert hierarchy2.min_dirty_oid(vd) == vd.cur_epoch

    @pytest.mark.usefixtures("on_the_model")
    def test_dirty_versions_in_vd_reports_both_copies(self):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, enable_tag_walker=False))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy
        vd = hierarchy.vds[0]
        captured = {}

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]
                hierarchy.advance_epoch(vd, 7, 0)
                yield [store(ADDR)]
                captured["versions"] = [
                    (e.line, e.oid)
                    for e in ReferenceHierarchy.dirty_versions_in_vd(hierarchy, vd)
                ]

        machine.run(W())
        assert (LINE, 1) in captured["versions"]
        assert (LINE, 7) in captured["versions"]


class TestVersionedMemoryTags:
    def test_dram_remembers_line_oid(self):
        """A version evicted to working memory keeps its OID (§IV-A4)."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1))
        machine = Machine(tiny_config(), scheme=scheme)
        hierarchy = machine.hierarchy

        class W:
            num_threads = 1

            def access_batches(self, tid):
                yield [store(ADDR)]

        machine.run(W())
        assert machine.mem.oid_of(LINE) == 1

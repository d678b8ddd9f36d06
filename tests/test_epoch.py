"""Tests for epoch arithmetic: Lamport merge, wire encoding, wrap-around."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EpochSkewError, EpochSpace, SenseController, merge


class TestMerge:
    def test_adopts_newer(self):
        assert merge(5, 9) == 9

    def test_keeps_newer_local(self):
        assert merge(9, 5) == 9

    def test_equal(self):
        assert merge(7, 7) == 7


class TestEpochSpace:
    def test_encode_truncates(self):
        space = EpochSpace(bits=8)
        assert space.encode(0) == 0
        assert space.encode(255) == 255
        assert space.encode(256) == 0
        assert space.encode(257) == 1

    def test_encode_rejects_negative(self):
        with pytest.raises(ValueError):
            EpochSpace(8).encode(-1)

    def test_decode_near_reference(self):
        space = EpochSpace(bits=8)
        assert space.decode(space.encode(300), reference=298) == 300
        assert space.decode(space.encode(260), reference=300) == 260

    def test_decode_across_wrap(self):
        space = EpochSpace(bits=8)
        # True epoch 257 encodes to 1; reference just below the wrap.
        assert space.decode(1, reference=250) == 257

    def test_decode_range_check(self):
        with pytest.raises(ValueError):
            EpochSpace(8).decode(256, reference=0)

    def test_decode_clamps_just_behind_the_wrap(self):
        space = EpochSpace(bits=8)
        # Reference below half, wire just behind the wrap boundary: the
        # nearest candidate is logically negative and clamps to 0.  The
        # buggy decode skipped negative candidates, resolving these a
        # full wrap into the future (254 and 255 here).
        assert space.decode(254, reference=2) == 0
        assert space.decode(255, reference=0) == 0

    def test_decode_exact_half_distance_ties_toward_future(self):
        space = EpochSpace(bits=8)
        # Both candidates sit exactly half the space away; serial-number
        # arithmetic is ambiguous there, so decode picks the future one.
        assert space.decode(130, reference=2) == 130
        assert space.decode(space.encode(428), reference=300) == 428

    def test_decode_wire_equal_to_reference(self):
        space = EpochSpace(bits=8)
        assert space.decode(space.encode(2), reference=2) == 2
        assert space.decode(space.encode(300), reference=300) == 300

    def test_wire_newer_basic(self):
        space = EpochSpace(bits=8)
        assert space.wire_newer(5, 3)
        assert not space.wire_newer(3, 5)
        assert not space.wire_newer(4, 4)

    def test_wire_newer_across_wrap(self):
        space = EpochSpace(bits=8)
        assert space.wire_newer(2, 250)  # 258 > 250 in logical terms
        assert not space.wire_newer(250, 2)

    def test_group_split(self):
        space = EpochSpace(bits=8)
        assert space.group(0) == 0
        assert space.group(127) == 0
        assert space.group(128) == 1
        assert space.group(255) == 1

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            EpochSpace(1)
        with pytest.raises(ValueError):
            EpochSpace(40)

    @given(st.integers(0, 10**6), st.integers(0, 120))
    @settings(max_examples=200)
    def test_roundtrip_within_half_space(self, reference, delta):
        """decode(encode(e), ref) == e whenever |e - ref| < half."""
        space = EpochSpace(bits=8)
        logical = reference + delta
        assert space.decode(space.encode(logical), reference) == logical

    @given(st.integers(0, 10**6), st.integers(1, 127))
    @settings(max_examples=200)
    def test_wire_newer_matches_logical_order(self, base, delta):
        space = EpochSpace(bits=8)
        newer = base + delta
        assert space.wire_newer(space.encode(newer), space.encode(base))
        assert not space.wire_newer(space.encode(base), space.encode(newer))


class TestSenseController:
    def test_no_flip_within_group(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 10)
        sense.on_vd_advance(1, 20)
        assert sense.flips == 0
        assert sense.sense == 0

    def test_flip_when_frontier_crosses_group(self):
        space = EpochSpace(bits=8)  # half = 128
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 100)
        sense.on_vd_advance(1, 100)
        sense.on_vd_advance(0, 130)  # crosses into the upper group
        assert sense.flips == 1
        assert sense.sense == 1

    def test_only_first_crossing_flips(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 100)
        sense.on_vd_advance(1, 100)
        sense.on_vd_advance(0, 130)
        sense.on_vd_advance(1, 135)  # second VD follows: no extra flip
        assert sense.flips == 1

    def test_second_wrap_flips_back(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=1)
        sense.on_vd_advance(0, 130)
        sense.on_vd_advance(0, 260)
        assert sense.flips == 2
        assert sense.sense == 0

    def test_skew_limit_enforced(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 10)
        with pytest.raises(EpochSkewError):
            sense.on_vd_advance(1, 10 + space.half)

    def test_flip_at_maximum_legal_skew(self):
        # One VD crosses the group boundary while the laggard trails by
        # half - 1 — the largest skew the wire encoding can still order.
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 3)
        sense.on_vd_advance(1, 3 + space.half - 1)  # 130: crosses into U
        assert sense.max_skew() == space.half - 1
        assert sense.flips == 1
        assert sense.sense == 1

    def test_laggard_catching_up_at_max_skew_does_not_reflip(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 3)
        sense.on_vd_advance(1, 130)
        sense.on_vd_advance(0, 130)  # laggard joins the upper group
        assert sense.flips == 1
        # The leader crossing the next boundary (256) at max legal skew
        # flips again, back to sense 0.
        sense.on_vd_advance(1, 130 + space.half - 1)  # 257
        assert sense.max_skew() == space.half - 1
        assert sense.flips == 2
        assert sense.sense == 0

    def test_multi_boundary_jump_flips_parity(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=1)
        sense.on_vd_advance(0, 300)  # crosses 128 and 256 in one advance
        assert sense.flips == 2
        assert sense.sense == 0

    def test_exact_half_skew_raises_before_flip_accounting(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, space.half - 1)  # 127: legal, still in L
        assert sense.flips == 0
        with pytest.raises(EpochSkewError):
            sense.on_vd_advance(0, space.half)  # skew vs. VD 1 hits half
        assert sense.flips == 0  # the rejected advance never flipped

    def test_monotonicity_enforced(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=1)
        sense.on_vd_advance(0, 10)
        with pytest.raises(ValueError):
            sense.on_vd_advance(0, 9)

    def test_max_skew(self):
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        sense.on_vd_advance(0, 30)
        assert sense.max_skew() == 30
        sense.on_vd_advance(1, 20)
        assert sense.max_skew() == 10
        assert sense.logical_epoch(0) == 30

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 40)), max_size=30))
    @settings(max_examples=100)
    def test_flip_count_tracks_frontier_crossings(self, steps):
        """flips == number of half-space boundaries the max epoch crossed."""
        space = EpochSpace(bits=8)
        sense = SenseController(space, num_vds=2)
        epochs = {0: 0, 1: 0}
        for vd, delta in steps:
            epochs[vd] += delta
            if max(epochs.values()) - min(epochs.values()) >= space.half:
                return  # skew bound would trip; not this test's concern
            sense.on_vd_advance(vd, epochs[vd])
        assert sense.flips == max(epochs.values()) // space.half


class TestEpochSyncBatcherUnit:
    def test_single_batch_per_span(self):
        from repro.core.epoch import EpochSyncBatcher

        batcher = EpochSyncBatcher(num_vds=2)
        assert not batcher.any_pending()
        assert batcher.note_advance(0, old_epoch=3)      # opens the batch
        assert not batcher.note_advance(0, old_epoch=4)  # coalesced
        assert batcher.pending(0) and not batcher.pending(1)
        assert batcher.take(0) == 3  # base = epoch before the first sync
        assert batcher.take(0) is None
        assert not batcher.any_pending()


class TestEpochSyncBatcherMultiSocket:
    """End-to-end batching across multi-socket geometries (2 and 4
    sockets, batched vs unbatched).

    Batching legitimately *moves* the announcement stalls to transaction
    boundaries, so batched and unbatched runs are distinct timings (the
    golden-parity fixture pins them separately); what must agree are the
    interleaving-invariant outcomes — total committed stores, per-line
    writer histograms, uncontested final writers — and each run's final
    image must equal its own store-log replay.  Sync-batch counters must
    show the coalescing actually happened.
    """

    #: (num_cores, num_sockets): one dual- and one quad-socket mesh.
    SOCKET_GEOMETRIES = [(16, 2), (32, 4)]

    @staticmethod
    def _run(config, workload):
        from repro.harness.runner import make_scheme
        from repro.sim import Machine

        machine = Machine(
            config, scheme=make_scheme("nvoverlay"), capture_store_log=True
        )
        result = machine.run(workload)
        return machine, result

    @staticmethod
    def _frozen(cores):
        from repro.oracle.differential import freeze_workload
        from repro.workloads import make_workload

        return freeze_workload(
            make_workload("uniform", num_threads=cores, scale=0.05, seed=9)
        )

    @pytest.mark.parametrize("cores,sockets", SOCKET_GEOMETRIES)
    def test_batched_counters_and_outcome_identity(self, cores, sockets):
        from repro.core.snapshot import golden_image
        from repro.oracle.differential import compare_outcomes, summarize_log
        from repro.sim import SystemConfig

        frozen = self._frozen(cores)
        outcomes = []
        for batch in (False, True):
            # Tiny epochs: VDs advance at different rates, so shared
            # lines carry newer RVs and force coherence-driven syncs.
            config = SystemConfig.scaled(
                cores, num_sockets=sockets, batch_epoch_sync=batch,
                epoch_size_stores=40,
            )
            machine, _ = self._run(config, frozen)
            stats = machine.stats
            syncs = stats.get("epoch.coherence_syncs")
            batches = stats.get("epoch.sync_batches")
            assert syncs > 0, "workload produced no coherence-driven syncs"
            if batch:
                # Every batch covers >= 1 sync; coalescing means strictly
                # fewer announcements than syncs on this sharing level.
                assert 0 < batches <= syncs
            else:
                assert batches == 0
            log = machine.hierarchy.store_log
            image = machine.hierarchy.memory_image()
            golden = golden_image(log, float("inf"))
            torn = [l for l, t in golden.items() if image.get(l) != t]
            assert not torn, (
                f"{sockets}-socket batch={batch}: image disagrees with "
                f"its own store log on {len(torn)} line(s)"
            )
            outcomes.append(summarize_log(f"batch={batch}", log))
        mismatches = compare_outcomes(outcomes)
        assert not mismatches, (
            f"{sockets}-socket batched vs unbatched disagree:\n"
            + "\n".join(f"  - {m}" for m in mismatches)
        )

"""Tests for the differential snapshot checker (``repro.oracle.differential``).

Three layers: pure unit tests of the mismatch detector
(``compare_outcomes`` over hand-built summaries), a property-based
check of the RadixTree against a dict model, and end-to-end
cross-scheme sweeps where one frozen workload trace replays under
every scheme and the images/snapshots must agree.
"""

import random
from collections import Counter

import pytest

from repro.core.mapping import RadixTree
from repro.oracle.differential import (
    DifferentialMismatch,
    SchemeOutcome,
    compare_outcomes,
    run_differential,
    summarize_log,
)
from repro.sim import SystemConfig
from repro.workloads import FrozenWorkload, freeze_workload, make_workload

SMALL = SystemConfig(num_cores=4, cores_per_vd=2, epoch_size_stores=400)


def outcome(scheme, writer_counts, final_writer, total=None):
    contested = frozenset(
        line for line, counts in writer_counts.items() if len(counts) > 1
    )
    return SchemeOutcome(
        scheme=scheme,
        total_stores=(
            total if total is not None
            else sum(sum(c.values()) for c in writer_counts.values())
        ),
        writer_counts=writer_counts,
        final_writer=final_writer,
        contested=contested,
    )


class TestCompareOutcomes:
    def base(self):
        return outcome(
            "a",
            {0x10: Counter({0: 2}), 0x20: Counter({0: 1, 1: 1})},
            {0x10: (0, 1), 0x20: (1, 0)},
        )

    def test_identical_outcomes_agree(self):
        assert compare_outcomes([self.base(), self.base()]) == []

    def test_single_outcome_is_trivially_consistent(self):
        assert compare_outcomes([self.base()]) == []

    def test_store_count_mismatch(self):
        other = self.base()
        other.total_stores += 3
        mismatches = compare_outcomes([self.base(), other])
        assert any("stores" in m for m in mismatches)

    def test_line_written_under_one_scheme_only(self):
        other = outcome(
            "b",
            {0x10: Counter({0: 2}), 0x20: Counter({0: 1, 1: 1}),
             0x30: Counter({2: 1})},
            {0x10: (0, 1), 0x20: (1, 0), 0x30: (2, 0)},
        )
        mismatches = compare_outcomes([self.base(), other])
        assert any("0x30" in m and "only under b" in m for m in mismatches)

    def test_writer_histogram_mismatch(self):
        other = outcome(
            "b",
            {0x10: Counter({3: 2}), 0x20: Counter({0: 1, 1: 1})},
            {0x10: (3, 1), 0x20: (1, 0)},
            total=4,
        )
        mismatches = compare_outcomes([self.base(), other])
        assert any("histogram" in m for m in mismatches)

    def test_final_writer_checked_on_uncontested_lines(self):
        other = self.base()
        other.final_writer = {0x10: (0, 0), 0x20: (1, 0)}  # wrong nth store
        mismatches = compare_outcomes([self.base(), other])
        assert any("final write" in m and "0x10" in m for m in mismatches)

    def test_contested_lines_exempt_from_final_writer(self):
        # 0x20 is written by two cores: coherence order is timing
        # (scheme) dependent, so a different final writer is legitimate.
        other = self.base()
        other.final_writer = {0x10: (0, 1), 0x20: (0, 0)}
        assert compare_outcomes([self.base(), other]) == []

    def test_summarize_log_builds_per_core_identities(self):
        log = [(0x10, 1, 101, 0, 0), (0x10, 1, 102, 0, 2), (0x20, 1, 103, 0, 0)]
        summary = summarize_log("s", log)
        assert summary.total_stores == 3
        assert summary.writer_counts[0x10] == Counter({0: 1, 2: 1})
        assert summary.contested == frozenset({0x10})
        # Core 0's second store overall is its nth=1 store.
        assert summary.final_writer[0x20] == (0, 1)
        assert summary.final_writer[0x10] == (2, 0)


class TestFreezeWorkload:
    def test_frozen_trace_is_replayable_and_stable(self):
        # btree is the adversarial case: its live streams mutate one
        # shared index in simulator-interleaving order.
        frozen = freeze_workload(
            make_workload("btree", num_threads=4, scale=0.05, seed=1)
        )
        assert isinstance(frozen, FrozenWorkload)
        first = [list(frozen.access_batches(tid)) for tid in range(4)]
        second = [list(frozen.access_batches(tid)) for tid in range(4)]
        assert first == second
        assert any(batch for batches in first for batch in batches)

    def test_freeze_is_deterministic_across_instances(self):
        make = lambda: freeze_workload(
            make_workload("btree", num_threads=4, scale=0.05, seed=7)
        )
        a, b = make(), make()
        assert a.batches == b.batches


class TestRadixTreeModel:
    """Property test: RadixTree == dict under random insert/lookup/remove."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dict_model(self, seed):
        rng = random.Random(1000 + seed)
        tree = RadixTree((4, 4, 6))
        model = {}
        key_space = 1 << 14
        for step in range(600):
            key = rng.randrange(key_space)
            action = rng.random()
            if action < 0.55:
                tree.insert(key, step)
                model[key] = step
            elif action < 0.8:
                assert tree.remove(key) == model.pop(key, None)
            else:
                assert tree.lookup(key) == model.get(key)
            if step % 97 == 0:
                tree.check_consistency()
        tree.check_consistency()
        assert tree.entries == len(model)
        for key, value in model.items():
            assert tree.lookup(key) == value

    def test_consistency_catches_corrupt_accounting(self):
        tree = RadixTree((4, 6))
        tree.insert(5, "x")
        tree.entries += 1  # the bug: accounting drifted from the structure
        with pytest.raises(AssertionError):
            tree.check_consistency()


class TestRunDifferential:
    @pytest.mark.parametrize(
        "workload", ["uniform", "btree", "ycsb_a", "hash_table"]
    )
    def test_schemes_agree_on_workload(self, workload):
        summary = run_differential(
            workload, config=SMALL, scale=0.05, seed=1
        )
        assert summary["stores"] > 0
        assert summary["schemes"] == ["nvoverlay", "picl", "ideal"]
        # NVOverlay's snapshots were checked against the store log.
        assert summary["snapshots_checked"]["nvoverlay"]

    @pytest.mark.parametrize(
        "workload", ["uniform", "btree", "ycsb_a", "hash_table"]
    )
    def test_all_eight_schemes_agree_on_frozen_trace(self, workload):
        """The full registry replays one frozen trace per workload.

        Every scheme — the paper's five baselines, the three related-work
        additions and nvoverlay — must commit the same stores with the
        same per-line writer histograms and (on uncontested lines) the
        same final writer as ``ideal``.  Timing differs wildly between
        the schemes; the data contract may not.
        """
        from repro.harness.runner import SCHEMES

        schemes = ("ideal",) + tuple(s for s in SCHEMES if s != "ideal")
        summary = run_differential(
            workload, schemes=schemes, config=SMALL, scale=0.05, seed=1
        )
        assert summary["stores"] > 0
        assert set(summary["schemes"]) == set(SCHEMES)
        assert summary["snapshots_checked"]["nvoverlay"]

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_seeded_random_traces_agree(self, seed):
        summary = run_differential(
            "uniform", config=SMALL, scale=0.05, seed=seed, oracle=True
        )
        assert summary["stores"] > 0

    def test_trace_export_on_armed_runs(self, tmp_path):
        run_differential(
            "uniform", schemes=("nvoverlay", "picl"), config=SMALL,
            scale=0.03, trace_dir=str(tmp_path),
        )
        files = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert files == ["uniform_nvoverlay.jsonl", "uniform_picl.jsonl"]
        assert (tmp_path / "uniform_nvoverlay.jsonl").read_text().strip()

    def test_mismatch_raises_with_details(self):
        # Feed compare_outcomes-shaped garbage through the public error.
        exc = DifferentialMismatch(["a vs b: committed 2 stores, expected 1"])
        assert exc.mismatches and "differential check failed" in str(exc)

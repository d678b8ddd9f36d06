"""Tests for frozen workloads, the trace file format, and replay."""

import pytest

from repro.harness.runner import make_scheme
from repro.sim import Machine, SystemConfig, load, store
from repro.workloads import (
    FrozenWorkload,
    TraceFormatError,
    TraceWorkload,
    freeze_workload,
    load_trace,
    make_workload,
    save_trace,
)

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


class TestFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, FrozenWorkload({
            0: [[load(0x100), store(0x140, 16)]],
            1: [[store(0x200)]],
        }))
        parsed = load_trace(path)
        assert parsed[0] == [[load(0x100), store(0x140, 16)]]
        assert parsed[1] == [[store(0x200)]]

    def test_transaction_boundaries_preserved(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, FrozenWorkload({0: [[load(0x100)], [load(0x200)]]}))
        parsed = load_trace(path)
        assert len(parsed[0]) == 2

    def test_saved_in_round_robin_order(self, tmp_path):
        """Transactions are written in the order ``freeze_workload``
        pulled them: one per thread per round."""
        path = tmp_path / "t.trace"
        save_trace(path, FrozenWorkload({
            0: [[load(0x40)], [store(0x80)]],
            1: [[store(0xC0, 16)]],
        }))
        assert path.read_text().splitlines()[1:] == [
            "0 ld 0x40 8", "0 ---",
            "1 st 0xc0 16", "1 ---",
            "0 st 0x80 8", "0 ---",
        ]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n0 ld 0x40 8\n0 ---\n")
        parsed = load_trace(path)
        assert parsed[0] == [[load(0x40)]]

    def test_trailing_unterminated_transaction_kept(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 st 0x40 8\n")
        parsed = load_trace(path)
        assert parsed[0] == [[store(0x40)]]

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        for bad in (
            "0 mov 0x40 8",       # unknown op kind
            "zero ld 0x40 8",     # thread is not a number
            "0 st 0xzz 8",        # address is not hex
            "0 st -0x40 8",       # negative address
            "0 st 0x40 0",        # zero size
            "0 st 0x40 -8",       # negative size
            "0 st 0x40 8 junk",   # extra field
            "0 st 0x40",          # missing field
            "0 --- junk",         # boundary with an extra field
            "-1 st 0x40 8",       # negative thread
        ):
            path.write_text(f"# header\n0 ld 0x40 8\n{bad}\n")
            with pytest.raises(TraceFormatError, match="^line 3: "):
                load_trace(path)

    def test_empty_trace_rejected_by_workload(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# nothing\n")
        with pytest.raises(TraceFormatError):
            TraceWorkload(path)


class TestCaptureReplay:
    def test_capture_preserves_ops(self):
        workload = ScriptedWorkload([[[load(0x100)], [store(0x140)]]])
        frozen = freeze_workload(workload)
        assert frozen.batches == {0: [[load(0x100)], [store(0x140)]]}

    def test_replay_runs_identically_across_schemes(self, tmp_path):
        """A saved trace drives two schemes with the same op stream."""
        path = tmp_path / "w.trace"
        save_trace(path, freeze_workload(
            RandomWorkload(num_threads=4, txns_per_thread=80, seed=3)
        ))
        stores = set()
        for _ in range(2):
            machine = Machine(tiny_config())
            result = machine.run(TraceWorkload(path))
            stores.add(result.stores)
        assert len(stores) == 1  # identical replay

    def test_registered_workload_is_capturable(self, tmp_path):
        workload = make_workload("uniform", num_threads=2, scale=0.02)
        path = tmp_path / "u.trace"
        count = save_trace(path, freeze_workload(workload))
        assert count > 0
        replay = TraceWorkload(path)
        assert replay.num_threads == 2
        machine = Machine(tiny_config())
        result = machine.run(replay)
        assert result.stores > 0

    @pytest.mark.parametrize("name", ["kmeans", "btree"])
    def test_round_trip_is_lossless_end_to_end(self, tmp_path, name):
        """freeze -> save -> TraceWorkload simulates exactly like the
        frozen workload itself: cycles, every counter, memory image."""
        frozen = freeze_workload(
            make_workload(name, num_threads=16, scale=0.05, seed=1)
        )
        path = tmp_path / f"{name}.trace"
        save_trace(path, frozen)
        runs = []
        for workload in (frozen, TraceWorkload(path)):
            machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
            result = machine.run(workload)
            runs.append((
                result.cycles,
                result.per_thread_cycles,
                machine.stats.counters(),
                machine.hierarchy.memory_image(),
            ))
        assert runs[0] == runs[1]

"""Tests for the protocol invariant oracle (``repro.oracle``).

Two halves: clean armed runs over real workload/scheme pairs must pass
every online checker, and *mutation* tests — deliberately corrupting
protocol state the way a real bug would — must make the matching
checker fire with a non-empty preceding-event window.
"""

import json

import pytest

from repro.harness.runner import make_scheme
from repro.oracle import (
    EVENT_KINDS,
    InvariantViolation,
    ProtocolOracle,
    TraceBuffer,
    format_window,
)
from repro.sim import MESI, Machine, SystemConfig
from repro.workloads import make_workload

SMALL = SystemConfig(num_cores=4, cores_per_vd=2, epoch_size_stores=400)


def run_armed(workload: str, scheme: str, scale: float = 0.05, seed: int = 1):
    """One small armed run; returns (machine, oracle) post-finalize."""
    oracle = ProtocolOracle(scan_interval=8)
    machine = Machine(SMALL, scheme=make_scheme(scheme), oracle=oracle)
    wl = make_workload(workload, num_threads=SMALL.num_cores, scale=scale,
                       seed=seed)
    machine.run(wl)
    return machine, oracle


class TestTraceBuffer:
    def test_ring_bounds_memory_but_counts_everything(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.emit("store", cycle=i, line=i)
        assert len(buf) == 4
        assert buf.total_events == 10
        assert buf.counts == {"store": 10}
        # Ring keeps the newest events, sequence numbers keep counting.
        assert [e.seq for e in buf] == [6, 7, 8, 9]

    def test_window_is_oldest_first_suffix(self):
        buf = TraceBuffer(capacity=8)
        for i in range(6):
            buf.emit("eviction", cycle=i)
        window = buf.window(3)
        assert [e.seq for e in window] == [3, 4, 5]
        assert buf.window(100) == list(buf)
        assert buf.window(0) == []

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_export_jsonl_round_trips(self, tmp_path):
        buf = TraceBuffer()
        buf.emit("writeback", cycle=7, vd=1, line=0x40, oid=3)
        buf.emit("rec_epoch", cycle=9, old=0, new=2)
        path = tmp_path / "events.jsonl"
        assert buf.export_jsonl(path) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"seq": 0, "cycle": 7, "kind": "writeback",
                           "vd": 1, "line": 0x40, "oid": 3}
        assert rows[1]["kind"] == "rec_epoch"

    def test_format_window(self):
        assert "no events" in format_window([])
        buf = TraceBuffer()
        event = buf.emit("merge", cycle=3, omc=0, through=5)
        rendered = format_window([event])
        assert "merge" in rendered and "through=5" in rendered


@pytest.mark.parametrize("workload", ["uniform", "btree", "ycsb_a"])
@pytest.mark.parametrize("scheme", ["nvoverlay", "picl"])
class TestCleanRuns:
    def test_armed_run_passes_all_invariants(self, workload, scheme):
        machine, oracle = run_armed(workload, scheme)
        summary = oracle.summary()
        assert summary["events"] > 0
        assert summary["scans"] > 0  # periodic + finalize scans ran
        assert summary["counts"]["store"] > 0
        if scheme == "nvoverlay":
            # The versioned protocol emits its whole event vocabulary.
            assert summary["counts"]["writeback"] > 0
            assert summary["counts"]["walker_pass"] > 0
            assert summary["counts"]["rec_epoch"] > 0
        assert set(summary["counts"]) <= set(EVENT_KINDS)


class TestMutations:
    """Corrupt protocol state the way a bug would; the checker must fire."""

    def _assert_violation(self, exc: InvariantViolation, invariant: str):
        assert exc.invariant == invariant
        assert exc.events, "violation must carry its preceding event window"
        assert invariant in str(exc)

    def test_flipped_mesi_state_fires_single_writer(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        hierarchy = machine.hierarchy
        vd_a, vd_b = hierarchy.vds[0], hierarchy.vds[1]
        l2_a, l2_b = vd_a.l2, vd_b.l2
        # The bug: two VDs both believe they own the same line in M.
        entry = next(e for s in l2_a._sets for e in s.values())
        entry.state = MESI.M
        entry.oid = max(entry.oid, 1)
        if l2_b.probe(entry.line) is None:
            # Make room without tripping inclusion: evict a victim no
            # L1 under VD b still holds.
            l1_lines = {
                e.line
                for core in vd_b.core_ids
                for s in hierarchy.l1s[core]._sets
                for e in s.values()
            }
            target_set = l2_b._sets[entry.line % l2_b._num_sets]
            if len(target_set) >= l2_b._ways:
                victim = next(l for l in target_set if l not in l1_lines)
                del target_set[victim]
        l2_b.insert(entry.line, MESI.M, max(entry.oid, 1), 42)
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.check_now()
        self._assert_violation(excinfo.value, "single-writer")

    def test_skipped_min_ver_report_fires_rec_frontier(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        hierarchy = machine.hierarchy
        cluster = machine.scheme.cluster
        # The bug: a dirty version at epoch 1 that no walker ever saw...
        hierarchy.vds[0].l2.insert(0x777, MESI.M, 1, 99)
        # ...while every walker reports an inflated min-ver, letting the
        # recoverable epoch advance over still-dirty on-chip state.
        target = cluster.rec_epoch + 5
        with pytest.raises(InvariantViolation) as excinfo:
            for vd in hierarchy.vds:
                cluster.update_min_ver(vd.id, target, now=0)
        self._assert_violation(excinfo.value, "rec-frontier")

    def test_reordered_writeback_fires_writeback_epoch(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        vd = machine.hierarchy.vds[0]
        # The bug: a write-back tagged with an epoch the VD has not
        # reached — version order crossed an epoch boundary.
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.on_writeback(vd, 0x555, vd.cur_epoch + 5, "capacity", 0)
        self._assert_violation(excinfo.value, "writeback-epoch")

    def test_epoch_regression_fires_epoch_monotonic(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        vd = machine.hierarchy.vds[0]
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.on_epoch_advance(vd, vd.cur_epoch, vd.cur_epoch, now=0)
        self._assert_violation(excinfo.value, "epoch-monotonic")

    def test_epoch_skew_fires_at_half_space(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        vd = machine.hierarchy.vds[0]
        cur = oracle._vd_epochs[vd.id]
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.on_epoch_advance(vd, cur, cur + oracle._half, now=0)
        self._assert_violation(excinfo.value, "epoch-skew")

    def test_drifted_master_refs_fire_at_rec_epoch_advance(self):
        # Short epochs, so the recoverable epoch advances mid-run.
        config = SystemConfig(num_cores=4, cores_per_vd=2, epoch_size_stores=50)
        oracle = ProtocolOracle(scan_interval=8)
        machine = Machine(config, scheme=make_scheme("nvoverlay"), oracle=oracle)
        cluster = machine.scheme.cluster
        drifted = []

        def corrupt(now):
            # The bug, mid-run: a sub-page's reference count drifts from
            # the Master Table, which compaction trusts for liveness.
            omc = next((o for o in cluster.omcs if len(o.master)), None)
            if omc is not None and not drifted:
                _line, location = next(iter(omc.master.entries()))
                omc.pool.subpage(location.subpage_id).master_refs += 1
                drifted.append(cluster.rec_epoch)

        machine.txn_hook = corrupt
        wl = make_workload("uniform", num_threads=config.num_cores, scale=0.05)
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run(wl)
        self._assert_violation(excinfo.value, "master-refs")
        assert cluster.rec_epoch > drifted[0]

    def test_drifted_master_refs_fire_before_reclaim(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        cluster = machine.scheme.cluster
        omc = next(o for o in cluster.omcs if len(o.master))
        _line, location = next(iter(omc.master.entries()))
        omc.pool.subpage(location.subpage_id).master_refs -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            cluster.reclaim(now=0)
        self._assert_violation(excinfo.value, "master-refs")

    def test_inflated_walker_report_fires_min_ver_report(self):
        machine, oracle = run_armed("uniform", "nvoverlay")
        vd = machine.hierarchy.vds[0]
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.on_walker_pass(vd.id, vd.cur_epoch + 10, now=0)
        self._assert_violation(excinfo.value, "min-ver-report")


class TestRunnerIntegration:
    def test_record_carries_oracle_extras(self):
        from repro.harness.runner import simulate
        from repro.harness.spec import RunSpec

        record = simulate(RunSpec(workload="uniform", scheme="nvoverlay",
                                  config=SMALL, scale=0.05, oracle=True))
        assert record.extra["oracle_events"] > 0
        assert record.extra["oracle_scans"] > 0

"""Tests for the experiment harness: runner, experiments, reports.

Experiment functions run at very small scale here — these tests check
structure and internal consistency, not the paper's numbers (the
benchmarks under benchmarks/ regenerate those).
"""

import pytest

from repro.core import NVOverlayParams
from repro.harness import COMPARED_SCHEMES, SCHEMES, compare, make_scheme, run_one
from repro.harness import experiments, report
from repro.harness.spec import RunSpec
from repro.sim import SystemConfig

SMALL = SystemConfig(num_cores=4, cores_per_vd=2, epoch_size_stores=500)
TINY_SCALE = 0.05


class TestRunner:
    def test_registry_covers_paper_schemes(self):
        assert set(COMPARED_SCHEMES) <= set(SCHEMES)
        assert "ideal" in SCHEMES

    def test_make_scheme_unknown(self):
        with pytest.raises(KeyError):
            make_scheme("nope")

    def test_make_scheme_nvo_params(self):
        scheme = make_scheme("nvoverlay", NVOverlayParams(num_omcs=3))
        assert scheme.params.num_omcs == 3

    def test_run_one_record_fields(self):
        record = run_one(RunSpec(workload="uniform", scheme="picl",
                                 config=SMALL, scale=TINY_SCALE))
        assert record.workload == "uniform"
        assert record.scheme == "picl"
        assert record.cycles > 0
        assert record.stores > 0
        assert record.total_nvm_bytes > 0
        assert "log" in record.nvm_bytes

    def test_run_one_nvoverlay_extras(self):
        record = run_one(RunSpec(workload="uniform", scheme="nvoverlay",
                                 config=SMALL, scale=TINY_SCALE))
        assert record.extra["master_metadata_bytes"] > 0
        assert record.extra["mapped_working_set_bytes"] > 0
        assert record.extra["rec_epoch"] > 0

    def test_compare_normalizes(self):
        records = compare(
            RunSpec(workload="uniform", scheme="ideal", config=SMALL,
                    scale=TINY_SCALE),
            ["picl", "nvoverlay"],
        )
        assert records["ideal"].extra["normalized_cycles"] == 1.0
        assert records["nvoverlay"].extra["normalized_write_bytes"] == 1.0
        assert records["picl"].extra["normalized_cycles"] > 0

    @pytest.mark.parametrize(
        "cell", [*SCHEMES, "timetravel_serve", "picl-armed", "nvoverlay-armed"]
    )
    def test_finished_machine_freed_without_the_collector(self, cell,
                                                          monkeypatch):
        """``simulate`` breaks the machine <-> scheme cycle, NVOverlay's
        walker -> hierarchy -> scheme -> walkers cycle and an armed
        cell's oracle cycles, the access path clears ``hierarchy.path``
        when the run ends, and no radix walk leaves a cycle, so a
        finished cell's hierarchy and scheme die with their last
        reference, and the cyclic collector finds nothing."""
        import gc
        import weakref

        from repro.harness import runner
        from repro.load.scenarios import DEFAULT_SERVE_POLICY, SERVE_NVO_PARAMS

        if cell == "timetravel_serve":
            spec = RunSpec(workload="load_burst", scheme="nvoverlay",
                           config=SMALL, scale=TINY_SCALE,
                           serve=DEFAULT_SERVE_POLICY,
                           nvo_params=SERVE_NVO_PARAMS)
        else:
            scheme, _, armed = cell.partition("-")
            spec = RunSpec(workload="uniform", scheme=scheme, config=SMALL,
                           scale=TINY_SCALE, oracle=bool(armed))
        build = runner.machine_for
        built = []

        def recording_build(*args, **kwargs):
            machine = build(*args, **kwargs)
            built.append(weakref.ref(machine.hierarchy))
            built.append(weakref.ref(machine.scheme))
            return machine

        monkeypatch.setattr(runner, "machine_for", recording_build)
        gc.collect()
        gc.disable()
        try:
            runner.simulate(spec)
            assert built and [ref() for ref in built] == [None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExperiments:
    def test_table1_rows_and_nvoverlay_column(self):
        rows = experiments.table1_qualitative()
        assert set(rows) == set(COMPARED_SCHEMES)
        assert all(rows["nvoverlay"][key] not in (False,) for key in (
            "min_write_amplification", "no_commit_time", "distributed_versioning",
        ))

    def test_fig11_structure(self):
        data = experiments.fig11_normalized_cycles(
            workloads=["uniform"], config=SMALL, scale=TINY_SCALE,
            schemes=["picl", "nvoverlay"],
        )
        assert set(data) == {"uniform"}
        assert set(data["uniform"]) == {"picl", "nvoverlay"}

    def test_fig12_normalized_to_nvoverlay(self):
        data = experiments.fig12_write_amplification(
            workloads=["uniform"], config=SMALL, scale=TINY_SCALE,
            schemes=["picl", "nvoverlay"],
        )
        assert data["uniform"]["nvoverlay"] == 1.0

    def test_fig13_positive_percentages(self):
        data = experiments.fig13_metadata_cost(
            workloads=["uniform"], config=SMALL, scale=TINY_SCALE
        )
        assert data["uniform"] > 0

    def test_fig14_sweep_keys(self):
        data = experiments.fig14_epoch_sensitivity(
            epoch_sizes=(200, 400), workload="uniform", config=SMALL,
            scale=TINY_SCALE,
        )
        assert set(data) == {200, 400}
        for row in data.values():
            assert set(row) == {"picl", "picl_l2", "nvoverlay"}

    def test_fig15_percentages_sum_to_100(self):
        data = experiments.fig15_evict_reasons(
            workload="uniform", config=SMALL, scale=TINY_SCALE
        )
        for variant in ("with_walker", "without_walker"):
            for scheme, reasons in data[variant].items():
                assert sum(reasons.values()) == pytest.approx(100.0, abs=0.1)

    def test_fig16_buffer_reduces_writes(self):
        data = experiments.fig16_omc_buffer(
            workload="uniform", config=SMALL, scale=0.2
        )
        assert data["with_buffer"]["nvm_data_writes"] <= (
            data["no_buffer"]["nvm_data_writes"]
        )
        assert "buffer_hit_rate" in data["with_buffer"]

    def test_fig17_series_for_both_schemes(self):
        data = experiments.fig17_bandwidth(
            workload="uniform", config=SMALL, scale=TINY_SCALE
        )
        assert set(data) == {"picl", "nvoverlay"}
        assert all(points for points in data.values())

    def test_fig17_bursty_policy_runs(self):
        data = experiments.fig17_bandwidth(
            workload="uniform", config=SMALL, scale=TINY_SCALE, bursty=True
        )
        assert set(data) == {"picl", "nvoverlay"}


class TestReport:
    def test_format_table_renders_values(self):
        text = report.format_table(
            "T", ["a", "b"], {"row1": {"a": 1.5, "b": True}, "row2": {"a": 2}}
        )
        assert "T" in text and "row1" in text and "1.50" in text and "yes" in text

    def test_format_series(self):
        text = report.format_series(
            "BW", {"s1": [(0, 10), (100, 5)], "s2": []}
        )
        assert "s1" in text and "peak=10" in text and "(no data)" in text

    def test_summarize_reduction(self):
        ratios = {"w1": {"picl": 1.5}, "w2": {"picl": 2.0}}
        text = report.summarize_reduction(ratios, "picl")
        assert "33%" in text and "50%" in text

    def test_summarize_reduction_no_data(self):
        assert "no data" in report.summarize_reduction({}, "picl")

"""Tests of the performance benchmark itself.

    python3 -m pytest perfbench -q

They check that the metric names the benchmark emits are exactly the
ones ``BENCHMARK.json`` declares, that a traced run leaves no wrapper
behind, that the output check catches wrong outputs, and run every
workload once at a tiny scale, traced and untraced.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import calibrate
import pytest
import suite
import tracing
import worker

worker.use_checkout_source()

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Scales small enough that a workload runs in a second or two.
TINY = {"uniform_64c": 0.01, "fig11_grid": 0.01, "tenant_timetravel": 0.005}


def tiny(name: str) -> suite.Workload:
    return dataclasses.replace(suite.WORKLOADS[name], scale=TINY[name])


def _declared(key: str):
    return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]


def test_benchmark_json_declares_the_suite():
    assert _declared("end_to_end") == [
        (m.name, m.unit, m.better) for m in suite.END_TO_END
    ]
    assert _declared("per_layer") == [
        (m.name, m.unit, m.better) for m in suite.PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    assert set(TINY) == set(suite.WORKLOADS)


def test_expected_digests_are_recorded_at_the_suite_scales():
    expected = json.loads((HERE / "expected.json").read_text())["workloads"]
    for name, workload in suite.WORKLOADS.items():
        assert expected[name]["scale"] == workload.scale
        assert expected[name]["seeds"], name


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_tiny_run_emits_declared_metrics_and_passes_the_check(name):
    workload = tiny(name)
    untraced = worker.measure(workload, seed=3, seconds=0, trace=False,
                              recorded=None)
    traced = worker.measure(workload, seed=3, seconds=0, trace=True,
                            recorded=untraced["digests"])
    # setup_s is timed by run.py in fresh interpreters, not by the worker.
    assert set(untraced["metrics"]) | {"setup_s"} == {
        m["name"] for m in BENCHMARK["end_to_end"]
    }
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for result in (untraced, traced):
        assert result["check"]["failed"] == 0, result["check"]
    assert traced["digests"] == untraced["digests"]
    assert all(value > 0 for value in untraced["metrics"].values())


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_timed_call_simulates_exactly_the_suite_specs(name):
    workload = tiny(name)
    repeat = worker.run_repeat(workload, seed=5, traced=False)
    assert [c["spec_key"] for c in repeat.cells] == [
        spec.cache_key() for spec in workload.specs(5)
    ]


def test_traced_run_restores_every_original():
    workload = tiny("uniform_64c")
    wrapped = tracing.Tracer().targets()
    span, owner, attr = tracing.STREAM_TARGET
    wrapped.append((span, tracing._resolve(owner), attr))
    before = {(id(o), a): o.__dict__[a] for _, o, a in wrapped}
    baseline = worker.run_repeat(workload, seed=2, traced=False).digests

    traced = worker.run_repeat(workload, seed=2, traced=True)
    assert traced.tracer.calls["hierarchy.access"] > 0

    for _, owner, attr in wrapped:
        assert owner.__dict__[attr] is before[(id(owner), attr)], attr
    assert worker.run_repeat(workload, seed=2, traced=False).digests == baseline


def test_baseline_hooks_skip_base_class_noops():
    from repro.sim.scheme import SnapshotScheme

    for _, owner, attr in tracing.Tracer().targets():
        assert owner is not SnapshotScheme
        if isinstance(owner, type) and issubclass(owner, SnapshotScheme):
            assert attr in owner.__dict__


def test_host_factor_puts_rates_at_the_nominal_speed():
    nominal = calibrate.NOMINAL_RATE
    # The median rate counts: one chunk that met a stall does not.
    assert calibrate.host_factor([nominal / 2, nominal / 2, nominal * 9]) == 2.0
    assert calibrate.chunk_rate() > 0


def _repeat(digests, ok=True):
    return worker.Repeat(1.0, [{"label": k, "digest": v} for k, v in digests.items()],
                         ok, None)


def test_output_check_counts_each_kind_of_failure():
    good = {"a": "1", "b": "2"}
    check = worker.check_outputs
    assert check([_repeat(good), _repeat(good)], ["a", "b"], good)["failed"] == 0
    # a repeat that disagrees with the first
    assert check([_repeat(good), _repeat({"a": "1", "b": "9"})], ["a", "b"],
                 None)["failed"] == 1
    # the recorded digest differs
    assert check([_repeat(good)], ["a", "b"], {"a": "1", "b": "9"})["failed"] == 1
    # a cell never ran, or the call reported failure
    assert check([_repeat({"a": "1"})], ["a", "b"], None)["failed"] == 1
    assert check([_repeat(good, ok=False)], ["a", "b"], None)["failed"] == 2


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform_64c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

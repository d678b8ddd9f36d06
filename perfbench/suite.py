"""Workloads and metric definitions of the performance benchmark.

Each workload is a list of ``RunSpec`` cells plus the one public call
that runs them (``Workload.run``, the timed call), with the seed
threaded into every spec (and, on ``tenant_timetravel``, into the
``ServePolicy``).  The calls go through the public harness: one
process, ``ParallelRunner`` with ``jobs=1``, the result cache off, the
default engine.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names,
units and directions; ``BENCHMARK.json`` at the repository root must
name exactly the same metrics (the benchmark's own tests check it).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

#: Paper workloads of the Fig-11/12 grid: a write-heavy index, an
#: L2-thrashing/LLC-fitting set, a coherence-heavy shared queue and
#: scattered reads with sparse writes.
GRID_WORKLOADS = ("btree", "kmeans", "intruder", "ssca2")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "host" (wall time of the simulator) or "simulated" (the model).
    kind: str


#: Reported from untraced runs (``--trace 0``).
END_TO_END = (
    Metric("sim_accesses_per_s", "accesses/s", "higher", "host"),
    Metric("setup_s", "s", "lower", "host"),
    Metric("peak_rss_mb", "MiB", "lower", "host"),
    Metric("nvo_cycles_x_ideal", "x", "lower", "simulated"),
    Metric("nvo_nvm_bytes_per_store", "B/store", "lower", "simulated"),
)

#: Reported from the traced run (``--trace 1``).  ``*_s`` metrics are
#: span self time in host seconds; the rest are counts or ratios of
#: the simulated run, identical between traced and untraced runs.
PER_LAYER = (
    Metric("hierarchy.access_s", "s", "lower", "host"),
    Metric("hierarchy.accesses", "count", "higher", "simulated"),
    Metric("hierarchy.l1_miss_ratio", "ratio", "lower", "simulated"),
    Metric("hierarchy.l2_miss_ratio", "ratio", "lower", "simulated"),
    Metric("hierarchy.llc_miss_ratio", "ratio", "lower", "simulated"),
    Metric("hierarchy.epoch_s", "s", "lower", "host"),
    Metric("hierarchy.epoch_advances", "count", "lower", "simulated"),
    Metric("hierarchy.walker_scan_s", "s", "lower", "host"),
    Metric("system.sched_s", "s", "lower", "host"),
    Metric("system.store_p99_cycles", "cycles", "lower", "simulated"),
    Metric("workloads.gen_s", "s", "lower", "host"),
    Metric("workloads.txns", "count", "higher", "simulated"),
    Metric("core.walker_poll_s", "s", "lower", "host"),
    Metric("core.walker_passes", "count", "higher", "simulated"),
    Metric("core.epoch_hook_s", "s", "lower", "host"),
    Metric("core.finalize_s", "s", "lower", "host"),
    Metric("core.omc_insert_s", "s", "lower", "host"),
    Metric("core.versions_inserted", "count", "lower", "simulated"),
    Metric("core.reclaim_s", "s", "lower", "host"),
    Metric("core.pages_reclaimed", "count", "higher", "simulated"),
    Metric("serve.read_s", "s", "lower", "host"),
    Metric("serve.reads", "count", "higher", "simulated"),
    Metric("serve.hit_ratio", "ratio", "higher", "simulated"),
    Metric("serve.read_p99_cycles", "cycles", "lower", "simulated"),
    Metric("baselines.hook_s", "s", "lower", "host"),
    Metric("baselines.hook_calls", "count", "lower", "simulated"),
    Metric("nvm.write_s", "s", "lower", "host"),
    Metric("nvm.read_s", "s", "lower", "host"),
    Metric("nvm.writes", "count", "lower", "simulated"),
    Metric("nvm.reads", "count", "lower", "simulated"),
    Metric("nvm.bytes", "B", "lower", "simulated"),
    Metric("nvm.backpressure_cycles", "cycles", "lower", "simulated"),
    Metric("harness.build_s", "s", "lower", "host"),
    Metric("harness.cell_s", "s", "lower", "host"),
    Metric("harness.runner_s", "s", "lower", "host"),
    Metric("harness.cells", "count", "higher", "simulated"),
    Metric("trace.overhead_ratio", "x", "lower", "host"),
)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    #: (seed, scale) -> the RunSpec cells the timed call simulates.
    build_specs: Callable[[int, float], List[Any]]
    #: (seed, scale) -> run the cells through the public API; returns the
    #: outcome flag the output check requires (``LoadResult.ok`` or True).
    run_cells: Callable[[int, float], bool]

    def specs(self, seed: int) -> List[Any]:
        return self.build_specs(seed, self.scale)

    def run(self, seed: int) -> bool:
        return self.run_cells(seed, self.scale)


def _runner():
    from repro.harness.parallel import ParallelRunner

    return ParallelRunner(jobs=1, cache=False)


def _uniform_specs(seed: int, scale: float) -> List[Any]:
    from repro.harness.spec import RunSpec
    from repro.sim import SystemConfig

    config = SystemConfig.scaled(64, batch_epoch_sync=True)
    return [
        RunSpec(workload="uniform", scheme=scheme, config=config,
                scale=scale, seed=seed)
        for scheme in ("ideal", "picl", "nvoverlay")
    ]


def _run_specs(specs_of: Callable[[int, float], List[Any]]) -> Callable[[int, float], bool]:
    def run(seed: int, scale: float) -> bool:
        _runner().run(specs_of(seed, scale))
        return True

    return run


def _grid_specs(seed: int, scale: float) -> List[Any]:
    from repro.harness.runner import COMPARED_SCHEMES, comparison_specs
    from repro.harness.spec import RunSpec

    specs: List[Any] = []
    for workload in GRID_WORKLOADS:
        template = RunSpec(workload=workload, scheme="ideal",
                           scale=scale, seed=seed)
        specs.extend(comparison_specs(template, COMPARED_SCHEMES))
    return specs


def _serve_policy(seed: int):
    from repro.load.scenarios import DEFAULT_SERVE_POLICY

    return dataclasses.replace(DEFAULT_SERVE_POLICY, seed=seed)


def _timetravel_specs(seed: int, scale: float) -> List[Any]:
    """The two cells ``run_scenario("timetravel")`` builds."""
    from repro.harness.spec import RunSpec
    from repro.load.scenarios import SERVE_NVO_PARAMS, get_scenario

    scenario = get_scenario("timetravel")
    ideal = RunSpec(workload=scenario.workload, scheme="ideal",
                    scale=scale, seed=seed, capture_latency=True)
    serve = ideal.with_changes(scheme="nvoverlay", serve=_serve_policy(seed),
                               nvo_params=SERVE_NVO_PARAMS)
    return [ideal, serve]


def _timetravel_run(seed: int, scale: float) -> bool:
    from repro.load import run_scenario

    result = run_scenario("timetravel", scale=scale, seed=seed,
                          serve=_serve_policy(seed), jobs=1, cache=False)
    return result.ok


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "uniform_64c",
            "64-core scaled machine, footprint ~4x the LLC: nearly every "
            "access walks L1->L2->LLC/directory->DRAM across 32 VDs; trace "
            "generation is trivial",
            0.125, _uniform_specs, _run_specs(_uniform_specs),
        ),
        Workload(
            "fig11_grid",
            "Fig-11/12 grid: btree, kmeans, intruder, ssca2 x (ideal + nine "
            "schemes), 40 cells; baseline hooks and per-cell harness work "
            "run at volume",
            0.05, _grid_specs, _run_specs(_grid_specs),
        ),
        Workload(
            "tenant_timetravel",
            "timetravel load scenario: 32 closed-loop snapshot readers and "
            "GC every 64 txns over burst writes, so the OMC, mapping and "
            "NVM run in the read direction too",
            0.025, _timetravel_specs, _timetravel_run,
        ),
    )
}


# --------------------------------------------------------------------------
# Simulated end-to-end metrics from one repeat's cell summaries
# --------------------------------------------------------------------------

def _by_workload(cells: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    groups: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for cell in cells:
        groups.setdefault(cell["workload"], {})[cell["scheme"]] = cell
    return groups


def simulated_metrics(cells: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """NVOverlay vs ideal over the cells of one repeat.

    ``nvo_cycles_x_ideal`` is the geometric mean over the repeat's
    workloads of nvoverlay cycles / ideal cycles (a plain ratio when
    there is one workload).  ``nvo_nvm_bytes_per_store`` is NVOverlay's
    NVM bytes summed over workloads, divided by its stores.
    """
    ratios: List[float] = []
    nvo_bytes = nvo_stores = 0
    for schemes in _by_workload(cells).values():
        nvo, ideal = schemes["nvoverlay"], schemes["ideal"]
        ratios.append(nvo["cycles"] / ideal["cycles"])
        nvo_bytes += nvo["nvm_bytes"].get("total", 0)
        nvo_stores += nvo["stores"]
    return {
        "nvo_cycles_x_ideal": math.exp(sum(map(math.log, ratios)) / len(ratios)),
        "nvo_nvm_bytes_per_store": nvo_bytes / nvo_stores,
    }

"""One workload, in its own process: set-up probe or measured repeats.

    python3 perfbench/worker.py setup   --workload NAME --seed N
    python3 perfbench/worker.py measure --workload NAME --seed N \
        --seconds S --trace 0|1

Both modes print one JSON object on stdout.  ``run.py`` starts this
script; it is not meant to be called by hand.  ``setup`` times importing
``repro`` plus building every cell's machine and workload, from a fresh
interpreter.  ``measure`` repeats the workload's timed call for about
``--seconds`` (ending at most half a round late).  With ``--trace 0``
it repeats at least twice: the first repeat warms up, and from the
second on, chunks of the host-speed reference of ``calibrate.py`` run
between the cells of each repeat.  With ``--trace 1`` every untraced
repeat is followed by a traced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import calibrate
import suite
from tracing import CellObserver, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Host reference time between cells, as a share of the repeat's time.
REFERENCE_SHARE = 0.2


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# setup
# --------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> float:
    """Import ``repro`` and build every cell without running it."""
    start = perf_counter()
    use_checkout_source()
    from repro.harness.runner import make_scheme
    from repro.sim import machine_for
    from repro.workloads import make_workload

    for spec in suite.WORKLOADS[workload].specs(seed):
        config = spec.resolved_config
        machine_for(config, scheme=make_scheme(spec.scheme, spec.nvo_params),
                    capture_latency=spec.capture_latency)
        make_workload(spec.workload, num_threads=config.num_cores,
                      scale=spec.scale, seed=spec.seed)
    return perf_counter() - start


# --------------------------------------------------------------------------
# measure
# --------------------------------------------------------------------------

@dataclass
class Repeat:
    """One timed call: wall time net of observer work, plus its cells."""

    seconds: float
    cells: List[Dict[str, Any]]
    ok: bool
    error: Optional[str]
    tracer: Optional[Tracer] = None
    #: Reference chunk rates sampled between this repeat's cells.
    host_rates: List[float] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return sum(c["l1_accesses"] + c["serve_reads"] for c in self.cells)

    @property
    def digests(self) -> Dict[str, str]:
        return {c["label"]: c["digest"] for c in self.cells}


def run_repeat(workload, seed: int, traced: bool, sample_host: bool = False) -> Repeat:
    """One timed call of ``workload``.

    With ``sample_host``, reference chunks run after each cell until
    they add up to ``REFERENCE_SHARE`` of the call's time so far (at
    least one chunk); like the cell summaries, they are not timed.
    """
    tracer = Tracer() if traced else None
    host_rates: List[float] = []
    ok, error = False, None

    def sample_between_cells() -> None:
        timed = perf_counter() - start - observer.excluded_s
        while not host_rates or sum(calibrate.CHUNK / r for r in host_rates) < (
            REFERENCE_SHARE * timed
        ):
            host_rates.append(calibrate.chunk_rate())

    observer = CellObserver(tracer, sample_between_cells if sample_host else None)
    with tracer or nullcontext(), observer:
        start = perf_counter()
        try:
            ok = workload.run(seed)
        except Exception as exc:  # a failed repeat is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    return Repeat(wall - observer.excluded_s, observer.cells, ok, error, tracer, host_rates)


def check_outputs(repeats: List[Repeat], expected_cells: List[str],
                  recorded: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Count failed cells over all repeats.

    A cell fails when the timed call raised before or while running it
    or reported not ok, when its digest differs from the first repeat's
    (repeats and traced runs must agree), or when the seed is recorded
    in ``expected.json`` and the digest differs from the recorded one.
    """
    reference = repeats[0].digests
    attempted = failed = 0
    mismatches: List[str] = []
    for index, repeat in enumerate(repeats):
        digests = repeat.digests
        for label in expected_cells:
            attempted += 1
            digest = digests.get(label)
            want = (recorded or reference).get(label)
            bad = (
                digest is None
                or digest != reference.get(label)
                or digest != want
                or not repeat.ok
            )
            if bad:
                failed += 1
                mismatches.append(f"repeat {index}: {label}")
    return {"attempted": attempted, "failed": failed, "mismatches": mismatches}


def layer_metrics(repeat: Repeat) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    tracer = repeat.tracer
    cells = repeat.cells

    def total(key: str) -> int:
        return sum(c[key] for c in cells)

    def ratio(num: str, den: str) -> float:
        d = total(den)
        return total(num) / d if d else 0.0

    s = tracer.self_s
    n = tracer.calls
    return {
        "hierarchy.access_s": s["hierarchy.access"],
        "hierarchy.accesses": n["hierarchy.access"],
        "hierarchy.l1_miss_ratio": ratio("l1_misses", "l1_accesses"),
        "hierarchy.l2_miss_ratio": ratio("l2_misses", "l2_accesses"),
        "hierarchy.llc_miss_ratio": ratio("llc_misses", "llc_accesses"),
        "hierarchy.epoch_s": s["hierarchy.epoch"],
        "hierarchy.epoch_advances": total("epoch_advances"),
        "hierarchy.walker_scan_s": s["hierarchy.walker_scan"],
        "system.sched_s": s["system.sched"],
        "system.store_p99_cycles": max(c["store_p99"] for c in cells),
        "workloads.gen_s": s["workloads.gen"],
        "workloads.txns": n["workloads.gen"],
        "core.walker_poll_s": s["core.walker_poll"],
        "core.walker_passes": total("walker_passes"),
        "core.epoch_hook_s": s["core.epoch_hook"],
        "core.finalize_s": s["core.finalize"],
        "core.omc_insert_s": s["core.omc_insert"],
        "core.versions_inserted": n["core.omc_insert"],
        "core.reclaim_s": s["core.reclaim"],
        "core.pages_reclaimed": total("pages_reclaimed"),
        "serve.read_s": s["serve.read"],
        "serve.reads": n["serve.read"],
        "serve.hit_ratio": ratio("serve_hits", "serve_reads"),
        "serve.read_p99_cycles": max(c["serve_read_p99"] for c in cells),
        "baselines.hook_s": s["baselines.hook"],
        "baselines.hook_calls": n["baselines.hook"],
        "nvm.write_s": s["nvm.write"],
        "nvm.read_s": s["nvm.read"],
        "nvm.writes": total("nvm_writes"),
        "nvm.reads": total("nvm_reads"),
        "nvm.bytes": sum(c["nvm_bytes"].get("total", 0) for c in cells),
        "nvm.backpressure_cycles": total("nvm_backpressure_cycles"),
        "harness.build_s": s["harness.build"],
        "harness.cell_s": s["harness.cell"],
        "harness.runner_s": s["harness.runner"],
        "harness.cells": n["harness.cell"],
    }


def nominal_rate(repeats: List[Repeat]) -> float:
    """Median accesses per second at the nominal host speed.

    Each repeat's rate is scaled by the host factor of the reference
    chunks sampled between its cells.  The first repeat only warms up.
    """
    scaled = [
        repeat.accesses / repeat.seconds * calibrate.host_factor(repeat.host_rates)
        for repeat in repeats[1:]
        if repeat.cells and repeat.host_rates
    ]
    return statistics.median(scaled) if scaled else 0.0


def recorded_digests(workload, seed: int) -> Optional[Dict[str, str]]:
    """The expected cell digests for ``seed``, if recorded at this scale."""
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    entry = expected["workloads"].get(workload.name, {})
    if entry.get("scale") != workload.scale:
        return None
    return entry["seeds"].get(str(seed))


def measure(workload, seed: int, seconds: float, trace: bool,
            recorded: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Repeat ``workload`` for ``seconds``; metrics plus output check."""
    expected_cells = [spec.label for spec in workload.specs(seed)]

    untraced: List[Repeat] = []
    traced: List[Repeat] = []
    deadline = perf_counter() + seconds
    peak_rss_mb = None
    while True:
        started = perf_counter()
        # The first repeat sets peak_rss_mb, before the reference exists.
        sample_host = not trace and peak_rss_mb is not None
        untraced.append(run_repeat(workload, seed, traced=False, sample_host=sample_host))
        if peak_rss_mb is None:
            # A user runs the workload once per process: the peak after
            # the first repeat, not the allocator drift of later ones.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            traced.append(run_repeat(workload, seed, traced=True))
        now = perf_counter()
        # Stop once another round would end more than half a round late.
        if now + (now - started) / 2 >= deadline and (trace or len(untraced) > 1):
            break

    check = check_outputs(untraced + traced, expected_cells, recorded)
    first = untraced[0]
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "scale": workload.scale,
        "trace": int(trace),
        "recorded_seed": recorded is not None,
        "check": check,
        "digests": first.digests,
        "ok": first.ok,
        "errors": [r.error for r in untraced + traced if r.error],
        "untraced_seconds": [r.seconds for r in untraced],
        "accesses": first.accesses,
    }
    metrics: Dict[str, float] = {}
    if not trace:
        metrics["sim_accesses_per_s"] = nominal_rate(untraced)
        out["reference_rates"] = [r.host_rates for r in untraced]
        metrics["peak_rss_mb"] = peak_rss_mb
        if len(first.cells) == len(expected_cells):
            metrics.update(suite.simulated_metrics(first.cells))
        out["extra"] = {
            "store_p99_cycles": max((c["store_p99"] for c in first.cells), default=0),
            "serve_read_p99_cycles": max(
                (c["serve_read_p99"] for c in first.cells), default=0
            ),
        }
    else:
        per_repeat = [layer_metrics(r) for r in traced if r.cells]
        for metric in suite.PER_LAYER if per_repeat else ():
            values = [m[metric.name] for m in per_repeat if metric.name in m]
            if values:
                # Simulated counts repeat exactly; host times take the median.
                host = metric.kind == "host"
                metrics[metric.name] = statistics.median(values) if host else values[0]
        metrics["trace.overhead_ratio"] = statistics.median(
            r.seconds for r in traced
        ) / statistics.median(r.seconds for r in untraced)
        out["traced_seconds"] = [r.seconds for r in traced]
        out["spans"] = traced[-1].tracer.spans if traced else []
    out["metrics"] = metrics
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result: Dict[str, Any] = {"setup_s": setup_seconds(args.workload, args.seed)}
    else:
        use_checkout_source()
        workload = suite.WORKLOADS[args.workload]
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         recorded_digests(workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

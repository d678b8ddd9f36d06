"""Collect stage: run timed scenarios and record *all* repeat samples.

Collection is deliberately dumb: build the machine, run it, read the
clock.  Everything statistical lives in :mod:`.check`; everything
persistent lives in :mod:`.store`.  The timed region includes lazy
trace generation — that is the real cost of an experiment — and
excludes machine/workload construction.

Two seams exist for deterministic tests (no bench test should depend on
wall-clock timing):

* the clock is the module-level :func:`perf_counter` binding, so a test
  can monkeypatch ``collect.perf_counter`` with a fake that advances by
  fixed deltas;
* machine/workload construction goes through :func:`_build`, so a test
  can substitute a canned machine that "runs" a prerecorded sample
  stream without touching the simulator.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import pstats
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from ..spec import RunSpec


@dataclass(frozen=True)
class BenchScenario:
    """One timed cell: a workload under a scheme at a fixed scale."""

    name: str
    workload: str
    scheme: str
    scale: float = 1.0
    seed: int = 1
    #: Scale multiplier applied in ``--quick`` mode.
    quick_scale: float = 0.2
    #: Core count; None keeps the default 16-core paper geometry, any
    #: other value runs a ``SystemConfig.scaled`` machine with batched
    #: epoch sync (the scale-out configuration).
    cores: Optional[int] = None

    def spec(self, quick: bool = False) -> RunSpec:
        scale = self.scale * (self.quick_scale if quick else 1.0)
        config = None
        if self.cores is not None:
            from ...sim import SystemConfig

            config = SystemConfig.scaled(self.cores, batch_epoch_sync=True)
        return RunSpec(workload=self.workload, scheme=self.scheme,
                       config=config, scale=scale, seed=self.seed)


#: Micro (synthetic) and macro (data-structure) scenarios, paper pairing,
#: plus 64-core scale-out cells so the trajectory tracks the scaled
#: geometry (sharded directory + batched epoch sync) PR over PR.
SCENARIOS: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario("uniform_nvoverlay", "uniform", "nvoverlay", 1.0),
        BenchScenario("uniform_picl", "uniform", "picl", 1.0),
        BenchScenario("btree_nvoverlay", "btree", "nvoverlay", 0.5),
        BenchScenario("btree_picl", "btree", "picl", 0.5),
        BenchScenario("ycsb_a_nvoverlay", "ycsb_a", "nvoverlay", 0.5),
        BenchScenario("ycsb_a_picl", "ycsb_a", "picl", 0.5),
        BenchScenario("uniform_nvoverlay_64c", "uniform", "nvoverlay", 0.5,
                      cores=64),
        BenchScenario("uniform_picl_64c", "uniform", "picl", 0.5, cores=64),
    )
}


@dataclass
class BenchResult:
    """Throughput measurement of one scenario.

    The *best* repeat supplies the headline ``ops_per_sec`` (best-of-N
    is the least-noise point estimate), but every repeat's wall time
    survives in ``all_seconds`` — the statistical detectors in
    :mod:`.check` judge the full distribution, never the scalar.
    """

    name: str
    ops: int
    seconds: float
    ops_per_sec: float
    per_op_us_p50: float
    per_op_us_p95: float
    cycles: int
    stores: int
    transactions: int
    repeats: int
    all_seconds: List[float] = field(default_factory=list)

    @property
    def samples_ops_per_sec(self) -> List[float]:
        """Per-repeat throughput samples (the distribution detectors use).

        The simulated op count is deterministic per scenario, so each
        repeat's rate is the same ``ops`` over that repeat's wall time.
        """
        samples = [self.ops / s for s in self.all_seconds if s > 0]
        return samples or [self.ops_per_sec]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "seconds": round(self.seconds, 6),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "per_op_us_p50": round(self.per_op_us_p50, 3),
            "per_op_us_p95": round(self.per_op_us_p95, 3),
            "cycles": self.cycles,
            "stores": self.stores,
            "transactions": self.transactions,
            "repeats": self.repeats,
            "all_seconds": [round(s, 6) for s in self.all_seconds],
            "samples_ops_per_sec": [
                round(s, 1) for s in self.samples_ops_per_sec
            ],
        }


def _percentile(samples: Sequence[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _build(spec: RunSpec, capture_txn_wall: bool) -> tuple:
    from ...sim import Machine
    from ...workloads import make_workload
    from ..runner import make_scheme

    config = spec.resolved_config
    oracle = None
    if spec.oracle:
        # Lazy import: only armed benches pay for the oracle package.
        from ...oracle import ProtocolOracle

        oracle = ProtocolOracle()
    machine = Machine(config, scheme=make_scheme(spec.scheme, spec.nvo_params),
                      capture_txn_wall=capture_txn_wall, oracle=oracle)
    workload = make_workload(spec.workload, num_threads=config.num_cores,
                             scale=spec.scale, seed=spec.seed)
    return machine, workload


def run_scenario(
    scenario: BenchScenario,
    quick: bool = False,
    repeats: int = 3,
    profile_frames: int = 0,
    oracle: bool = False,
) -> BenchResult:
    """Time one scenario; the best repeat is the headline number.

    Machine and workload construction are excluded from the timed
    region; lazy trace generation (which interleaves with simulation)
    is included.  With ``profile_frames`` > 0 an extra profiled run
    prints the top hot frames to stderr (never timed).  ``oracle=True``
    arms the invariant oracle inside the timed region — that measures
    the checking overhead, so armed numbers must never be committed to
    the trajectory as if they were plain throughput.  (Armed and
    unarmed cells take the same path, so the difference is the
    checking alone.)
    """
    spec = scenario.spec(quick).with_changes(oracle=oracle)
    seconds: List[float] = []
    best: Optional[BenchResult] = None
    for repeat in range(max(1, repeats)):
        machine, workload = _build(spec, capture_txn_wall=True)
        start = perf_counter()
        result = machine.run(workload)
        elapsed = perf_counter() - start
        seconds.append(elapsed)
        if best is not None and elapsed >= best.seconds:
            continue
        ops = machine.stats.get("l1.accesses")
        samples = machine.txn_wall_samples or []
        ops_per_txn = ops / max(1, result.transactions)
        best = BenchResult(
            name=scenario.name,
            ops=ops,
            seconds=elapsed,
            ops_per_sec=ops / elapsed if elapsed > 0 else 0.0,
            per_op_us_p50=_percentile(samples, 0.50) / ops_per_txn * 1e6,
            per_op_us_p95=_percentile(samples, 0.95) / ops_per_txn * 1e6,
            cycles=result.cycles,
            stores=result.stores,
            transactions=result.transactions,
            repeats=max(1, repeats),
        )
    assert best is not None
    best.all_seconds = seconds
    if profile_frames > 0:
        machine, workload = _build(spec, capture_txn_wall=False)
        profiler = cProfile.Profile()
        profiler.enable()
        machine.run(workload)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf).sort_stats("tottime")
        stats.print_stats(profile_frames)
        print(f"--- profile: {scenario.name} ---", file=sys.stderr)
        print(buf.getvalue(), file=sys.stderr)
    return best


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: int = 3,
    profile_frames: int = 0,
    oracle: bool = False,
) -> Dict[str, BenchResult]:
    """Run the named scenarios (default: all) and return their results."""
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown bench scenario(s) {unknown}; known: {known}")
    return {
        name: run_scenario(SCENARIOS[name], quick=quick, repeats=repeats,
                           profile_frames=profile_frames, oracle=oracle)
        for name in selected
    }


# --------------------------------------------------------------------------
# Host calibration
# --------------------------------------------------------------------------

#: Hash rounds of the calibration microbenchmark.  Fixed forever: the
#: value is only meaningful because every invocation runs the same work.
CALIBRATION_ROUNDS = 40


def host_calibration(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds for a fixed spin+hash microbenchmark (best of 3).

    Measured once per bench invocation and stored with each trajectory
    entry.  The detectors in :mod:`.check` divide throughput deltas by
    the calibration ratio before judging: if this number moved by
    roughly the same factor as the scenario, the machine (thermal
    state, noisy neighbours, power cap) changed — not the simulator.
    Pure-Python integer spin plus sha256 chaining, deliberately
    resembling the interpreter-bound profile of the simulator itself.
    """
    payload = b"repro-bench-calibration" * 32
    best = float("inf")
    for _ in range(3):
        digest = payload
        start = perf_counter()
        for _ in range(max(1, rounds)):
            digest = hashlib.sha256(digest).digest()
            acc = 0
            for i in range(2000):
                acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, perf_counter() - start)
    return best


# --------------------------------------------------------------------------
# Golden-parity fingerprints
# --------------------------------------------------------------------------

def _sha(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_fingerprint(spec: RunSpec) -> Dict[str, Any]:
    """Byte-exact fingerprint of one clean run.

    Covers the full ``Stats`` counter dump, every time series, the final
    working-memory image (data tokens *and* per-line OIDs), the
    hierarchy's merged memory image (caches included) and the spec's
    cache key.  Two implementations of the simulator are behaviorally
    identical on ``spec`` iff these hashes match.  The cell runs through
    ``simulate``'s own construction path (``run_cell``), so a serve spec
    is fingerprinted with its reader sessions and GC attached.
    """
    from ..runner import run_cell

    machine, _workload, _scheduler, result = run_cell(spec)
    stats = machine.stats
    counters = sorted(stats.counters().items())
    series = {
        name: stats.series(name)
        for name in sorted(stats._series)  # noqa: SLF001 - full-dump parity
    }
    mem = machine.mem
    mem_lines = sorted(
        (line,) + tuple(mem.read_line(line)) for line in mem.touched_lines()
    )
    image = sorted(machine.hierarchy.memory_image().items())
    return {
        "spec_key": spec.cache_key(),
        "cycles": result.cycles,
        "stores": result.stores,
        "transactions": result.transactions,
        "stats_sha": _sha(counters),
        "series_sha": _sha(series),
        "mem_sha": _sha(mem_lines),
        "image_sha": _sha(image),
    }

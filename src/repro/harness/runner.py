"""Experiment runner: ``RunSpec`` -> structured ``RunRecord``.

``simulate`` builds a fresh machine + scheme + workload for one
``RunSpec``, runs it to completion and distils the statistics every
figure consumes: wall-clock cycles, NVM bytes by category, evict-reason
decomposition, metadata sizes, bandwidth series.  ``run_one`` wraps it
with optional result caching; ``compare`` sweeps schemes over one
workload (optionally in parallel, via
:class:`repro.harness.parallel.ParallelRunner`), normalizing cycles to
the ideal (no-snapshot) run the way Fig. 11 does.  Both take a
:class:`RunSpec` — the PR-1 legacy six-kwarg call form is gone.

Workloads may define ``record_extras(machine) -> dict``: the runner
merges its result into ``record.extra`` after the run, which is how the
multi-tenant load workloads attribute NVM wear back to tenants without
the runner knowing anything about tenancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines import (
    HWShadowPaging,
    ICLogging,
    JASSAdaptive,
    MsyncSnapshot,
    NoSnapshot,
    PiCL,
    PiCLL2,
    SWShadowPaging,
    SWUndoLogging,
)
from ..core import NVOverlay, NVOverlayParams
from ..sim import machine_for
from ..sim.scheme import SnapshotScheme
from ..workloads import make_workload
from .spec import RunSpec

#: Scheme registry: the paper's figures in order, then the related-work
#: additions (ICL, adaptive JASS, msync Snapshot).
SCHEMES: Dict[str, Callable[[], SnapshotScheme]] = {
    "ideal": NoSnapshot,
    "sw_logging": SWUndoLogging,
    "sw_shadow": SWShadowPaging,
    "hw_shadow": HWShadowPaging,
    "picl": PiCL,
    "picl_l2": PiCLL2,
    "icl": ICLogging,
    "jass_adaptive": JASSAdaptive,
    "msync_snapshot": MsyncSnapshot,
    "nvoverlay": NVOverlay,
}

#: The compared schemes of the Fig. 11/12-style sweeps (ideal is the
#: denominator): the paper's six plus the three related-work baselines.
COMPARED_SCHEMES = [
    "sw_logging",
    "sw_shadow",
    "hw_shadow",
    "picl",
    "picl_l2",
    "icl",
    "jass_adaptive",
    "msync_snapshot",
    "nvoverlay",
]


@dataclass
class RunRecord:
    """Everything the figures need from one simulation run."""

    workload: str
    scheme: str
    cycles: int
    stores: int
    transactions: int
    nvm_bytes: Dict[str, int]
    evict_reasons: Dict[str, int]
    bandwidth_series: List[Tuple[int, int]]
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_nvm_bytes(self) -> int:
        return self.nvm_bytes.get("total", 0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; round-trips through :meth:`from_dict`."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "stores": self.stores,
            "transactions": self.transactions,
            "nvm_bytes": dict(self.nvm_bytes),
            "evict_reasons": dict(self.evict_reasons),
            "bandwidth_series": [list(point) for point in self.bandwidth_series],
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            cycles=data["cycles"],
            stores=data["stores"],
            transactions=data["transactions"],
            nvm_bytes=dict(data["nvm_bytes"]),
            evict_reasons=dict(data["evict_reasons"]),
            bandwidth_series=[tuple(point) for point in data["bandwidth_series"]],
            extra=dict(data["extra"]),
        )


def make_scheme(name: str, nvo_params: Optional[NVOverlayParams] = None) -> SnapshotScheme:
    if name not in SCHEMES:
        known = ", ".join(SCHEMES)
        raise KeyError(f"unknown scheme {name!r}; known: {known}")
    if name == "nvoverlay" and nvo_params is not None:
        return NVOverlay(nvo_params)
    return SCHEMES[name]()


def run_cell(spec: RunSpec) -> Tuple[Any, Any, Any, Any]:
    """Build ``spec``'s machine, workload and readers; run to completion.

    The one construction path behind ``simulate`` and the golden-parity
    fingerprint (``repro.harness.bench.run_fingerprint``), so a serve
    cell is fingerprinted with its reader sessions and GC attached.
    Returns ``(machine, workload, scheduler, result)``; ``scheduler`` is
    None unless ``spec.serve`` is set, and is already finalized.
    """
    config = spec.resolved_config
    scheme = make_scheme(spec.scheme, spec.nvo_params)
    oracle = None
    if spec.oracle:
        # Lazy import: the oracle package is only paid for by armed runs.
        from ..oracle import ProtocolOracle

        oracle = ProtocolOracle()
    machine = machine_for(
        config,
        scheme=scheme,
        capture_store_log=spec.capture_store_log,
        capture_latency=spec.capture_latency,
        oracle=oracle,
    )
    workload = make_workload(
        spec.workload, num_threads=config.num_cores, scale=spec.scale,
        seed=spec.seed,
    )
    scheduler = None
    if spec.serve is not None:
        # Lazy import: only serve cells pay for the reader engine.
        from ..serve import ReaderScheduler

        sampler_factory = getattr(workload, "read_sampler", None)
        sampler = (
            sampler_factory(spec.serve.seed) if sampler_factory is not None else None
        )
        scheduler = ReaderScheduler(machine, spec.serve, sampler=sampler)
    result = machine.run(workload)
    if scheduler is not None:
        scheduler.finalize(result.cycles)
    return machine, workload, scheduler, result


def simulate(spec: RunSpec) -> RunRecord:
    """Run one cell, unconditionally (no cache).  Pure in ``spec``."""
    if spec.crash_plan is not None:
        # Crash-plan cells are verification runs: crash, recover, diff
        # against the golden replay.  Lazy import — faults.verify pulls
        # the harness back in.
        from ..faults.verify import crashed_run_record

        return crashed_run_record(spec)
    machine, workload, scheduler, result = run_cell(spec)
    scheme, oracle = machine.scheme, machine.oracle
    stats = machine.stats
    # Key order, not insertion order: the fast path adds its deferred
    # counters when the run ends, so insertion order depends on the path.
    nvm_bytes = {
        key.rsplit(".", 1)[-1]: value
        for key, value in sorted(stats.counters("nvm.bytes").items())
    }
    evict_reasons = {
        key.rsplit(".", 1)[-1]: value
        for key, value in sorted(stats.counters("evict_reason").items())
    }
    record = RunRecord(
        workload=spec.workload,
        scheme=spec.scheme,
        cycles=result.cycles,
        stores=result.stores,
        transactions=result.transactions,
        nvm_bytes=nvm_bytes,
        evict_reasons=evict_reasons,
        bandwidth_series=machine.nvm.bandwidth_series(),
    )
    if isinstance(scheme, NVOverlay):
        record.extra["master_metadata_bytes"] = scheme.master_metadata_bytes()
        record.extra["mapped_working_set_bytes"] = scheme.mapped_working_set_bytes()
        record.extra["rec_epoch"] = scheme.rec_epoch()
        # End-of-run state *before* the shutdown flush: the snapshot-lag
        # pair the walk-rate ablation plots.
        record.extra["final_epoch"] = scheme.finalize_epoch
        record.extra["rec_epoch_at_finalize"] = scheme.finalize_rec_epoch
        if scheme.cluster is not None and scheme.params.use_omc_buffer:
            buffers = [o.buffer for o in scheme.cluster.omcs if o.buffer]
            hits = sum(b.stats.get("omc_buffer.hits") for b in buffers[:1])
            writes = sum(b.stats.get("omc_buffer.writes") for b in buffers[:1])
            record.extra["omc_buffer_hits"] = hits
            record.extra["omc_buffer_writes"] = writes
    record.extra["nvm_data_writes"] = stats.get("nvm.writes.data")
    record.extra["epoch_advances"] = stats.get("epoch.advances")
    record.extra["coherence_syncs"] = stats.get("epoch.coherence_syncs")
    if spec.capture_latency:
        record.extra["op_latency_p50"] = stats.percentile("op_latency", 0.50)
        record.extra["op_latency_p95"] = stats.percentile("op_latency", 0.95)
        record.extra["op_latency_p99"] = stats.percentile("op_latency", 0.99)
        record.extra["op_latency_p999"] = stats.percentile("op_latency", 0.999)
        record.extra["op_latency_max_bucket"] = stats.histogram("op_latency")[-1][0]
        record.extra["store_latency_p95"] = stats.percentile("store_latency", 0.95)
        record.extra["store_latency_p99"] = stats.percentile("store_latency", 0.99)
    if spec.capture_store_log:
        record.extra["store_log_ops"] = len(machine.hierarchy.store_log)
    if oracle is not None:
        record.extra["oracle_events"] = oracle.trace.total_events
        record.extra["oracle_scans"] = oracle.violations_checked
    extras_hook = getattr(workload, "record_extras", None)
    if extras_hook is not None:
        record.extra.update(extras_hook(machine))
    if scheduler is not None:
        record.extra.update(scheduler.record_extras())
    return record


def _require_spec(spec: Any, caller: str) -> None:
    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"{caller}() takes a RunSpec, got {type(spec).__name__}; the "
            f"legacy {caller}(workload, ...) kwargs form was removed — "
            f"build the cell explicitly: "
            f"{caller}(RunSpec(workload=..., scheme=..., scale=...))"
        )


def run_one(spec: RunSpec, *, cache=None) -> RunRecord:
    """Run one cell, consulting ``cache`` (a ``RunCache``) when given."""
    _require_spec(spec, "run_one")
    if cache is not None:
        cached = cache.get(spec)
        if cached is not None:
            cache.flush_counters()
            return cached
    record = simulate(spec)
    if cache is not None:
        cache.put(spec, record)
        cache.flush_counters()
    return record


def normalize_records(records: Dict[str, RunRecord]) -> Dict[str, RunRecord]:
    """Apply the Fig. 11/12 normalizations to one workload's records.

    ``extra["normalized_cycles"]`` is cycles relative to the ``ideal``
    run; ``extra["normalized_write_bytes"]`` is NVM bytes relative to
    NVOverlay when NVOverlay is among the schemes.
    """
    base = max(records["ideal"].cycles, 1)
    nvo_bytes = records.get("nvoverlay")
    for record in records.values():
        record.extra["normalized_cycles"] = record.cycles / base
        if nvo_bytes is not None and nvo_bytes.total_nvm_bytes > 0:
            record.extra["normalized_write_bytes"] = (
                record.total_nvm_bytes / nvo_bytes.total_nvm_bytes
            )
    return records


def comparison_specs(
    template: RunSpec, scheme_names: Optional[Sequence[str]] = None
) -> List[RunSpec]:
    """The ``ideal``-first spec list ``compare`` runs for one workload."""
    scheme_names = list(scheme_names or COMPARED_SCHEMES)
    names = ["ideal"] + [n for n in scheme_names if n != "ideal"]
    return [template.with_changes(scheme=name) for name in names]


def compare(
    template: RunSpec,
    scheme_names: Optional[List[str]] = None,
    *,
    jobs: Optional[int] = None,
    cache=False,
    runner=None,
) -> Dict[str, RunRecord]:
    """Run several schemes (plus the ideal baseline) on one workload.

    ``template`` is a :class:`RunSpec` whose ``scheme`` field is ignored
    — every compared scheme is substituted in.  ``jobs``/``cache`` (or a
    pre-built ``runner``) fan the schemes out over a process pool and/or
    the on-disk result cache; the default stays serial and uncached.
    """
    _require_spec(template, "compare")
    specs = comparison_specs(template, scheme_names)
    from .parallel import ParallelRunner  # local import: avoids a cycle

    active = runner or ParallelRunner(jobs=jobs or 1, cache=cache)
    records = dict(zip((s.scheme for s in specs), active.run(specs)))
    return normalize_records(records)

"""Cell observation and layer tracing for the performance benchmark.

``CellObserver`` runs on every repeat, traced or not.  It wraps two
module-level names, ``repro.harness.runner.machine_for`` (to keep a
handle on the machine ``simulate()`` builds) and
``repro.harness.parallel.simulate`` (to summarize each finished cell
from that machine).  The summary work is timed and reported as
``excluded_s`` so callers can take it out of the timed region.

``Tracer`` is the traced run: it patches the public entry points of
each layer (classes are patched at class level, which also covers
methods bound at construction time and ``__slots__`` classes) with
wrappers that record span self time and call counts.  Only methods
the untraced run already calls are wrapped, never a base-class no-op
hook whose identity ``Machine.run`` or ``Hierarchy`` checks, so the
traced run takes the same code paths.  Fine-grained spans are
aggregated in memory; coarse spans (runner, cell, build, scheduler)
are kept as ``(name, start, end, depth)`` records.  Every original is
restored on exit.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, "module" or "module:Class", attribute).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.runner", "repro.harness.parallel:ParallelRunner", "run"),
    ("harness.cell", "repro.harness.parallel", "simulate"),
    ("harness.build", "repro.harness.runner", "machine_for"),
    ("harness.build", "repro.harness.runner", "make_workload"),
    ("system.sched", "repro.sim.system:Machine", "run"),
    ("hierarchy.access", "repro.sim.hierarchy:Hierarchy", "execute_access"),
    ("hierarchy.epoch", "repro.sim.hierarchy:Hierarchy", "advance_epoch"),
    ("hierarchy.epoch", "repro.sim.hierarchy:Hierarchy", "flush_epoch_sync"),
    ("hierarchy.walker_scan", "repro.sim.hierarchy:Hierarchy", "walker_scan_set"),
    ("core.walker_poll", "repro.core.tag_walker:TagWalker", "poll"),
    ("core.epoch_hook", "repro.core.nvoverlay:NVOverlay", "on_epoch_advance"),
    ("core.finalize", "repro.core.nvoverlay:NVOverlay", "finalize"),
    ("core.omc_insert", "repro.core.omc:OMCCluster", "insert_version"),
    ("core.reclaim", "repro.core.omc:OMCCluster", "reclaim"),
    ("serve.read", "repro.serve.session:SnapshotSession", "read"),
    ("nvm.write", "repro.sim.nvm:NVM", "write_sync"),
    ("nvm.write", "repro.sim.nvm:NVM", "write_background"),
    ("nvm.read", "repro.sim.nvm:NVM", "read"),
)

#: The workload layer: each ``next()`` on a thread's stream is a span.
STREAM_TARGET = ("workloads.gen", "repro.sim.system", "access_stream")

#: Scheme methods the baselines override; wrapped only where a class in
#: ``repro.baselines`` defines them itself.
BASELINE_HOOKS = (
    "on_store", "store_hook", "on_transaction_boundary", "commit_epoch",
    "finalize", "poll", "on_l2_dirty_eviction", "on_llc_dirty_eviction",
)

#: Spans recorded individually (the rest are only aggregated).
COARSE = frozenset(
    {"harness.runner", "harness.cell", "harness.build", "system.sched"}
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> Any:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, value)
        return original

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------

class Tracer:
    """Patch each layer's entry points; aggregate span self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, int]] = []
        #: Child-time accumulators, one per open span.
        self._stack: List[float] = []
        self._patches = _Patches()

    # -- span bookkeeping --------------------------------------------------
    def add_child_time(self, seconds: float) -> None:
        """Charge ``seconds`` to no layer (observer work inside a span)."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        coarse = name in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                self_s[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
                if coarse:
                    spans.append((name, start, end, len(stack)))

        return wrapper

    def _wrap_stream(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def timed(inner):
            pull = inner.__next__
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = pull()
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - start
                    self_s[name] += duration - stack.pop()
                    if stack:
                        stack[-1] += duration
                calls[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(workload, thread_id):
            return timed(fn(workload, thread_id))

        return wrapper

    # -- install / restore -------------------------------------------------
    def targets(self) -> List[Tuple[str, Any, str]]:
        """Every (span name, owner object, attribute) this tracer wraps."""
        found = [(span, _resolve(owner), attr) for span, owner, attr in TARGETS]
        for klass in _baseline_classes():
            for hook in BASELINE_HOOKS:
                if hook in klass.__dict__:
                    found.append(("baselines.hook", klass, hook))
        return found

    def __enter__(self) -> "Tracer":
        try:
            for span, owner, attr in self.targets():
                self._patches.set(owner, attr, self._wrap(span, owner.__dict__[attr]))
            span, owner, attr = STREAM_TARGET
            module = _resolve(owner)
            self._patches.set(
                module, attr, self._wrap_stream(span, module.__dict__[attr])
            )
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()


def _baseline_classes() -> List[type]:
    """Classes under ``repro.baselines`` in the registered schemes' MROs."""
    from repro.harness.runner import SCHEMES

    classes = {
        klass
        for factory in SCHEMES.values()
        for klass in getattr(factory, "__mro__", ())
        if klass.__module__.startswith("repro.baselines")
    }
    return sorted(classes, key=lambda k: (k.__module__, k.__qualname__))


# --------------------------------------------------------------------------
# Cell observer
# --------------------------------------------------------------------------

def _summarize(spec: Any, record: Any, machine: Any) -> Dict[str, Any]:
    """Output fingerprint plus layer counts of one finished cell."""
    stats = machine.stats
    extra = record.extra
    image = sorted(machine.hierarchy.memory_image().items())
    llc = stats.counters("llc.")  # per-slice llc.<n>.hits / llc.<n>.misses
    llc_hits = sum(v for k, v in llc.items() if k.endswith(".hits"))
    llc_misses = sum(v for k, v in llc.items() if k.endswith(".misses"))
    outputs = {
        "cycles": record.cycles,
        "stores": record.stores,
        "transactions": record.transactions,
        "nvm_bytes": sorted(record.nvm_bytes.items()),
        "image_sha": _sha(image),
        "serve_reads": int(extra.get("serve_reads", 0)),
        "serve_hits": int(extra.get("serve_read_hits", 0)),
    }
    return {
        "label": spec.label,
        "spec_key": spec.cache_key(),
        "workload": spec.workload,
        "scheme": spec.scheme,
        "digest": _sha(sorted(outputs.items())),
        "cycles": record.cycles,
        "stores": record.stores,
        "nvm_bytes": dict(record.nvm_bytes),
        "serve_reads": outputs["serve_reads"],
        "serve_hits": outputs["serve_hits"],
        "l1_accesses": stats.get("l1.accesses"),
        "l1_misses": stats.get("l1.load_misses") + stats.get("l1.store_misses"),
        "l2_accesses": stats.get("l2.accesses"),
        "l2_misses": stats.get("l2.misses"),
        "llc_accesses": llc_hits + llc_misses,
        "llc_misses": llc_misses,
        "epoch_advances": (
            stats.get("epoch.advances") if machine.hierarchy.versioned else 0
        ),
        "walker_passes": stats.get("walker.passes"),
        "nvm_writes": stats.total("nvm.writes."),
        "nvm_reads": stats.get("nvm.reads"),
        "nvm_backpressure_cycles": stats.get("nvm.backpressure_cycles"),
        "pages_reclaimed": int(extra.get("serve_pages_reclaimed", 0)),
        "serve_read_p99": int(extra.get("serve_read_p99", 0)),
        "store_p99": int(extra.get("store_latency_p99", 0)),
    }


class CellObserver:
    """Summarize every cell ``simulate()`` finishes while installed."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 after_cell: Optional[Callable[[], None]] = None) -> None:
        self.tracer = tracer
        #: Called after each cell is summarized; its time is excluded too.
        self.after_cell = after_cell
        self.cells: List[Dict[str, Any]] = []
        #: Seconds spent summarizing cells (not part of any layer).
        self.excluded_s = 0.0
        self._machine = None
        self._patches = _Patches()

    def __enter__(self) -> "CellObserver":
        from repro.harness import parallel, runner

        def capture(*args, **kwargs):
            self._machine = build(*args, **kwargs)
            return self._machine

        def observed(spec):
            record = simulate(spec)
            start = perf_counter()
            machine, self._machine = self._machine, None
            self.cells.append(_summarize(spec, record, machine))
            if self.after_cell is not None:
                self.after_cell()
            spent = perf_counter() - start
            self.excluded_s += spent
            if self.tracer is not None:
                self.tracer.add_child_time(spent)
            return record

        build = self._patches.set(runner, "machine_for", capture)
        simulate = self._patches.set(parallel, "simulate", observed)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()
        self._machine = None

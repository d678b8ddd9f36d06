"""Differential execution: the same workload under every scheme.

Snapshotting schemes must not change what a program computes — only
when and where bytes become persistent.  ``run_differential`` executes
one workload under several schemes and cross-checks them:

The workload is materialized ONCE into a frozen per-thread trace
(``repro.workloads.freeze_workload``) and that identical trace replays
under every scheme.  This matters: the bundled index workloads generate
accesses lazily against a shared structure, so a live workload's
addresses would depend on the machine's (scheme-dependent) interleaving
and nothing would be comparable.  A frozen trace is scheme-independent
by construction.

* **Per scheme**: the final hierarchy memory image equals the replay of
  that run's own committed store log (the golden image), i.e. no scheme
  loses or corrupts a store.
* **Across schemes**: the committed store *behavior* matches.  Store
  tokens are values of a global counter, so their raw values are
  interleaving-dependent and never comparable between runs; what is
  scheme-independent is each core's access stream.  We therefore compare
  per-line writer histograms (which cores wrote a line, how often) and,
  for lines only ever written by a single core, the identity of the
  final writer as a ``(core, per-core store index)`` pair.  Lines
  contested by several cores may legitimately resolve differently
  (coherence order is timing-dependent and timing is the thing schemes
  *do* change); they are counted and reported, not compared.
* **NVOverlay snapshots**: for sampled epochs ``E`` up to the
  recoverable epoch, the reconstructed snapshot image at ``E`` equals
  the store-log replay at ``E`` — the multi-snapshot store agrees with
  what coherence committed, epoch by epoch.

Any violation raises :class:`DifferentialMismatch`.  The heavy lifting
is in :func:`compare_outcomes`, a pure function over per-run summaries,
so the mismatch detection itself is unit-testable without simulating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.snapshot import SnapshotReader, golden_image

#: Default scheme set: the contribution, the closest baseline, and the
#: no-snapshot machine.
DEFAULT_SCHEMES = ("nvoverlay", "picl", "ideal")


class DifferentialMismatch(AssertionError):
    """Two schemes (or a scheme and its own log) disagree on state."""

    def __init__(self, mismatches: List[str]) -> None:
        self.mismatches = mismatches
        summary = "\n".join(f"  - {m}" for m in mismatches)
        super().__init__(
            f"differential check failed ({len(mismatches)} mismatch(es)):\n"
            f"{summary}"
        )


@dataclass
class SchemeOutcome:
    """Scheme-independent summary of one run's committed stores."""

    scheme: str
    total_stores: int
    #: line -> Counter(core -> number of committed stores).
    writer_counts: Dict[int, Counter]
    #: line -> (core, per-core store index) of the final committed store.
    final_writer: Dict[int, Tuple[int, int]]
    #: Lines written by more than one core (coherence-order dependent).
    contested: frozenset = field(default_factory=frozenset)


def summarize_log(
    scheme: str, store_log: Sequence[Tuple[int, int, int, int, int]]
) -> SchemeOutcome:
    """Reduce a (line, epoch, token, vd, core) store log to its
    scheme-independent identities."""
    per_core_index: Counter = Counter()
    writer_counts: Dict[int, Counter] = {}
    final_writer: Dict[int, Tuple[int, int]] = {}
    for line, _epoch, _token, _vd, core in store_log:
        index = per_core_index[core]
        per_core_index[core] = index + 1
        counts = writer_counts.get(line)
        if counts is None:
            counts = writer_counts[line] = Counter()
        counts[core] += 1
        final_writer[line] = (core, index)
    contested = frozenset(
        line for line, counts in writer_counts.items() if len(counts) > 1
    )
    return SchemeOutcome(
        scheme=scheme,
        total_stores=len(store_log),
        writer_counts=writer_counts,
        final_writer=final_writer,
        contested=contested,
    )


def compare_outcomes(outcomes: Sequence[SchemeOutcome]) -> List[str]:
    """Cross-check outcomes pairwise against the first; returns mismatches.

    Pure over the summaries — no simulation.  An empty list means the
    schemes agree on everything that is scheme-independent.
    """
    mismatches: List[str] = []
    if len(outcomes) < 2:
        return mismatches
    reference = outcomes[0]
    for other in outcomes[1:]:
        pair = f"{reference.scheme} vs {other.scheme}"
        if other.total_stores != reference.total_stores:
            mismatches.append(
                f"{pair}: committed {other.total_stores} stores, expected "
                f"{reference.total_stores}"
            )
        lines_a = set(reference.writer_counts)
        lines_b = set(other.writer_counts)
        for line in sorted(lines_a ^ lines_b):
            where = other.scheme if line in lines_b else reference.scheme
            mismatches.append(
                f"{pair}: line {line:#x} written only under {where}"
            )
        contested = reference.contested | other.contested
        for line in sorted(lines_a & lines_b):
            if reference.writer_counts[line] != other.writer_counts[line]:
                mismatches.append(
                    f"{pair}: line {line:#x} writer histogram "
                    f"{dict(other.writer_counts[line])} != "
                    f"{dict(reference.writer_counts[line])}"
                )
            elif line not in contested and (
                reference.final_writer[line] != other.final_writer[line]
            ):
                mismatches.append(
                    f"{pair}: line {line:#x} final write is "
                    f"{other.final_writer[line]} (core, nth store), "
                    f"expected {reference.final_writer[line]}"
                )
    return mismatches


def _self_check(scheme: str, store_log, image: Dict[int, int]) -> List[str]:
    """A run's final memory image must equal its own store-log replay."""
    golden = golden_image(store_log, float("inf"))
    mismatches = []
    for line, token in golden.items():
        if image.get(line) != token:
            mismatches.append(
                f"{scheme}: final image holds {image.get(line)} at line "
                f"{line:#x}, store log committed {token}"
            )
            if len(mismatches) >= 8:
                mismatches.append(f"{scheme}: ... (truncated)")
                break
    return mismatches


def _sample_epochs(candidates: List[int], samples: int) -> List[int]:
    if len(candidates) <= samples:
        return candidates
    step = (len(candidates) - 1) / (samples - 1)
    picked = {candidates[round(i * step)] for i in range(samples)}
    return sorted(picked)


def _check_snapshots(
    scheme_obj, store_log, samples: int
) -> Tuple[List[str], List[int]]:
    """NVOverlay only: snapshot image at E == store-log replay at E."""
    cluster = scheme_obj.cluster
    reader = SnapshotReader(cluster)
    rec = cluster.rec_epoch
    retained = sorted(
        {e for omc in cluster.omcs for e in omc.tables if e <= rec}
    )
    epochs = _sample_epochs(retained, max(samples - 1, 1))
    if rec and rec not in epochs:
        epochs.append(rec)
    mismatches: List[str] = []
    for epoch in epochs:
        snapshot = reader.image_at(epoch)
        golden = golden_image(store_log, epoch)
        if snapshot != golden:
            missing = len(set(golden) - set(snapshot))
            extra = len(set(snapshot) - set(golden))
            wrong = sum(
                1 for line in set(golden) & set(snapshot)
                if golden[line] != snapshot[line]
            )
            mismatches.append(
                f"nvoverlay: snapshot at epoch {epoch} != store-log replay "
                f"({missing} lines missing, {extra} extra, {wrong} wrong)"
            )
    return mismatches, epochs


def run_differential(
    workload: str,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    config=None,
    scale: float = 0.1,
    seed: int = 1,
    snapshot_samples: int = 4,
    oracle: bool = False,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``workload`` under each scheme and cross-check the results.

    Returns a summary dict (stores, lines, contested lines, snapshot
    epochs checked per scheme); raises :class:`DifferentialMismatch` on
    any disagreement.  ``oracle=True`` additionally arms the invariant
    oracle on every run; with ``trace_dir`` also set, each armed run's
    protocol events are exported to
    ``<trace_dir>/<workload>_<scheme>.jsonl`` — even when the run dies
    on a violation, so the event window survives for post-mortems.
    """
    # Lazy imports: the harness and sim layers are heavyweight, and the
    # harness itself imports this package lazily.
    from ..harness.runner import make_scheme
    from ..sim import Machine, SystemConfig
    from ..workloads import freeze_workload, make_workload
    from .invariants import ProtocolOracle

    config = config or SystemConfig()
    frozen = freeze_workload(
        make_workload(
            workload, num_threads=config.num_cores, scale=scale, seed=seed
        )
    )
    outcomes: List[SchemeOutcome] = []
    mismatches: List[str] = []
    snapshots_checked: Dict[str, List[int]] = {}
    for name in schemes:
        scheme_obj = make_scheme(name)
        run_oracle = ProtocolOracle() if oracle or trace_dir else None
        machine = Machine(
            config,
            scheme=scheme_obj,
            capture_store_log=True,
            oracle=run_oracle,
        )
        try:
            machine.run(frozen)
        finally:
            if trace_dir is not None and run_oracle is not None:
                from pathlib import Path

                out = Path(trace_dir)
                out.mkdir(parents=True, exist_ok=True)
                run_oracle.trace.export_jsonl(
                    out / f"{workload}_{name}.jsonl"
                )
        store_log = machine.hierarchy.store_log or []
        mismatches.extend(
            _self_check(name, store_log, machine.hierarchy.memory_image())
        )
        if name == "nvoverlay":
            snap_mismatches, epochs = _check_snapshots(
                scheme_obj, store_log, snapshot_samples
            )
            mismatches.extend(snap_mismatches)
            snapshots_checked[name] = epochs
        outcomes.append(summarize_log(name, store_log))
    mismatches.extend(compare_outcomes(outcomes))
    if mismatches:
        raise DifferentialMismatch(mismatches)
    reference = outcomes[0]
    return {
        "workload": workload,
        "schemes": list(schemes),
        "stores": reference.total_stores,
        "lines": len(reference.writer_counts),
        "contested_lines": len(
            frozenset().union(*(o.contested for o in outcomes))
        ),
        "snapshots_checked": snapshots_checked,
    }

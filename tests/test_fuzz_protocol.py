"""Seeded randomized protocol fuzzer across scaled geometries.

Each seed materializes a small random multi-threaded trace, freezes it
(so every scheme replays byte-identical per-thread streams), and runs it
oracle-armed under nvoverlay and ideal on one of several geometries —
4 to 64 cores, uneven cores-per-VD, multi-socket.  A seed passes when:

* the invariant oracle raises no ``InvariantViolation`` on either run,
* the structural hierarchy validator is clean (including the sharded
  directory's address-interleave agreement),
* each run's final memory image equals its own store-log replay, and
* nvoverlay and ideal agree on every scheme-independent identity
  (store counts, per-line writer histograms, uncontested final writers).

Every run takes ``Machine.run``'s one access path (``repro.sim.fastpath``).
A second sweep replays the seeds of every geometry, plus a 64-core
single-socket machine and four extension machines (MOESI, snoop
transport, a directory small enough to back-invalidate, NVM working
memory), oracle-armed on the access path and on the frozen reference
model (``fastpath.build`` patched to ``tests/reference_hierarchy.py``'s
``build``), and the two must be bit-identical.

The seed budget defaults to ~200 spread evenly across the geometries;
set ``REPRO_FUZZ_SEEDS`` to deepen it (e.g. ``REPRO_FUZZ_SEEDS=2000``
for a nightly soak) or to shrink it for a smoke run.
"""

import os
import random
from typing import List

import pytest

from repro.core.snapshot import golden_image
from repro.harness.runner import SCHEMES, make_scheme
from repro.oracle.differential import compare_outcomes, summarize_log
from repro.oracle.invariants import ProtocolOracle
from repro.sim import Machine, SystemConfig, fastpath
from repro.sim.trace import load, store
from repro.sim.validate import validate_hierarchy
from repro.workloads import Workload, freeze_workload

from tests import reference_hierarchy

#: (num_cores, cores_per_vd, num_sockets, batch_epoch_sync) — deliberately
#: off the paper's 16-core/2-per-VD point: single-core VDs, 8-core VDs,
#: 2- and 4-socket meshes, with and without batched epoch sync.
GEOMETRIES = [
    (4, 2, 1, False),
    (8, 4, 2, False),
    (16, 1, 1, True),
    (32, 8, 2, True),
    (64, 2, 4, True),
]

TOTAL_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "200"))


def _seeds_for(geometry_index: int) -> List[int]:
    """Stripe the seed budget across geometries so REPRO_FUZZ_SEEDS
    deepens every geometry evenly instead of just the first."""
    return list(range(geometry_index, TOTAL_SEEDS, len(GEOMETRIES)))


class FuzzWorkload(Workload):
    """A tiny random trace whose shape itself is fuzzed per seed.

    Beyond the usual random private/shared mix, each thread draws its
    footprint, sharing fraction, transaction count, and transaction
    length from the seed — so epoch boundaries, directory pressure, and
    cross-VD sharing all vary run to run.
    """

    def __init__(self, num_threads: int, seed: int) -> None:
        super().__init__(num_threads)
        self.seed = seed

    def access_batches(self, thread_id: int):
        rng = random.Random((self.seed << 8) ^ thread_id)
        footprint = rng.choice([1 << 10, 1 << 12, 1 << 14])
        shared_fraction = rng.choice([0.1, 0.3, 0.6])
        private = 0x1000_0000 * (thread_id + 1)
        shared = 0x9000_0000
        for _ in range(rng.randrange(3, 9)):
            ops = []
            for _ in range(rng.randrange(1, 7)):
                base = shared if rng.random() < shared_fraction else private
                addr = base + rng.randrange(0, footprint, 8)
                ops.append(store(addr) if rng.random() < 0.5 else load(addr))
            yield ops


def _image_mismatches(store_log, image) -> int:
    """Lines whose final image byte disagrees with the log replay."""
    golden = golden_image(store_log, float("inf"))
    return sum(1 for line, token in golden.items() if image.get(line) != token)


@pytest.mark.parametrize(
    "geometry_index", range(len(GEOMETRIES)),
    ids=[f"{c}c-{v}pv-{s}s{'-batched' if b else ''}"
         for c, v, s, b in GEOMETRIES],
)
def test_fuzz_geometry(geometry_index):
    cores, cores_per_vd, sockets, batch = GEOMETRIES[geometry_index]
    config = SystemConfig.scaled(
        cores,
        cores_per_vd=cores_per_vd,
        num_sockets=sockets,
        batch_epoch_sync=batch,
    )
    for seed in _seeds_for(geometry_index):
        frozen = freeze_workload(FuzzWorkload(cores, seed))
        outcomes = []
        for name in ("nvoverlay", "ideal"):
            machine = Machine(
                config,
                scheme=make_scheme(name),
                capture_store_log=True,
                oracle=ProtocolOracle(),
            )
            # Any InvariantViolation raises out of run() and fails the
            # seed with the oracle's own diagnostic.
            machine.run(frozen)
            validate_hierarchy(machine.hierarchy)
            store_log = machine.hierarchy.store_log or []
            bad = _image_mismatches(store_log, machine.hierarchy.memory_image())
            assert bad == 0, (
                f"seed {seed} ({cores}c): {name} final image disagrees with "
                f"its own store log on {bad} line(s)"
            )
            outcomes.append(summarize_log(name, store_log))
        mismatches = compare_outcomes(outcomes)
        assert not mismatches, (
            f"seed {seed} ({cores}c): nvoverlay vs ideal disagree:\n"
            + "\n".join(f"  - {m}" for m in mismatches)
        )
        assert outcomes[0].total_stores > 0, (
            f"seed {seed} ({cores}c): trace committed no stores — fuzzer "
            f"is generating degenerate workloads"
        )


#: The parity leg: (seed stripe, geometry, schemes, config overrides).
#: Every fuzz geometry keeps its own seed stripe; the single-socket ones
#: replay every registered scheme, the multi-socket meshes the trio
#: perfbench's 64-core workload runs.  A 64-core single-socket machine
#: and the four extension machines borrow stripes: MOESI and snoop on
#: the 16 single-core VDs (the most inter-VD traffic), a directory of 8
#: entries per slice (back-invalidating on nearly every fill) and NVM
#: working memory on the 8-core two-socket mesh.
TRIO = ("ideal", "picl", "nvoverlay")
FAST_PATH_GEOMETRIES = [
    (0, GEOMETRIES[0], tuple(SCHEMES), {}),
    (1, GEOMETRIES[1], TRIO, {}),
    (2, GEOMETRIES[2], tuple(SCHEMES), {}),
    (3, GEOMETRIES[3], TRIO, {}),
    (4, GEOMETRIES[4], TRIO, {}),
    (4, (64, 2, 1, True), TRIO, {}),
    (2, GEOMETRIES[2], TRIO + ("picl_l2",), {"coherence_protocol": "moesi"}),
    (2, GEOMETRIES[2], TRIO, {"coherence_transport": "snoop"}),
    (1, GEOMETRIES[1], TRIO, {"directory_entries_per_slice": 8}),
    (1, GEOMETRIES[1], TRIO, {"working_memory": "nvm"}),
]


#: How an override shows in a parity test id.
OVERRIDE_IDS = {
    "coherence_protocol": "{}",
    "coherence_transport": "{}",
    "directory_entries_per_slice": "dir{}",
    "working_memory": "{}-working-memory",
}


def _parity_id(geometry, overrides):
    cores, cores_per_vd, sockets, batch = geometry
    name = f"{cores}c-{cores_per_vd}pv-{sockets}s{'-batched' if batch else ''}"
    for key, value in overrides.items():
        name += "-" + OVERRIDE_IDS[key].format(value)
    return name


@pytest.mark.parametrize(
    "stripe,geometry,schemes,overrides", FAST_PATH_GEOMETRIES,
    ids=[_parity_id(g, o) for _, g, _, o in FAST_PATH_GEOMETRIES],
)
def test_fuzz_fast_path_parity(stripe, geometry, schemes, overrides):
    """Every fuzz seed must be bit-identical on the access path and the
    reference model under every scheme: same cycles, per-thread cycles,
    counters, memory image, store log, NVM bandwidth series and oracle
    event counts, with a clean structural check of the access path's
    hierarchy.  Both legs run oracle-armed."""
    cores, cores_per_vd, sockets, batch = geometry
    config = SystemConfig.scaled(
        cores,
        cores_per_vd=cores_per_vd,
        num_sockets=sockets,
        batch_epoch_sync=batch,
        **overrides,
    )
    for seed in _seeds_for(stripe):
        frozen = freeze_workload(FuzzWorkload(cores, seed))
        for name in schemes:
            fast = Machine(config, scheme=make_scheme(name),
                           capture_store_log=True, oracle=ProtocolOracle())
            fast_result = fast.run(frozen)
            validate_hierarchy(fast.hierarchy)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fastpath, "build", reference_hierarchy.build)
                reference = Machine(config, scheme=make_scheme(name),
                                    capture_store_log=True,
                                    oracle=ProtocolOracle())
                reference_result = reference.run(frozen)
            assert isinstance(reference.hierarchy,
                              reference_hierarchy.ReferenceHierarchy)
            mismatch = {
                field: (getattr(reference_result, field),
                        getattr(fast_result, field))
                for field in ("cycles", "stores", "transactions",
                              "per_thread_cycles")
                if getattr(reference_result, field)
                != getattr(fast_result, field)
            }
            if reference.stats.counters() != fast.stats.counters():
                mismatch["counters"] = "diverged"
            if reference.hierarchy.memory_image() != fast.hierarchy.memory_image():
                mismatch["memory_image"] = "diverged"
            if reference.hierarchy.store_log != fast.hierarchy.store_log:
                mismatch["store_log"] = "diverged"
            if reference.nvm.bandwidth_series() != fast.nvm.bandwidth_series():
                mismatch["bandwidth_series"] = "diverged"
            if reference.oracle.summary() != fast.oracle.summary():
                mismatch["oracle"] = "diverged"
            assert not mismatch, (
                f"seed {seed} ({cores}c {overrides}): {name} diverged on "
                f"the access path from the reference model: {mismatch}"
            )


def test_parity_sweep_covers_every_geometry_and_extension():
    """The parity leg runs every fuzz geometry, and each extension
    machine at least once."""
    swept = [(g, o) for _, g, _, o in FAST_PATH_GEOMETRIES]
    assert all((g, {}) in swept for g in GEOMETRIES)
    overridden = {key: value for _, o in swept for key, value in o.items()}
    assert overridden == {
        "coherence_protocol": "moesi",
        "coherence_transport": "snoop",
        "directory_entries_per_slice": 8,
        "working_memory": "nvm",
    }


#: The related-work additions, fuzzed against ideal on two geometries
#: (the 4-core floor and the 16-core single-core-VD batched point).
NEW_SCHEMES = ("icl", "jass_adaptive", "msync_snapshot")
NEW_SCHEME_GEOMETRIES = (0, 2)


@pytest.mark.parametrize(
    "geometry_index", NEW_SCHEME_GEOMETRIES,
    ids=[f"{GEOMETRIES[i][0]}c-{GEOMETRIES[i][1]}pv"
         for i in NEW_SCHEME_GEOMETRIES],
)
def test_fuzz_new_schemes_vs_ideal(geometry_index):
    """Seeded oracle-armed sweep of icl/jass_adaptive/msync_snapshot.

    Every seed replays one frozen trace under ideal plus all three
    related-work schemes with the invariant oracle armed; each run's
    final image must equal its own store-log replay, and every scheme
    must agree with ideal on store counts, per-line writer histograms
    and uncontested final writers.  Shares the ``REPRO_FUZZ_SEEDS``
    striping so a deeper budget deepens this sweep too.
    """
    cores, cores_per_vd, sockets, batch = GEOMETRIES[geometry_index]
    config = SystemConfig.scaled(
        cores,
        cores_per_vd=cores_per_vd,
        num_sockets=sockets,
        batch_epoch_sync=batch,
    )
    for seed in _seeds_for(geometry_index):
        frozen = freeze_workload(FuzzWorkload(cores, seed))
        outcomes = []
        for name in ("ideal",) + NEW_SCHEMES:
            machine = Machine(
                config,
                scheme=make_scheme(name),
                capture_store_log=True,
                oracle=ProtocolOracle(),
            )
            machine.run(frozen)
            validate_hierarchy(machine.hierarchy)
            store_log = machine.hierarchy.store_log or []
            bad = _image_mismatches(store_log, machine.hierarchy.memory_image())
            assert bad == 0, (
                f"seed {seed} ({cores}c): {name} final image disagrees with "
                f"its own store log on {bad} line(s)"
            )
            outcomes.append(summarize_log(name, store_log))
        mismatches = compare_outcomes(outcomes)
        assert not mismatches, (
            f"seed {seed} ({cores}c): new schemes vs ideal disagree:\n"
            + "\n".join(f"  - {m}" for m in mismatches)
        )


def test_seed_budget_covers_every_geometry():
    """The striping must exhaust the budget with no seed run twice."""
    plans = [_seeds_for(i) for i in range(len(GEOMETRIES))]
    flat = [seed for plan in plans for seed in plan]
    assert len(flat) == len(set(flat)) == TOTAL_SEEDS
    assert all(plan for plan in plans)


def test_geometries_span_scaled_space():
    """The fuzz matrix itself must stay interesting: ≥4 distinct core
    counts up to 64, uneven VDs, multi-socket, and batched sync."""
    cores = {g[0] for g in GEOMETRIES}
    assert len(cores) >= 4 and max(cores) >= 64
    assert {g[1] for g in GEOMETRIES} != {2}
    assert any(g[2] > 1 for g in GEOMETRIES)
    assert any(g[3] for g in GEOMETRIES)

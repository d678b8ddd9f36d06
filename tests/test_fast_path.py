"""The access path of ``Machine.run`` (``repro.sim.fastpath``).

``fastpath.build`` is the one access path of every run.  Determinism is
the whole contract: a run must equal the frozen reference model
(``tests/reference_hierarchy.py``) bit for bit.  Every parity test here
reaches the model by patching ``fastpath.build`` with the model's
``build``, and runs both legs with the protocol oracle armed, so the
oracle checks the access path's invariants too.  A recording
``fastpath.build`` shows that every machine — each scheme, the MOESI,
snoop, multi-socket, finite-directory and NVM-working-memory machines,
armed with an oracle or fault injector or not — runs the built
``access`` for every access, and which runs fuse the walker poll.  The
tests cover what the path carries along: the baselines' store, eviction
and ``poll`` hooks, the oracle's and the injector's events, crash
verification, the inter-VD coherence corners, ``max_transactions``,
lazily generated workloads, latency histograms, snapshot serving,
resumed machines and tag-walker scans.  The heavyweight sweeps are the
golden-parity legs (``test_golden_parity.py``) and the fuzzer's
access-path-vs-reference leg over every scheme and geometry
(``test_fuzz_protocol.py``).
"""

import json

import pytest

from repro.baselines import ICLogging
from repro.core import NVOverlay, NVOverlayParams
from repro.faults import ANY_EVENT, CRASH_EVENTS, CrashPlan, FaultInjector, verify_crash
from repro.harness import runner
from repro.harness.runner import SCHEMES, make_scheme, simulate
from repro.harness.spec import RunSpec
from repro.oracle.invariants import ProtocolOracle
from repro.serve import ServePolicy
from repro.sim import Machine, SystemConfig, fastpath, machine_for
from repro.sim.config import CacheGeometry
from repro.sim.hierarchy import Hierarchy
from repro.workloads import freeze_workload, make_workload

from tests import reference_hierarchy
from tests.reference_hierarchy import ReferenceHierarchy

SCALE = 0.05


def _workload(name="uniform", cores=16, seed=5, scale=SCALE):
    return make_workload(name, num_threads=cores, scale=scale, seed=seed)


def _fingerprint(machine, result):
    return (
        result.cycles,
        result.stores,
        result.transactions,
        result.per_thread_cycles,
        machine.stats.counters(),
        machine.hierarchy.memory_image(),
        machine.hierarchy.store_log,
        machine.nvm.bandwidth_series(),
        machine.oracle.summary() if machine.oracle is not None else None,
    )


class _Built:
    """One recorded build: its ``FastPath`` and the accesses it ran."""

    def __init__(self, fast):
        self.fast = fast
        self.accesses = 0


def _recording_build(monkeypatch, reference=False):
    """Patch ``fastpath.build`` (with the reference model's if
    ``reference``) so every later run records its build; returns the
    list of ``_Built`` records, one per run."""
    build = reference_hierarchy.build if reference else fastpath.build
    built = []

    def recording(machine):
        fast = build(machine)
        record = _Built(fast)
        built.append(record)
        access = fast.access

        def counted(core_id, addr, size, is_store, now):
            record.accesses += 1
            return access(core_id, addr, size, is_store, now)

        return fast._replace(access=counted)

    monkeypatch.setattr(fastpath, "build", recording)
    return built


def _reference_path(monkeypatch):
    """Send every later run through the reference model."""
    monkeypatch.setattr(fastpath, "build", reference_hierarchy.build)


def _run_both(workload="uniform", prepare=None, scheme="nvoverlay",
              config=None, **run_kwargs):
    """Run one workload oracle-armed on the access path and on the
    reference model; return both machines."""
    runs = []
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            built = _recording_build(patch, reference)
            machine = Machine(config or SystemConfig(),
                              scheme=make_scheme(scheme),
                              capture_store_log=True, oracle=ProtocolOracle())
            if prepare is not None:
                prepare(machine)
            result = machine.run(_workload(workload), **run_kwargs)
        assert len(built) == 1 and built[0].accesses > 0
        runs.append((machine, result))
    (fast, fast_result), (reference, reference_result) = runs
    assert isinstance(reference.hierarchy, ReferenceHierarchy)
    assert not isinstance(fast.hierarchy, ReferenceHierarchy)
    assert _fingerprint(fast, fast_result) == _fingerprint(
        reference, reference_result
    )
    return fast, reference


def _access_count(workload):
    return sum(
        len(txn)
        for tid in range(workload.num_threads)
        for txn in workload.access_batches(tid)
    )


# -- every run takes the built access -----------------------------------------

def test_machine_for_is_machine():
    assert machine_for is Machine


FAST_PATH_CONFIGS = [
    SystemConfig(),
    SystemConfig.scaled(64, batch_epoch_sync=True),
]
FAST_PATH_CONFIG_IDS = ["default", "64c-batched"]


def _assert_runs_the_built_access(monkeypatch, scheme, config, **checkers):
    """Run ``scheme`` on ``config``: every access must go through the
    built ``access``.  Returns the machine and its ``FastPath``."""
    built = _recording_build(monkeypatch)
    workload = freeze_workload(_workload(cores=config.num_cores, scale=0.02))
    machine = Machine(config, scheme=make_scheme(scheme), **checkers)
    machine.run(workload)
    assert [record.accesses for record in built] == [_access_count(workload)]
    return machine, built[0].fast


@pytest.mark.parametrize("config", FAST_PATH_CONFIGS, ids=FAST_PATH_CONFIG_IDS)
def test_nvoverlay_takes_the_fast_path(monkeypatch, config):
    """Stock NVOverlay runs the built access and the fused walker poll."""
    _, fast = _assert_runs_the_built_access(monkeypatch, "nvoverlay", config)
    assert fast.poll is not None


@pytest.mark.parametrize(
    "scheme", [name for name in SCHEMES if name != "nvoverlay"]
)
@pytest.mark.parametrize("config", FAST_PATH_CONFIGS, ids=FAST_PATH_CONFIG_IDS)
def test_baselines_take_the_fast_path(monkeypatch, config, scheme):
    """Ideal and every baseline run the built access too, and keep
    their own ``poll``."""
    _, fast = _assert_runs_the_built_access(monkeypatch, scheme, config)
    assert fast.poll is None


#: The extension machines the paper's claims rest on — MOESI (§IV-E),
#: snoop transport and multi-socket meshes (§II-D), a finite directory
#: small enough to back-invalidate, NVM working memory (§III-B) — each
#: with the counter its mechanism bumps.
EXTENSION_MACHINES = [
    ("nvoverlay", SystemConfig(coherence_protocol="moesi"),
     "coh.owned_downgrades"),
    ("picl", SystemConfig(coherence_protocol="moesi"), "coh.owned_downgrades"),
    ("nvoverlay", SystemConfig(coherence_transport="snoop"),
     "net.snoop_broadcasts"),
    ("ideal", SystemConfig(working_memory="nvm"), "nvm.reads"),
    ("nvoverlay", SystemConfig.scaled(8, cores_per_vd=4, num_sockets=2),
     "net.cross_socket_msgs"),
    ("nvoverlay", SystemConfig(directory_entries_per_slice=16),
     "dir.back_invalidations"),
    ("ideal", SystemConfig.scaled(64, num_sockets=4, batch_epoch_sync=True),
     "net.cross_socket_msgs"),
]


@pytest.mark.parametrize("scheme,config,mechanism", EXTENSION_MACHINES,
                         ids=["moesi", "picl-moesi", "snoop",
                              "nvm-working-memory", "multi-socket",
                              "finite-directory", "4-socket"])
def test_reference_path_cases(monkeypatch, scheme, config, mechanism):
    """Each extension machine runs every access through the built
    ``access`` — unarmed, and with the protocol oracle and the
    crash-point injector attached — and its mechanism fires."""
    for checkers in ({}, {"oracle": ProtocolOracle(),
                          "fault_injector": FaultInjector(None)}):
        with pytest.MonkeyPatch.context() as patch:
            machine, _ = _assert_runs_the_built_access(
                patch, scheme, config, **checkers
            )
        assert machine.stats.get(mechanism) > 0


@pytest.mark.parametrize("scheme", ["nvoverlay", "picl"])
@pytest.mark.parametrize("checker", ["oracle", "fault_injector"],
                         ids=["oracle", "fault-injector"])
def test_armed_runs_take_the_fast_path(monkeypatch, checker, scheme):
    """An attached oracle or crash-point injector does not change the
    path: the armed run takes the built access, fuses the walker poll
    under NVOverlay as an unarmed run does, and the checker sees its
    events."""
    built = _recording_build(monkeypatch)
    armed = ProtocolOracle() if checker == "oracle" else FaultInjector(None)
    machine = Machine(SystemConfig(), scheme=make_scheme(scheme),
                      **{checker: armed})
    machine.run(_workload(scale=0.02))
    assert len(built) == 1 and built[0].accesses > 0
    assert (built[0].fast.poll is not None) == (scheme == "nvoverlay")
    if checker == "oracle":
        assert armed.trace.counts["store"] > 0
    else:
        assert armed.event_totals()["store"] > 0


def test_instance_patched_poll_is_called(monkeypatch):
    """An instance patch on ``scheme.poll`` turns the fused walker poll
    off, not the access path: the run keeps the built ``access`` and
    calls the patch once per transaction."""
    built = _recording_build(monkeypatch)
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    scheme = machine.scheme
    calls = []

    def poll(now):
        calls.append(now)
        NVOverlay.poll(scheme, now)

    scheme.poll = poll
    assert not fastpath.fuses_walker_poll(scheme)
    result = machine.run(_workload(scale=0.02))
    assert built[0].fast.poll is None and built[0].accesses > 0
    assert len(calls) == result.transactions


def test_instance_patched_baseline_poll_rides_the_fast_path(monkeypatch):
    """A baseline keeps its own ``poll``, so an instance patch on it is
    called once per transaction.  (ICL's ``finalize`` drains its pruner
    through ``poll`` too; those calls come after.)"""
    built = _recording_build(monkeypatch)
    machine = Machine(SystemConfig(), scheme=make_scheme("icl"))
    scheme = machine.scheme
    calls = []
    calls_before_finalize = []

    def poll(now):
        calls.append(now)
        ICLogging.poll(scheme, now)

    def finalize(now):
        calls_before_finalize.append(len(calls))
        ICLogging.finalize(scheme, now)

    scheme.poll = poll
    scheme.finalize = finalize
    result = machine.run(_workload(scale=0.02))
    assert built[0].fast.poll is None and built[0].accesses > 0
    assert calls_before_finalize == [result.transactions]


def test_class_level_wrapper_keeps_the_fast_path(monkeypatch):
    """Wrapping ``NVOverlay.poll`` on the class (as a tracer does)
    changes the class attribute and the bound hook alike, so the build
    keeps its fused walker poll."""
    original = NVOverlay.poll

    def wrapped(self, now):
        return original(self, now)

    monkeypatch.setattr(NVOverlay, "poll", wrapped)
    built = _recording_build(monkeypatch)
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    machine.run(_workload(scale=0.02))
    assert built[0].fast.poll is not None


@pytest.mark.parametrize("skewed", [False, True], ids=["lockstep", "skewed"])
def test_fused_poll_needs_walkers_in_lockstep(skewed):
    """The fused poll keeps one clock, budget and cursor for every tag
    walker.  A machine whose walkers were put out of lockstep (one walker
    set ahead in time, budget and cursor before the run, as polling it
    alone would) keeps NVOverlay's own ``poll`` and still matches the
    reference model; a lockstep machine fuses."""
    fused = []

    def prepare(machine):
        if skewed:
            walker = machine.scheme.walkers[0]
            walker._last_poll = 50_000
            walker._budget = 3.5
            walker._cursor = 5
        fused.append(fastpath.fuses_walker_poll(machine.scheme))

    _run_both(prepare=prepare)
    assert fused[0] is not skewed


def test_thread_overflow_rejected():
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    with pytest.raises(ValueError, match="threads"):
        machine.run(_workload(cores=32))


def test_hierarchy_path_is_the_run_in_progress(monkeypatch):
    """``hierarchy.path`` is the built path while a run is in progress,
    as a workload generator sees it between transactions, and None
    before and after the run and after a single ``execute_access``, so a
    finished machine keeps no hierarchy -> closures -> hierarchy cycle."""
    built = _recording_build(monkeypatch)
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    hierarchy = machine.hierarchy
    workload = _workload(scale=0.02)
    seen = []

    class Observed:
        num_threads = workload.num_threads

        def access_batches(self, tid):
            for txn in workload.access_batches(tid):
                seen.append(hierarchy.path)
                yield txn

    assert hierarchy.path is None
    result = machine.run(Observed())
    assert len(built) == 1 and seen
    assert all(path is built[0].fast for path in seen)
    assert built[0].fast.scan_set is not None
    assert hierarchy.path is None
    hierarchy.execute_access(0, 0x4000, 8, True, result.cycles)
    assert len(built) == 2 and hierarchy.path is None


def test_execute_access_runs_the_built_access():
    """``Hierarchy.execute_access`` runs one access on the built path
    and writes its counters back: one thread's accesses, fed one at a
    time, cost and count exactly what ``Machine.run`` makes of them."""
    workload = freeze_workload(_workload("btree", cores=1))
    run = Machine(SystemConfig(), scheme=make_scheme("ideal"))
    result = run.run(workload)
    single = Machine(SystemConfig(), scheme=make_scheme("ideal"))
    clock = 0
    for txn in workload.access_batches(0):
        for addr, size, is_store in txn:
            clock += single.hierarchy.execute_access(0, addr, size, is_store,
                                                     clock)
    assert clock == result.cycles
    assert single.stats.counters() == run.stats.counters()
    assert single.hierarchy.memory_image() == run.hierarchy.memory_image()


# -- fast path == reference path ---------------------------------------------

def test_parity_default_geometry():
    _run_both()


def _hook_config():
    """A 16 KB LLC, so dirty lines leave the L2s and the LLC often, and
    no back-pressure slack, so every background hook write stalls."""
    return SystemConfig(
        llc_geometry=CacheGeometry(16 * 1024, 4, 30), nvm_backpressure_cycles=0
    )


@pytest.mark.parametrize("scheme,exercised", [
    ("picl", "llc.dirty_evictions"),  # on_llc_dirty_eviction
    ("picl_l2", "l2.dirty_evictions"),  # on_l2_dirty_eviction
    ("icl", "icl.pruned_entries"),  # the scheme's own poll
    ("jass_adaptive", "nvm.sync_writes"),  # on_store sync writes
])
def test_parity_of_a_baseline(scheme, exercised):
    """Scheme hooks ride the fused transitions, stall cycles included."""
    fast, _ = _run_both(scheme=scheme, config=_hook_config())
    assert fast.stats.get(exercised) > 0
    if scheme == "jass_adaptive":
        # Epoch commits stall every core (stall_all_cores_until).
        assert fast._global_stall_until > 0
    else:
        assert fast.stats.get("nvm.backpressure_cycles") > 0


#: The steps the reference model defines on top of ``Hierarchy``.
#: ``Hierarchy`` defines none of them but its three entry points, which
#: the model overrides with its own definitions: ``execute_access`` (one
#: access), ``walker_scan_set`` (``TagWalker.poll`` and the fused poll
#: call it) and ``flush_vd`` (``NVOverlay.finalize`` calls it), whose
#: ``Hierarchy`` versions forward to the access path.
ENTRY_POINTS = ("execute_access", "walker_scan_set", "flush_vd")
REFERENCE_STEPS = sorted(
    name for name, value in vars(ReferenceHierarchy).items()
    if callable(value) and name not in ENTRY_POINTS
)


def _assert_corners_exercised(machine, workload):
    counter = machine.stats.get
    assert counter("l1.store_upgrades") > 0
    assert counter("l2.downgrades") + counter("cst.load_downgrades") > 0
    assert counter("net.llc_vd_msgs") > 0
    if workload != "kmeans":  # kmeans makes no dirty owner hand-over
        assert counter("coh.c2c_transfers") > 0


@pytest.mark.parametrize("scheme", ["ideal", "picl_l2", "nvoverlay"])
@pytest.mark.parametrize("workload", ["kmeans", "intruder", "btree"])
def test_coherence_corners_stay_on_the_fast_path(monkeypatch, workload, scheme):
    """Store upgrades, owner downgrades, hand-overs and sharer
    invalidations run on the built access, whose closures are the one
    definition in ``src/`` of every cache transition: ``Hierarchy``
    defines none of the reference model's steps, the PUTX rule, the
    version write-back, the LLC insert and the L1 recall and
    invalidation included."""
    assert REFERENCE_STEPS and not [
        name for name in REFERENCE_STEPS if hasattr(Hierarchy, name)
    ]
    assert {"_l2_putx", "_version_writeback", "_llc_insert",
            "_invalidate_owner_for_getx", "flush_all"} <= set(REFERENCE_STEPS)
    built = _recording_build(monkeypatch)
    machine = Machine(SystemConfig(), scheme=make_scheme(scheme))
    machine.run(_workload(workload))
    assert len(built) == 1 and built[0].accesses > 0
    _assert_corners_exercised(machine, workload)


@pytest.mark.parametrize("workload,scheme", [
    ("intruder", "ideal"),
    ("intruder", "picl_l2"),
    ("intruder", "nvoverlay"),
    ("kmeans", "picl_l2"),
])
def test_parity_of_the_coherence_corners(workload, scheme):
    """The coherence mixes golden parity lacks: it has no intruder cell
    and runs picl_l2 on btree only."""
    fast, _ = _run_both(workload=workload, scheme=scheme)
    _assert_corners_exercised(fast, workload)
    if scheme == "picl_l2":
        # Its on_l2_dirty_eviction hook sees every dirty downgrade.
        assert fast.stats.get("evict_reason.coherence") > 0


def test_parity_with_max_transactions():
    fast, _ = _run_both(max_transactions=40)
    assert fast.stats.get("stores") > 0


def test_parity_on_a_lazily_generated_workload():
    """``btree`` builds its shared index while the streams are drawn,
    so generation interleaves with the run in commit order."""
    _run_both(workload="btree")


def test_parity_of_latency_histograms():
    def capture(machine):
        machine.capture_latency = True

    fast, reference = _run_both(prepare=capture)
    for name in ("op_latency", "store_latency", "txn_latency"):
        assert fast.stats.histogram(name)
        assert fast.stats.histogram(name) == reference.stats.histogram(name)


def test_parity_of_a_resumed_machine():
    """A machine resumed from a recovered image (``load_image``) reads
    the installed lines through the same memory on both paths, under
    NVOverlay and under a baseline (whose stores write OID 0, below the
    installed lines' OID 1)."""
    seed = Machine(SystemConfig(), scheme=make_scheme("ideal"))
    seed.run(_workload(seed=9, scale=0.02))
    image = seed.hierarchy.memory_image()
    assert image
    for scheme in ("nvoverlay", "picl"):
        _run_both(scheme=scheme,
                  prepare=lambda machine: machine.load_image(image, oid=1))


def test_parity_of_a_serve_record(monkeypatch):
    """A snapshot-serving cell: the reader scheduler's ``txn_hook`` rides
    the fast path, and the armed record matches the reference path's,
    oracle event and scan counts included."""
    machines = []

    def capture(*args, **kwargs):
        machine = Machine(*args, **kwargs)
        machines.append(machine)
        return machine

    monkeypatch.setattr(runner, "machine_for", capture)
    built = _recording_build(monkeypatch)
    spec = RunSpec(
        workload="load_burst",
        scheme="nvoverlay",
        config=SystemConfig(epoch_size_stores=200),
        scale=0.02,
        seed=1,
        oracle=True,
        capture_latency=True,
        nvo_params=NVOverlayParams(
            pool_pages=512, quota_pages=256, os_grow_pages=128
        ),
        serve=ServePolicy(sessions=8, reads_per_session=16, gc_every=64),
    )
    fast = simulate(spec).to_dict()
    _recording_build(monkeypatch, reference=True)
    reference = simulate(spec).to_dict()
    assert len(built) == 1 and built[0].accesses > 0
    assert [isinstance(machine.hierarchy, ReferenceHierarchy)
            for machine in machines] == [False, True]
    assert fast["extra"]["serve_reads"] > 0
    assert fast["extra"]["oracle_events"] > 0
    assert fast == reference


def test_record_text_is_independent_of_the_path(monkeypatch):
    """The access path registers its deferred counters when the run
    ends, so ``Stats`` keys arrive in a different order than on the
    reference model; ``simulate`` builds ``nvm_bytes`` and ``evict_reasons`` in key
    order, so both records serialize to the same text."""
    spec = RunSpec(workload="load_burst", scheme="nvoverlay", scale=0.02,
                   oracle=True)
    fast = simulate(spec).to_dict()
    _reference_path(monkeypatch)
    reference = simulate(spec).to_dict()
    assert len(fast["evict_reasons"]) > 2
    assert json.dumps(fast) == json.dumps(reference)


# -- the totals the fast path derives ----------------------------------------

def _derived_counters(stats):
    """(recorded, derived) for each total ``fastpath.flush`` derives."""
    get = stats.get
    store_parts = (
        get("l1.store_hits") + get("l1.store_misses") + get("l1.store_upgrades")
    )
    return {
        "l1.accesses": (get("l1.accesses"),
                        get("l1.load_hits") + get("l1.load_misses") + store_parts),
        "stores": (get("stores"), store_parts),
        "l2.accesses": (get("l2.accesses"), get("l2.hits") + get("l2.misses")),
        "dram.read_bytes": (get("dram.read_bytes"), 64 * get("dram.reads")),
        "dram.write_bytes": (get("dram.write_bytes"), 64 * get("dram.writes")),
    }


@pytest.mark.parametrize("scheme,config", [
    (scheme, SystemConfig()) for scheme in SCHEMES
] + [("nvoverlay", SystemConfig.scaled(64, batch_epoch_sync=True))],
    ids=[f"{scheme}-default" for scheme in SCHEMES] + ["nvoverlay-64c-batched"])
def test_derived_counter_identities(scheme, config):
    """The access path bumps none of five totals and derives them from
    their parts at the end of the run.  The reference model bumps each
    one where it happens, so on both each total must equal its parts;
    a bump site added to one of them only fails here.  intruder
    makes the store upgrades and L2 hits, uniform the DRAM write-backs."""
    exercised = dict.fromkeys(("l1.store_upgrades", "l2.hits", "dram.writes"), 0)
    for workload, scale in (("intruder", 0.05), ("uniform", 0.1)):
        for reference in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                built = _recording_build(patch, reference)
                machine = Machine(config, scheme=make_scheme(scheme))
                machine.run(_workload(workload, cores=config.num_cores,
                                      scale=scale))
            assert len(built) == 1
            for name in exercised:
                exercised[name] += machine.stats.get(name)
            for name, (recorded, derived) in _derived_counters(
                machine.stats
            ).items():
                assert recorded == derived, (workload, reference, name)
    assert all(exercised.values()), exercised


# -- the checkers see the same run on both paths ------------------------------

def _armed_events(config, workload, scheme, cores):
    oracle = ProtocolOracle(trace_capacity=1 << 20)
    injector = FaultInjector(None)
    machine = Machine(config, scheme=make_scheme(scheme), oracle=oracle,
                      fault_injector=injector)
    machine.run(_workload(workload, cores=cores))
    return machine, [e.to_dict() for e in oracle.trace], injector.event_totals()


@pytest.mark.parametrize("workload,scheme,cores", [
    (workload, scheme, 16)
    for workload in ("btree", "kmeans", "intruder")
    for scheme in ("nvoverlay", "picl_l2")
] + [("uniform", "nvoverlay", 64)])
def test_oracle_and_injector_see_the_same_events(monkeypatch, workload,
                                                 scheme, cores):
    """Every oracle event (stores, evictions, write-backs, coherence
    actions, epoch advances, walker passes, merges) and every injector
    count match one by one.  The 16-core cells run 200-store epochs, so
    their walker passes take the fast path's branch for a VD past epoch
    1; the 64-core batched cell's take the epoch-1 branch."""
    config = (
        SystemConfig(epoch_size_stores=200) if cores == 16
        else SystemConfig.scaled(cores, batch_epoch_sync=True)
    )
    _, fast_events, fast_totals = _armed_events(config, workload, scheme, cores)
    _reference_path(monkeypatch)
    _, events, totals = _armed_events(config, workload, scheme, cores)
    assert fast_totals["store"] > 0
    if scheme == "nvoverlay":
        assert fast_totals["walker_pass"] > 0
    assert fast_totals == totals
    assert fast_events == events


CRASH_SPEC = RunSpec(
    workload="uniform",
    scheme="nvoverlay",
    config=SystemConfig(epoch_size_stores=100),
    scale=0.1,
    seed=1,
    nvo_params=NVOverlayParams(use_omc_buffer=True),
)


@pytest.fixture(scope="module")
def crash_probe():
    """Event totals of the crash spec's uncrashed run."""
    return verify_crash(CRASH_SPEC, None).event_totals


@pytest.mark.parametrize("event", CRASH_EVENTS + (ANY_EVENT,))
def test_crash_verification_agrees_on_both_paths(crash_probe, event):
    """A crash at the first, middle and last event of each kind (the
    OMC buffer is on, so buffer writes count too) stops both paths at
    the same cycle and recovers the same epoch and image."""
    total = crash_probe[event]
    assert total > 0
    for count in sorted({1, (total + 1) // 2, total}):
        plan = CrashPlan(event=event, count=count)
        runs = []
        for reference in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                built = _recording_build(patch, reference)
                runs.append(verify_crash(CRASH_SPEC, plan))
            assert len(built) == 1 and built[0].accesses > 0
        fast, reference = runs
        assert fast.crashed and fast.crash_count == count
        assert (fast.crash_cycle, fast.rec_epoch, fast.recovered_image,
                fast.ok) == (reference.crash_cycle, reference.rec_epoch,
                             reference.recovered_image, reference.ok)


@pytest.mark.parametrize("scheme", ["ideal", "nvoverlay"])
def test_miss_chain_reuses_evicted_entries(monkeypatch, scheme):
    """A fill takes over the entry of the line it evicts, and a dropped
    directory entry is reused, so once the caches are full the access
    path stops constructing entries: over a run whose fills exceed the
    line capacity ten times over, it constructs no more ``CacheLine``s
    and ``DirEntry``s than the caches have line slots plus the
    directory's peak size (a new entry per install made about three per
    fill).  A slot freed other than by an eviction (an L1 copy
    invalidated, an LLC copy a GETX takes) is filled by a new entry;
    with one core per VD those stay within the slots the LLC leaves
    unused (a slice only holds lines whose set index matches the slice,
    half its sets on this two-slice machine)."""
    constructed = [0]

    class CountingLine(fastpath.CacheLine):
        __slots__ = ()

        def __init__(self, *args):
            constructed[0] += 1
            super().__init__(*args)

    class CountingDirEntry(fastpath.DirEntry):
        __slots__ = ()

        def __init__(self):
            constructed[0] += 1
            super().__init__()

    monkeypatch.setattr(fastpath, "CacheLine", CountingLine)
    monkeypatch.setattr(fastpath, "DirEntry", CountingDirEntry)
    # One core per VD: no L1 peers inside a VD.
    machine = Machine(SystemConfig.small().with_changes(cores_per_vd=1),
                      scheme=make_scheme(scheme))
    h = machine.hierarchy
    peak_directory = [0]

    def sample(now):
        size = sum(map(len, h._dir_shards))
        if size > peak_directory[0]:
            peak_directory[0] = size

    machine.txn_hook = sample
    machine.run(_workload(cores=4, scale=0.6))
    arrays = [*h.l1s, *(vd.l2 for vd in h.vds), *h.llc]
    capacity = sum(len(array._sets) * array._ways for array in arrays)
    assert machine.stats.get("l2.misses") >= 10 * capacity
    assert constructed[0] <= capacity + peak_directory[0]


# -- tag-walker scans ---------------------------------------------------------

#: 24 L1 sets and 64 L2 sets: an L2 set's lines map to several L1 sets,
#: so the reference model's ``walker_scan_set`` takes its per-line peer
#: loop, the only one the access path's ``scan_set`` has.
UNEVEN_SETS = SystemConfig(
    l1_geometry=CacheGeometry(3 * 1024, 2, 4),
    l2_geometry=CacheGeometry(16 * 1024, 4, 8),
    epoch_size_stores=200,
)


def test_parity_when_l2_sets_are_not_a_multiple_of_l1_sets():
    fast, _ = _run_both(workload="btree", config=UNEVEN_SETS)
    assert fast.config.l2_geometry.num_sets % fast.config.l1_geometry.num_sets
    assert fast.stats.get("evict_reason.tag_walk") > 0


def _cache_contents(machine):
    h = machine.hierarchy
    arrays = h.l1s + [vd.l2 for vd in h.vds] + h.llc
    return [
        [(e.line, e.state, e.oid, e.data) for s in array._sets for e in s.values()]
        for array in arrays
    ]


@pytest.mark.parametrize(
    "config", [UNEVEN_SETS, SystemConfig(epoch_size_stores=200)],
    ids=["uneven-sets", "default"],
)
def test_walker_scan_set_is_walker_persist_per_tag(config):
    """One ``walker_scan_set`` call, on a path built around the scans,
    equals the reference model's ``walker_persist`` applied to each tag
    resident in the set when the scan starts, whether or not an L2 set's
    lines share one L1 set.  The machines stop mid-run (no finalize
    flush), so old dirty versions sit in the L1s and L2s; the second
    runs on the model, whose hierarchy defines ``walker_persist``."""
    machines = []
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                _reference_path(patch)
            machine = Machine(config, scheme=make_scheme("nvoverlay"))
            machine.scheme.finalize = lambda now: None
            result = machine.run(_workload("btree"), max_transactions=600)
        machines.append(machine)
    scanned, persisted = machines
    now = result.cycles
    before = scanned.stats.get("evict_reason.tag_walk")
    fast = fastpath.build(scanned)
    for vd in scanned.hierarchy.vds:
        for set_index in range(config.l2_geometry.num_sets):
            scanned.hierarchy.walker_scan_set(vd, set_index, now)
    fast.flush()
    h = persisted.hierarchy
    assert isinstance(h, ReferenceHierarchy)
    for vd in h.vds:
        for cache_set in vd.l2._sets:
            for line in list(cache_set):
                h.walker_persist(vd, line, now)
    assert scanned.stats.get("evict_reason.tag_walk") > before
    scans = scanned.stats.counters("walker.")
    scans_before = persisted.stats.counters("walker.")
    assert scans["walker.sets_scanned"] - scans_before["walker.sets_scanned"] == (
        len(h.vds) * config.l2_geometry.num_sets
    )
    assert scanned.stats.counters() == {**persisted.stats.counters(), **scans}
    assert _cache_contents(scanned) == _cache_contents(persisted)
    assert scanned.hierarchy.memory_image() == h.memory_image()
    assert scanned.nvm.bandwidth_series() == persisted.nvm.bandwidth_series()

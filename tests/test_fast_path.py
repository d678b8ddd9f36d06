"""The fast path of ``Machine.run`` (``repro.sim.fastpath``).

Determinism is the whole contract: a run on the fast path must equal
the reference path — the ``Hierarchy`` methods — bit for bit.  Only the
machine's configuration and scheme pick the path, so every parity test
here reaches the reference path by patching ``fastpath.build`` to
return ``None``, and runs both legs with the protocol oracle armed, so
the oracle checks the fast path's invariants too.  These tests pin
which runs take which path (every scheme on the single-socket MESI
directory machine, with or without an oracle or fault injector) and
cover what the fast path carries along: the baselines' store, eviction
and ``poll`` hooks, the oracle's and the injector's events, crash
verification, the inter-VD coherence corners, ``max_transactions``,
lazily generated workloads, latency histograms, snapshot serving,
resumed machines and tag-walker scans.  The heavyweight sweeps are the
golden-parity legs (``test_golden_parity.py``) and the fuzzer's
fast-vs-reference leg over every scheme (``test_fuzz_protocol.py``).
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
from repro.workloads import make_workload

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


def _reference_path(monkeypatch):
    """Send every later run down the reference path."""
    monkeypatch.setattr(fastpath, "build", lambda machine: None)


def _run_both(workload="uniform", prepare=None, scheme="nvoverlay",
              config=None, **run_kwargs):
    """Run one workload oracle-armed on the fast path and on the
    reference path; return both machines."""
    runs = []
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                _reference_path(patch)
            machine = Machine(config or SystemConfig(),
                              scheme=make_scheme(scheme),
                              capture_store_log=True, oracle=ProtocolOracle())
            if prepare is not None:
                prepare(machine)
            result = machine.run(_workload(workload), **run_kwargs)
        runs.append((machine, result))
    (fast, fast_result), (reference, reference_result) = runs
    assert fast.fast_path
    assert not reference.fast_path
    assert _fingerprint(fast, fast_result) == _fingerprint(
        reference, reference_result
    )
    return fast, reference


# -- which runs take the fast path -------------------------------------------

def test_machine_for_is_machine():
    assert machine_for is Machine


FAST_PATH_CONFIGS = [
    SystemConfig(),
    SystemConfig.scaled(64, batch_epoch_sync=True),
]
FAST_PATH_CONFIG_IDS = ["default", "64c-batched"]


@pytest.mark.parametrize("config", FAST_PATH_CONFIGS, ids=FAST_PATH_CONFIG_IDS)
def test_nvoverlay_takes_the_fast_path(config):
    machine = Machine(config, scheme=make_scheme("nvoverlay"))
    assert not machine.fast_path  # decided per run, not at construction
    machine.run(_workload(cores=config.num_cores, scale=0.02))
    assert machine.fast_path


@pytest.mark.parametrize(
    "scheme", [name for name in SCHEMES if name != "nvoverlay"]
)
@pytest.mark.parametrize("config", FAST_PATH_CONFIGS, ids=FAST_PATH_CONFIG_IDS)
def test_baselines_take_the_fast_path(config, scheme):
    """Ideal and every baseline run the fused transitions too."""
    machine = Machine(config, scheme=make_scheme(scheme))
    assert not machine.fast_path
    machine.run(_workload(cores=config.num_cores, scale=0.02))
    assert machine.fast_path


@pytest.mark.parametrize("scheme,config,kwargs", [
    ("nvoverlay", SystemConfig(coherence_protocol="moesi"), {}),
    ("picl", SystemConfig(coherence_protocol="moesi"), {}),
    ("nvoverlay", SystemConfig(coherence_transport="snoop"), {}),
    ("ideal", SystemConfig(working_memory="nvm"), {}),
    ("nvoverlay", SystemConfig.scaled(8, cores_per_vd=4, num_sockets=2), {}),
    ("nvoverlay", SystemConfig(directory_entries_per_slice=256), {}),
], ids=["moesi", "picl-moesi", "snoop", "nvm-working-memory",
        "multi-socket", "finite-directory"])
def test_reference_path_cases(scheme, config, kwargs):
    machine = Machine(config, scheme=make_scheme(scheme), **kwargs)
    machine.run(_workload(cores=config.num_cores, scale=0.02))
    assert not machine.fast_path


@pytest.mark.parametrize("scheme", ["nvoverlay", "picl"])
@pytest.mark.parametrize("checker", ["oracle", "fault_injector"],
                         ids=["oracle", "fault-injector"])
def test_armed_runs_take_the_fast_path(checker, scheme):
    """An attached oracle or crash-point injector does not pick the
    path: an armed in-envelope run takes the fast path, and the
    checker sees its events."""
    armed = ProtocolOracle() if checker == "oracle" else FaultInjector(None)
    machine = Machine(SystemConfig(), scheme=make_scheme(scheme),
                      **{checker: armed})
    machine.run(_workload(scale=0.02))
    assert machine.fast_path
    if checker == "oracle":
        assert armed.trace.counts["store"] > 0
    else:
        assert armed.event_totals()["store"] > 0


def test_instance_patched_poll_is_called():
    """An instance patch on ``scheme.poll`` takes the run off the fast
    path, so the patch is honoured exactly as ``Machine.run`` honours it
    on the reference path."""
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    scheme = machine.scheme
    calls = []

    def poll(now):
        calls.append(now)
        NVOverlay.poll(scheme, now)

    scheme.poll = poll
    result = machine.run(_workload(scale=0.02))
    assert not machine.fast_path
    assert len(calls) == result.transactions


def test_instance_patched_baseline_poll_rides_the_fast_path():
    """A baseline keeps its own ``poll`` on the fast path, so an instance
    patch on it is called once per transaction.  (ICL's ``finalize``
    drains its pruner through ``poll`` too; those calls come after.)"""
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
    assert machine.fast_path
    assert calls_before_finalize == [result.transactions]


def test_class_level_wrapper_keeps_the_fast_path(monkeypatch):
    """Wrapping ``NVOverlay.poll`` on the class (as a tracer does)
    changes the class attribute and the bound hook alike."""
    original = NVOverlay.poll

    def wrapped(self, now):
        return original(self, now)

    monkeypatch.setattr(NVOverlay, "poll", wrapped)
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    machine.run(_workload(scale=0.02))
    assert machine.fast_path


def test_thread_overflow_rejected():
    machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
    with pytest.raises(ValueError, match="threads"):
        machine.run(_workload(cores=32))


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


#: The ``Hierarchy`` coherence corners the fast path replays with
#: closures of its own.  ``_llc_insert`` and ``_invalidate_vd_l1s`` are
#: not among them: the fast path still calls ``_version_writeback`` and
#: ``_invalidate_owner_for_getx``, which call them.
INLINED_CORNERS = (
    "_upgrade_for_store", "_inter_getx_permission_only", "_request_latency",
    "_downgrade_owner", "_downgrade_vd_l1s", "_invalidate_vd",
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
    """Store upgrades, owner downgrades and sharer invalidations run the
    fast path's own closures, so a run on the fast path never calls the
    ``Hierarchy`` methods they replay."""
    def reference_corner(*args, **kwargs):
        raise AssertionError("the fast path called a Hierarchy corner")

    for name in INLINED_CORNERS:
        monkeypatch.setattr(Hierarchy, name, reference_corner)
    machine = Machine(SystemConfig(), scheme=make_scheme(scheme))
    machine.run(_workload(workload))
    assert machine.fast_path
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
    built = []

    def capture(*args, **kwargs):
        machine = Machine(*args, **kwargs)
        built.append(machine)
        return machine

    monkeypatch.setattr(runner, "machine_for", capture)
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
    _reference_path(monkeypatch)
    reference = simulate(spec).to_dict()
    assert [machine.fast_path for machine in built] == [True, False]
    assert fast["extra"]["serve_reads"] > 0
    assert fast["extra"]["oracle_events"] > 0
    assert fast == reference


def test_record_text_is_independent_of_the_path(monkeypatch):
    """The fast path registers its deferred counters when the run ends,
    so ``Stats`` keys arrive in a different order than on the reference
    path; ``simulate`` builds ``nvm_bytes`` and ``evict_reasons`` in key
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
    """The fast path bumps none of five totals and derives them from
    their parts at the end of the run.  The reference path bumps each
    one where it happens, so on both paths each total must equal its
    parts; a bump site added to one path only fails here.  intruder
    makes the store upgrades and L2 hits, uniform the DRAM write-backs."""
    exercised = dict.fromkeys(("l1.store_upgrades", "l2.hits", "dram.writes"), 0)
    for workload, scale in (("intruder", 0.05), ("uniform", 0.1)):
        for reference in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if reference:
                    _reference_path(patch)
                machine = Machine(config, scheme=make_scheme(scheme))
                machine.run(_workload(workload, cores=config.num_cores,
                                      scale=scale))
            assert machine.fast_path is not reference
            for name in exercised:
                exercised[name] += machine.stats.get(name)
            for name, (recorded, derived) in _derived_counters(
                machine.stats
            ).items():
                assert recorded == derived, (workload, reference, name)
    assert all(exercised.values()), exercised


# -- the checkers see the same run on both paths ------------------------------

def _recording_build(monkeypatch, reference):
    """Patch ``fastpath.build`` (to the reference path if ``reference``)
    and return the list of paths the later runs take (True = fast)."""
    taken = []
    build = fastpath.build

    def recording(machine):
        fast = None if reference else build(machine)
        taken.append(fast is not None)
        return fast

    monkeypatch.setattr(fastpath, "build", recording)
    return taken


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
    fast, fast_events, fast_totals = _armed_events(config, workload, scheme, cores)
    assert fast.fast_path
    _reference_path(monkeypatch)
    reference, events, totals = _armed_events(config, workload, scheme, cores)
    assert not reference.fast_path
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
                taken = _recording_build(patch, reference)
                runs.append(verify_crash(CRASH_SPEC, plan))
            assert taken == [not reference]
        fast, reference = runs
        assert fast.crashed and fast.crash_count == count
        assert (fast.crash_cycle, fast.rec_epoch, fast.recovered_image,
                fast.ok) == (reference.crash_cycle, reference.rec_epoch,
                             reference.recovered_image, reference.ok)


# -- tag-walker scans ---------------------------------------------------------

#: 24 L1 sets and 64 L2 sets: an L2 set's lines map to several L1 sets,
#: so ``walker_scan_set`` takes its per-line peer loop.
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
    """One ``walker_scan_set`` call equals ``walker_persist`` applied to
    each tag resident in the set when the scan starts, on both of its
    peer loops.  The machines stop mid-run (no finalize flush), so old
    dirty versions sit in the L1s and L2s."""
    machines = []
    for _ in range(2):
        machine = Machine(config, scheme=make_scheme("nvoverlay"))
        machine.scheme.finalize = lambda now: None
        result = machine.run(_workload("btree"), max_transactions=600)
        machines.append(machine)
    scanned, persisted = machines
    now = result.cycles
    before = scanned.stats.get("evict_reason.tag_walk")
    for vd in scanned.hierarchy.vds:
        for set_index in range(config.l2_geometry.num_sets):
            scanned.hierarchy.walker_scan_set(vd, set_index, now)
    h = persisted.hierarchy
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

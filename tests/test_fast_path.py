"""The fast path of ``Machine.run`` (``repro.sim.fastpath``).

Determinism is the whole contract: a run on the fast path must equal
the reference path — the ``Hierarchy`` methods — bit for bit.  An armed
protocol oracle keeps a run on the reference path, so every parity test
here compares an unarmed run against an armed run of the same workload.
These tests pin which runs take which path and cover what the fast path
carries along: ``max_transactions``, lazily generated workloads, latency
histograms, snapshot serving and resumed machines.  The heavyweight
sweeps are the golden-parity legs (``test_golden_parity.py``) and the
fuzzer's fast-vs-reference leg (``test_fuzz_protocol.py``).
"""

import pytest

from repro.core import NVOverlay, NVOverlayParams
from repro.faults import FaultInjector
from repro.harness import runner
from repro.harness.runner import make_scheme, simulate
from repro.harness.spec import RunSpec
from repro.oracle.invariants import ProtocolOracle
from repro.serve import ServePolicy
from repro.sim import Machine, SystemConfig, machine_for
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
    )


def _run_both(workload="uniform", prepare=None, **run_kwargs):
    """Run one workload unarmed and oracle-armed; return both machines."""
    runs = []
    for oracle in (None, ProtocolOracle()):
        machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"),
                          capture_store_log=True, oracle=oracle)
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


@pytest.mark.parametrize("config", [
    SystemConfig(),
    SystemConfig.scaled(64, batch_epoch_sync=True),
], ids=["default", "64c-batched"])
def test_nvoverlay_takes_the_fast_path(config):
    machine = Machine(config, scheme=make_scheme("nvoverlay"))
    assert not machine.fast_path  # decided per run, not at construction
    machine.run(_workload(cores=config.num_cores, scale=0.02))
    assert machine.fast_path


@pytest.mark.parametrize("scheme,config,kwargs", [
    ("picl", SystemConfig(), {}),
    ("icl", SystemConfig(), {}),
    ("jass_adaptive", SystemConfig(), {}),
    ("msync_snapshot", SystemConfig(), {}),
    ("nvoverlay", SystemConfig(coherence_protocol="moesi"), {}),
    ("nvoverlay", SystemConfig.scaled(8, cores_per_vd=4, num_sockets=2), {}),
    ("nvoverlay", SystemConfig(directory_entries_per_slice=256), {}),
    ("nvoverlay", SystemConfig(), {"oracle": ProtocolOracle()}),
    ("nvoverlay", SystemConfig(), {"fault_injector": FaultInjector(None)}),
], ids=["picl", "icl", "jass_adaptive", "msync_snapshot", "moesi",
        "multi-socket", "finite-directory", "oracle", "fault-injector"])
def test_reference_path_cases(scheme, config, kwargs):
    machine = Machine(config, scheme=make_scheme(scheme), **kwargs)
    machine.run(_workload(cores=config.num_cores, scale=0.02))
    assert not machine.fast_path


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
    the installed lines through the same memory on both paths."""
    seed = Machine(SystemConfig(), scheme=make_scheme("ideal"))
    seed.run(_workload(seed=9, scale=0.02))
    image = seed.hierarchy.memory_image()
    assert image
    _run_both(prepare=lambda machine: machine.load_image(image, oid=1))


def test_parity_of_a_serve_record(monkeypatch):
    """A snapshot-serving cell: the reader scheduler's ``txn_hook`` rides
    the fast path and the record matches the armed reference."""
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
        capture_latency=True,
        nvo_params=NVOverlayParams(
            pool_pages=512, quota_pages=256, os_grow_pages=128
        ),
        serve=ServePolicy(sessions=8, reads_per_session=16, gc_every=64),
    )
    fast = simulate(spec).to_dict()
    reference = simulate(spec.with_changes(oracle=True)).to_dict()
    assert [machine.fast_path for machine in built] == [True, False]
    assert fast["extra"]["serve_reads"] > 0
    reference["extra"] = {
        key: value for key, value in reference["extra"].items()
        if not key.startswith("oracle_")
    }
    assert fast == reference

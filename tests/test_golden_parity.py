"""Golden-stats parity: optimized hot paths are bit-identical to the seed.

``tests/data/golden_parity.json`` holds fingerprints captured from the
pre-optimization implementation: the full ``Stats`` counter dump, every
time series, the final working-memory and merged hierarchy images, and
the spec cache key, each hashed.  The optimized simulator must reproduce
every one of them exactly — a perf change that shifts any counter,
cycle count or memory byte is a semantics change, not an optimization.

Every cell runs three times, and each leg must match every behavioural
hash:

* ``serial`` — the default unarmed run, as every user run takes it,
  through ``repro.sim.fastpath``, the one access path;
* ``armed`` — the protocol oracle attached, on the same path, with
  every invariant checked;
* ``reference`` — the oracle attached and ``fastpath.build`` patched to
  the frozen reference model's ``build`` (``tests/reference_hierarchy.py``).

Each leg asserts that its one run went through the build it patched
in.  The ``spec_key`` hash is only compared for the unarmed leg:
``oracle`` joins the cache key, so an armed spec hashes elsewhere.

Eight cells pin the extension machines the paper's claims rest on, each
at scale 0.1 with its configuration overrides in ``config``: MOESI
(§IV-E), snoop transport and 2- and 4-socket meshes (§II-D), a finite
directory that back-invalidates, and NVM working memory (§III-B).  Each
records the counter of the mechanism it pins in ``mechanism``.

One cell is a serve cell: the ``timetravel`` load scenario's nvoverlay
leg at scale 0.025 (32 snapshot reader sessions, reclaim every 64 write
transactions, a pool quota tight enough that version compaction runs),
so the fingerprint pins GC and compaction as well as the write path.

These are the heaviest tier-1 tests (many full small-scale runs); the
cells stay at scale 0.2 so the whole file runs in tens of seconds.
"""

import json
from pathlib import Path

import pytest

from repro.harness.bench import run_fingerprint
from repro.harness.runner import SCHEMES, run_cell
from repro.harness.spec import RunSpec, nvo_params_from_dict
from repro.serve import ServePolicy
from repro.sim import fastpath
from repro.sim.config import SystemConfig

from tests import reference_hierarchy

FIXTURE = Path(__file__).parent / "data" / "golden_parity.json"

with FIXTURE.open() as fh:
    _CELLS = json.load(fh)["cells"]


def _cell_id(cell):
    cores = cell.get("cores")
    geometry = "" if cores is None else f"-{cores}c"
    if cell.get("batch_epoch_sync"):
        geometry += "-batched"
    if cell.get("nvm_profile", "local") != "local":
        geometry += f"-{cell['nvm_profile']}"
    if cell.get("serve"):
        geometry += "-serve"
    for key, value in sorted(cell.get("config", {}).items()):
        geometry += f"-{key}={value}"
    return f"{cell['workload']}-{cell['scheme']}{geometry}"


def _cell_config(cell):
    """Geometry for a cell: default 16-core unless ``cores`` says else,
    with the cell's ``config`` overrides on top."""
    cores = cell.get("cores")
    profile = cell.get("nvm_profile", "local")
    overrides = cell.get("config", {})
    if cores is None:
        if profile == "local" and not overrides:
            return None
        return SystemConfig(nvm_profile=profile, **overrides)
    return SystemConfig.scaled(
        cores, batch_epoch_sync=cell.get("batch_epoch_sync", False),
        nvm_profile=profile, **overrides,
    )


def _cell_spec(cell, oracle=False):
    return RunSpec(
        workload=cell["workload"],
        scheme=cell["scheme"],
        config=_cell_config(cell),
        scale=cell["scale"],
        seed=cell["seed"],
        oracle=oracle,
        capture_latency=cell.get("capture_latency", False),
        nvo_params=nvo_params_from_dict(cell.get("nvo_params")),
        serve=ServePolicy.from_dict(cell["serve"]) if cell.get("serve") else None,
    )


@pytest.mark.parametrize("leg", ["serial", "armed", "reference"])
@pytest.mark.parametrize("cell", _CELLS, ids=[_cell_id(c) for c in _CELLS])
def test_fingerprint_matches_seed(monkeypatch, cell, leg):
    oracle = leg != "serial"
    build = reference_hierarchy.build if leg == "reference" else fastpath.build
    taken = []

    def recording_build(machine):
        taken.append(build)
        return build(machine)

    monkeypatch.setattr(fastpath, "build", recording_build)
    fingerprint = run_fingerprint(_cell_spec(cell, oracle))
    assert taken == [build]
    expected = cell["fingerprint"]
    mismatched = {
        key: (expected[key], fingerprint.get(key))
        for key in expected
        if key != "spec_key" and fingerprint.get(key) != expected[key]
    }
    if not oracle:
        if fingerprint.get("spec_key") != expected["spec_key"]:
            mismatched["spec_key"] = (
                expected["spec_key"], fingerprint.get("spec_key")
            )
    assert not mismatched, (
        f"{cell['workload']}/{cell['scheme']} ({leg} leg) "
        f"diverged from the seed implementation: {mismatched}"
    )


def test_fixture_covers_all_pinned_schemes_and_three_workloads():
    """Every registered scheme has a default-geometry cell: each runs
    its own hooks on the access path, so each needs a pinned
    fingerprint."""
    pairs = {(c["workload"], c["scheme"]) for c in _CELLS}
    assert len(pairs) >= 10
    default = {c["scheme"] for c in _CELLS if c.get("cores") is None}
    assert default == {s for _, s in pairs} == set(SCHEMES)
    assert len({w for w, _ in pairs}) >= 3


def test_fixture_pins_the_cxl_device_profile():
    cxl = [c for c in _CELLS if c.get("nvm_profile") == "cxl"]
    assert cxl, "no CXL-profile cell in the fixture"
    # The CXL profile must actually change timing: its fingerprint may
    # not collide with the same cell on the local profile.
    for cell in cxl:
        twins = [
            c for c in _CELLS
            if c.get("nvm_profile", "local") == "local"
            and (c["workload"], c["scheme"], c.get("cores"))
            == (cell["workload"], cell["scheme"], cell.get("cores"))
        ]
        for twin in twins:
            assert twin["fingerprint"]["cycles"] != cell["fingerprint"]["cycles"]


def test_fixture_pins_scaled_geometries():
    """32- and 64-core fingerprints guard the scale-out refactors."""
    cores = {c.get("cores") for c in _CELLS}
    assert {None, 32, 64} <= cores
    expected = {32: {"nvoverlay", "picl"}, 64: {"nvoverlay", "picl", "ideal"}}
    for scale, pinned in expected.items():
        schemes = {c["scheme"] for c in _CELLS if c.get("cores") == scale}
        assert schemes == pinned
    # The uniform_64c geometry (64 cores, batched sync) pins its trio.
    batched = {
        c["scheme"] for c in _CELLS
        if c.get("cores") == 64 and c.get("batch_epoch_sync")
    }
    assert {"nvoverlay", "ideal"} <= batched


def test_fixture_pins_a_serve_cell_with_gc():
    """The timetravel serve cell keeps readers, reclaim and compaction
    under the behavioural contract."""
    serve = [c for c in _CELLS if c.get("serve")]
    assert serve, "no serve cell in the fixture"
    for cell in serve:
        assert cell["scheme"] == "nvoverlay"
        assert cell["nvo_params"]["quota_pages"] is not None


#: The extension machines, each with the counter its mechanism bumps.
EXTENSIONS = {
    "moesi": ("coherence_protocol", "moesi", "coh.owned_downgrades"),
    "snoop": ("coherence_transport", "snoop", "net.snoop_broadcasts"),
    "2-socket": ("num_sockets", 2, "net.cross_socket_msgs"),
    "4-socket": ("num_sockets", 4, "net.cross_socket_msgs"),
    "finite-directory": ("directory_entries_per_slice", 256,
                         "dir.back_invalidations"),
    "nvm-working-memory": ("working_memory", "nvm", None),
}


@pytest.mark.parametrize("extension", sorted(EXTENSIONS))
def test_fixture_pins_every_extension_machine(extension):
    """Every extension machine has a cell, and each such cell fires the
    mechanism it pins: its recorded counter is non-zero and equals what
    the run counts (the cell's ``stats_sha`` pins the same value)."""
    field, value, counter = EXTENSIONS[extension]
    cells = [c for c in _CELLS if c.get("config", {}).get(field) == value]
    assert cells, f"no {extension} cell in the fixture"
    for cell in cells:
        (name, recorded), = cell["mechanism"].items()
        assert counter in (None, name)
        assert recorded > 0
        machine, _workload, _scheduler, _result = run_cell(_cell_spec(cell))
        assert machine.stats.get(name) == recorded


def test_fingerprint_is_deterministic():
    spec = RunSpec(workload="uniform", scheme="nvoverlay", scale=0.05, seed=3)
    assert run_fingerprint(spec) == run_fingerprint(spec)

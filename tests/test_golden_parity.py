"""Golden-stats parity: optimized hot paths are bit-identical to the seed.

``tests/data/golden_parity.json`` holds fingerprints captured from the
pre-optimization implementation: the full ``Stats`` counter dump, every
time series, the final working-memory and merged hierarchy images, and
the spec cache key, each hashed.  The optimized simulator must reproduce
every one of them exactly — a perf change that shifts any counter,
cycle count or memory byte is a semantics change, not an optimization.

Every cell runs twice, and both legs must match every behavioural hash:

* ``serial`` — the default unarmed run, as every user run takes it:
  cells inside the fast-path envelope (any scheme on a single-socket
  MESI directory machine with DRAM working memory; every cell here)
  run ``repro.sim.fastpath``'s hand-inlined transitions;
* ``armed`` — the protocol oracle attached, which keeps the run on the
  ``Hierarchy`` reference methods with every invariant checked.

The ``spec_key`` hash is only compared for the unarmed leg: ``oracle``
joins the cache key, so the armed spec hashes elsewhere.

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
from repro.harness.runner import SCHEMES
from repro.harness.spec import RunSpec, nvo_params_from_dict
from repro.serve import ServePolicy
from repro.sim.config import SystemConfig

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
    return f"{cell['workload']}-{cell['scheme']}{geometry}"


def _cell_config(cell):
    """Geometry for a cell: default 16-core unless ``cores`` says else."""
    cores = cell.get("cores")
    profile = cell.get("nvm_profile", "local")
    if cores is None:
        if profile == "local":
            return None
        return SystemConfig(nvm_profile=profile)
    return SystemConfig.scaled(
        cores, batch_epoch_sync=cell.get("batch_epoch_sync", False),
        nvm_profile=profile,
    )


@pytest.mark.parametrize("oracle", [False, True], ids=["serial", "armed"])
@pytest.mark.parametrize("cell", _CELLS, ids=[_cell_id(c) for c in _CELLS])
def test_fingerprint_matches_seed(cell, oracle):
    spec = RunSpec(
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
    fingerprint = run_fingerprint(spec)
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
        f"{cell['workload']}/{cell['scheme']} (oracle={oracle}) "
        f"diverged from the seed implementation: {mismatched}"
    )


def test_fixture_covers_all_pinned_schemes_and_three_workloads():
    """Every registered scheme has a default-geometry cell: all of them
    run the fast path, so each needs a pinned fingerprint."""
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


def test_fingerprint_is_deterministic():
    spec = RunSpec(workload="uniform", scheme="nvoverlay", scale=0.05, seed=3)
    assert run_fingerprint(spec) == run_fingerprint(spec)

"""Golden-stats parity: optimized hot paths are bit-identical to the seed.

``tests/data/golden_parity.json`` holds fingerprints captured from the
pre-optimization implementation: the full ``Stats`` counter dump, every
time series, the final working-memory and merged hierarchy images, and
the spec cache key, each hashed.  The optimized simulator must reproduce
every one of them exactly — a perf change that shifts any counter,
cycle count or memory byte is a semantics change, not an optimization.

Every cell runs twice, and both legs must match every behavioural hash:

* ``serial`` — the default unarmed run, as every user run takes it:
  cells inside the fast-path envelope (stock NVOverlay on a
  single-socket MESI machine) run ``repro.sim.fastpath``'s hand-inlined
  transitions;
* ``armed`` — the protocol oracle attached, which keeps the run on the
  ``Hierarchy`` reference methods with every invariant checked.

The ``spec_key`` hash is only compared for the unarmed leg: ``oracle``
joins the cache key, so the armed spec hashes elsewhere.

These are the heaviest tier-1 tests (many full small-scale runs); the
cells stay at scale 0.2 so the whole file runs in tens of seconds.
"""

import json
from pathlib import Path

import pytest

from repro.harness.bench import run_fingerprint
from repro.harness.spec import RunSpec
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
    pairs = {(c["workload"], c["scheme"]) for c in _CELLS}
    assert len(pairs) >= 10
    assert {s for _, s in pairs} == {
        "nvoverlay", "picl", "icl", "jass_adaptive", "msync_snapshot",
    }
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
    for scale in (32, 64):
        schemes = {c["scheme"] for c in _CELLS if c.get("cores") == scale}
        assert schemes == {"nvoverlay", "picl"}
    assert any(c.get("batch_epoch_sync") for c in _CELLS)


def test_fingerprint_is_deterministic():
    spec = RunSpec(workload="uniform", scheme="nvoverlay", scale=0.05, seed=3)
    assert run_fingerprint(spec) == run_fingerprint(spec)

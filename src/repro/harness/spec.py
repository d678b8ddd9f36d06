"""``RunSpec``: one experiment cell, as a value.

Every harness entry point used to take the same six kwargs
(workload/scheme/config/scale/seed/nvo_params).  ``RunSpec`` freezes
that tuple into a hashable, JSON-serializable value object so that

* the runner, the cache and the process pool all speak the same type;
* ``RunSpec.cache_key()`` is the *only* hash the on-disk cache uses, so
  the API surface and the cache key cannot drift apart;
* specs cross process boundaries as plain dicts (``to_dict`` /
  ``from_dict``) rather than pickled simulator state.

The two capture flags (``capture_latency``, ``capture_store_log``) do
not change simulated cycles or traffic, but they *do* change what ends
up in the returned record (latency percentiles, store-log size), so
they are part of the cache key: a cached no-capture record must never
satisfy a capture request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from ..core import NVOverlayParams
from ..faults.plan import CrashPlan
from ..serve.policy import ServePolicy
from ..sim import SystemConfig
from ..sim.config import (
    AdaptiveEpochPolicy,
    BurstyEpochPolicy,
    CacheGeometry,
    EpochPolicy,
    FixedEpochPolicy,
)

#: Bump whenever simulation semantics change in a way that invalidates
#: previously cached records (new stats, timing-model fixes, ...).
#: 2: crash_plan joined the spec; rec-epoch advancement now merges
#: before persisting the pointer (shifts background-write timing).
#: 3: oracle joined the spec; store logs carry the committing core and
#: NVOverlay records gained finalize-time extras.
#: 4: SystemConfig grew ``batch_epoch_sync`` (scale-out epoch batching),
#: which joins the canonical config dict.
#: 5: capture_latency records gained op_latency_p95 + store-only
#: store_latency_p95/p99 extras, and workloads may contribute
#: ``record_extras`` (multi-tenant load attribution) — cached records
#: from schema 4 would be missing those fields.
#: 6: ``serve`` joined the spec (snapshot-serving reader policy); serve
#: runs interleave reader NVM traffic and GC with the write stream, so
#: their records must never collide with write-only cells.
#: 7: SystemConfig grew a worker-count field for a second, slice-parallel
#: execution engine, which joined the canonical config dict.  Results
#: were bit-identical across worker counts, but the engines were
#: distinct code paths and a cached record had to say which one ran.
#: 8: SystemConfig grew ``nvm_profile`` (CXL-attached device model),
#: the epoch-policy serialization gained the "adaptive" kind, and
#: icl/jass_adaptive/msync_snapshot joined the scheme registry.
#: Existing cells' behavior is unchanged (their hashes prove it); only
#: the cache keys move because the canonical config dict grew a field.
#: 9: the slice-parallel engine and its worker-count field are gone;
#: ``Machine.run`` picks its fast path from the run itself.  The
#: canonical config dict lost that field, so every cache key moves;
#: behavior is unchanged (the golden hashes other than ``spec_key``
#: still match).
CACHE_SCHEMA_VERSION = 9


# --------------------------------------------------------------------------
# Config / params serialization (JSON-safe, round-trippable)
# --------------------------------------------------------------------------

def _policy_to_dict(policy: Optional[EpochPolicy]) -> Optional[Dict[str, Any]]:
    if policy is None:
        return None
    if isinstance(policy, FixedEpochPolicy):
        return {"kind": "fixed", "size": policy.size}
    if isinstance(policy, BurstyEpochPolicy):
        return {
            "kind": "bursty",
            "base_size": policy.base_size,
            "bursts": [list(b) for b in policy.bursts],
        }
    if isinstance(policy, AdaptiveEpochPolicy):
        return {
            "kind": "adaptive",
            "base_size": policy.base_size,
            "min_size": policy.min_size,
            "max_size": policy.max_size,
            "target_dirty_lines": policy.target_dirty_lines,
            "gain": policy.gain,
        }
    raise TypeError(
        f"epoch policy {type(policy).__name__} is not JSON-serializable; "
        "custom policies cannot be cached or sent to worker processes "
        "(run with jobs=1 and cache disabled)"
    )


def _policy_from_dict(data: Optional[Dict[str, Any]]) -> Optional[EpochPolicy]:
    if data is None:
        return None
    if data["kind"] == "fixed":
        return FixedEpochPolicy(size=data["size"])
    if data["kind"] == "bursty":
        return BurstyEpochPolicy(
            base_size=data["base_size"],
            bursts=tuple(tuple(b) for b in data["bursts"]),
        )
    if data["kind"] == "adaptive":
        return AdaptiveEpochPolicy(
            base_size=data["base_size"],
            min_size=data["min_size"],
            max_size=data["max_size"],
            target_dirty_lines=data["target_dirty_lines"],
            gain=data["gain"],
        )
    raise ValueError(f"unknown epoch policy kind {data['kind']!r}")


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """``SystemConfig`` as a JSON-safe dict (geometries/policies tagged)."""
    out: Dict[str, Any] = {}
    for f in fields(SystemConfig):
        value = getattr(config, f.name)
        if isinstance(value, CacheGeometry):
            value = {"size_bytes": value.size_bytes, "ways": value.ways,
                     "latency": value.latency}
        elif isinstance(value, EpochPolicy):
            value = _policy_to_dict(value)
        out[f.name] = value
    return out


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    kwargs = dict(data)
    for name in ("l1_geometry", "l2_geometry", "llc_geometry"):
        kwargs[name] = CacheGeometry(**kwargs[name])
    kwargs["epoch_policy"] = _policy_from_dict(kwargs.get("epoch_policy"))
    return SystemConfig(**kwargs)


def nvo_params_to_dict(params: Optional[NVOverlayParams]) -> Optional[Dict[str, Any]]:
    if params is None:
        return None
    out: Dict[str, Any] = {}
    for f in fields(NVOverlayParams):
        value = getattr(params, f.name)
        if isinstance(value, CacheGeometry):
            value = {"size_bytes": value.size_bytes, "ways": value.ways,
                     "latency": value.latency}
        out[f.name] = value
    return out


def nvo_params_from_dict(data: Optional[Dict[str, Any]]) -> Optional[NVOverlayParams]:
    if data is None:
        return None
    kwargs = dict(data)
    if kwargs.get("buffer_geometry") is not None:
        kwargs["buffer_geometry"] = CacheGeometry(**kwargs["buffer_geometry"])
    return NVOverlayParams(**kwargs)


# --------------------------------------------------------------------------
# The spec itself
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One (workload x scheme x configuration) simulation cell.

    ``config=None`` means the default ``SystemConfig()``; the two are
    equivalent and hash to the same cache key.  ``nvo_params`` only
    matters when ``scheme == "nvoverlay"`` and is canonicalized away
    otherwise, so irrelevant parameters never split cache entries.
    """

    workload: str
    scheme: str
    config: Optional[SystemConfig] = None
    scale: float = 1.0
    seed: int = 1
    nvo_params: Optional[NVOverlayParams] = None
    capture_latency: bool = False
    capture_store_log: bool = False
    #: Crash the run at this plan's event count and verify recovery
    #: (repro.faults).  Part of the cache key: a crashed run's record
    #: must never collide with the clean run of the same cell.
    crash_plan: Optional[CrashPlan] = None
    #: Arm the protocol oracle (repro.oracle): online invariant checks
    #: plus event counts in ``record.extra``.  Observation-only — armed
    #: runs are bit-identical — but part of the cache key so a cached
    #: unchecked record never satisfies a checked request.
    oracle: bool = False
    #: Snapshot-serving reader policy (repro.serve).  Non-None attaches
    #: a ReaderScheduler to the run: concurrent epoch-pinned sessions
    #: read through the Master Mapping Table while the write side runs,
    #: with GC reclaiming unpinned epochs.  Readers share the simulated
    #: NVM banks, so serve runs are distinct cells in the cache.
    serve: Optional[ServePolicy] = None

    @property
    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else SystemConfig()

    @property
    def label(self) -> str:
        """Short human name for progress lines: ``workload/scheme``."""
        return f"{self.workload}/{self.scheme}"

    def with_changes(self, **kwargs: Any) -> "RunSpec":
        return replace(self, **kwargs)

    def canonical(self) -> "RunSpec":
        """The cache-equivalence representative of this spec."""
        spec = self
        if spec.nvo_params is not None and (
            spec.scheme != "nvoverlay" or spec.nvo_params == NVOverlayParams()
        ):
            spec = replace(spec, nvo_params=None)
        if spec.config is None:
            spec = replace(spec, config=SystemConfig())
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; ``config`` is always serialized resolved."""
        spec = self.canonical()
        return {
            "workload": spec.workload,
            "scheme": spec.scheme,
            "config": config_to_dict(spec.resolved_config),
            "scale": spec.scale,
            "seed": spec.seed,
            "nvo_params": nvo_params_to_dict(spec.nvo_params),
            "capture_latency": spec.capture_latency,
            "capture_store_log": spec.capture_store_log,
            "crash_plan": spec.crash_plan.to_dict() if spec.crash_plan else None,
            "oracle": spec.oracle,
            "serve": spec.serve.to_dict() if spec.serve else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            config=config_from_dict(data["config"]),
            scale=data["scale"],
            seed=data["seed"],
            nvo_params=nvo_params_from_dict(data.get("nvo_params")),
            capture_latency=data.get("capture_latency", False),
            capture_store_log=data.get("capture_store_log", False),
            crash_plan=(
                CrashPlan.from_dict(data["crash_plan"])
                if data.get("crash_plan") else None
            ),
            oracle=data.get("oracle", False),
            serve=(
                ServePolicy.from_dict(data["serve"])
                if data.get("serve") else None
            ),
        )

    def cache_key(self) -> str:
        """Stable content hash of this cell (plus the schema version)."""
        payload = {"schema": CACHE_SCHEMA_VERSION, **self.to_dict()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

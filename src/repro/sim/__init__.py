"""Trace-driven multicore simulator substrate for the NVOverlay repro.

Layers (bottom up): cache arrays and device timing models, a directory
MESI hierarchy with optional version-access-protocol support, and the
``Machine`` runner that interleaves multi-threaded workloads
deterministically.  Snapshotting designs plug in via
``repro.sim.scheme.SnapshotScheme``.
"""

from .cache import MESI, CacheArray, CacheLine
from .config import (
    CACHE_LINE_SHIFT,
    CACHE_LINE_SIZE,
    NVM_PROFILES,
    PAGE_SHIFT,
    PAGE_SIZE,
    AdaptiveEpochPolicy,
    CacheGeometry,
    NVMDeviceProfile,
    SystemConfig,
)
from .dram import DRAM
from .hierarchy import Hierarchy
from .interconnect import Interconnect
from .memory import MainMemory, line_base, line_of, lines_touched, page_of
from .nvm import NVM, WRITE_CATEGORIES
from .scheme import (
    EVICT_REASONS,
    REASON_CAPACITY,
    REASON_COHERENCE,
    REASON_OTHER,
    REASON_STORE_EVICT,
    REASON_TAG_WALK,
    NoSnapshot,
    SnapshotScheme,
)
from .stats import Stats
from .system import Machine, RunResult, machine_for
from .trace import load, store
from .validate import InvariantViolation, validate_hierarchy
from .wear import WearReport, WearTracker

__all__ = [
    "AdaptiveEpochPolicy",
    "CACHE_LINE_SHIFT",
    "CACHE_LINE_SIZE",
    "DRAM",
    "NVMDeviceProfile",
    "NVM_PROFILES",
    "EVICT_REASONS",
    "Hierarchy",
    "Interconnect",
    "InvariantViolation",
    "MESI",
    "Machine",
    "MainMemory",
    "NVM",
    "NoSnapshot",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "REASON_CAPACITY",
    "REASON_COHERENCE",
    "REASON_OTHER",
    "REASON_STORE_EVICT",
    "REASON_TAG_WALK",
    "RunResult",
    "SnapshotScheme",
    "Stats",
    "SystemConfig",
    "CacheArray",
    "CacheGeometry",
    "CacheLine",
    "WRITE_CATEGORIES",
    "WearReport",
    "WearTracker",
    "line_base",
    "machine_for",
    "validate_hierarchy",
    "line_of",
    "lines_touched",
    "load",
    "page_of",
    "store",
]

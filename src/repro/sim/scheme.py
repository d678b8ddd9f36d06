"""Interface between the cache hierarchy and snapshotting schemes.

The simulated hierarchy (``repro.sim.hierarchy``) is scheme-agnostic: it
implements baseline MESI plus — when ``uses_version_protocol`` is set —
NVOverlay's version access protocol (§IV-A).  Everything a particular
design does with dirty data leaving a cache goes through this interface:

* NVOverlay routes version write-backs into the OMC;
* PiCL / PiCL-L2 write undo-log entries and persist on leaving their
  tracked domain;
* the software schemes charge persistence-barrier stalls;
* ``NoSnapshot`` is the ideal baseline all Fig. 11 numbers normalize to.

Hook return values are *stall cycles* charged to the core on whose behalf
the hierarchy is acting; background work should instead issue
``NVM.write_background`` traffic and rely on bank back-pressure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .system import Machine

# Reasons a dirty line (or version) leaves a cache; these become the
# Fig. 15 evict-reason decomposition.
REASON_CAPACITY = "capacity"
REASON_COHERENCE = "coherence"
REASON_STORE_EVICT = "store_evict"
REASON_TAG_WALK = "tag_walk"
REASON_OTHER = "other"
EVICT_REASONS = (
    REASON_CAPACITY,
    REASON_COHERENCE,
    REASON_STORE_EVICT,
    REASON_TAG_WALK,
    REASON_OTHER,
)


class SnapshotScheme:
    """Base class: the no-op scheme.  Subclasses override selectively."""

    name = "none"
    #: Enables NVOverlay's CST in the hierarchy: OID tagging, store-
    #: eviction, version-aware write-backs, Lamport epoch synchronization.
    uses_version_protocol = False

    # Table I qualitative feature flags (defaults describe an ideal,
    # non-snapshotting system; each scheme overrides its own row).
    minimum_write_amplification = True
    no_commit_time = True
    no_read_flush = True
    software_redirection = "none"
    persistence_barriers = False
    unbounded_working_set = True
    supports_non_inclusive_llc = True
    distributed_versioning = False

    def __init__(self) -> None:
        self.machine: Optional["Machine"] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, machine: "Machine") -> None:
        """Wire the scheme to the assembled machine (called once)."""
        self.machine = machine

    def finalize(self, now: int) -> None:
        """End of run: flush/persist whatever is still outstanding."""

    # -- fast-path hooks (return stall cycles) ----------------------------
    def on_store(self, core_id: int, vd_id: int, line: int, old_oid: int, now: int) -> int:
        """Called before each store commits.  SW/HW logging hooks here."""
        return 0

    def on_version_writeback(
        self, vd_id: int, line: int, oid: int, data: int, reason: str, now: int
    ) -> int:
        """A version left a VD (CST path; only with the version protocol)."""
        return 0

    def on_l2_dirty_eviction(
        self, vd_id: int, line: int, oid: int, data: int, reason: str, now: int
    ) -> int:
        """A dirty line left an L2 (non-versioned schemes; PiCL-L2 domain)."""
        return 0

    def on_llc_dirty_eviction(self, line: int, oid: int, data: int, now: int) -> int:
        """A dirty line left the LLC toward working memory (PiCL domain)."""
        return 0

    def on_epoch_advance(self, vd_id: int, old_epoch: int, new_epoch: int, now: int) -> int:
        """A VD advanced its epoch (versioned schemes only)."""
        return 0

    def on_version_migrate(
        self, from_vd: int, to_vd: int, line: int, oid: int, now: int
    ) -> None:
        """A dirty version moved between VDs via cache-to-cache transfer.

        NVOverlay lowers the receiving VD's min-ver so the recoverable
        epoch cannot overtake the still-unpersisted version (see
        ``repro.core.omc``).
        """

    # -- slow-path hooks ---------------------------------------------------
    def on_transaction_boundary(self, core_id: int, now: int) -> int:
        """Called between transactions; schemes run their own epoch logic."""
        return 0

    def poll(self, now: int) -> None:
        """Background machinery (tag walkers, merges) gets time here."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class NoSnapshot(SnapshotScheme):
    """Ideal system without snapshotting — the normalization baseline."""

    name = "ideal"

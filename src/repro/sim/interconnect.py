"""On-chip / cross-socket interconnect cost model.

The paper assumes a generic network between VDs, LLC slices and memory
controllers (Fig. 2) and stresses that NVOverlay scales "or even
distributed" beyond one socket.  Coherence behaviour never depends on
topology, so a hop-count latency model suffices: local L2 traffic is
free, reaching an LLC slice costs one hop, a forwarded request to
another VD costs two (requestor -> directory -> owner), and a
cache-to-cache transfer saves the hop back through the directory —
exactly the latency advantage §IV-A3 claims for the dirty-invalidation
optimization.

With ``num_sockets > 1`` VDs and LLC slices are distributed round-robin
across sockets and every hop crossing a socket boundary pays
``socket_hop_penalty`` extra hops, which is how the scalability sweeps
model multi-socket machines.

The message rules below are plain functions of the endpoints: the access
path (``repro.sim.fastpath``) tabulates them once per run and counts the
messages itself, the version write-back to the OMC included.  The one
message ``Hierarchy``'s own steps send, the batched epoch-sync notice,
is counted here.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .config import SystemConfig
from .stats import Stats


class Interconnect:
    """Hop-latency network between VDs, LLC slices and controllers."""

    def __init__(self, config: SystemConfig, stats: Stats) -> None:
        self.hop = config.interconnect_hop_latency
        self._inc = stats.inc
        self.num_sockets = config.num_sockets
        self.penalty = config.socket_hop_penalty * self.hop
        self._vds_per_socket = max(1, config.num_vds // config.num_sockets)
        self._slices_per_socket = max(1, config.llc_slices // config.num_sockets)

    # -- topology --------------------------------------------------------
    def socket_of_vd(self, vd_id: int) -> int:
        return (vd_id // self._vds_per_socket) % self.num_sockets

    def socket_of_slice(self, slice_id: int) -> int:
        return (slice_id // self._slices_per_socket) % self.num_sockets

    # -- message rules: (latency, crosses a socket boundary) --------------
    def _message(self, hops: int, socket_a: int, socket_b: int) -> Tuple[int, bool]:
        if self.num_sockets > 1 and socket_a != socket_b:
            return hops * self.hop + self.penalty, True
        return hops * self.hop, False

    def request(self, vd_id: int, slice_id: int) -> Tuple[int, bool]:
        """A VD's request to an LLC slice and its directory: one hop."""
        return self._message(
            1, self.socket_of_vd(vd_id), self.socket_of_slice(slice_id)
        )

    def invalidation(self, slice_id: int, vd_id: int) -> Tuple[int, bool]:
        """An LLC slice's invalidation of a sharer VD: one hop."""
        return self._message(
            1, self.socket_of_slice(slice_id), self.socket_of_vd(vd_id)
        )

    def forward(self, from_vd: int, to_vd: int) -> Tuple[int, bool]:
        """A request forwarded through the directory to the owner VD:
        two hops, requestor -> directory -> owner."""
        return self._message(2, self.socket_of_vd(from_vd), self.socket_of_vd(to_vd))

    def transfer(self, from_vd: int, to_vd: int) -> Tuple[int, bool]:
        """A cache-to-cache transfer between peer VDs: one hop, skipping
        the way back through the directory."""
        return self._message(1, self.socket_of_vd(from_vd), self.socket_of_vd(to_vd))

    def snoop(self, num_vds: int) -> int:
        """A bus-snoop request every VD sees (and must check).

        Arbitration plus a per-snooper term — the linear component that
        makes broadcast coherence stop scaling (§II-D's motivation for
        the distributed directory this simulator defaults to).  Never
        crosses a socket boundary.
        """
        return 2 * self.hop + (num_vds * self.hop) // 8

    # -- messages counted here ---------------------------------------------
    def epoch_sync_notify(self, vd_id: Optional[int] = None) -> int:
        """Batched epoch-advance announcement (VD -> master OMC).

        With per-store synchronization the advance piggybacks on the
        coherence reply that carried the RV (§III-C) — no separate
        message exists.  Batching replaces those piggybacked updates
        with one explicit notification per transaction boundary, which
        is the message this models.
        """
        self._inc("net.epoch_sync_msgs")
        return self.hop

"""ARQ sublayer: the paper's reliable FIFO channel, built from lossy links.

Sec. 2.1 of the paper *assumes* reliable asynchronous FIFO channels.  Real
systems implement that assumption; this module does too, with the classic
automatic-repeat-request (ARQ) recipe:

* **sequence numbers** per directed channel, stamped on every payload;
* **cumulative acknowledgements** sent by the receiver on every segment;
* **retransmission** of unacknowledged segments with exponential backoff
  (capped) plus multiplicative jitter, forever -- a message to a node that
  is merely slow, partitioned, or crashed-and-recovering is eventually
  delivered, which is exactly the reliability the protocol proofs need;
* **deduplication** of segments the link layer duplicated or that were
  retransmitted after their ack got lost;
* **FIFO reassembly** -- out-of-order arrivals (duplicates and
  retransmissions can reorder) are buffered and delivered in sequence
  order, restoring the per-channel FIFO property.

:class:`ReliableTransport` presents the same facade as
:class:`~repro.sim.network.Network` (``register`` / ``send`` / ``halt`` /
``restart`` / ``stats`` / ``monitor``), so protocol nodes plug into it
unchanged.  Its ``stats`` count *logical* protocol messages (one per
``send``); the wrapped network's stats count wire traffic (segments,
retransmissions, acks).

**Pass-through guarantee.**  In ``"auto"`` mode the ARQ machinery engages
only when the wrapped network carries a :class:`~repro.sim.network
.LinkFaults` model.  On a fault-free network every ``send`` is forwarded
verbatim -- no envelopes, no acks, no extra RNG draws -- so executions are
bit-for-bit identical to running without the transport, and the Thm.
4.1-4.5 benchmarks measure the paper's cost model, not ARQ overhead.

**Crash-recovery.**  Per-node channel state (send windows and reassembly
state) can be captured with :meth:`ReliableTransport.snapshot_node` and
reinstalled with :meth:`restore_node`; the durable-snapshot recovery path
in :mod:`repro.core` stores it alongside protocol state so a restarted
server resumes exactly-once, in-order delivery where its last snapshot
left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .network import NetworkStats
from .scheduler import EventHandle

__all__ = ["TransportConfig", "ReliableTransport", "Segment", "SegmentAck"]

SEG_HEADER_BITS = 32.0  # sequence number + framing
ACK_BITS = 48.0  # cumulative ack + framing


class Segment:
    """Wire envelope: one protocol message plus its channel sequence number."""

    kind = "arq-seg"
    __slots__ = ("seq", "payload", "size_bits")

    def __init__(self, seq: int, payload: object):
        self.seq = seq
        self.payload = payload
        self.size_bits = float(getattr(payload, "size_bits", 0.0)) + SEG_HEADER_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment(seq={self.seq}, payload={self.payload!r})"


class SegmentAck:
    """Cumulative acknowledgement: every seq <= ``cum`` arrived in order."""

    kind = "arq-ack"
    __slots__ = ("cum", "size_bits")

    def __init__(self, cum: int):
        self.cum = cum
        self.size_bits = ACK_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentAck(cum={self.cum})"


@dataclass
class TransportConfig:
    """Tunables for the ARQ sublayer.

    ``mode`` selects when ARQ engages: ``"auto"`` (default) only when the
    wrapped network has a fault model, ``"always"`` unconditionally,
    ``"off"`` never (pure delegation).  ``initial_rto`` is the first
    retransmission timeout (simulated ms); each retransmission multiplies
    it by ``backoff`` up to ``max_rto``, and every wait is stretched by a
    uniform multiplicative jitter in ``[1, 1 + jitter]`` drawn from the
    transport's own RNG (``seed``) to break retransmission synchrony.
    """

    mode: str = "auto"
    initial_rto: float = 12.0
    backoff: float = 2.0
    max_rto: float = 250.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("auto", "always", "off"):
            raise ValueError(f"unknown transport mode {self.mode!r}")
        if self.initial_rto <= 0 or self.max_rto < self.initial_rto:
            raise ValueError("need 0 < initial_rto <= max_rto")
        if self.backoff < 1.0 or self.jitter < 0.0:
            raise ValueError("need backoff >= 1 and jitter >= 0")


@dataclass
class _Outstanding:
    """One unacknowledged segment at the sender."""

    payload: object
    rto: float
    timer: EventHandle | None = field(default=None, compare=False)
    transmissions: int = 0


@dataclass
class _SendState:
    """Sender half of one directed channel."""

    next_seq: int = 0
    unacked: dict[int, _Outstanding] = field(default_factory=dict)


@dataclass
class _RecvState:
    """Receiver half of one directed channel."""

    expected: int = 0  # next in-order sequence number
    buffer: dict[int, object] = field(default_factory=dict)  # out-of-order


class ReliableTransport:
    """Network facade adding ARQ reliability over an unreliable substrate."""

    def __init__(self, network, config: TransportConfig | None = None):
        self.network = network
        self.config = config or TransportConfig()
        self.scheduler = network.scheduler
        self.stats = NetworkStats()  # logical protocol messages
        self.monitor: Callable[[int, int, object], None] | None = None
        self.rng = np.random.default_rng(self.config.seed)
        self._handlers: dict[int, Callable[[int, object], None]] = {}
        self._send_states: dict[tuple[int, int], _SendState] = {}
        self._recv_states: dict[tuple[int, int], _RecvState] = {}
        # observability
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0

    # ------------------------------------------------------------------
    # Network facade

    @property
    def active(self) -> bool:
        """Whether ARQ is engaged (vs. pure pass-through delegation)."""
        if self.config.mode == "always":
            return True
        if self.config.mode == "off":
            return False
        return getattr(self.network, "faults", None) is not None

    @property
    def faults(self):
        return getattr(self.network, "faults", None)

    def register(self, node_id: int, handler: Callable[[int, object], None]) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self.network.register(
            node_id, lambda src, msg, _dst=node_id: self._on_wire(_dst, src, msg)
        )

    def halt(self, node_id: int) -> None:
        self.network.halt(node_id)

    def restart(self, node_id: int) -> None:
        """Un-halt ``node_id`` and resume retransmitting its send windows.

        By default channel state survives the crash in place (as if kept by
        a session layer); durable-recovery callers overwrite it right after
        via :meth:`restore_node` with the snapshotted state.
        """
        self.network.restart(node_id)
        self._rearm_node(node_id)

    def is_halted(self, node_id: int) -> bool:
        return self.network.is_halted(node_id)

    def send(self, src: int, dst: int, msg: object) -> None:
        """Logically send ``msg``; ARQ guarantees eventual FIFO delivery."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination node {dst}")
        if self.network.is_halted(src):
            return  # a halted node takes no steps
        kind = getattr(msg, "kind", type(msg).__name__)
        self.stats.record(kind, float(getattr(msg, "size_bits", 0.0)))
        if self.monitor is not None:
            self.monitor(src, dst, msg)
        if not self.active:
            self.network.send(src, dst, msg)
            return
        st = self._send_states.setdefault((src, dst), _SendState())
        seq = st.next_seq
        st.next_seq += 1
        st.unacked[seq] = _Outstanding(payload=msg, rto=self.config.initial_rto)
        self._transmit(src, dst, seq)

    # ------------------------------------------------------------------
    # sender side

    def _transmit(self, src: int, dst: int, seq: int) -> None:
        st = self._send_states.get((src, dst))
        out = None if st is None else st.unacked.get(seq)
        if out is None or self.network.is_halted(src):
            return  # acked meanwhile, state replaced, or sender crashed
        if out.transmissions > 0:
            self.retransmissions += 1
        out.transmissions += 1
        self.network.send(src, dst, Segment(seq, out.payload))
        wait = out.rto * (1.0 + self.config.jitter * float(self.rng.random()))
        out.rto = min(out.rto * self.config.backoff, self.config.max_rto)
        out.timer = self.scheduler.schedule(
            wait, lambda: self._transmit(src, dst, seq)
        )

    def _on_ack(self, src: int, dst: int, ack: SegmentAck) -> None:
        """Handle an ack at ``src`` for the channel ``src -> dst``."""
        st = self._send_states.get((src, dst))
        if st is None:
            return
        for seq in [s for s in st.unacked if s <= ack.cum]:
            out = st.unacked.pop(seq)
            if out.timer is not None:
                out.timer.cancel()

    # ------------------------------------------------------------------
    # receiver side

    def _on_wire(self, dst: int, src: int, wire: object) -> None:
        if isinstance(wire, SegmentAck):
            # an ack received at dst concerns the channel dst -> src
            self._on_ack(dst, src, wire)
            return
        if not isinstance(wire, Segment):
            # pass-through traffic (ARQ inactive when it was sent)
            self._handlers[dst](src, wire)
            return
        rc = self._recv_states.setdefault((src, dst), _RecvState())
        if wire.seq < rc.expected or wire.seq in rc.buffer:
            self.duplicates_suppressed += 1
        else:
            rc.buffer[wire.seq] = wire.payload
            while rc.expected in rc.buffer:
                payload = rc.buffer.pop(rc.expected)
                rc.expected += 1
                self._handlers[dst](src, payload)
        # cumulative ack (also re-acks duplicates whose ack was lost)
        self.acks_sent += 1
        self.network.send(dst, src, SegmentAck(rc.expected - 1))

    # ------------------------------------------------------------------
    # crash-recovery support

    def snapshot_node(self, node_id: int) -> dict[str, Any]:
        """Channel state owned by ``node_id``, as plain wire-encodable data.

        Covers both halves: send windows of channels ``node_id -> *`` (so a
        recovered node keeps retransmitting messages it logically sent but
        whose delivery was never acknowledged) and delivery watermarks of
        channels ``* -> node_id`` (so retransmissions of already-delivered
        segments are deduplicated after recovery instead of being applied
        twice).  The shape is the live runtime's: ``{"send": {dst: {"seq":
        next seq, "unacked": [(seq, payload), ...]}}, "recv": {src: next
        expected seq}}``.  Out-of-order segments buffered at the receiver
        are left out: the cumulative ack never covered them, so their
        senders still hold and retransmit them.  Payloads are shared, not
        copied -- protocol messages are never mutated after a send.
        """
        send = {
            dst: {
                "seq": st.next_seq,
                "unacked": [(seq, out.payload) for seq, out in st.unacked.items()],
            }
            for (src, dst), st in self._send_states.items()
            if src == node_id
        }
        recv = {
            src: rc.expected
            for (src, dst), rc in self._recv_states.items()
            if dst == node_id
        }
        return {"send": send, "recv": recv}

    def restore_node(self, node_id: int, snap: dict[str, Any]) -> None:
        """Reinstall snapshotted channel state and re-arm retransmissions."""
        for chan in [c for c in self._send_states if c[0] == node_id]:
            for out in self._send_states[chan].unacked.values():
                if out.timer is not None:
                    out.timer.cancel()
            del self._send_states[chan]
        for chan in [c for c in self._recv_states if c[1] == node_id]:
            del self._recv_states[chan]
        for dst, st in snap["send"].items():
            self._send_states[(node_id, dst)] = _SendState(
                next_seq=st["seq"],
                unacked={
                    seq: _Outstanding(payload=payload, rto=self.config.initial_rto)
                    for seq, payload in st["unacked"]
                },
            )
        for src, expected in snap["recv"].items():
            self._recv_states[(src, node_id)] = _RecvState(expected=expected)
        self._rearm_node(node_id)

    def _rearm_node(self, node_id: int) -> None:
        """Restart retransmission timers for every unacked outgoing segment."""
        for (src, dst), st in self._send_states.items():
            if src != node_id:
                continue
            for seq, out in list(st.unacked.items()):
                if out.timer is not None:
                    out.timer.cancel()
                    out.timer = None
                self._transmit(src, dst, seq)

    # ------------------------------------------------------------------
    # introspection

    def in_flight(
        self, src: int | None = None, exclude: tuple = ()
    ) -> int:
        """Unacknowledged segments (optionally restricted to one sender).

        ``exclude`` skips segments whose payload is one of the given
        message types.  Convergence checks use it to ignore perpetual
        background gossip (e.g. repair digests fire every interval, so at
        any instant an ack may legitimately still be on the wire).
        """
        return sum(
            sum(
                1
                for out in st.unacked.values()
                if not exclude or not isinstance(out.payload, exclude)
            )
            for (s, _), st in self._send_states.items()
            if src is None or s == src
        )

"""Simulated CausalEC server: the sans-I/O core on the discrete-event runtime.

The protocol itself (Algorithms 1-3) lives in
:class:`~repro.protocol.server_core.ServerCore`, a pure state machine;
this module supplies :class:`CausalECServer`, the class every simulation,
benchmark, and model-checking harness instantiates.  It mixes the core
with the :class:`~repro.runtime.sim.EffectNode` adapter, which delivers
scheduler/network events into the core and interprets the returned effects
(sends, timers, persistence) in order -- bit-for-bit equivalent to the
pre-sans-I/O implementation.

What remains here is exactly the simulation-specific machinery: durable
commits to a :class:`~repro.core.snapshot.DurableStore` through the
write-ahead log of :mod:`repro.core.wal` (with optional ARQ channel
state) and the crash/restart choreography of :meth:`halt` /
:meth:`on_restart`.

``ServerConfig`` and ``ServerStats`` are re-exported from the protocol
package for backward compatibility.
"""

from __future__ import annotations

from ..core.messages import DigestMsg, RepairRequest, RepairResponse
from ..core.wal import DurableLog
from ..ec.code import LinearCode
from ..protocol.repair_core import RepairConfig, RepairCore
from ..protocol.scrub_core import ScrubConfig, ScrubCore
from ..protocol.server_core import ServerConfig, ServerCore, ServerStats
from ..runtime.sim import EffectNode
from ..sim.network import Network
from ..sim.node import Node
from ..sim.scheduler import Scheduler

__all__ = ["CausalECServer", "ServerConfig", "ServerStats"]

_REPAIR_MESSAGES = (DigestMsg, RepairRequest, RepairResponse)


class CausalECServer(EffectNode, ServerCore):
    """One CausalEC server node (server index == node id).

    ``repair`` attaches the anti-entropy overlay
    (:class:`~repro.protocol.repair_core.RepairCore`): its ``("rep", ...)``
    timers and digest/repair messages are multiplexed here onto the same
    timer table and message stream the protocol core uses.  ``scrub``
    likewise attaches the bit-rot scrubber
    (:class:`~repro.protocol.scrub_core.ScrubCore`, ``("scrub", ...)``
    timers); each round additionally re-checks this server's durable
    checkpoint slot and heals detected rot by re-persisting from memory.
    """

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        network: Network,
        code: LinearCode,
        config: ServerConfig | None = None,
        repair: RepairConfig | None = None,
        scrub: ScrubConfig | None = None,
    ):
        Node.__init__(self, node_id, scheduler, network)
        ServerCore.__init__(self, node_id, code, config)
        #: durable storage for crash-recovery; wired by attach_durability().
        self.durable = None
        self._transport = None
        self._timers: dict[tuple, object] = {}
        self.decision_log: list[tuple] = []
        self.repair = None if repair is None else RepairCore(self, repair)
        self.scrub = None if scrub is None else ScrubCore(self, scrub)
        self.interpret(self.boot(self.scheduler.now))
        if self.repair is not None:
            self.interpret(self.repair.boot(self.scheduler.now))
        if self.scrub is not None:
            self.interpret(self.scrub.boot(self.scheduler.now))

    # ------------------------------------------------------------------
    # repair-overlay multiplexing

    def handle_message(self, src: int, msg: object, now: float) -> list:
        if isinstance(msg, _REPAIR_MESSAGES):
            if self.repair is None:
                return []  # overlay disabled here: drop peer repair traffic
            return self.repair.handle_message(src, msg, now)
        return ServerCore.handle_message(self, src, msg, now)

    def handle_timer(self, timer_id: tuple, now: float) -> list:
        if timer_id[0] == "rep":
            if self.repair is None:  # pragma: no cover - defensive
                return []
            return self.repair.handle_timer(timer_id, now)
        if timer_id[0] == "scrub":
            if self.scrub is None:  # pragma: no cover - defensive
                return []
            effects = self.scrub.handle_timer(timer_id, now)
            self._scrub_disk()
            return effects
        return ServerCore.handle_timer(self, timer_id, now)

    def _scrub_disk(self) -> None:
        """Disk-side scrub: re-verify this server's checkpoint slot and
        heal detected rot by re-persisting from live memory."""
        if self.durable is None or self.halted:
            return
        ok = self.durable.verify(self.node_id)
        if ok is None:
            return
        stats = self.scrub.stats
        if ok:
            stats.checkpoints_verified += 1
            return
        stats.checkpoints_corrupt += 1
        self._wal.force_snapshot()
        self._persist()
        stats.checkpoints_rewritten += 1

    # ------------------------------------------------------------------
    # durability and crash-recovery

    def attach_durability(self, store, transport=None) -> None:
        """Commit durable state to ``store`` (and ARQ channel state).

        Every PersistEffect -- emitted after every handled message and
        timer step -- is a commit of the write-ahead log
        (:class:`~repro.core.wal.DurableLog`): the first writes a
        snapshot, later ones append the changed keys.  Every state the
        server has acknowledged to anyone is therefore recoverable, so a
        restart never regresses the causal past (no vector-clock
        rollback, no forgotten writes).  Delivery and commit happen within
        one scheduler event, i.e. atomically with respect to crash events.
        """
        from .snapshot import capture_server_state  # avoid import cycle

        self.durable = store
        self._transport = transport
        self._wal = DurableLog(store, self.node_id, capture_server_state)
        self._persist()

    def _persist(self) -> None:
        if self.durable is None or self.halted:
            return
        if self._wal.commit(self, self._transport, self.scheduler.now):
            self.stats.persists += 1

    def halt(self) -> None:
        """Crash: lose volatile state (when durability models it as such)."""
        super().halt()
        if self.durable is not None:
            # wipe in-memory protocol state so recovery demonstrably comes
            # from stable storage, not from simulator memory
            self.wipe_volatile()

    def on_restart(self) -> None:
        """Crash-recovery: reload the last durable snapshot and rejoin.

        The restored ARQ channel state resumes retransmission of anything
        this server sent but never saw acknowledged, and deduplicates
        retransmissions of segments it had already delivered -- together
        with eager persistence this re-establishes the paper's reliable
        FIFO channels across the crash.  The core's
        :meth:`~repro.protocol.server_core.ServerCore.after_restart` then
        re-arms GC timers and re-inquires pending reads.
        """
        from .snapshot import restore_server_state  # avoid import cycle

        self.stats.restarts += 1
        if self.durable is not None:
            # the new incarnation starts a fresh snapshot generation
            self._wal.force_snapshot()
            checkpoint = self.durable.load(self.node_id)
            if checkpoint is not None:
                restore_server_state(self, checkpoint, self._transport)
        self._timers = {}  # timers died with the old incarnation
        self.interpret(self.after_restart(self.scheduler.now))
        if self.repair is not None:
            # the overlay's round state is volatile: reboot it fresh
            self.interpret(self.repair.boot(self.scheduler.now))
        if self.scrub is not None:
            self.interpret(self.scrub.boot(self.scheduler.now))

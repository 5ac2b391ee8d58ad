"""The CausalEC server protocol as a sans-I/O state machine.

:class:`ServerCore` implements, for server ``s``, exactly the transitions of
the paper's pseudocode -- client messages (Algorithm 1), server messages
(Algorithm 2), and internal actions (Algorithm 3) -- as a *pure* state
machine: handlers consume ``(event, now)`` and emit typed effects
(:mod:`repro.protocol.effects`) instead of touching a scheduler or network.
The same core instance can therefore be driven by the discrete-event
simulator, by the bounded model checker, and by a real asyncio TCP cluster,
with one shared implementation of the protocol.

* **Client-message transitions** (Algorithm 1): local writes that increment
  the vector clock, append to the history list, ack immediately and
  broadcast ``app``; reads served locally from the history list or by local
  decoding, otherwise registered in ``ReadL`` with ``val_inq`` inquiries.
* **Server-message transitions** (Algorithm 2): ``app``/``del`` bookkeeping;
  ``val_inq`` answered immediately (wait-free) with either an uncoded
  ``val_resp`` or a re-encoded ``val_resp_encoded``; responses folded into
  pending reads, with decoding once the collected symbols contain a recovery
  set.
* **Internal actions** (Algorithm 3): ``Apply_InQueue`` (causal application
  of remote writes), ``Encoding`` (re-encode the stored codeword symbol to
  newer versions, triggering *internal reads* when the currently-encoded
  version is no longer in the history list), and ``Garbage_Collection``
  (watermark-driven deletion from history lists).

Deviations from the pseudocode are deliberate, documented in DESIGN.md, and
behaviour-preserving: the zero-tag convention, re-encoding with the sender's
Gamma in the ``val_resp_encoded`` handler, first-applicable InQueue scanning,
and del-broadcast deduplication.

Timers are named tuples interpreted by :meth:`ServerCore.handle_timer`:
``("gc",)`` for the periodic Garbage_Collection action and
``("readto", opid, remaining)`` for the recovery-set read-policy fallback
broadcast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..ec.code import LinearCode
from ..core.messages import (
    App,
    CostModel,
    Del,
    MigrateInstall,
    ReadRequest,
    ReadReturn,
    ValInq,
    ValResp,
    ValRespEncoded,
    ViewInstall,
    ViewInstallAck,
    WriteAck,
    WriteRequest,
)
from ..core.state import (
    Codeword,
    DeletionList,
    HistoryList,
    InQueue,
    InQueueEntry,
    ReadEntry,
    ReadList,
)
from ..core.tags import LOCALHOST, Tag, VectorClock, zero_tag
from .effects import (
    CancelTimerEffect,
    LogEffect,
    PersistEffect,
    ProtocolCore,
    SetTimerEffect,
)

__all__ = ["ServerCore", "ServerConfig", "ServerStats"]


@dataclass
class ServerConfig:
    """Tunables for a CausalEC server.

    * ``gc_interval`` -- period (ms) of the Garbage_Collection internal
      action; ``None`` runs GC eagerly after every message (useful in
      tests).  Encoding and Apply_InQueue always run eagerly; the paper
      places no timing constraints on internal actions beyond fairness.
    * ``read_policy`` -- ``"broadcast"`` sends ``val_inq`` to every other
      node (Algorithm 1); ``"recovery_set"`` implements the Sec. 4.2
      optimisation: inquire the cheapest recovery set first and broadcast
      only after ``read_timeout`` ms.
    * ``rtt`` -- optional round-trip-time matrix used by ``recovery_set``
      to pick the nearest recovery set.
    * ``del_leader`` -- the other half of the Sec. 4.2 / Appendix G
      low-cost variant: when set to a server id, ``del`` messages are sent
      to that leader, which forwards them to everyone (O(1) del sends per
      writer instead of O(N)).  Convergence liveness (Theorem 4.5) then
      additionally requires the leader to stay up; safety is unaffected.
    * ``decision_log`` -- emit :class:`~repro.protocol.effects.LogEffect`
      records for protocol decisions (write/apply order, read returns, GC
      deletions); used to assert that two runtimes drive the shared core
      identically.
    """

    gc_interval: float | None = None
    read_policy: str = "broadcast"
    read_timeout: float = 500.0
    rtt: np.ndarray | None = None
    del_leader: int | None = None
    record_visibility: bool = False
    cost_model: CostModel = dc_field(default_factory=CostModel)
    decision_log: bool = False


@dataclass
class ServerStats:
    """Operation and internal-action counters for one server."""

    writes: int = 0
    reads: int = 0
    local_reads: int = 0
    decoded_local_reads: int = 0
    remote_reads: int = 0
    internal_reads: int = 0
    reencodings: int = 0
    gc_runs: int = 0
    gc_deletions: int = 0
    error1_events: int = 0
    error2_events: int = 0
    duplicate_requests: int = 0
    parked_requests: int = 0
    restarts: int = 0
    persists: int = 0
    #: codeword-seal mismatches that led to a quarantine (bit rot detected
    #: by a scrub round or by a guard on a path about to use the symbol)
    integrity_quarantines: int = 0
    #: read responses discarded because the responder answered from a
    #: crash-recovered state behind the requested cut (not a protocol
    #: error: anti-entropy will catch the responder up)
    stale_read_responses: int = 0


def _tag_key(tag: Tag) -> tuple:
    return (tag.ts.components, tag.client_id)


class ServerCore(ProtocolCore):
    """One CausalEC server (server index == code position), sans I/O."""

    def __init__(
        self,
        node_id: int,
        code: LinearCode,
        config: ServerConfig | None = None,
        clock_dim: int | None = None,
    ):
        if not 0 <= node_id < code.N:
            raise ValueError("server id must index a code position")
        self.node_id = node_id
        self.code = code
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.now = 0.0

        # ``clock_dim`` decouples the vector-clock dimension from code.N
        # for dynamic membership: tags minted by the founding members are
        # length-``clock_dim`` forever (VectorClock comparisons are
        # componentwise, so mixing dimensions would corrupt the order).  A
        # joiner added beyond the founding set runs with the *founding*
        # dimension and is non-minting: it serves reads, applies, repairs
        # and stores redundancy, but no client write is ever homed on it.
        n, k = (clock_dim if clock_dim is not None else code.N), code.K
        if not 1 <= n <= code.N:
            raise ValueError("clock_dim must be in 1..code.N")
        self.clock_dim = n
        self._zero = zero_tag(n)
        self.vc = VectorClock.zero(n)
        self.inqueue = InQueue()
        self.L: dict[int, HistoryList] = {}
        self.DelL: dict[int, DeletionList] = {}
        self.readl = ReadList()
        self.tmax: dict[int, Tag] = {}
        for x in range(k):
            hist = HistoryList(self._zero)
            hist.add(self._zero, code.zero_value())  # Fig. 3 initial state
            self.L[x] = hist
            self.DelL[x] = DeletionList()
            self.tmax[x] = self._zero
        self.M = Codeword(
            value=code.zero_symbol(node_id),
            tagvec={x: self._zero for x in range(k)},
        )
        self.objects = code.objects_at(node_id)
        #: membership epoch: bumped by committed reconfigurations.
        #: Durable, and deliberately NOT reset by :meth:`wipe_volatile` --
        #: a scrub quarantine must not fence a server out of its own
        #: membership.
        self.cfg_epoch = 0
        #: permanently removed server ids (retired members), as a sorted
        #: tuple so it wire-encodes into checkpoints.  Retired servers are
        #: excluded from broadcast fanout, read inquiries and the GC
        #: watermark agreement -- otherwise every watermark would wait
        #: forever on dels from a server that no longer exists.
        self.cfg_retired: tuple[int, ...] = ()
        self._refresh_membership()
        self._opid_seq = 0  # plain int: fork/deepcopy-deterministic
        # del-broadcast deduplication (see DESIGN.md)
        self._del_sent_storing: dict[int, Tag] = {x: self._zero for x in range(k)}
        self._del_sent_all: dict[int, Tag] = {x: self._zero for x in range(k)}
        #: pending-read timeout bookkeeping: opid -> armed timer id
        self._read_timeouts: dict[object, tuple] = {}
        #: per-client request dedup: client id -> (last write opid, cached
        #: ack).  Client retries (timeout + retransmit) may deliver the same
        #: WriteRequest twice; re-acking from the cache keeps writes
        #: exactly-once even across a crash-restart (the table is part of
        #: the durable checkpoint).
        self._client_sessions: dict[int, tuple[object, WriteAck]] = {}
        #: (time, obj, tag) triples recorded when a version becomes locally
        #: visible (write receipt or causal application); enables visibility
        #: latency measurement.  Populated only with record_visibility.
        self.visibility_log: list[tuple[float, int, Tag]] = []
        #: requests from failed-over clients whose session floor this
        #: server's clock does not yet dominate, parked until it does.
        #: Volatile on purpose: a crash drops them and the client's retry
        #: re-delivers.
        self._parked: list[tuple[int, object]] = []
        #: ring epoch (sharded deployments): highest view version adopted
        #: via ViewInstall or piggybacked on a request.  Durable -- a
        #: restarted server resumes in the epoch it last acknowledged.
        self.view = 0
        self.reseal_codeword()

    # ------------------------------------------------------------------
    # codeword integrity seal (bit-rot detection)

    #: class-level defaults so cores forked by structural copy (the model
    #: checker bypasses ``__init__``) and pre-seal checkpoints stay valid:
    #: an absent seal means "unsealed", which verifies trivially
    _m_seal: bytes | None = None
    _seal_checked = True

    def _codeword_digest(self) -> bytes:
        """blake2b over the stored symbol bytes and its tag vector."""
        h = hashlib.blake2b(digest_size=16)
        arr = np.ascontiguousarray(self.M.value)
        if arr.size:  # zero-size views cannot be cast
            h.update(memoryview(arr).cast("B"))
        h.update(
            repr(
                sorted(
                    (x, t.ts.components, t.client_id)
                    for x, t in self.M.tagvec.items()
                )
            ).encode()
        )
        return h.digest()

    def reseal_codeword(self) -> None:
        """Recompute the integrity seal after a *legitimate* mutation of M.

        Called only where the protocol itself rewrites the codeword
        (init, crash-wipe, checkpoint restore, the Encoding action,
        quarantine); anything that changes M without resealing -- bit rot
        above all -- fails :meth:`verify_codeword` at the next guard or
        scrub round.
        """
        self._m_seal = self._codeword_digest()

    def verify_codeword(self) -> bool:
        """Does the stored codeword still match its seal?"""
        seal = getattr(self, "_m_seal", None)
        return seal is None or seal == self._codeword_digest()

    def _guard_codeword(self) -> None:
        """Verify the seal before the symbol is used or mutated.

        At most one verification per handled event (``_begin`` resets the
        latch).  On mismatch the symbol is quarantined *before* it can be
        served to a reader, folded over, or resealed -- corruption is
        never laundered into valid-looking state.
        """
        if self._seal_checked:
            return
        self._seal_checked = True
        if not self.verify_codeword():
            self._quarantine_corrupt()

    def _quarantine_corrupt(self) -> dict[int, Tag]:
        """Discard a corrupt codeword: detected rot is a storage crash.

        Zeroing only the symbol would not be safe: the vector clock would
        keep claiming writes whose folded data just vanished, so any read
        served from the remaining local state would be a causal regression
        (the response ``ts`` dominates writes the reply does not reflect),
        and the read path's re-encode machinery cannot rebuild versions at
        the GC watermark -- their plain values are gone from every history
        list, and only the repair overlay's recovery-set symbol pooling
        can re-derive them.  Quarantine therefore wipes volatile state
        entirely, landing on the well-tested crash-without-durability
        path: the server rejoins from the initial state, session floors
        park clients that know more (no session ever regresses), and
        anti-entropy re-installs the lost writes and re-encodes the
        symbol from any live recovery set of peers.
        """
        old = dict(self.M.tagvec)
        self.stats.integrity_quarantines += 1
        self.wipe_volatile()
        self._log(
            "scrub-quarantine",
            sorted(
                (x, _tag_key(t)) for x, t in old.items() if t != self._zero
            ),
        )
        return old

    def corrupt_codeword(self, seed: int = 0, flips: int = 1) -> None:
        """Chaos helper: flip seeded bits in the stored symbol (bit rot).

        The damage is a pure function of ``(seed, node_id, flips)`` so
        fault schedules replay identically.
        """
        arr = np.array(self.M.value, copy=True)
        raw = arr.view(np.uint8).reshape(-1)
        if not raw.size:
            return
        rng = np.random.default_rng((seed, 0x5C4B, self.node_id))
        for _ in range(flips):
            pos = int(rng.integers(0, raw.size))
            raw[pos] ^= np.uint8(1 << int(rng.integers(0, 8)))
        self.M.value = arr

    # ------------------------------------------------------------------
    # helpers

    def _lookup(self, obj: int, tag: Tag) -> np.ndarray | None:
        """Value for ``tag`` in L[obj]; the zero tag always resolves to 0.

        The zero tag denotes the initial (all-zero) object value, which the
        initial history list carries explicitly (Fig. 3); treating it as
        always resolvable keeps the pseudocode's ``tag != 0`` case analysis
        uniform after garbage collection removes the initial entry.
        """
        if tag == self._zero:
            return self.code.zero_value()
        return self.L[obj].get(tag)

    def _next_opid(self) -> tuple:
        self._opid_seq += 1
        return ("srv", self.node_id, self._opid_seq)

    def _sized(self, msg, n_values: float = 0.0, n_tags: float = 0.0):
        msg.size_bits = self.config.cost_model.size(n_values, n_tags)
        return msg

    def _storing_nodes(self, obj: int) -> list[int]:
        return [
            i
            for i in range(self.code.N)
            if obj in self.code.objects_at(i) and i not in self.cfg_retired
        ]

    def _active_nodes(self) -> list[int]:
        """Member ids of the current configuration (self included)."""
        return [i for i in range(self.code.N) if i not in self.cfg_retired]

    def _refresh_membership(self) -> None:
        """Recompute the cached peer fanout from code + retirements."""
        self._others = [
            i
            for i in range(self.code.N)
            if i != self.node_id and i not in self.cfg_retired
        ]

    # ------------------------------------------------------------------
    # dynamic membership (driven by the reconfiguration overlay)

    def adopt_code(self, new_code: LinearCode) -> None:
        """Install an extended code: the same rows plus joined servers.

        Called when a reconfiguration commit adds members.  The first
        ``self.code.N`` coefficient matrices must be unchanged (existing
        codeword symbols stay valid coordinates of the extended code);
        only membership-derived caches are refreshed -- clocks, tags,
        history lists and the local symbol are untouched.
        """
        if new_code.K != self.code.K or new_code.value_len != self.code.value_len:
            raise ValueError("extended code must keep K and value_len")
        if new_code.N < self.code.N:
            raise ValueError("adopt_code cannot shrink the code")
        for s in range(self.code.N):
            if not np.array_equal(new_code.matrices[s], self.code.matrices[s]):
                raise ValueError(f"extended code changes server {s}'s rows")
        self.code = new_code
        self.objects = new_code.objects_at(self.node_id)
        self._refresh_membership()

    def set_retired(self, retired) -> None:
        """Mark ``retired`` server ids as permanently removed."""
        self.cfg_retired = tuple(sorted(set(int(i) for i in retired)))
        if self.node_id in self.cfg_retired:
            raise ValueError("a server cannot retire itself and keep running")
        self._refresh_membership()

    def _log(self, *entry) -> None:
        if self.config.decision_log:
            self._emit(LogEffect(entry))

    # ------------------------------------------------------------------
    # runtime-facing contract

    def _begin(self, now: float) -> None:
        super()._begin(now)
        # one codeword-seal verification per handled event, on demand
        self._seal_checked = False

    def boot(self, now: float = 0.0) -> list:
        """Effects to perform when the server process starts fresh."""
        self._begin(now)
        if self.config.gc_interval is not None:
            self._emit(SetTimerEffect(("gc",), self.config.gc_interval))
        return self._end()

    def handle_message(self, src: int, msg: object, now: float) -> list:
        self._begin(now)
        if isinstance(msg, WriteRequest):
            self._on_write(src, msg)
        elif isinstance(msg, ReadRequest):
            self._on_read(src, msg)
        elif isinstance(msg, App):
            # Covered entries (``ts[src] <= vc[src]``) can never satisfy the
            # applicability predicate again -- vc components are monotone --
            # so queueing them would hold transient state above zero forever.
            # Algorithm 3 assumes exactly-once channels; here a restart that
            # lost its ARQ dedup state (e.g. a corrupt checkpoint) makes
            # peers re-deliver old ``app`` messages after anti-entropy has
            # already merged a clock past them.
            if msg.tag.ts[src] > self.vc[src]:
                self.inqueue.add(InQueueEntry(src, msg.obj, msg.value, msg.tag))
        elif isinstance(msg, Del):
            self._on_del(src, msg)
        elif isinstance(msg, ValInq):
            self._on_val_inq(src, msg)
        elif isinstance(msg, ValResp):
            self._on_val_resp(src, msg)
        elif isinstance(msg, ValRespEncoded):
            self._on_val_resp_encoded(src, msg)
        elif isinstance(msg, ViewInstall):
            self._on_view_install(src, msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {msg!r}")
        self._internal_actions()
        self._drain_parked()
        self._emit(PersistEffect())
        return self._end()

    def handle_timer(self, timer_id: tuple, now: float) -> list:
        self._begin(now)
        if timer_id[0] == "gc":
            self._gc_tick()
        elif timer_id[0] == "readto":
            self._read_timeout(timer_id[1], list(timer_id[2]))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown timer {timer_id!r}")
        return self._end()

    def after_restart(self, now: float) -> list:
        """Effects to perform after durable state has been reinstalled.

        GC timers are re-armed (they died with the old incarnation) and
        pending remote reads re-inquire: responses to the pre-crash
        inquiries may have been consumed by the dead incarnation, so ask
        everyone again.
        """
        self._begin(now)
        if self.config.gc_interval is not None:
            self._emit(SetTimerEffect(("gc",), self.config.gc_interval))
        for entry in list(self.readl.entries()):
            for j in self._others:
                self._emit_send(
                    j,
                    self._sized(
                        ValInq(
                            entry.client_id, entry.opid, entry.obj,
                            dict(entry.tagvec),
                        ),
                        0,
                        self.code.K,
                    ),
                )
        self._internal_actions()
        self._emit(PersistEffect())
        return self._end()

    def wipe_volatile(self) -> None:
        """Crash: reset in-memory protocol state to the initial state.

        Called by runtimes that model durability, so recovery demonstrably
        comes from stable storage, not from process memory.  Membership
        state (``cfg_epoch``, ``cfg_retired``) survives on purpose: a
        quarantine is a storage crash, not an eviction.
        """
        code, n, k = self.code, self.clock_dim, self.code.K
        self.vc = VectorClock.zero(n)
        self.inqueue = InQueue()
        self.L = {}
        self.DelL = {}
        self.readl = ReadList()
        self.tmax = {}
        for x in range(k):
            hist = HistoryList(self._zero)
            hist.add(self._zero, code.zero_value())
            self.L[x] = hist
            self.DelL[x] = DeletionList()
            self.tmax[x] = self._zero
        self.M = Codeword(
            value=code.zero_symbol(self.node_id),
            tagvec={x: self._zero for x in range(k)},
        )
        self._opid_seq = 0
        self._del_sent_storing = {x: self._zero for x in range(k)}
        self._del_sent_all = {x: self._zero for x in range(k)}
        self._client_sessions = {}
        self._read_timeouts = {}
        self._parked = []
        self.view = 0
        self.reseal_codeword()

    # ------------------------------------------------------------------
    # anti-entropy (the repair overlay's window into protocol state)

    def repair_known_tag(self, x: int) -> Tag:
        """Highest tag this server holds for ``x``: history list or symbol."""
        h = self.L[x].highest_tag
        m = self.M.tagvec[x]
        return h if h > m else m

    def absorb_repair(
        self,
        installs: list[tuple[int, Tag, np.ndarray]],
        dels: dict[int, dict[int, Tag]],
        peer_vc: VectorClock | None,
        peer_tags: dict[int, Tag],
        now: float,
    ) -> list:
        """Install anti-entropy results pulled from a peer; return effects.

        Called by :class:`~repro.protocol.repair_core.RepairCore` after a
        repair response.  Three monotone joins, none of which mints tags or
        acks clients (the safety argument is in PROTOCOL.md):

        * ``installs`` -- (object, tag, value) triples land in the history
          list; the regular Encoding internal action then folds them into
          the codeword symbol and emits the usual ``del`` notices.
        * ``dels`` -- per-object per-node deletion maxima, replaying ``del``
          messages lost to the fault that made repair necessary; without
          them garbage collection would stall forever on both sides.
        * ``peer_vc`` -- adopted only once our per-object knowledge covers
          every tag the peer advertised (``peer_tags``): the merged state
          is then a causally-closed superset of the peer's, so claiming its
          clock is sound.  InQueue entries the merged clock covers are
          purged -- they are permanently inapplicable and already subsumed.
        """
        self._begin(now)
        for x, tag, value in installs:
            if tag > self.repair_known_tag(x) and tag not in self.L[x]:
                self.L[x].add(tag, value)
                self._log("repair-install", x, _tag_key(tag))
                if self.config.record_visibility:
                    self.visibility_log.append((self.now, x, tag))
        for x, by_node in dels.items():
            for node, tag in by_node.items():
                self.DelL[x].add(tag, node)
        if peer_vc is not None and not peer_vc.leq(self.vc):
            if all(self.repair_known_tag(x) >= t for x, t in peer_tags.items()):
                self.vc = self.vc.merge(peer_vc)
                self.inqueue.purge_covered(self.vc)
        self._internal_actions()
        self._drain_parked()
        self._emit(PersistEffect())
        return self._end()

    def scrub_codeword(self, now: float) -> tuple[bool, list]:
        """One scrub pass over the stored symbol (the scrub overlay's
        window into protocol state, like :meth:`absorb_repair` is the
        repair overlay's).

        Verifies the integrity seal; on mismatch quarantines the symbol
        and immediately runs the internal actions so every version the
        history list still holds is refolded in the same step.  Returns
        ``(was_clean, effects)``.
        """
        self._begin(now)
        self._seal_checked = True
        clean = self.verify_codeword()
        if not clean:
            self._quarantine_corrupt()
            self._internal_actions()
            self._emit(PersistEffect())
        return clean, self._end()

    # ------------------------------------------------------------------
    # Algorithm 1: client messages

    def _on_write(self, client: int, msg: WriteRequest) -> None:
        self._adopt_view(msg)
        cached = self._client_sessions.get(client)
        if cached is not None and cached[0] == msg.opid:
            # retried request whose effect is already applied: re-ack only
            self.stats.duplicate_requests += 1
            self._emit_reply(client, cached[1])
            return
        if self._park_if_behind(client, msg):
            return
        self.stats.writes += 1
        self.vc = self.vc.increment(self.node_id)
        tag = Tag(self.vc, client)
        self.L[msg.obj].add(tag, msg.value)
        kind = "migrate" if isinstance(msg, MigrateInstall) else "write"
        self._log(kind, msg.obj, _tag_key(tag), msg.opid, client)
        if self.config.record_visibility:
            self.visibility_log.append((self.now, msg.obj, tag))
        ack = WriteAck(msg.opid)
        ack.ts = self.vc
        ack.tag = tag
        # copy-on-write: the write-ahead log detects changes by identity
        self._client_sessions = {**self._client_sessions, client: (msg.opid, ack)}
        self._emit_reply(client, self._sized(ack))
        for j in self._others:
            self._emit_send(j, self._sized(App(msg.obj, msg.value, tag), 1, 1))
        # clear pending external reads to this object (Alg. 1 lines 7-9)
        for entry in self.readl.for_object(msg.obj):
            if entry.client_id != LOCALHOST:
                self._respond_read(entry, msg.value, tag)

    def _on_read(self, client: int, msg: ReadRequest) -> None:
        self._guard_codeword()  # never decode a reply from a rotted symbol
        self._adopt_view(msg)
        if self.readl.get(msg.opid) is not None:
            # retried request already pending: inquiries are in flight
            self.stats.duplicate_requests += 1
            return
        if self._park_if_behind(client, msg):
            return
        self.stats.reads += 1
        obj = msg.obj
        hist = self.L[obj]
        if len(hist) and hist.highest_tag >= self.M.tagvec[obj]:
            self.stats.local_reads += 1
            value = hist.highest_value()
            self._send_read_return(client, msg.opid, value, hist.highest_tag, obj)
            return
        if self.code.is_recovery_set((self.node_id,), obj):
            self.stats.decoded_local_reads += 1
            value = self.code.decode(obj, {self.node_id: self.M.value})
            self._send_read_return(client, msg.opid, value, self.M.tagvec[obj], obj)
            return
        self.stats.remote_reads += 1
        self._register_read(client, msg.opid, obj)

    def _adopt_view(self, msg) -> None:
        """Monotonically adopt a newer ring epoch piggybacked on a request
        (covers servers that missed the ViewInstall broadcast, e.g. ones
        crashed during the view change)."""
        v = getattr(msg, "view", None)
        if v is not None and v > self.view:
            self.view = v

    def _on_view_install(self, src: int, msg: ViewInstall) -> None:
        """Adopt ring epoch ``version`` and ack with this clock.

        Installation is idempotent and monotone; the coordinator
        broadcasts it to every server of every shard before migrating the
        first key, so by cutover the whole fleet agrees on the epoch."""
        if msg.version > self.view:
            self.view = msg.version
            self._log("view-install", msg.version)
        ack = ViewInstallAck(msg.version)
        ack.ts = self.vc
        self._emit_reply(src, self._sized(ack, 0, 1))

    def _park_if_behind(self, client: int, msg) -> bool:
        """Defer a request whose session floor this clock does not cover.

        A client that failed over carries the merge of every response
        ``ts`` its session has observed.  Serving it from a clock that
        does not dominate that floor could regress the session (stale
        reads of its own writes, write tags ordered before ones it has
        already seen).  Park the request; causal application of the
        missing writes advances ``vc`` and releases it.
        """
        floor = getattr(msg, "session_ts", None)
        if floor is None or floor.leq(self.vc):
            return False
        if any(m.opid == msg.opid for _, m in self._parked):
            # client retry of an already-parked request
            self.stats.duplicate_requests += 1
            return True
        self.stats.parked_requests += 1
        self._parked.append((client, msg))
        return True

    def _drain_parked(self) -> None:
        """Re-dispatch parked requests whose floor ``vc`` now dominates.

        Runs to fixpoint: serving a parked write increments ``vc`` and may
        release further parked requests.
        """
        progress = True
        while progress and self._parked:
            progress = False
            for i, (client, msg) in enumerate(self._parked):
                if msg.session_ts.leq(self.vc):
                    del self._parked[i]
                    if isinstance(msg, WriteRequest):
                        self._on_write(client, msg)
                    else:
                        self._on_read(client, msg)
                    self._internal_actions()
                    progress = True
                    break

    def _register_read(self, client_id: int, opid, obj: int) -> None:
        """Register a pending read in ReadL and send inquiries (line 16-18)."""
        entry = ReadEntry(
            client_id=client_id,
            opid=opid,
            obj=obj,
            tagvec=dict(self.M.tagvec),
            symbols={self.node_id: np.array(self.M.value, copy=True)},
            registered_at=self.now,
        )
        self.readl.add(entry)
        targets = self._inq_targets(obj)
        for j in targets:
            self._emit_send(
                j,
                self._sized(
                    ValInq(client_id, opid, obj, dict(self.M.tagvec)),
                    0,
                    self.code.K,
                ),
            )
        if self.config.read_policy == "recovery_set" and set(targets) != set(
            self._others
        ):
            remaining = [j for j in self._others if j not in targets]
            timer_id = ("readto", opid, tuple(remaining))
            self._emit(SetTimerEffect(timer_id, self.config.read_timeout))
            self._read_timeouts[opid] = timer_id

    def _inq_targets(self, obj: int) -> list[int]:
        """Nodes to inquire first: everyone, or the cheapest recovery set."""
        if self.config.read_policy != "recovery_set":
            return list(self._others)
        best: list[int] | None = None
        best_cost = float("inf")
        for rset in self.code.minimal_recovery_sets(obj):
            if any(j in self.cfg_retired for j in rset):
                continue  # a retired member can never answer
            others = [j for j in rset if j != self.node_id]
            if not others:
                continue
            if self.config.rtt is not None:
                cost = max(float(self.config.rtt[self.node_id, j]) for j in others)
            else:
                cost = float(len(others))
            if cost < best_cost:
                best, best_cost = others, cost
        return best if best is not None else list(self._others)

    def _read_timeout(self, opid, remaining: list[int]) -> None:
        entry = self.readl.get(opid)
        self._read_timeouts.pop(opid, None)
        if entry is None:
            return
        for j in remaining:
            self._emit_send(
                j,
                self._sized(
                    ValInq(entry.client_id, opid, entry.obj, dict(entry.tagvec)),
                    0,
                    self.code.K,
                ),
            )

    def _send_read_return(
        self, client: int, opid, value, value_tag: Tag, obj: int
    ) -> None:
        msg = ReadReturn(opid, value)
        msg.ts = self.vc
        msg.value_tag = value_tag
        # entry[1] (repr) keys per-channel comparisons; the trailing fields
        # let the online auditor attribute the read (opid, object, client)
        self._log("read-return", repr(opid), _tag_key(value_tag), opid, obj, client)
        self._emit_reply(client, self._sized(msg, 1))

    def _respond_read(
        self, entry: ReadEntry, value: np.ndarray, value_tag: Tag | None = None
    ) -> None:
        """Complete a pending read: return to the client or feed the
        internal (localhost) read, then clear the ReadL entry."""
        if value_tag is None:
            value_tag = entry.tagvec[entry.obj]
        if entry.client_id == LOCALHOST:
            self.L[entry.obj].add(entry.tagvec[entry.obj], value)
        else:
            self._send_read_return(
                entry.client_id, entry.opid, value, value_tag, entry.obj
            )
        self.readl.remove(entry.opid)
        timer_id = self._read_timeouts.pop(entry.opid, None)
        if timer_id is not None:
            self._emit(CancelTimerEffect(timer_id))

    # ------------------------------------------------------------------
    # Algorithm 2: server messages

    def _on_val_inq(self, src: int, msg: ValInq) -> None:
        self._guard_codeword()  # never re-encode a response from rotted state
        wanted = msg.wanted_tagvec
        value = self._lookup(msg.obj, wanted[msg.obj])
        if value is not None:
            self._emit_send(
                src,
                self._sized(
                    ValResp(msg.obj, value, msg.client_id, msg.opid, dict(wanted)),
                    1,
                    self.code.K,
                ),
            )
            return
        # re-encode M towards the wanted tag vector where the history allows;
        # all per-object deltas are folded in with one batched kernel call
        tagvec = dict(self.M.tagvec)
        s = self.node_id
        updates = []
        for x in sorted(self.objects):
            if tagvec[x] == wanted[x]:
                continue
            current = self._lookup(x, tagvec[x])
            if current is None:
                # case (iii): cannot cancel our version; leave it encoded --
                # the inquirer holds (or will hold) this version locally.
                continue
            target = self._lookup(x, wanted[x])
            if target is not None:
                updates.append((x, current, target))
                tagvec[x] = wanted[x]
            else:
                updates.append((x, current, self.code.zero_value()))
                tagvec[x] = self._zero
        symbol = self.code.reencode_many(s, self.M.value, updates)
        self._emit_send(
            src,
            self._sized(
                ValRespEncoded(
                    symbol, tagvec, msg.client_id, msg.opid, msg.obj, dict(wanted)
                ),
                self.code.symbols_at(s),
                2 * self.code.K,
            ),
        )

    def _on_val_resp_encoded(self, src: int, msg: ValRespEncoded) -> None:
        entry = self.readl.get(msg.opid)
        if entry is None:
            return
        requested = entry.tagvec
        ok = True
        updates = []
        for x in sorted(self.code.objects_at(src)):
            if requested[x] == msg.tagvec[x]:
                continue
            # swap the sender's encoded version of x for the requested one
            current = self._lookup(x, msg.tagvec[x])
            target = self._lookup(x, requested[x])
            if (current is None or target is None) and (
                msg.tagvec[x] < requested[x]
            ):
                # the responder answered from a crash-recovered state
                # *behind* the requested cut (wipe, quarantine, corrupt
                # checkpoint) and the plain values needed to re-align its
                # symbol are long folded away.  Lemmas D.1/D.2 only cover
                # crash-free runs; this is a stale response, not a
                # protocol error -- drop the symbol and let the remaining
                # responders (or the repaired peer, on retry) serve the
                # read.
                self.stats.stale_read_responses += 1
                self._log("read-stale-resp", src, x)
                return
            if current is None:
                self.stats.error1_events += 1  # Lemma D.1 says: unreachable
                ok = False
                break
            if target is None:
                self.stats.error2_events += 1  # Lemma D.2 says: unreachable
                ok = False
                break
            updates.append((x, current, target))
        if not ok:
            return
        modified = self.code.reencode_many(src, msg.symbol, updates)
        self.readl.add_symbol(entry, src, modified)
        value = self.code.decode(entry.obj, entry.symbols)
        if value is not None:
            self._respond_read(entry, value)

    def _on_val_resp(self, src: int, msg: ValResp) -> None:
        entry = self.readl.get(msg.opid)
        if entry is None:
            return
        self._respond_read(entry, msg.value)

    # ------------------------------------------------------------------
    # Algorithm 3: internal actions

    def _internal_actions(self) -> None:
        self._apply_inqueue()
        self._encoding()
        if self.config.gc_interval is None:
            self._garbage_collection()

    def _gc_tick(self) -> None:
        self._garbage_collection()
        # encoding may be enabled by GC-driven del exchange
        self._encoding()
        self._emit(SetTimerEffect(("gc",), self.config.gc_interval))
        self._emit(PersistEffect())

    def _apply_inqueue(self) -> None:
        """Apply_InQueue: causally apply pending remote writes."""
        while True:
            e = self.inqueue.pop_applicable(self.vc)
            if e is None:
                return
            self.vc = self.vc.with_component(e.sender, e.tag.ts[e.sender])
            self.L[e.obj].add(e.tag, e.value)
            self._log("apply", e.obj, _tag_key(e.tag))
            if self.config.record_visibility:
                self.visibility_log.append((self.now, e.obj, e.tag))
            for entry in self.readl.for_object(e.obj):
                if entry.client_id != LOCALHOST and entry.tagvec[e.obj] <= e.tag:
                    self._respond_read(entry, e.value, e.tag)
                elif entry.client_id == LOCALHOST and entry.tagvec[e.obj] == e.tag:
                    # the wanted version just landed in L; the internal read
                    # is no longer needed (Alg. 3 lines 11-12)
                    self.readl.remove(entry.opid)

    def _encoding(self) -> None:
        """Encoding: fold newer history-list versions into M.

        All advanceable objects found in one pass are folded into the
        codeword with a **single** batched
        :meth:`~repro.ec.code.LinearCode.reencode_many` call (one field
        matmul instead of one per object; the per-object deltas commute,
        so the result is bit-identical to chaining per-object ``reencode``
        steps).  Del notices and internal reads are then emitted in object
        order against the fully-updated codeword, exactly the effects the
        per-object loop produced.

        The integrity seal is checked *before* mutating M (so a rotted
        symbol is quarantined rather than laundered into a fresh seal)
        and renewed once at the end when anything changed.
        """
        self._guard_codeword()
        dirty = False
        progress = True
        while progress:
            progress = False
            updates: list[tuple] = []
            advanced: dict[int, object] = {}  # x -> new tag, insertion = sorted
            blocked: list[int] = []
            for x in sorted(self.objects):
                hist = self.L[x]
                highest = hist.highest_tag
                if not (len(hist) and highest > self.M.tagvec[x]):
                    continue
                current = self._lookup(x, self.M.tagvec[x])
                if current is None:
                    blocked.append(x)
                    continue
                updates.append((x, current, hist.get(highest)))
                advanced[x] = highest
            if updates:
                self.M.value = self.code.reencode_many(
                    self.node_id, self.M.value, updates
                )
                progress = True
                dirty = True
            if advanced:
                # copy-on-write, like M.value: the log compares by identity
                self.M.tagvec = {**self.M.tagvec, **advanced}
            for x, highest in advanced.items():
                self.stats.reencodings += 1
                self.DelL[x].add(highest, self.node_id)
                self._send_del_storing(x, highest)
            for x in blocked:
                # the encoded version left the history list: issue an
                # internal read to recover it
                if not self.readl.localhost_entry_for(
                    x, self.M.tagvec[x], LOCALHOST
                ):
                    self.stats.internal_reads += 1
                    self._register_read(LOCALHOST, self._next_opid(), x)
            for x in range(self.code.K):
                if x not in self.objects:
                    if self._advance_unstored_tag(x):
                        progress = True
                        dirty = True
        if dirty:
            self.reseal_codeword()

    def _advance_unstored_tag(self, x: int) -> bool:
        """Bookkeeping for X not in X_s (Alg. 3 lines 26-32)."""
        hist = self.L[x]
        if not (len(hist) and hist.highest_tag > self.M.tagvec[x]):
            return False
        storing = self._storing_nodes(x)
        if not storing:
            return False
        candidates = [t for t in hist.tags() if t > self.M.tagvec[x]]
        eligible = [
            t
            for t in candidates
            if all(
                (m := self.DelL[x].max_from(i)) is not None and m >= t
                for i in storing
            )
        ]
        if not eligible:
            return False
        best = max(eligible)
        self.M.tagvec = {**self.M.tagvec, x: best}
        self.DelL[x].add(best, self.node_id)
        self._send_del_all(x, best)
        return True

    def _on_del(self, src: int, msg: Del) -> None:
        """Record a del; a leader forwards fanout dels to everyone else."""
        origin = msg.origin if msg.origin is not None else src
        self.DelL[msg.obj].add(msg.tag, origin)
        if msg.fanout and self.config.del_leader == self.node_id:
            for j in self._others:
                if j != origin:
                    self._emit_send(
                        j, self._sized(Del(msg.obj, msg.tag, origin=origin), 0, 1)
                    )

    def _send_del_storing(self, x: int, tag: Tag) -> None:
        """Encoding line 20: del to the nodes storing X (deduplicated)."""
        if tag <= max(self._del_sent_storing[x], self._del_sent_all[x]):
            return
        leader = self.config.del_leader
        if leader is not None and leader != self.node_id:
            # low-cost variant: one message; the leader reaches everyone
            self._del_sent_storing[x] = tag
            self._del_sent_all[x] = tag
            self._emit_send(leader, self._sized(Del(x, tag, fanout=True), 0, 1))
            return
        self._del_sent_storing[x] = tag
        for j in self._storing_nodes(x):
            if j != self.node_id:
                self._emit_send(j, self._sized(Del(x, tag), 0, 1))

    def _send_del_all(self, x: int, tag: Tag) -> None:
        """Encoding line 32 / GC line 48: del to every node (deduplicated)."""
        if tag <= self._del_sent_all[x]:
            return
        self._del_sent_all[x] = tag
        leader = self.config.del_leader
        if leader is not None and leader != self.node_id:
            self._del_sent_storing[x] = tag
            self._emit_send(leader, self._sized(Del(x, tag, fanout=True), 0, 1))
            return
        for j in self._others:
            self._emit_send(j, self._sized(Del(x, tag), 0, 1))

    def _garbage_collection(self) -> None:
        """Garbage_Collection: watermark advance + history-list deletion."""
        self.stats.gc_runs += 1
        # watermark agreement is over *active* members only: a retired
        # server sends no more dels, so including it would freeze every
        # watermark (and history lists would grow forever)
        all_nodes = self._active_nodes()
        for x in range(self.code.K):
            common = self.DelL[x].max_common(all_nodes)
            if common is not None and common > self.tmax[x]:
                self.tmax[x] = common
            watermark = self.tmax[x]
            mtag = self.M.tagvec[x]
            # every tag a pending read requested stays resolvable, even at
            # the codeword cut: a responder that crash-recovered to an
            # earlier state (wipe, quarantine, corrupt checkpoint) answers
            # with a tagvec *behind* the request, and the case-(iii) swap
            # in _on_val_resp_encoded then needs this server's plain value
            # for its own requested tag -- which only the history list has
            protected = {e.tagvec[x] for e in self.readl.entries()}
            hist = self.L[x]
            if (
                watermark == mtag
                and self.DelL[x].has_exact_from_all(mtag, all_nodes)
                and hist.highest_tag <= mtag
            ):
                doomed = [
                    t for t in hist.tags() if t <= watermark and t not in protected
                ]
            elif watermark < mtag and x not in self.objects:
                doomed = [
                    t for t in hist.tags() if t <= watermark and t not in protected
                ]
            else:
                doomed = [
                    t for t in hist.tags() if t < watermark and t not in protected
                ]
            for t in doomed:
                hist.remove(t)
                self._log("gc-del", x, _tag_key(t))
            self.stats.gc_deletions += len(doomed)
            if x in self.objects:
                max_u = self.DelL[x].max_common(self._storing_nodes(x))
                if max_u is not None and max_u > self._zero:
                    self._send_del_all(x, max_u)
            self.DelL[x].prune_below(watermark)

    # ------------------------------------------------------------------
    # introspection (tests, benchmarks)

    def history_size(self) -> int:
        """Total (tag, value) entries across all history lists.

        The initial (zero-tag, zero-value) placeholder (Fig. 3) is excluded:
        it denotes the implicit initial value and stores no data.
        """
        return sum(
            sum(1 for t in h.tags() if not t.is_zero) for h in self.L.values()
        )

    def transient_state_size(self) -> int:
        """Entries in L + InQueue + ReadL: Theorem 4.5's vanishing state."""
        return self.history_size() + len(self.inqueue) + len(self.readl)

    def stored_value_bits(self, value_bits: float | None = None) -> float:
        """Bits of object-value data held: codeword symbol + history lists."""
        b = value_bits or self.config.cost_model.value_bits
        return b * (self.code.symbols_at(self.node_id) + self.history_size())

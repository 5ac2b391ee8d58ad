"""State snapshots: introspection and durable crash-recovery checkpoints.

Debugging a distributed protocol lives or dies on being able to *see* the
state.  :func:`snapshot_server` renders one server's full CausalEC state
(vector clock, codeword tags, history/deletion lists, pending reads,
watermarks) as plain dictionaries; :func:`snapshot_cluster` collects all
servers; :func:`format_snapshot` pretty-prints for humans.  Snapshots are
pure data (tags rendered as tuples) -- safe to diff, serialise, or assert
against in tests.

The second half of the module is *durable* snapshotting for crash-recovery:
:func:`capture_server_state` deep-copies everything a server needs to
resume (protocol state plus, when an ARQ transport is attached, its channel
state), a :class:`DurableStore` models each server's stable storage, and
:func:`restore_server_state` reinstalls a checkpoint into a restarted
server.  Stable storage is a snapshot plus a write-ahead log of deltas
(:mod:`repro.core.wal`): a server commits after every handled message and
timer step, and a commit appends only the durable keys that changed, so
anything a server ever acknowledged (including transport-level acks) is
recoverable at O(delta) per step, and recovery never regresses the causal
past the rest of the system may have observed.  Full captures happen only
when a snapshot is due: on the first commit, after a restart, and when
the log outgrows the snapshot (compaction).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from . import wal
from .server import CausalECServer
from .tags import Tag
from .wal import DURABLE_ATTRS

__all__ = [
    "snapshot_server",
    "snapshot_cluster",
    "format_snapshot",
    "ServerCheckpoint",
    "CorruptCheckpoint",
    "DurableStore",
    "capture_server_state",
    "restore_server_state",
]


def _tag(t: Tag) -> tuple:
    return (t.ts.components, t.client_id)


def snapshot_server(server: CausalECServer) -> dict[str, Any]:
    """A plain-data snapshot of one server's protocol state."""
    code = server.code
    return {
        "server": server.node_id,
        "halted": server.halted,
        "vc": server.vc.components,
        "objects_stored": sorted(server.objects),
        "codeword_tagvec": {
            x: _tag(server.M.tagvec[x]) for x in range(code.K)
        },
        "codeword_value": server.M.value.tolist(),
        "history": {
            x: sorted(_tag(t) for t in server.L[x].tags())
            for x in range(code.K)
            if len(server.L[x])
        },
        "tmax": {x: _tag(server.tmax[x]) for x in range(code.K)},
        "inqueue_len": len(server.inqueue),
        "pending_reads": [
            {
                "opid": e.opid,
                "client": e.client_id,
                "obj": e.obj,
                "symbols_from": sorted(e.symbols),
            }
            for e in server.readl.entries()
        ],
        "deletion_list_entries": {
            x: server.DelL[x].total_entries() for x in range(code.K)
        },
        "stats": vars(server.stats).copy(),
    }


def snapshot_cluster(cluster) -> dict[str, Any]:
    """Snapshots of every server plus cluster-level aggregates."""
    return {
        "time": cluster.now,
        "servers": [snapshot_server(s) for s in cluster.servers],
        "messages": dict(cluster.network.stats.messages),
        "operations": len(cluster.history),
        "pending_operations": len(cluster.history.pending()),
    }


def format_snapshot(snap: dict[str, Any]) -> str:
    """Human-readable rendering of a server or cluster snapshot."""
    if "servers" in snap:
        lines = [f"cluster @ t={snap['time']:.1f} ms, "
                 f"{snap['operations']} ops ({snap['pending_operations']} pending)"]
        for s in snap["servers"]:
            lines.append(format_snapshot(s))
        return "\n".join(lines)
    lines = [
        f"server {snap['server']}"
        + (" [HALTED]" if snap["halted"] else "")
        + f"  vc={snap['vc']}"
    ]
    lines.append(f"  codeword tags: { {x: t[0] for x, t in snap['codeword_tagvec'].items()} }")
    if snap["history"]:
        for x, tags in snap["history"].items():
            lines.append(f"  L[X{x + 1}]: {len(tags)} version(s)")
    if snap["pending_reads"]:
        lines.append(f"  pending reads: {len(snap['pending_reads'])}")
    if snap["inqueue_len"]:
        lines.append(f"  inqueue: {snap['inqueue_len']} waiting")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Durable checkpoints (crash-recovery)

@dataclass
class ServerCheckpoint:
    """One durable snapshot of a server (plus optional transport state).

    ``gen`` is the snapshot's generation, assigned by the store that
    persists it; log records name the generation they extend.
    """

    server_id: int
    time: float
    state: dict[str, Any]
    transport: dict[str, Any] | None = None
    gen: int = 0


@dataclass
class CorruptCheckpoint:
    """Typed report of a checkpoint that failed integrity verification.

    Stores surface this instead of raising: a corrupt or truncated
    checkpoint is treated as *no* checkpoint (the server restarts empty
    and anti-entropy repair re-derives its state from peers), and the
    report preserves what was detected for operators, scrub stats, and
    chaos-soak assertions.
    """

    server_id: int
    path: str | None
    reason: str


def capture_server_state(server, transport=None, deep: bool = True) -> ServerCheckpoint:
    """Deep-copy a server's recoverable state into a checkpoint.

    ``server`` may be a simulated :class:`CausalECServer` or a bare
    :class:`~repro.protocol.server_core.ServerCore` driven by a live
    runtime; the checkpoint time comes from the scheduler when there is
    one, else from the core's last-event clock.  Channel state shares the
    (never mutated) sent messages.  ``deep=False`` shares the live state
    objects too: only for a caller that encodes the checkpoint before the
    server takes its next step.
    """
    state = {
        name: copy.deepcopy(getattr(server, name)) if deep else getattr(server, name)
        for name in DURABLE_ATTRS
    }
    tstate = None
    if transport is not None and getattr(transport, "active", False):
        tstate = transport.snapshot_node(server.node_id)
    sched = getattr(server, "scheduler", None)
    return ServerCheckpoint(
        server_id=server.node_id,
        time=sched.now if sched is not None else server.now,
        state=state,
        transport=tstate,
    )


def restore_server_state(
    server, checkpoint: ServerCheckpoint, transport=None
) -> None:
    """Reinstall a checkpoint into ``server`` (same id/code required)."""
    if checkpoint.server_id != server.node_id:
        raise ValueError(
            f"checkpoint belongs to server {checkpoint.server_id}, "
            f"not {server.node_id}"
        )
    for name in DURABLE_ATTRS:
        if name not in checkpoint.state:
            continue  # checkpoint from an older attr set: keep the default
        setattr(server, name, copy.deepcopy(checkpoint.state[name]))
    # read-timeout timers died with the old incarnation
    server._read_timeouts = {}
    # membership-derived caches (peer fanout) follow the restored
    # retirement set; older cores without the hook need no refresh
    refresh = getattr(server, "_refresh_membership", None)
    if refresh is not None:
        server.cfg_retired = tuple(getattr(server, "cfg_retired", ()))
        refresh()
    # the integrity seal covers the *restored* codeword, not the boot-time one
    server.reseal_codeword()
    if transport is not None and checkpoint.transport is not None:
        transport.restore_node(server.node_id, checkpoint.transport)


@dataclass
class DurableStore:
    """Stable storage for server state: a snapshot plus a log per server.

    Models each server's local disk with the live
    :class:`~repro.runtime.asyncio_rt.FileDurableStore`'s interface and
    record format: :meth:`persist` installs a snapshot (a new generation)
    and empties the log, :meth:`append` adds one framed record
    (:func:`~repro.core.wal.frame_record`), and :meth:`load` returns the
    snapshot with the log replayed onto it (or ``None`` before the first
    persist).  Snapshots are kept as captured objects, the log as bytes --
    so tests can tear or flip bits in it.  ``persist_counts`` counts
    commits (snapshots and records) per server.

    Bit rot is modelled at *detection* level: :meth:`corrupt` marks a
    slot's snapshot as damaged, and a subsequent :meth:`load` then
    behaves exactly like the live store facing a digest mismatch -- it
    records a typed :class:`CorruptCheckpoint` and returns ``None`` (a
    fresh persist replaces the damaged slot and clears the mark).  A log
    that fails its record checks is reported the same way.
    """

    _checkpoints: dict[int, ServerCheckpoint] = field(default_factory=dict)
    #: server id -> framed log records since the snapshot
    logs: dict[int, bytearray] = field(default_factory=dict)
    #: server id -> encoded size of the snapshot (the compaction yardstick)
    _snapshot_sizes: dict[int, int] = field(default_factory=dict)
    _gens: dict[int, int] = field(default_factory=dict)
    persist_counts: dict[int, int] = field(default_factory=dict)
    _corrupt: set[int] = field(default_factory=set)
    #: every corruption detected by :meth:`load`, oldest first
    corruption_reports: list[CorruptCheckpoint] = field(default_factory=list)

    def _count(self, server_id: int) -> None:
        self.persist_counts[server_id] = self.persist_counts.get(server_id, 0) + 1

    def persist(self, checkpoint: ServerCheckpoint) -> None:
        sid = checkpoint.server_id
        checkpoint.gen = self._gens[sid] = self._gens.get(sid, 0) + 1
        self._checkpoints[sid] = checkpoint
        self._snapshot_sizes[sid] = wal.encoded_size(
            (checkpoint.state, checkpoint.transport)
        )
        self.logs[sid] = bytearray()
        self._corrupt.discard(sid)
        self._count(sid)

    def append(self, server_id: int, payload: bytes) -> None:
        self.logs.setdefault(server_id, bytearray()).extend(
            wal.frame_record(payload)
        )
        self._count(server_id)

    def generation(self, server_id: int) -> int:
        return self._gens.get(server_id, 0)

    def log_bytes(self, server_id: int) -> int:
        return len(self.logs.get(server_id, b""))

    def snapshot_bytes(self, server_id: int) -> int:
        return self._snapshot_sizes.get(server_id, 0)

    def _report(self, server_id: int, reason: str) -> None:
        self.corruption_reports.append(CorruptCheckpoint(server_id, None, reason))

    def load(self, server_id: int) -> ServerCheckpoint | None:
        if server_id in self._corrupt:
            self._report(server_id, "simulated bit rot")
            return None
        snap = self._checkpoints.get(server_id)
        if snap is None:
            return None
        try:
            state, transport, time = wal.replay(
                snap.state,
                snap.transport,
                snap.gen,
                wal.read_records(self.logs.get(server_id, b"")),
            )
        except wal.LogCorrupt as exc:
            self._report(server_id, str(exc))
            return None
        return ServerCheckpoint(
            server_id, snap.time if time is None else time, state, transport,
            snap.gen,
        )

    def verify(self, server_id: int) -> bool | None:
        """Disk-scrub hook: re-check a slot without surfacing its data.

        Returns ``None`` when the slot is empty, ``True`` when intact,
        ``False`` (recording a typed report) when marked rotted or when a
        log record fails its checks -- the same contract as the live
        store's ``verify_file``.
        """
        if server_id not in self._checkpoints:
            return None
        if server_id in self._corrupt:
            self._report(server_id, "simulated bit rot")
            return False
        try:
            wal.read_records(self.logs.get(server_id, b""))
        except wal.LogCorrupt as exc:
            self._report(server_id, str(exc))
            return False
        return True

    def corrupt(self, server_id: int) -> bool:
        """Damage server ``server_id``'s snapshot (detected on load).

        Returns whether there was a snapshot to damage.
        """
        if server_id not in self._checkpoints:
            return False
        self._corrupt.add(server_id)
        return True

    def is_corrupt(self, server_id: int) -> bool:
        return server_id in self._corrupt

    def corrupt_detected(self, server_id: int | None = None) -> int:
        """How many corrupt checkpoints :meth:`load` has reported."""
        if server_id is None:
            return len(self.corruption_reports)
        return sum(
            1 for r in self.corruption_reports if r.server_id == server_id
        )

    def wipe(self, server_id: int) -> None:
        """Simulate disk loss for one server (tests)."""
        self._checkpoints.pop(server_id, None)
        self.logs.pop(server_id, None)
        self._snapshot_sizes.pop(server_id, None)
        self._corrupt.discard(server_id)

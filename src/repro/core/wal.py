"""Write-ahead log: a server's durable state as a snapshot plus deltas.

A server must never forget what it acknowledged.  Writing a full checkpoint
after every handled message satisfies that but costs O(state) per step.
This module keeps the same guarantee at O(delta): stable storage holds one
*snapshot* (a :class:`~repro.core.snapshot.ServerCheckpoint`) and an
append-only *log* of records, each holding only the durable keys that
changed since the previous commit.  Both stores -- the simulator's
in-memory :class:`~repro.core.snapshot.DurableStore` and the live
runtime's :class:`~repro.runtime.asyncio_rt.FileDurableStore` -- use the
record codec, the change tracker and the replay defined here.

Keys
----
Durable state splits into keys: per object ``x`` the history list
``("L", x)``, the deletion list ``("DelL", x)``, the watermark
``("tmax", x)`` and the del-dedup marks ``("_del_sent_storing", x)`` /
``("_del_sent_all", x)``; the singletons ``"vc"``, ``"M"``,
``"inqueue"``, ``"readl"``, ``"_client_sessions"``, ``"_opid_seq"``,
``"view"``, ``"cfg_epoch"`` and ``"cfg_retired"``; and per ARQ channel to
or from peer ``p`` the send counter ``("seq", p)``, the newly sent
``(seq, msg)`` pairs ``("tx", p)``, the lowest unacknowledged seq
``("low", p)`` (``None`` once everything is acked) and the delivery
watermark ``("rx", p)``.

Change detection
----------------
:class:`ChangeTracker` finds changed keys in O(keys), never by copying or
encoding: immutable values (vector clocks, tags, tuples, the arrays and
dicts the protocol replaces instead of mutating) compare by identity, and
the four mutable containers of :mod:`repro.core.state` compare by their
``rev`` mutation counter.  The tracker holds a reference to every
committed value, so an identity can never be recycled behind its back.

Records
-------
A record is ``u32 length || blake2b-16(length || payload) || payload``
with ``payload = wire.encode((gen, time, changes))``.  ``gen`` is the
generation of the snapshot the record extends: a snapshot replaces the
log, and a log left behind by a crash between writing a snapshot and
truncating the log carries an older generation, so it is never replayed
onto the wrong snapshot.  A torn or damaged record raises
:class:`LogCorrupt`; stores report it as a typed
:class:`~repro.core.snapshot.CorruptCheckpoint` and load nothing, the same
restart-empty-then-repair contract as a damaged snapshot.
"""

from __future__ import annotations

import hashlib
import struct

from .state import Codeword, DeletionList, HistoryList, InQueue, ReadList

__all__ = [
    "DURABLE_ATTRS",
    "COMPACT_RATIO",
    "LogCorrupt",
    "ChangeTracker",
    "DurableLog",
    "frame_record",
    "read_records",
    "encode_record",
    "encoded_size",
    "replay",
]

#: Server attributes that constitute recoverable protocol state, in
#: checkpoint order.  Volatile machinery (timers, stats counters, the
#: visibility log) is deliberately excluded: timers belong to an
#: incarnation, and stats/logs are measurement artefacts, not protocol
#: state.
DURABLE_ATTRS = (
    "vc",
    "inqueue",
    "L",
    "DelL",
    "readl",
    "tmax",
    "M",
    "_opid_seq",
    "_del_sent_storing",
    "_del_sent_all",
    "_client_sessions",
    "view",
    # dynamic membership: the epoch a server acknowledged and the ids it
    # knows to be retired must survive a crash-restart, or a recovered
    # server would rejoin fenced out of (or fencing) its own group
    "cfg_epoch",
    "cfg_retired",
)

#: attributes that are dicts keyed by object id, logged one key per object
_PER_OBJECT = frozenset(
    ("L", "DelL", "tmax", "_del_sent_storing", "_del_sent_all")
)

_COUNTED = (HistoryList, DeletionList, InQueue, ReadList)

#: the log is compacted into a fresh snapshot once it outgrows this
#: multiple of the snapshot's size, which bounds the disk footprint at
#: (1 + COMPACT_RATIO) snapshots
COMPACT_RATIO = 1.0

_LEN = struct.Struct(">I")
_DIGEST_LEN = 16


class LogCorrupt(ValueError):
    """A log record failed its length or digest check."""


def _wire():
    # imported on use: the wire codec registers the checkpoint classes and
    # so imports this package
    from ..runtime import wire

    return wire


def _digest(head: bytes, payload) -> bytes:
    h = hashlib.blake2b(head, digest_size=_DIGEST_LEN)
    h.update(payload)
    return h.digest()


def frame_record(payload: bytes) -> bytes:
    """Frame one record payload for appending to a log."""
    head = _LEN.pack(len(payload))
    return b"".join((head, _digest(head, payload), payload))


def read_records(blob) -> list[memoryview]:
    """Split a log into verified record payloads; raises :class:`LogCorrupt`."""
    view = memoryview(blob)
    out: list[memoryview] = []
    pos, end = 0, len(view)
    while pos < end:
        if pos + _LEN.size + _DIGEST_LEN > end:
            raise LogCorrupt(f"torn record header at byte {pos}")
        head = bytes(view[pos : pos + _LEN.size])
        (length,) = _LEN.unpack(head)
        body = pos + _LEN.size + _DIGEST_LEN
        if body + length > end:
            raise LogCorrupt(f"torn record at byte {pos}")
        payload = view[body : body + length]
        if _digest(head, payload) != bytes(view[pos + _LEN.size : body]):
            raise LogCorrupt(f"record digest mismatch at byte {pos}")
        out.append(payload)
        pos = body + length
    return out


def encode_record(gen: int, time: float, changes: dict) -> bytes:
    """The payload of one record: the changed keys of one commit."""
    return _wire().encode((gen, time, changes))


def encoded_size(value) -> int:
    """Bytes of ``value``'s wire encoding (the compaction yardstick)."""
    return len(_wire().encode(value))


def replay(state: dict, transport: dict | None, gen: int, payloads):
    """Apply log records to a snapshot's state; returns the new triple.

    Returns ``(state, transport, time)`` where ``time`` is that of the
    last applied record (``None`` if none applied).  The inputs are not
    mutated.  Records of another generation are skipped.
    """
    wire = _wire()
    state = dict(state)
    copied: set[str] = set()
    if transport is not None:
        transport = {
            "send": {
                p: {"seq": ch["seq"], "unacked": list(ch["unacked"])}
                for p, ch in transport["send"].items()
            },
            "recv": dict(transport["recv"]),
        }
    time = None
    for payload in payloads:
        try:
            rgen, rtime, changes = wire.decode(payload)
        except (wire.WireError, ValueError, TypeError) as exc:
            raise LogCorrupt(f"undecodable record: {exc}") from exc
        if rgen != gen:
            continue
        time = rtime
        for key, value in changes.items():
            if type(key) is str:
                state[key] = value
                continue
            kind, k = key
            if kind in _PER_OBJECT:
                if kind not in copied:
                    state[kind] = dict(state[kind])
                    copied.add(kind)
                state[kind][k] = value
                continue
            if transport is None:
                transport = {"send": {}, "recv": {}}
            if kind == "rx":
                transport["recv"][k] = value
                continue
            ch = transport["send"].setdefault(k, {"seq": 0, "unacked": []})
            if kind == "seq":
                ch["seq"] = value
            elif kind == "tx":
                ch["unacked"].extend(tuple(e) for e in value)
            elif kind == "low":
                ch["unacked"] = (
                    [] if value is None
                    else [e for e in ch["unacked"] if e[0] >= value]
                )
            else:
                raise LogCorrupt(f"unknown log key {key!r}")
    return state, transport, time


def _same(old, new) -> bool:
    """Token equality: identity per element (equality for ints)."""
    for a, b in zip(old, new):
        if a is not b and not (type(a) is int and a == b):
            return False
    return True


def _token(value) -> tuple:
    cls = type(value)
    if cls in _COUNTED:
        return (value, value.rev)
    if cls is Codeword:
        return (value, value.value, value.tagvec)
    return (value,)


class ChangeTracker:
    """The durable keys of one server that changed since the last commit."""

    def __init__(self) -> None:
        #: key -> token of the committed value (holds a reference to it)
        self._seen: dict = {}
        #: peer -> highest send seq already logged
        self._sent: dict[int, int] = {}

    def reset(self, server, transport_state: dict | None) -> None:
        """Take the current state as committed (right after a snapshot)."""
        self._seen.clear()
        self._sent.clear()
        self.changes(server, transport_state)

    def changes(self, server, transport_state: dict | None) -> dict:
        """Changed keys and their live values; marks them committed.

        Values are the live objects: the caller must encode them before
        the server takes its next step.
        """
        seen = self._seen
        out: dict = {}

        def visit(key, value):
            tok = _token(value)
            old = seen.get(key)
            if old is None or not _same(old, tok):
                seen[key] = tok
                out[key] = value

        for name in DURABLE_ATTRS:
            value = getattr(server, name)
            if name in _PER_OBJECT:
                for x, v in value.items():
                    visit((name, x), v)
            else:
                visit(name, value)
        if transport_state is not None:
            self._channel_changes(transport_state, out)
        return out

    def _channel_changes(self, tstate: dict, out: dict) -> None:
        seen, sent = self._seen, self._sent
        for peer, ch in tstate["send"].items():
            key = ("seq", peer)
            if seen.get(key) != ch["seq"]:
                seen[key] = out[key] = ch["seq"]
            unacked = ch["unacked"]
            last = sent.get(peer)
            new = []
            for entry in reversed(unacked):
                if last is not None and entry[0] <= last:
                    break
                new.append(entry)
            if new:
                new.reverse()
                out[("tx", peer)] = new
                sent[peer] = new[-1][0]
            key = ("low", peer)
            low = unacked[0][0] if unacked else None
            if key not in seen or seen[key] != low:
                seen[key] = low
                out[key] = low
        for peer, mark in tstate["recv"].items():
            key = ("rx", peer)
            if seen.get(key) != mark:
                seen[key] = out[key] = mark


class DurableLog:
    """Commits one server's durable state: a snapshot, then delta records.

    ``store`` is either durable store; ``capture`` builds a full
    :class:`~repro.core.snapshot.ServerCheckpoint` (``capture(server,
    transport)``).  The first commit -- and the first after
    :meth:`force_snapshot`, e.g. after a restart or detected rot -- writes
    a snapshot, as does a commit that finds the log grown past
    :data:`COMPACT_RATIO` times the snapshot.  Every other commit appends
    one record of the keys changed since the previous commit, or nothing
    when nothing changed.
    """

    def __init__(self, store, node_id: int, capture):
        self.store = store
        self.node_id = node_id
        self._capture = capture
        self._tracker = ChangeTracker()
        self._snapshot_due = True

    def force_snapshot(self) -> None:
        """Make the next commit write a full snapshot."""
        self._snapshot_due = True

    def commit(self, server, transport, now: float) -> bool:
        """Make the server's current state durable; returns whether
        anything was written."""
        store, nid = self.store, self.node_id
        if (
            self._snapshot_due
            or store.log_bytes(nid) > COMPACT_RATIO * store.snapshot_bytes(nid)
        ):
            checkpoint = self._capture(server, transport)
            store.persist(checkpoint)
            self._tracker.reset(server, checkpoint.transport)
            self._snapshot_due = False
            return True
        tstate = None
        if transport is not None and getattr(transport, "active", False):
            tstate = transport.snapshot_node(nid)
        changes = self._tracker.changes(server, tstate)
        if not changes:
            return False
        store.append(nid, encode_record(store.generation(nid), now, changes))
        return True

"""Real-network runtime: the sans-I/O cores on asyncio TCP sockets.

This module proves the sans-I/O refactor by running the *same*
:class:`~repro.protocol.server_core.ServerCore` and
:class:`~repro.protocol.client_core.ClientCore` objects that power the
discrete-event simulator on an actual asyncio event loop, with real
length-prefixed frames (:mod:`repro.runtime.wire`) over real localhost
sockets, monotonic-clock timers, and file-backed durable checkpoints.

Topology
--------
Each :class:`AsyncioServer` owns one TCP listener.  Three connection kinds
arrive on it, distinguished by a hello frame:

* ``("hp", i, acked, cfg_epoch)`` -- the *peer data channel* from server
  ``i``: server ``i`` dials every other server and owns the directed
  channel ``i -> j``.  Data frames ``("d", seq, msg)`` flow dialer ->
  listener; cumulative acks ``("a", seq)`` flow back on the same socket.
  ``cfg_epoch`` is the dialer's membership epoch: a listener that has
  moved to a newer configuration *fences* the connection (rejecting every
  frame it would have carried) after answering with its commit chain
  (``("rc", commits)``) so a merely-behind peer can catch up and redial.
* ``("hc", c)`` -- a client connection: request/reply frames ``("m", msg)``
  flow both ways.  Clients get no ARQ; the client retry policy plus
  server-side opid deduplication already make requests crash-tolerant.

Reliable FIFO channels (the paper's network model) are realised per peer
channel with a small ARQ: the dialer numbers messages, buffers them until
acked, and replays the unacked tail on every reconnect; the listener
delivers in sequence order, deduplicates, and records the delivery
watermark *before* handling, so the tick's commit makes delivery and state
change atomic.

Durability is a group commit per event-loop tick: a ``PersistEffect`` (or
any output) only schedules one end-of-tick commit, which appends a single
delta record of the server's write-ahead log (:mod:`repro.core.wal`) with
one ``fsync``; only after it do the tick's client replies, ARQ data frames
and ARQ acks leave.  Channel state (send seq + unacked tail, receive
watermarks) is part of that durable state exactly like the simulator's
ARQ transport state, so a restarted server resumes its channels without
duplicating or dropping protocol messages.

Time is ``loop.time()`` in milliseconds, so the cores see the same unit the
simulator uses; effect timers map to ``loop.call_later`` guarded by an
incarnation epoch (a timer armed before a crash never fires into the next
incarnation).
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import os
import struct
import tempfile
from collections import deque
from pathlib import Path

import numpy as np

from ..consistency.history import History, Operation
from ..consistency.online import AuditOp
from ..core.messages import (
    DigestMsg,
    Heartbeat,
    ReconfigCommit,
    ReconfigPropose,
    RepairRequest,
    RepairResponse,
)
from ..core import wal
from ..core.snapshot import (
    CorruptCheckpoint,
    ServerCheckpoint,
    capture_server_state,
    restore_server_state,
)
from ..ec.code import LinearCode
from ..ec.codes import extend_code
from ..protocol.client_core import ClientCore, HomeServerUnavailable, RetryPolicy
from ..protocol.effects import (
    CancelTimerEffect,
    HomeServerSwitchEffect,
    LogEffect,
    MembershipChangedEffect,
    OpSettledEffect,
    PeerAliveEffect,
    PeerConfirmedDeadEffect,
    PeerSuspectedEffect,
    PersistEffect,
    ReplyEffect,
    SendEffect,
    SetTimerEffect,
)
from ..protocol.failure_detector import FailureDetectorConfig, FailureDetectorCore
from ..protocol.reconfig_core import ReconfigCore, validate_membership
from ..protocol.repair_core import RepairConfig, RepairCore
from ..protocol.scrub_core import ScrubConfig, ScrubCore
from ..protocol.server_core import ServerConfig, ServerCore
from ..sim.faults import FaultPlan
from . import wire
from .chaos_rt import LiveFaultInjector

__all__ = [
    "FileDurableStore",
    "AsyncioServer",
    "AsyncioClient",
    "AsyncioCluster",
    "install_uvloop",
]

log = logging.getLogger(__name__)


def install_uvloop() -> bool:
    """Swap in uvloop's event-loop policy when the package is available.

    Purely optional: the runtime works identically on the stock loop, just
    slower.  Returns whether uvloop was installed.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    uvloop.install()
    return True

#: seconds between reconnect attempts for peer channels and clients
RECONNECT_DELAY = 0.02

#: seconds between retransmissions of the unacked tail while chaos is
#: active (plain TCP never loses frames, so the loop only runs under an
#: injector; the receiver's watermark dedups the repeats)
RETRANSMIT_INTERVAL = 0.05

#: seconds between polls of the audit log by the streaming task
AUDIT_POLL = 0.02

#: seconds a durable server must go without a commit before it folds its
#: log into a fresh snapshot: compaction off the hot path, so an idle
#: server's disk holds one snapshot of its (converged) state
IDLE_COMPACT_S = 0.05

_CONN_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    OSError,
    wire.WireError,
)


async def read_frame(reader: asyncio.StreamReader):
    """Read one length-prefixed wire frame from a stream.

    Raises :class:`~repro.runtime.wire.FrameCorrupt` on a CRC mismatch
    *after* consuming the frame's bytes, so the stream stays framed and the
    caller can simply skip the frame (it behaves like a drop: ARQ
    retransmission supplies a clean copy).
    """
    (length,) = struct.unpack(">I", await reader.readexactly(4))
    if length > wire.MAX_FRAME_BYTES:
        raise wire.WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    return wire.decode_body(await reader.readexactly(length))


def _now_ms(loop: asyncio.AbstractEventLoop) -> float:
    return loop.time() * 1000.0


#: checkpoint file magic; the trailing digit is the container version
_CKPT_MAGIC = b"CECKPT01"
_CKPT_U32 = struct.Struct(">I")
_CKPT_DIGEST_LEN = 16


def _ckpt_digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_CKPT_DIGEST_LEN).digest()


class FileDurableStore:
    """File-backed stable storage: a snapshot file and a log file per server.

    The live-runtime counterpart of the simulator's in-memory
    :class:`~repro.core.snapshot.DurableStore`, with the same interface and
    the same write-ahead log (:mod:`repro.core.wal`).  Everything is
    wire-encoded, never pickled.

    * :meth:`persist` writes a *snapshot* -- a full checkpoint replaced
      atomically (write-to-temp + fsync + rename + directory fsync), so a
      crash mid-persist leaves the previous snapshot intact *and* the
      rename is itself durable; stale ``*.ckpt.tmp`` from a crash
      mid-write are swept on boot.  Each snapshot starts a new generation
      and truncates the log (the compaction step).
    * :meth:`append` adds one framed delta record to ``server_<id>.wal``
      and fsyncs it: the per-tick group commit of
      :class:`AsyncioServer`.
    * :meth:`load` returns the snapshot with the log replayed onto it.

    Integrity: the snapshot is a sectioned container --
    ``magic || u32 nsections || (u32 len || blake2b-16 || payload)* ||
    header blake2b-16`` -- with a digest per section (meta / durable state
    / transport state) plus a header digest over the section directory;
    every log record carries its own digest.  :meth:`load` verifies all
    of them; *any* mismatch or truncation is reported as a typed
    :class:`~repro.core.snapshot.CorruptCheckpoint` (in
    ``corruption_reports``) and surfaces as "no checkpoint", so the server
    restarts empty and lets anti-entropy repair pull its state back from
    peers instead of crashing on load.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: commits per server: snapshots plus appended records
        self.persist_counts: dict[int, int] = {}
        #: every corruption/truncation ever detected by :meth:`load`
        self.corruption_reports: list[CorruptCheckpoint] = []
        self._gens: dict[int, int] = {}
        self._snapshot_sizes: dict[int, int] = {}
        self._log_sizes: dict[int, int] = {}
        self._logs: dict[int, object] = {}  # server id -> open log file
        # a crash between tmp-write and rename leaves a stale tmp behind;
        # it was never the live checkpoint, so sweep it
        for stale in self.root.glob("*.ckpt.tmp"):
            stale.unlink(missing_ok=True)

    def _path(self, server_id: int) -> Path:
        return self.root / f"server_{server_id}.ckpt"

    def _log_path(self, server_id: int) -> Path:
        return self.root / f"server_{server_id}.wal"

    @staticmethod
    def _encode_checkpoint(checkpoint: ServerCheckpoint) -> bytes:
        sections = (
            wire.encode((checkpoint.server_id, checkpoint.time, checkpoint.gen)),
            wire.encode(checkpoint.state),
            wire.encode(checkpoint.transport),
        )
        head = _CKPT_MAGIC + _CKPT_U32.pack(len(sections))
        parts = [head]
        directory = [head]
        for payload in sections:
            digest = _ckpt_digest(payload)
            parts += [_CKPT_U32.pack(len(payload)), digest, payload]
            directory.append(digest)
        parts.append(_ckpt_digest(b"".join(directory)))
        return b"".join(parts)
    @staticmethod
    def _decode_checkpoint(blob: bytes) -> ServerCheckpoint:
        """Parse + verify; raises ``ValueError`` on any integrity failure."""
        view = memoryview(blob)
        if len(view) < len(_CKPT_MAGIC) + 4 + _CKPT_DIGEST_LEN:
            raise ValueError("truncated checkpoint header")
        if view[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise ValueError("bad checkpoint magic")
        pos = len(_CKPT_MAGIC)
        (nsections,) = _CKPT_U32.unpack(view[pos : pos + 4])
        pos += 4
        if nsections != 3:
            raise ValueError(f"unexpected section count {nsections}")
        payloads, directory = [], [bytes(view[: len(_CKPT_MAGIC) + 4])]
        for i in range(nsections):
            if pos + 4 + _CKPT_DIGEST_LEN > len(view):
                raise ValueError(f"truncated section {i} header")
            (length,) = _CKPT_U32.unpack(view[pos : pos + 4])
            pos += 4
            digest = bytes(view[pos : pos + _CKPT_DIGEST_LEN])
            pos += _CKPT_DIGEST_LEN
            if pos + length > len(view):
                raise ValueError(f"truncated section {i} payload")
            payload = view[pos : pos + length]
            pos += length
            if _ckpt_digest(payload) != digest:
                raise ValueError(f"section {i} digest mismatch")
            payloads.append(payload)
            directory.append(digest)
        if pos + _CKPT_DIGEST_LEN != len(view):
            raise ValueError("trailing bytes after checkpoint footer")
        if _ckpt_digest(b"".join(directory)) != bytes(view[pos:]):
            raise ValueError("checkpoint header digest mismatch")
        try:
            # (server_id, time, gen); snapshots predating generations
            # carry no gen and no log
            server_id, time, *gen = wire.decode(payloads[0])
            state = wire.decode(payloads[1])
            transport = wire.decode(payloads[2])
        except (wire.WireError, ValueError, TypeError) as exc:
            raise ValueError(f"checkpoint section undecodable: {exc}") from exc
        return ServerCheckpoint(server_id, time, state, transport, *gen[:1])

    def persist(self, checkpoint: ServerCheckpoint) -> None:
        """Write a snapshot: a new generation, replacing the log."""
        sid = checkpoint.server_id
        # a random generation can never collide with the one of a log a
        # crash left behind, even when this process never loaded it
        checkpoint.gen = int.from_bytes(os.urandom(8), "big") >> 1
        path = self._path(sid)
        tmp = path.with_suffix(".ckpt.tmp")
        blob = self._encode_checkpoint(checkpoint)
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()
        # the old log is dead from here on (its records name the previous
        # generation); truncating it needs no fsync of its own
        log = self._log(sid)
        log.truncate(0)
        log.seek(0)
        self._gens[sid] = checkpoint.gen
        self._snapshot_sizes[sid] = len(blob)
        self._log_sizes[sid] = 0
        self.persist_counts[sid] = self.persist_counts.get(sid, 0) + 1

    def _log(self, server_id: int):
        log = self._logs.get(server_id)
        if log is None:
            log = self._logs[server_id] = open(self._log_path(server_id), "ab")
        return log

    def append(self, server_id: int, payload: bytes) -> None:
        """Append one delta record and fsync it (one group commit)."""
        record = wal.frame_record(payload)
        log = self._log(server_id)
        log.write(record)
        log.flush()
        os.fsync(log.fileno())
        self._log_sizes[server_id] = self._log_sizes.get(server_id, 0) + len(record)
        self.persist_counts[server_id] = self.persist_counts.get(server_id, 0) + 1

    def generation(self, server_id: int) -> int:
        return self._gens.get(server_id, 0)

    def log_bytes(self, server_id: int) -> int:
        return self._log_sizes.get(server_id, 0)

    def snapshot_bytes(self, server_id: int) -> int:
        return self._snapshot_sizes.get(server_id, 0)

    def close(self) -> None:
        """Close the open log files (reopened on the next append)."""
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    def _fsync_dir(self) -> None:
        # the rename is only durable once the directory entry is; some
        # platforms refuse O_RDONLY fsync on directories -- best effort
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    def _read(self, server_id: int) -> ServerCheckpoint | None:
        """Snapshot plus replayed log; raises ``ValueError`` on damage."""
        path = self._path(server_id)
        if not path.exists():
            return None
        snap = self._decode_checkpoint(path.read_bytes())
        log = self._log_path(server_id)
        blob = log.read_bytes() if log.exists() else b""
        state, transport, time = wal.replay(
            snap.state, snap.transport, snap.gen, wal.read_records(blob)
        )
        return ServerCheckpoint(
            server_id, snap.time if time is None else time, state, transport,
            snap.gen,
        )

    def _report(self, server_id: int, exc: Exception) -> None:
        self.corruption_reports.append(
            CorruptCheckpoint(server_id, str(self._path(server_id)), str(exc))
        )

    def load(self, server_id: int) -> ServerCheckpoint | None:
        try:
            return self._read(server_id)
        except (ValueError, OSError) as exc:
            self._report(server_id, exc)
            return None

    def verify_file(self, server_id: int) -> bool | None:
        """Re-verify the at-rest snapshot and log digests (disk scrub).

        Returns ``None`` when no snapshot exists, ``True`` when every
        digest checks out, ``False`` (recording a typed report) when the
        files are damaged -- without surfacing the decoded checkpoint, so
        scrubbing cannot accidentally become a recovery path.
        """
        try:
            return None if self._read(server_id) is None else True
        except (ValueError, OSError) as exc:
            self._report(server_id, exc)
            return False

    def corrupt_detected(self, server_id: int | None = None) -> int:
        """How many corrupt/truncated checkpoints :meth:`load` has seen."""
        if server_id is None:
            return len(self.corruption_reports)
        return sum(
            1 for r in self.corruption_reports if r.server_id == server_id
        )

    # -- deterministic damage, for chaos schedules and tests -----------

    def corrupt_file(self, server_id: int, seed: int = 0, flips: int = 1) -> bool:
        """Flip ``flips`` seeded bits in the stored checkpoint (bit rot).

        Returns whether a file existed to damage.  The flipped offsets are
        a pure function of ``(seed, server_id, file size)`` so chaos
        schedules replay identically.
        """
        path = self._path(server_id)
        if not path.exists():
            return False
        blob = bytearray(path.read_bytes())
        if not blob:
            return False
        rng = np.random.default_rng((seed, 0xB17F11, server_id, len(blob)))
        for _ in range(flips):
            pos = int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
        path.write_bytes(bytes(blob))
        return True

    def truncate_file(self, server_id: int, keep_frac: float = 0.5) -> bool:
        """Model a torn write: keep only a prefix of the checkpoint file."""
        path = self._path(server_id)
        if not path.exists():
            return False
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_frac)])
        return True

    def wipe(self, server_id: int) -> None:
        """Simulate disk loss for one server (tests)."""
        log = self._logs.pop(server_id, None)
        if log is not None:
            log.close()
        self._path(server_id).unlink(missing_ok=True)
        self._log_path(server_id).unlink(missing_ok=True)
        self._snapshot_sizes.pop(server_id, None)
        self._log_sizes.pop(server_id, None)


class _PeerChannel:
    """The dialer end of one directed reliable channel ``me -> peer``.

    With a :class:`~repro.runtime.chaos_rt.LiveFaultInjector` attached to
    the server, every transmission attempt (first send, reconnect replay,
    periodic retransmission) asks the injector for a
    :class:`~repro.runtime.chaos_rt.FrameFate` first: frames may be
    dropped, duplicated, or delayed before they reach the socket.  The ARQ
    already masks exactly these hazards -- dropped frames stay in
    ``unacked`` and are retransmitted by :meth:`_retransmit_loop`,
    duplicates and reorderings are absorbed by the receiver's watermark --
    so chaos costs latency, never correctness.

    Batched flush (``server.batch``, the default): frames surviving chaos
    land in a per-channel ``_pending`` list instead of going straight to
    the socket; a flusher task wakes once per event-loop tick, concatenates
    everything pending into a **single** ``writer.write`` and then applies
    ``drain()``-based backpressure.  While the transport sits over its
    high-water mark, *data* frames stop being enqueued entirely -- they are
    already held by ``unacked`` -- and the flusher replays the skipped tail
    after the drain completes (the receiver's watermark absorbs any
    overlap).  Gossip frames are best-effort and are simply shed under
    pressure.  FIFO order is preserved: ``_pending`` is flushed in append
    order by the only writer task.

    Group commit: the server calls :meth:`queue` for data frames (numbered
    and held in ``unacked``) and :meth:`release` once the commit covering
    them is on disk.  No path -- first send, reconnect replay,
    retransmission, post-drain replay -- transmits a frame above
    ``released``.  :meth:`send` is queue-then-release.
    """

    def __init__(self, server: "AsyncioServer", peer_id: int):
        self.server = server
        self.peer_id = peer_id
        self.seq = 0
        #: highest seq allowed on the wire (covered by a durable commit)
        self.released = 0
        #: highest cumulative ack received; frames <= acked are pruned and
        #: can never be replayed, so the hello advertises it as the
        #: receiver's minimum watermark (see ``_peer_loop``)
        self.acked = 0
        self.unacked: deque[tuple[int, object]] = deque()
        self.writer: asyncio.StreamWriter | None = None
        self.task: asyncio.Task | None = None
        self._rexmit_task: asyncio.Task | None = None
        self._flush_task: asyncio.Task | None = None
        self._stopped = False
        #: frames awaiting the coalesced per-tick flush (batch mode)
        self._pending: list[tuple] = []
        self._flush_wakeup = asyncio.Event()
        #: transport over its high-water mark; a drain() is in flight
        self._paused = False
        #: lowest data seq skipped while paused, replayed after the drain
        self._stall_from: int | None = None
        #: seq -> loop time of the latest transmission attempt; the
        #: retransmit loop only re-sends frames older than the interval
        self._last_tx: dict[int, float] = {}

    def send(self, msg) -> None:
        self.queue(msg)
        self.release()

    def queue(self, msg) -> None:
        """Number and hold a data frame; it leaves at :meth:`release`."""
        self.seq += 1
        self.unacked.append((self.seq, msg))

    def release(self) -> None:
        """Transmit every frame queued since the last release."""
        fresh = self.seq - self.released
        self.released = self.seq
        if fresh <= 0:
            return
        for seq, msg in list(self.unacked)[-fresh:]:
            self._transmit(seq, msg)

    def send_gossip(self, msg) -> None:
        """Best-effort unsequenced frame (heartbeats): no ARQ, no replay."""
        fate = self._fate()
        if fate is None or fate.deliver:
            delay = 0.0 if fate is None else fate.delay_ms
            self._enqueue_later(("g", msg), delay)

    def _fate(self):
        chaos = self.server.chaos
        if chaos is None:
            return None
        return chaos.fate(self.server.node_id, self.peer_id)

    def _transmit(self, seq: int, msg) -> None:
        """One transmission attempt for a sequenced data frame."""
        if seq > self.released:
            return  # not yet covered by a commit: release() sends it
        # stamp every attempt, dropped ones included: the age gate measures
        # time since we last *tried*, not since the frame last got through
        self._last_tx[seq] = asyncio.get_running_loop().time()
        fate = self._fate()
        frame = ("d", seq, msg)
        if fate is None:
            self._enqueue(frame)
            return
        if fate.drop:
            return
        if fate.corrupt:
            # deliver the frame *damaged*: seeded bit flips inside the
            # CRC-covered region.  The receiver's frame CRC rejects it
            # like a drop and the ARQ retransmits a clean copy.
            frame = self.server.chaos.damage(
                wire.encode_frame(frame),
                self.server.node_id,
                self.peer_id,
                fate.k,
            )
        self._enqueue_later(frame, fate.delay_ms)
        if fate.dup:
            # the copy lands a beat later, off the FIFO path
            self._enqueue_later(frame, fate.delay_ms + 1.0)

    def _enqueue_later(self, frame, delay_ms: float) -> None:
        if delay_ms <= 0:
            self._enqueue(frame)
        else:
            asyncio.get_running_loop().call_later(
                delay_ms / 1000.0, self._enqueue, frame
            )

    def _enqueue(self, frame) -> None:
        if self.writer is None:
            # disconnected: data frames stay in unacked and are replayed
            # on reconnect; gossip is best-effort and simply lost
            return
        if not self.server.batch:
            self._write_frame(frame)
            return
        if self._paused:
            # backpressure: the transport is over its high-water mark.
            # Data frames are safe in unacked -- remember the lowest seq
            # we skipped so the flusher can replay the tail after drain
            if frame[0] == "d" and (
                self._stall_from is None or frame[1] < self._stall_from
            ):
                self._stall_from = frame[1]
            return
        self._pending.append(frame)
        self._flush_wakeup.set()

    def _write_frame(self, frame) -> None:
        if self.writer is not None:
            try:
                if isinstance(frame, bytes):  # pre-encoded (chaos-damaged)
                    self.writer.write(frame)
                else:
                    self.writer.write(wire.encode_frame(frame))
            except _CONN_ERRORS:  # pragma: no cover - racing disconnect
                self.writer = None
                return
            self.server.frames_sent += 1
            self.server.flushes += 1

    async def _flush_loop(self) -> None:
        """Coalesce pending frames into one write per event-loop tick.

        ``_flush_wakeup`` is set by ``_enqueue``; since this task only runs
        between ticks, every frame produced by one burst of deliveries
        (e.g. all App/Del broadcasts triggered by a batch of client
        requests) lands in a single ``writer.write`` of concatenated
        frames -- one syscall, one TCP segment train, instead of one per
        frame.
        """
        while not self._stopped:
            await self._flush_wakeup.wait()
            self._flush_wakeup.clear()
            writer, frames = self.writer, self._pending
            if not frames:
                continue
            self._pending = []
            if writer is None:
                continue  # data frames replay on reconnect; gossip is lost
            try:
                writer.write(wire.encode_frames(frames))
            except _CONN_ERRORS:  # pragma: no cover - racing disconnect
                self.writer = None
                continue
            self.server.frames_sent += len(frames)
            self.server.flushes += 1
            await self._maybe_drain(writer)

    async def _maybe_drain(self, writer: asyncio.StreamWriter) -> None:
        """Apply backpressure when the transport is over its high water.

        Pausing flips ``_paused`` so ``_enqueue`` stops feeding the socket
        (a slow peer must not grow our buffers without bound -- neither the
        transport's nor ``_pending``); once the peer drains us below the
        low-water mark, the unacked tail from the first skipped seq is
        re-transmitted.  Correctness is untouched: skipped frames live in
        ``unacked`` until acked, and the receiver's watermark deduplicates
        any overlap between pre-pause writes and the replay.
        """
        transport = writer.transport
        if transport is None or transport.is_closing():
            return
        _low, high = transport.get_write_buffer_limits()
        if transport.get_write_buffer_size() <= high:
            return
        self._paused = True
        try:
            await writer.drain()
        except _CONN_ERRORS:  # pragma: no cover - peer vanished mid-drain
            self.writer = None
            return
        finally:
            self._paused = False
        if self._stall_from is not None and self.writer is writer:
            stalled, self._stall_from = self._stall_from, None
            for seq, msg in list(self.unacked):
                if seq >= stalled:
                    self._transmit(seq, msg)

    def start(self) -> None:
        self.task = asyncio.ensure_future(self._run())
        if self.server.batch:
            self._flush_task = asyncio.ensure_future(self._flush_loop())
        if self.server.chaos is not None:
            self._rexmit_task = asyncio.ensure_future(self._retransmit_loop())

    async def _run(self) -> None:
        while not self._stopped:
            writer = None
            try:
                host, port = self.server.peers[self.peer_id]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    wire.encode_frame(
                        (
                            "hp",
                            self.server.node_id,
                            self.acked,
                            self.server.core.cfg_epoch,
                        )
                    )
                )
                self.server.frames_sent += 1
                self.server.flushes += 1
                # frames queued for the dead connection are stale; the
                # replay below re-sends everything that still matters
                self._pending.clear()
                self._stall_from = None
                self.writer = writer
                for seq, msg in list(self.unacked):  # replay the unacked tail
                    self._transmit(seq, msg)
                await writer.drain()
                while True:
                    try:
                        payload = await read_frame(reader)
                    except wire.FrameCorrupt:
                        # a rotted ack: skip it, the next cumulative ack
                        # carries the same information
                        self.server.frames_corrupt += 1
                        continue
                    if payload[0] == "a":
                        self._on_ack(payload[1])
                    elif payload[0] == "rc":
                        # fenced: the listener is in a newer membership
                        # epoch and sent its commit chain so we can catch
                        # up; install it and let the redial handshake with
                        # the new epoch
                        self.server.install_commits(payload[1])
            except _CONN_ERRORS:
                pass
            finally:
                self.writer = None
                if writer is not None:
                    writer.close()
            if not self._stopped:
                await asyncio.sleep(RECONNECT_DELAY)

    async def _retransmit_loop(self) -> None:
        """Re-send *stale* unacked frames while chaos may be eating frames.

        Plain TCP needs no retransmission timer (replay-on-reconnect covers
        connection loss), but an injector drops individual frames on a live
        connection; without this loop a dropped frame would stall its
        channel forever.
        """
        while not self._stopped:
            await asyncio.sleep(RETRANSMIT_INTERVAL)
            if self.writer is not None:
                self._retransmit_pass(asyncio.get_running_loop().time())

    def _retransmit_pass(self, now: float) -> int:
        """Retransmit unacked frames whose last attempt has aged out.

        Age gating matters: without it every pass re-sent the *entire*
        unacked tail -- frames transmitted microseconds ago included -- and
        each re-send re-rolled the chaos fate, so ``dup`` fates multiplied
        copies of frames the receiver had already absorbed.  Returns the
        number of frames re-sent.
        """
        sent = 0
        for seq, msg in list(self.unacked):
            last = self._last_tx.get(seq, float("-inf"))
            if now - last >= RETRANSMIT_INTERVAL:
                self._transmit(seq, msg)
                sent += 1
        return sent

    def _on_ack(self, upto: int) -> None:
        if upto > self.acked:
            self.acked = upto
        while self.unacked and self.unacked[0][0] <= upto:
            seq, _ = self.unacked.popleft()
            self._last_tx.pop(seq, None)

    def reset(self) -> None:
        """Abruptly drop the established connection (it redials + replays)."""
        writer = self.writer
        self.writer = None
        if writer is not None:
            writer.close()

    async def stop(self) -> None:
        self._stopped = True
        self._flush_wakeup.set()  # unblock the flusher so cancel lands fast
        for task in (self.task, self._rexmit_task, self._flush_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                # cancellation is expected; anything else (a wire-codec
                # bug, a programming error in the loops) must surface
                log.exception(
                    "peer channel %d->%d task failed during stop",
                    self.server.node_id,
                    self.peer_id,
                )
        self.task = None
        self._rexmit_task = None
        self._flush_task = None
        if self.writer is not None:
            self.writer.close()
            self.writer = None


class _ChannelStateView:
    """Presents ARQ channel state through the transport-snapshot interface
    that :func:`~repro.core.snapshot.capture_server_state` expects."""

    active = True

    def __init__(self, server: "AsyncioServer"):
        self._server = server

    def snapshot_node(self, node_id: int) -> dict:
        s = self._server
        return {
            "send": {
                j: {"seq": ch.seq, "unacked": list(ch.unacked)}
                for j, ch in s._channels.items()
            },
            "recv": dict(s._recv_last),
        }

    def restore_node(self, node_id: int, state: dict) -> None:
        s = self._server
        for j, st in state.get("send", {}).items():
            ch = s._channels.get(j)
            if ch is not None:
                ch.seq = ch.released = st["seq"]
                ch.unacked = deque(tuple(entry) for entry in st["unacked"])
                # everything below the unacked tail was acked and pruned
                ch.acked = ch.unacked[0][0] - 1 if ch.unacked else ch.seq
        s._recv_last = dict(state.get("recv", {}))


class AsyncioServer:
    """One CausalEC server: a :class:`ServerCore` behind a TCP listener.

    Optional resilience attachments:

    * ``chaos`` -- a :class:`~repro.runtime.chaos_rt.LiveFaultInjector`
      consulted by every peer-channel transmission;
    * ``detector`` -- a :class:`FailureDetectorConfig`; the server then
      runs a :class:`FailureDetectorCore` whose heartbeats travel as
      best-effort ``("g", msg)`` gossip frames on the peer channels
      (bypassing the ARQ -- retransmitting liveness evidence would defeat
      it) and whose suspect/alive transitions land in ``detector_log``;
    * ``audit_addr`` -- address of an :class:`~repro.runtime.auditor
      .OnlineAuditor`; decision-log entries are then mirrored as
      :class:`~repro.consistency.online.AuditOp` records and streamed to
      it.  The record list models an append-only log file: it survives
      :meth:`kill` (unlike volatile protocol state) and the stream replays
      it in full after every reconnect, the auditor deduplicates.
    """

    def __init__(
        self,
        core: ServerCore,
        store: FileDurableStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: LiveFaultInjector | None = None,
        detector: FailureDetectorConfig | None = None,
        audit_addr: tuple[str, int] | None = None,
        repair: RepairConfig | None = None,
        scrub: ScrubConfig | None = None,
        batch: bool = True,
    ):
        self.core = core
        self.node_id = core.node_id
        self.num_servers = core.code.N
        self.store = store
        self.host = host
        self.port = port
        self.chaos = chaos
        #: coalesce outbound data frames per event-loop tick; ``False``
        #: restores one write per data frame, kept as the comparison lane
        #: for the macro benchmark (replies and acks leave once per group
        #: commit either way)
        self.batch = batch
        #: wire frames put on a socket / single writer.write calls issued;
        #: ``frames_sent / flushes`` is the measured batching factor
        self.frames_sent = 0
        self.flushes = 0
        #: inbound frames rejected by the frame CRC and skipped like drops
        self.frames_corrupt = 0
        self.audit_addr = audit_addr
        if audit_addr is not None:
            # the audit stream mirrors decision-log entries; auditing a
            # server that never logs decisions would silently check nothing
            core.config.decision_log = True
        self.peers: dict[int, tuple[str, int]] = {}
        self.halted = False
        self.decision_log: list[tuple] = []
        #: delivered-frame counter; quiescence detection watches it
        self.activity = 0
        self._epoch = 0
        self._listener: asyncio.Server | None = None
        self._channels: dict[int, _PeerChannel] = {}
        self._recv_last: dict[int, int] = {}
        self._ooo: dict[int, dict[int, object]] = {}
        self._clients: dict[int, asyncio.StreamWriter] = {}
        self._inbound: set[asyncio.StreamWriter] = set()
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._arq_view = _ChannelStateView(self)
        # group commit: output produced in one event-loop tick is held
        # until the tick's commit is on disk (see _commit_tick)
        self._wal = None if store is None else wal.DurableLog(
            store, self.node_id, self._capture
        )
        self._commit_pending = False
        self._compact_armed = False
        self._last_commit = 0.0
        #: client replies awaiting release: connection -> frames in order
        self._held: dict[asyncio.StreamWriter, list[tuple]] = {}
        #: peer channels with queued data frames awaiting release
        self._unreleased: dict[int, _PeerChannel] = {}
        #: inbound peer connections owed a cumulative ack: writer -> src
        self._ack_due: dict[asyncio.StreamWriter, int] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self.detector: FailureDetectorCore | None = None
        if detector is not None:
            others = [j for j in range(self.num_servers) if j != self.node_id]
            self.detector = FailureDetectorCore(self.node_id, others, detector)
        #: anti-entropy overlay; digests ride the gossip path, repair
        #: requests/responses the reliable ARQ channels
        self.repair: RepairCore | None = (
            None if repair is None else RepairCore(core, repair)
        )
        #: bit-rot scrubber: periodically re-verifies the codeword seal
        #: and the on-disk checkpoint, quarantining + healing corruption
        self.scrub: ScrubCore | None = (
            None if scrub is None else ScrubCore(core, scrub)
        )
        #: epoch-fenced dynamic membership (always on: with no
        #: reconfigurations it is a zero-cost epoch-0 pass-through)
        self.reconfig = ReconfigCore(core)
        #: every membership commit this incarnation knows, by epoch; the
        #: cluster seeds replacements with the full chain so they can
        #: answer fenced peers and rebuild extended codes after restarts
        self.commit_chain: list[ReconfigCommit] = []
        #: set by ``kill(forever=True)``: this incarnation is permanently
        #: failed -- supervisors must not resurrect it
        self.permanently_failed = False
        #: hook called as ``on_membership_change(server_id, effect)``
        self.on_membership_change = None
        #: (time, peer, "suspect" | "alive") -- this incarnation and earlier
        self.detector_log: list[tuple[float, int, str]] = []
        #: hook called as ``on_transition(server_id, peer, kind)``
        self.on_detector_transition = None
        self._audit_log: list[AuditOp] = []
        self._audit_task: asyncio.Task | None = None
        #: audit identity (sharded clusters): ``audit_node`` must be
        #: globally unique across shards (seq dedup at the auditor is per
        #: server id); ``audit_shard`` scopes this group's tags;
        #: ``audit_key_map``/``audit_gen`` translate codeword slots into
        #: global keys and migration generations.  Defaults leave
        #: unsharded clusters byte-identical on the audit stream.
        self.audit_node = self.node_id
        self.audit_shard = 0
        self.audit_key_map: dict[int, object] | None = None
        self.audit_gen: dict[int, int] = {}
        #: serializes kill/restart.  Both suspend at await points, and a
        #: supervisor (polling ``halted``) can schedule a restart while a
        #: kill coroutine is still tearing down -- unserialized, the kill's
        #: tail would wipe the freshly restored core and leave a zombie
        #: listener acking frames into a never-applying inqueue.
        self._lifecycle = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    def now(self) -> float:
        return _now_ms(self._loop)

    @property
    def stats(self):
        return self.core.stats

    async def start(self) -> None:
        """Bind the listener (port 0 = ephemeral) and boot the core."""
        self._loop = asyncio.get_running_loop()
        await self._start_listener()
        self.interpret(self.core.boot(self.now()))
        self._boot_overlays()

    def _boot_overlays(self) -> None:
        """Start the operational overlays: detector, repair, audit stream."""
        if self.detector is not None:
            self.interpret_detector(self.detector.boot(self.now()))
        if self.repair is not None:
            # round state is volatile: each incarnation reboots the overlay
            self.interpret(self.repair.boot(self.now()))
        if self.scrub is not None:
            self.interpret(self.scrub.boot(self.now()))
        if self.audit_addr is not None:
            self._audit_task = asyncio.ensure_future(self._audit_loop())

    async def _start_listener(self) -> None:
        self._listener = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]

    def set_peers(self, addresses: dict[int, tuple[str, int]]) -> None:
        self.peers = {j: a for j, a in addresses.items() if j != self.node_id}

    def connect_peers(self) -> None:
        for j in self.peers:
            ch = self._channels[j] = _PeerChannel(self, j)
            ch.start()

    async def kill(self, forever: bool = False) -> None:
        """Crash: drop timers, connections, listener, and volatile state.

        ``forever=True`` additionally marks the incarnation permanently
        failed (a machine that is never coming back): supervisors skip it,
        and the failure detector's confirmed-dead escalation is what
        eventually replaces it.
        """
        async with self._lifecycle:
            if forever:
                self.permanently_failed = True
            await self._kill_locked()

    async def _kill_locked(self) -> None:
        self.halted = True
        self._epoch += 1
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self._audit_task is not None:
            self._audit_task.cancel()
            try:
                await self._audit_task
            except asyncio.CancelledError:
                pass
            except Exception:
                log.exception(
                    "server %d audit stream failed during kill", self.node_id
                )
            self._audit_task = None
        for ch in self._channels.values():
            await ch.stop()
        self._channels.clear()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        self._clients.clear()
        await asyncio.sleep(0.01)  # let connection handlers observe the close
        # a crash loses everything not on disk, unreleased output included
        self._drop_unreleased()
        self._recv_last = {}
        self._ooo = {}
        self.core.wipe_volatile()

    async def restart(self) -> None:
        """Recover: reload the durable checkpoint, rebind, redial, resume.

        Also usable as a cold-start entry point for a standalone server
        process resuming from an on-disk checkpoint (``repro serve``).
        """
        async with self._lifecycle:
            if self.permanently_failed:
                # a replaced machine's old incarnation must never rejoin:
                # its slot (and endpoint) belong to the replacement now
                raise RuntimeError(
                    f"server {self.node_id} is permanently failed"
                )
            if self._loop is None:
                self._loop = asyncio.get_running_loop()
            self.halted = False
            for j in self.peers:
                ch = self._channels[j] = _PeerChannel(self, j)
            checkpoint = None
            if self.store is not None:
                # the new incarnation starts a fresh snapshot generation
                self._wal.force_snapshot()
                checkpoint = self.store.load(self.node_id)
            if checkpoint is not None:
                restore_server_state(
                    self.core, checkpoint, transport=self._arq_view
                )
            await self._start_listener()
            for ch in self._channels.values():
                ch.start()
            self.interpret(self.core.after_restart(self.now()))
            self._boot_overlays()

    def reset_connections(self) -> None:
        """Abruptly close every established connection without crashing.

        Dialer channels redial and replay their unacked tails; inbound
        peers and clients observe the close and reconnect.  Models a NIC
        hiccup / middlebox reset: connection state is lost, process state
        is not (:class:`~repro.sim.faults.FaultPlan` ``resets``).
        """
        for ch in self._channels.values():
            ch.reset()
        for writer in list(self._inbound):
            writer.close()

    async def shutdown(self) -> None:
        if not self.halted:
            await self.kill()

    # ------------------------------------------------------------------
    # connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        epoch = self._epoch
        src = None
        self._inbound.add(writer)
        try:
            hello = await read_frame(reader)
            kind, src = hello[0], hello[1]
            if kind == "hp":
                base = hello[2] if len(hello) > 2 else 0
                peer_epoch = hello[3] if len(hello) > 3 else 0
                if not self.reconfig.frame_admissible(peer_epoch):
                    # the dialer is in an older membership epoch: fence the
                    # connection (none of its frames are delivered) but
                    # hand back the commit chain first -- a live-but-behind
                    # peer installs it and redials at the new epoch, while
                    # a superseded zombie stays fenced forever
                    try:
                        writer.write(
                            wire.encode_frame(("rc", list(self.commit_chain)))
                        )
                        self.frames_sent += 1
                        self.flushes += 1
                        await writer.drain()
                    except _CONN_ERRORS:
                        pass
                    return
                await self._peer_loop(src, reader, writer, epoch, base)
            elif kind == "hc":
                self._clients[src] = writer
                await self._client_loop(src, reader, epoch)
        except _CONN_ERRORS:
            pass
        finally:
            self._inbound.discard(writer)
            if src is not None and self._clients.get(src) is writer:
                del self._clients[src]
            writer.close()

    async def _peer_loop(self, src, reader, writer, epoch, base=0) -> None:
        """Deliver data frames from peer ``src`` in order, exactly once.

        ``base`` is the peer's highest received ack: everything up to it
        has been pruned from the peer's ARQ queue and can never be
        replayed.  If our watermark is behind ``base`` (a restart from a
        checkpoint that predates acks we sent -- acked frames that changed
        durable state were persisted *before* their ack, so the gap frames
        provably changed none), waiting for the gap would stall the channel
        forever; fast-forward to ``base`` instead.
        """
        last = self._recv_last.get(src, 0)
        if base > last:
            self._recv_last[src] = base
            pending = self._ooo.get(src)
            if pending:
                for seq in [s for s in pending if s <= base]:
                    del pending[seq]

        while True:
            try:
                payload = await read_frame(reader)
            except wire.FrameCorrupt:
                # bit rot on the wire, caught by the frame CRC: treat it
                # exactly like a dropped frame -- the sender's ARQ
                # retransmits data, gossip is best-effort anyway
                self.frames_corrupt += 1
                continue
            if self._epoch != epoch or self.halted:
                return
            if payload[0] == "g":
                # best-effort gossip (heartbeats, digests): no seq, no ack
                gm = payload[1]
                if self.detector is not None and isinstance(gm, Heartbeat):
                    self.interpret_detector(
                        self.detector.handle_message(src, gm, self.now())
                    )
                elif type(gm) is DigestMsg and self.repair is not None:
                    if self.detector is not None:
                        # a digest is liveness evidence like any frame
                        self.interpret_detector(
                            self.detector.observe(src, self.now())
                        )
                    self.interpret(
                        self.repair.handle_message(src, gm, self.now())
                    )
                continue
            if payload[0] != "d":
                continue
            _, seq, msg = payload
            if self.detector is not None:
                # any delivered frame is liveness evidence, duplicates too
                self.interpret_detector(self.detector.observe(src, self.now()))
            last = self._recv_last.get(src, 0)
            if seq > last:
                pending = self._ooo.setdefault(src, {})
                pending[seq] = msg
                while last + 1 in pending:
                    last += 1
                    m = pending.pop(last)
                    # watermark first: the tick's commit then records
                    # delivery and the resulting state change atomically
                    self._recv_last[src] = last
                    self.activity += 1
                    self._deliver(src, m)
            # one cumulative ack per tick, released after the tick's
            # commit made the watermark durable (duplicates re-ack too)
            self._ack_due[writer] = src
            self._schedule_commit()

    def _deliver(self, src: int, msg) -> None:
        """Route one in-order data frame to the right core."""
        if isinstance(msg, (RepairRequest, RepairResponse)):
            if self.repair is not None:
                self.interpret(self.repair.handle_message(src, msg, self.now()))
            return  # overlay disabled here: drop peer repair traffic
        self.interpret(self.core.handle_message(src, msg, self.now()))

    # ------------------------------------------------------------------
    # dynamic membership

    def _remember_commit(self, msg: ReconfigCommit) -> None:
        if all(c.epoch != msg.epoch for c in self.commit_chain):
            self.commit_chain.append(msg)
            self.commit_chain.sort(key=lambda c: c.epoch)

    def install_commits(self, commits) -> None:
        """Catch up on membership commits learned out of band.

        Fed by the fence response of a newer-epoch peer and by the
        cluster's restart replay.  Joins must apply in epoch order (each
        extends the code by one row); commits at or below the installed
        epoch are still scanned for the code-rebuild case -- ``cfg_epoch``
        is durable but the extended code is reconstructed at boot from the
        committed row seeds, never from disk.
        """
        for msg in sorted(commits, key=lambda c: c.epoch):
            if not isinstance(msg, ReconfigCommit):
                continue
            if (
                msg.joiner is not None
                and msg.row_seed is not None
                and msg.joiner == self.core.code.N
                and msg.epoch <= self.core.cfg_epoch
            ):
                # restart of a post-join checkpoint: the epoch is already
                # installed but the boot-time code predates the join
                self.core.adopt_code(extend_code(self.core.code, msg.row_seed))
                self.num_servers = self.core.code.N
            if msg.epoch > self.core.cfg_epoch:
                self.interpret(self.reconfig.apply_commit(msg, self.now()))
            self._remember_commit(msg)

    async def _client_loop(self, src, reader, epoch) -> None:
        while True:
            try:
                payload = await read_frame(reader)
            except wire.FrameCorrupt:
                # corrupt request: drop it, the client's retry re-sends
                self.frames_corrupt += 1
                continue
            if self._epoch != epoch or self.halted:
                return
            if payload[0] == "m":
                self.activity += 1
                msg = payload[1]
                if isinstance(msg, (ReconfigPropose, ReconfigCommit)):
                    # membership control plane: coordinators speak it over
                    # short-lived client connections (never fenced, so a
                    # behind server can always be caught up)
                    self.interpret(
                        self.reconfig.handle_message(src, msg, self.now())
                    )
                    if isinstance(msg, ReconfigCommit):
                        self._remember_commit(msg)
                else:
                    self.interpret(
                        self.core.handle_message(src, msg, self.now())
                    )

    # ------------------------------------------------------------------
    # effect interpretation

    def interpret(self, effects) -> None:
        for e in effects:
            cls = type(e)
            if cls is SendEffect:
                if type(e.msg) is DigestMsg:
                    # digests are periodic and idempotent: best-effort
                    # gossip frames, off the ARQ (like heartbeats)
                    channel = self._channels.get(e.dst)
                    if channel is not None:
                        channel.send_gossip(e.msg)
                else:
                    self._send(e.dst, e.msg)
            elif cls is ReplyEffect:
                self._send(e.client_id, e.msg)
            elif cls is SetTimerEffect:
                handle = self._loop.call_later(
                    e.delay / 1000.0, self._on_timer, e.timer_id, self._epoch
                )
                self._timers[e.timer_id] = handle
            elif cls is CancelTimerEffect:
                handle = self._timers.pop(e.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif cls is PersistEffect:
                self._schedule_commit()
            elif cls is LogEffect:
                self.decision_log.append(e.entry)
                if self.audit_addr is not None:
                    self._append_audit(e.entry)
            elif cls is MembershipChangedEffect:
                self._on_membership_changed(e)
            else:
                raise TypeError(f"unknown effect {e!r}")

    def interpret_detector(self, effects) -> None:
        """Interpret failure-detector effects (separate send path: gossip)."""
        for e in effects:
            cls = type(e)
            if cls is SendEffect:
                channel = self._channels.get(e.dst)
                if channel is not None:
                    channel.send_gossip(e.msg)
            elif cls is SetTimerEffect:
                handle = self._loop.call_later(
                    e.delay / 1000.0, self._on_timer, e.timer_id, self._epoch
                )
                self._timers[e.timer_id] = handle
            elif cls is CancelTimerEffect:
                handle = self._timers.pop(e.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif cls is PeerSuspectedEffect:
                self.detector_log.append((self.now(), e.peer, "suspect"))
                if self.on_detector_transition is not None:
                    self.on_detector_transition(self.node_id, e.peer, "suspect")
            elif cls is PeerAliveEffect:
                self.detector_log.append((self.now(), e.peer, "alive"))
                if self.on_detector_transition is not None:
                    self.on_detector_transition(self.node_id, e.peer, "alive")
                if self.repair is not None:
                    # a peer back from the dead likely missed writes:
                    # offer it our digest immediately (opportunistic repair)
                    self.interpret(
                        self.repair.on_peer_alive(e.peer, self.now())
                    )
            elif cls is PeerConfirmedDeadEffect:
                self.detector_log.append((self.now(), e.peer, "dead"))
                if self.on_detector_transition is not None:
                    self.on_detector_transition(self.node_id, e.peer, "dead")
            else:
                raise TypeError(f"unknown detector effect {e!r}")

    def _on_membership_changed(self, e: MembershipChangedEffect) -> None:
        """React to an installed membership commit: refresh every cache
        derived from the server set (peer fanout, overlays, detector)."""
        self.num_servers = self.core.code.N
        retired = set(range(self.core.code.N)) - set(e.members)
        if self.repair is not None:
            self.repair.refresh_peers()
        if self.detector is not None:
            for p in retired:
                self.detector.forget(p)
            if e.joiner is not None and e.joiner != self.node_id:
                self.detector.watch(e.joiner, self.now())
        for p in retired:
            self.peers.pop(p, None)
            ch = self._channels.pop(p, None)
            if ch is not None:
                asyncio.ensure_future(ch.stop())
        if self.on_membership_change is not None:
            self.on_membership_change(self.node_id, e)

    def ensure_peer_channels(self) -> None:
        """Dial any peer in ``peers`` without a channel yet (post-join)."""
        if self.halted:
            return
        for j in self.peers:
            if j not in self._channels:
                ch = self._channels[j] = _PeerChannel(self, j)
                ch.start()

    def _send(self, dst: int, msg) -> None:
        """Queue a protocol message; it leaves after the tick's commit."""
        if dst < self.num_servers:
            channel = self._channels.get(dst)
            if channel is not None:
                channel.queue(msg)
                self._unreleased[dst] = channel
                self._schedule_commit()
        else:
            writer = self._clients.get(dst)
            if writer is not None:
                self._held.setdefault(writer, []).append(("m", msg))
                self._schedule_commit()
            # else: client gone; its retry policy re-requests

    def _on_timer(self, timer_id: tuple, epoch: int) -> None:
        if epoch != self._epoch or self.halted:
            return
        self._timers.pop(timer_id, None)
        if timer_id[0] == "fd":
            if self.detector is not None:
                self.interpret_detector(
                    self.detector.handle_timer(timer_id, self.now())
                )
            return
        if timer_id[0] == "rep":
            if self.repair is not None:
                self.interpret(self.repair.handle_timer(timer_id, self.now()))
            return
        if timer_id[0] == "scrub":
            if self.scrub is not None:
                self.interpret(self.scrub.handle_timer(timer_id, self.now()))
                self._scrub_disk()
            return
        self.interpret(self.core.handle_timer(timer_id, self.now()))

    # ------------------------------------------------------------------
    # group commit

    def _capture(self, core, transport):
        # the file store encodes the snapshot at once: no copy needed.  The
        # module-level lookup lets a tracer wrapping it see every capture.
        return capture_server_state(core, transport, deep=False)

    def _schedule_commit(self) -> None:
        """Arrange one commit at the end of the current event-loop tick."""
        if not self._commit_pending and not self.halted:
            self._commit_pending = True
            self._loop.call_soon(self._commit_tick, self._epoch)

    def _commit_tick(self, epoch: int) -> None:
        """Group commit: make the tick's state durable, then release output.

        Everything handled since the last commit -- client requests, peer
        frames, timers -- lands in one log record and one ``fsync``
        (:class:`~repro.core.wal.DurableLog`).  Only then do the tick's
        client replies, ARQ data frames and ARQ acks leave, so nothing is
        ever acknowledged before the state it acknowledges is on disk.  A
        crash before this runs drops the output with the uncommitted state
        (:meth:`_drop_unreleased`).
        """
        if epoch != self._epoch or self.halted:
            return  # the incarnation that scheduled this commit crashed
        self._commit_pending = False
        if self._wal is not None and self._wal.commit(
            self.core, self._arq_view, self.now()
        ):
            self.core.stats.persists += 1
            self._last_commit = self._loop.time()
            if self.store.log_bytes(self.node_id) and not self._compact_armed:
                self._compact_armed = True
                self._loop.call_later(
                    IDLE_COMPACT_S, self._idle_compact, self._epoch
                )
        channels, self._unreleased = self._unreleased, {}
        for ch in channels.values():
            ch.release()
        held, self._held = self._held, {}
        acks, self._ack_due = self._ack_due, {}
        for writer, src in acks.items():
            held.setdefault(writer, []).append(("a", self._recv_last.get(src, 0)))
        for writer, frames in held.items():
            try:
                writer.write(wire.encode_frames(frames))
            except _CONN_ERRORS:  # pragma: no cover - racing disconnect
                continue
            self.frames_sent += len(frames)
            self.flushes += 1

    def _idle_compact(self, epoch: int) -> None:
        """Snapshot once no commit happened for ``IDLE_COMPACT_S``."""
        if epoch != self._epoch or self.halted:
            return
        idle = self._loop.time() - self._last_commit
        if idle < IDLE_COMPACT_S:
            self._loop.call_later(
                IDLE_COMPACT_S - idle, self._idle_compact, epoch
            )
            return
        self._compact_armed = False
        if self.store.log_bytes(self.node_id):
            self._wal.force_snapshot()
            self._schedule_commit()

    def _drop_unreleased(self) -> None:
        self._commit_pending = False
        self._compact_armed = False
        self._held = {}
        self._unreleased = {}
        self._ack_due = {}

    def _scrub_disk(self) -> None:
        """Disk-side scrub: re-verify the at-rest checkpoint each round
        and heal detected rot by re-persisting from live memory (the
        in-memory core is authoritative while the server is up)."""
        if self.store is None or self.scrub is None or self.halted:
            return
        ok = self.store.verify_file(self.node_id)
        if ok is None:
            return
        stats = self.scrub.stats
        if ok:
            stats.checkpoints_verified += 1
            return
        stats.checkpoints_corrupt += 1
        self._wal.force_snapshot()
        self._schedule_commit()
        stats.checkpoints_rewritten += 1

    # ------------------------------------------------------------------
    # audit streaming

    def _append_audit(self, entry: tuple) -> None:
        """Mirror one decision-log entry as a wire-ready audit record."""
        kind = entry[0]
        if kind in ("write", "migrate"):
            # a migration install is a write by the coordinator session
            _, obj, tag, opid, _client = entry
            rec_kind = "write"
        elif kind == "apply":
            _, obj, tag = entry
            opid, rec_kind = None, "apply"
        elif kind == "read-return":
            _, _, tag, opid, obj, _client = entry
            rec_kind = "read"
        elif kind == "repair-install":
            # a repaired value is a write the server missed: stream it as
            # an apply record (opid=None -> corroboration, no new edges)
            _, obj, tag = entry
            opid, rec_kind = None, "apply"
        else:
            return  # gc-del and friends carry no audit information
        if self.audit_key_map is not None:
            slot = obj
            obj = self.audit_key_map.get(slot, obj)
            gen = self.audit_gen.get(slot, 0)
        else:
            gen = 0
        self._audit_log.append(
            AuditOp(
                server=self.audit_node,
                seq=len(self._audit_log) + 1,
                kind=rec_kind,
                obj=obj,
                tag=tag,
                opid=opid,
                time=self.now(),
                shard=self.audit_shard,
                gen=gen,
                epoch=self.core.cfg_epoch,
            )
        )

    async def _audit_loop(self) -> None:
        """Stream the audit log to the auditor; replay it all on reconnect."""
        while not self.halted:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(*self.audit_addr)
                writer.write(wire.encode_frame(("ha", self.audit_node)))
                sent = 0
                while True:
                    while sent < len(self._audit_log):
                        writer.write(
                            wire.encode_frame(("r", self._audit_log[sent]))
                        )
                        sent += 1
                    await writer.drain()
                    await asyncio.sleep(AUDIT_POLL)
            except _CONN_ERRORS:
                pass
            finally:
                if writer is not None:
                    writer.close()
            if not self.halted:
                await asyncio.sleep(RECONNECT_DELAY)


class AsyncioClient:
    """A :class:`ClientCore` speaking wire frames to its home server.

    ``addresses`` maps server ids to listener addresses; when the core
    fails over (:class:`~repro.protocol.effects.HomeServerSwitchEffect`)
    the client force-closes its connection and the dial loop redials the
    *new* home server's address.  Switches are recorded in ``switch_log``.
    """

    def __init__(
        self,
        core: ClientCore,
        server_addr: tuple[str, int],
        on_settled=None,
        addresses: dict[int, tuple[str, int]] | None = None,
    ):
        self.core = core
        self.node_id = core.node_id
        self._addr = server_addr
        self._addresses = dict(addresses or {})
        self._on_settled = on_settled
        self._writer: asyncio.StreamWriter | None = None
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._settled: asyncio.Future | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        #: (old, new, opid) home-server switches, oldest first
        self.switch_log: list[tuple[int, int, object]] = []
        #: request frames written (hello excluded); feeds frames-per-op
        self.frames_sent = 0
        #: reply frames rejected by the frame CRC and dropped
        self.frames_corrupt = 0

    def _now(self) -> float:
        return _now_ms(self._loop)

    def _home_addr(self) -> tuple[str, int]:
        return self._addresses.get(self.core.server_id, self._addr)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        start = self._loop.time()
        self._task = asyncio.ensure_future(self._run())
        for _ in range(200):  # wait for the first connection
            if self._writer is not None:
                return
            await asyncio.sleep(0.01)
        # typed, like every other unavailability surfaced by the client path
        raise HomeServerUnavailable(
            None,
            self.core.server_id,
            attempts=0,
            waited=(self._loop.time() - start) * 1000.0,
        )

    async def _run(self) -> None:
        while not self._closed:
            writer = None
            server_id = self.core.server_id
            try:
                reader, writer = await asyncio.open_connection(
                    *self._home_addr()
                )
                writer.write(wire.encode_frame(("hc", self.node_id)))
                await writer.drain()
                self._writer = writer
                while True:
                    try:
                        payload = await read_frame(reader)
                    except wire.FrameCorrupt:
                        # corrupt reply: drop it, the retry timer re-asks
                        self.frames_corrupt += 1
                        continue
                    if payload[0] == "m":
                        self.interpret(
                            self.core.handle_message(
                                server_id, payload[1], self._now()
                            )
                        )
            except _CONN_ERRORS:
                pass
            finally:
                self._writer = None
                if writer is not None:
                    writer.close()
            if not self._closed:
                await asyncio.sleep(RECONNECT_DELAY)

    def notify_home_suspected(self, peer: int) -> None:
        """Failure-detector hint: the client's home server looks dead.

        Advisory -- triggers the core's early failover (reads re-sent to
        the next candidate, sticky rotation otherwise); a false suspicion
        costs a redial, never correctness.
        """
        if self._closed or self.core.server_id != peer or not self.core.failover:
            return
        self.interpret(self.core.suspect_home(self._now()))

    async def close(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            except Exception:
                log.exception("client %d dial loop failed during close", self.node_id)
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------

    async def write(self, obj: int, value) -> Operation:
        """Invoke write(X, v) and await its completion (or fast failure)."""
        op, effects = self.core.start_write(obj, value, self._now())
        return await self._settle(op, effects)

    async def read(self, obj: int) -> Operation:
        """Invoke read(X) and await its completion (or fast failure)."""
        op, effects = self.core.start_read(obj, self._now())
        return await self._settle(op, effects)

    async def migrate(self, obj: int, value, gen: int) -> Operation:
        """Install a migrated value (view-change coordinators only)."""
        op, effects = self.core.start_migrate(obj, value, gen, self._now())
        return await self._settle(op, effects)

    async def _settle(self, op: Operation, effects) -> Operation:
        self._settled = self._loop.create_future()
        self.interpret(effects)
        await self._settled
        self._settled = None
        return op

    def interpret(self, effects) -> None:
        for e in effects:
            cls = type(e)
            if cls is SendEffect:
                if self._writer is not None:
                    try:
                        self._writer.write(wire.encode_frame(("m", e.msg)))
                    except _CONN_ERRORS:  # pragma: no cover
                        pass
                    else:
                        self.frames_sent += 1
                # else: disconnected; the retry timer re-sends
            elif cls is SetTimerEffect:
                handle = self._loop.call_later(
                    e.delay / 1000.0, self._on_timer, e.timer_id
                )
                self._timers[e.timer_id] = handle
            elif cls is CancelTimerEffect:
                handle = self._timers.pop(e.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif cls is OpSettledEffect:
                if self._settled is not None and not self._settled.done():
                    self._settled.set_result(e.op)
                if self._on_settled is not None:
                    self._on_settled(e.op)
            elif cls is HomeServerSwitchEffect:
                self.switch_log.append((e.old, e.new, e.opid))
                # force the dial loop off the old connection; it redials
                # the new home server's address.  The SendEffect that may
                # follow finds no writer yet -- the retry timer re-sends
                # once the new connection is up.
                writer = self._writer
                self._writer = None
                if writer is not None:
                    writer.close()
            else:
                raise TypeError(f"unknown effect {e!r}")

    def _on_timer(self, timer_id: tuple) -> None:
        self._timers.pop(timer_id, None)
        if not self._closed:
            self.interpret(self.core.handle_timer(timer_id, self._now()))


class AsyncioCluster:
    """An in-process N-server CausalEC cluster on localhost TCP sockets.

    The live counterpart of :class:`~repro.core.cluster.CausalECCluster`:
    same code/config parameters, same ``add_client``/``value``/``history``
    surface, but every method that touches the network is a coroutine.

    Quickstart::

        cluster = AsyncioCluster(example1_code())
        await cluster.start()
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(7))
        await cluster.quiesce()
        await cluster.shutdown()
    """

    def __init__(
        self,
        code: LinearCode,
        config: ServerConfig | None = None,
        store_dir: str | os.PathLike | None = None,
        retry: RetryPolicy | None = None,
        host: str = "127.0.0.1",
        chaos: LiveFaultInjector | None = None,
        detector: FailureDetectorConfig | None = None,
        audit_addr: tuple[str, int] | None = None,
        repair: RepairConfig | None = None,
        scrub: ScrubConfig | None = None,
        batch: bool = True,
        auto_replace: bool = False,
    ):
        self.code = code
        #: the founding code never changes (clients and clock dimensions
        #: are anchored to it); joins extend ``current_code``
        self.current_code = code
        self.num_servers = code.N
        self.config = config or ServerConfig()
        self.retry = retry
        self.chaos = chaos
        self.repair = repair
        self.scrub_config = scrub
        self.batch = batch
        self.host = host
        self.detector_config = detector
        self.audit_addr = audit_addr
        #: escalate the detector's confirmed-dead signal into an automatic
        #: replace of the failed server (requires a detector config with
        #: ``confirm_after`` set)
        self.auto_replace = auto_replace
        self.history = History()
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="causalec-ckpt-")
            store_dir = self._tmpdir.name
        self.store = FileDurableStore(store_dir)
        #: hook called with every freshly built AsyncioServer *before* it
        #: starts (founding, replacement, or joiner) -- sharded clusters
        #: use it to stamp audit identity on new incarnations
        self.on_server_created = None
        self.servers = [
            self._make_server(ServerCore(i, code, self.config))
            for i in range(code.N)
        ]
        self.clients: list[AsyncioClient] = []
        #: aggregated (observer server, peer, kind) transitions, in order
        self.detector_transitions: list[tuple[int, int, str]] = []
        self._fault_handles: list[asyncio.TimerHandle] = []
        # -- dynamic membership (coordinator state) --------------------
        #: the group's committed membership epoch (0 = founding)
        self.cfg_epoch = 0
        #: server ids removed from the group (slots stay in the code)
        self.retired: set[int] = set()
        #: every committed reconfiguration, in epoch order
        self._commit_log: list[ReconfigCommit] = []
        #: (kind, epoch, members, joiner) history for operators and tests
        self.reconfig_log: list[tuple[str, int, tuple, int | None]] = []
        self._replacing: set[int] = set()
        self._auto_replaced: set[int] = set()
        self._replace_tasks: list[asyncio.Task] = []
        self._reconfig_lock = asyncio.Lock()
        self._ctrl_seq = 0

    def _make_server(self, core: ServerCore) -> AsyncioServer:
        server = AsyncioServer(
            core,
            self.store,
            host=self.host,
            chaos=self.chaos,
            detector=self.detector_config,
            audit_addr=self.audit_addr,
            repair=self.repair,
            scrub=self.scrub_config,
            batch=self.batch,
        )
        server.on_detector_transition = self._on_detector_transition
        if self.on_server_created is not None:
            self.on_server_created(server)
        return server

    async def start(self) -> None:
        """Bind every server, exchange addresses, dial all peer channels."""
        if self.chaos is not None:
            self.chaos.arm(asyncio.get_running_loop())
        for s in self.servers:
            await s.start()
        addresses = {s.node_id: (s.host, s.port) for s in self.servers}
        for s in self.servers:
            s.set_peers(addresses)
        for s in self.servers:
            s.connect_peers()

    def frame_stats(self) -> dict[str, int]:
        """Aggregate wire-frame counters across servers and clients.

        ``frames_sent`` counts frames put on a socket, ``flushes`` counts
        ``writer.write`` calls; with batching on, frames/flushes > 1.
        """
        frames = sum(s.frames_sent for s in self.servers)
        flushes = sum(s.flushes for s in self.servers)
        for c in self.clients:
            frames += c.frames_sent
            flushes += c.frames_sent  # clients write one frame at a time
        return {"frames_sent": frames, "flushes": flushes}

    def repair_stats(self) -> dict[str, float]:
        """Aggregate anti-entropy counters across servers (zeros if off)."""
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.repair is None:
                continue
            for k, v in vars(s.repair.stats).items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def scrub_stats(self) -> dict[str, float]:
        """Aggregate scrub counters across servers (zeros if off).

        Adds ``frames_corrupt`` (CRC-rejected inbound frames, servers +
        clients) and ``checkpoint_reports`` (store-level detections,
        scrub *and* load paths) so one dict answers "was every injected
        corruption detected somewhere?".
        """
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.scrub is None:
                continue
            for k, v in vars(s.scrub.stats).items():
                totals[k] = totals.get(k, 0) + v
        totals["frames_corrupt"] = sum(
            s.frames_corrupt for s in self.servers
        ) + sum(c.frames_corrupt for c in self.clients)
        totals["checkpoint_reports"] = self.store.corrupt_detected()
        # guard-path detections (read/val-inq/encoding) are on the core's
        # stats, not the scrub overlay's -- surface both
        totals["integrity_quarantines"] = sum(
            s.core.stats.integrity_quarantines for s in self.servers
        )
        return totals

    def _on_detector_transition(self, observer: int, peer: int, kind: str):
        self.detector_transitions.append((observer, peer, kind))
        if kind == "suspect":
            for client in self.clients:
                client.notify_home_suspected(peer)
        elif kind == "dead" and self.auto_replace:
            self._maybe_auto_replace(peer)

    def _maybe_auto_replace(self, peer: int) -> None:
        """Escalate a confirmed-dead signal into a background replace.

        Idempotent across observers: every live server eventually confirms
        the same dead peer, but only the first signal starts a replacement
        (``_auto_replaced`` clears only if the attempt itself fails).
        """
        if (
            peer in self._replacing
            or peer in self.retired
            or peer in self._auto_replaced
        ):
            return
        self._auto_replaced.add(peer)
        task = asyncio.ensure_future(self._auto_replace(peer))
        self._replace_tasks.append(task)

    async def _auto_replace(self, peer: int) -> None:
        try:
            await self.replace_server(peer)
        except Exception:
            log.exception("auto-replace of server %d failed", peer)
            self._auto_replaced.discard(peer)

    async def add_client(
        self,
        server: int = 0,
        retry: RetryPolicy | None = None,
        failover: bool = False,
        failover_writes: bool = False,
        node_id: int | None = None,
        opid_counter=None,
    ) -> AsyncioClient:
        """Attach a client homed at ``server``.

        ``failover=True`` gives the client every other server as a
        failover candidate (in ring order after its home) and the address
        map to redial them; see :class:`~repro.protocol.client_core
        .ClientCore` for the read-only failover contract.

        ``node_id``/``opid_counter`` let a :class:`~repro.runtime
        .sharded_rt.ShardedSession` give its per-shard clients one shared
        session identity (ids must be >= the server count).
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no such server {server}")
        if node_id is None:
            node_id = self.num_servers + len(self.clients)
        elif node_id < self.num_servers:
            raise ValueError(f"client id {node_id} collides with a server id")
        candidates = None
        if failover:
            candidates = [
                (server + k) % self.num_servers
                for k in range(1, self.num_servers)
            ]
        core = ClientCore(
            node_id,
            server,
            history=self.history,
            retry=retry if retry is not None else self.retry,
            failover=candidates,
            failover_writes=failover_writes,
            opid_counter=opid_counter,
        )
        srv = self.servers[server]
        addresses = {s.node_id: (s.host, s.port) for s in self.servers}
        client = AsyncioClient(core, (srv.host, srv.port), addresses=addresses)
        self.clients.append(client)
        await client.start()
        return client

    def value(self, raw) -> np.ndarray:
        """Coerce a python scalar/list into an object value for this code."""
        field = self.code.field
        arr = np.asarray(raw)
        if arr.ndim == 0:
            arr = np.full(self.code.value_len, int(arr))
        return field.validate(arr)

    async def kill_server(self, i: int, forever: bool = False) -> None:
        """Crash server ``i``; ``forever=True`` models a machine that is
        never coming back (supervisors skip it; auto-replace may claim it).
        """
        await self.servers[i].kill(forever=forever)

    async def restart_server(self, i: int) -> None:
        server = self.servers[i]
        if server.permanently_failed:
            raise RuntimeError(
                f"server {i} is permanently failed; use replace_server"
            )
        server.set_peers(self._addresses())
        await server.restart()
        # the checkpoint restores cfg_epoch/cfg_retired, but the extended
        # code and missed epochs are reconstructed from the commit log
        server.install_commits(self._commit_log)
        server.ensure_peer_channels()

    # ------------------------------------------------------------------
    # dynamic membership (epoch-fenced reconfiguration)

    def _active_members(self) -> list[int]:
        return [s.node_id for s in self.servers if s.node_id not in self.retired]

    def _addresses(self) -> dict[int, tuple[str, int]]:
        return {
            s.node_id: (s.host, s.port)
            for s in self.servers
            if s.node_id not in self.retired
        }

    def _rewire_addresses(self) -> None:
        """Push the current address map to every active server and make
        sure each has a dialer channel to every (possibly new) peer."""
        addresses = self._addresses()
        for s in self.servers:
            if s.node_id in self.retired:
                continue
            s.set_peers(addresses)
            s.ensure_peer_channels()

    async def _reconfig_rpc(self, server: AsyncioServer, msg, timeout: float = 5.0):
        """One membership control request/reply on a short-lived connection.

        Control frames ride the client path (hello ``("hc", id)``), which
        is never epoch-fenced -- a behind server must always be reachable
        for catch-up.  Control ids live far above any client id.
        """
        self._ctrl_seq += 1
        ctrl_id = 1_000_000 + self._ctrl_seq
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(wire.encode_frame(("hc", ctrl_id)))
            writer.write(wire.encode_frame(("m", msg)))
            await writer.drain()
            reply = await asyncio.wait_for(read_frame(reader), timeout)
            if reply[0] != "m":
                raise wire.WireError(f"unexpected control reply {reply[0]!r}")
            return reply[1]
        finally:
            writer.close()

    async def _commit_membership(
        self,
        members: tuple,
        joiner: int | None = None,
        row_seed: int | None = None,
        note: str = "reconfig",
    ) -> tuple[int, ReconfigCommit]:
        """Two-phase broadcast: propose to every live member, then commit.

        A failed (unreachable) propose aborts with nothing staged; a
        server that misses the commit catches up from the fence response
        or the cluster's restart replay.  Serialised: concurrent
        reconfigurations would race the epoch counter.
        """
        epoch = self.cfg_epoch + 1
        live = [
            s
            for s in self.servers
            if not s.halted and s.node_id in members and s.node_id != joiner
        ]
        propose = ReconfigPropose(epoch, tuple(members), joiner, row_seed)
        acks = await asyncio.gather(
            *(self._reconfig_rpc(s, propose) for s in live)
        )
        for ack in acks:
            if ack.epoch != epoch:
                raise RuntimeError(
                    f"propose for epoch {epoch} acked as {ack.epoch}"
                )
        commit = ReconfigCommit(epoch, tuple(members), joiner, row_seed)
        await asyncio.gather(*(self._reconfig_rpc(s, commit) for s in live))
        self.cfg_epoch = epoch
        self._commit_log.append(commit)
        self.reconfig_log.append((note, epoch, tuple(members), joiner))
        return epoch, commit

    async def replace_server(self, i: int) -> AsyncioServer:
        """Replace a permanently failed server with a fresh incarnation.

        The epoch bump is the fence: the dead incarnation's frames (and
        redials) are rejected by every peer from the commit on.  The
        replacement keeps slot ``i`` -- same id, same code row, same
        vector-clock component -- and starts from an empty disk; the
        anti-entropy overlay re-derives its history and re-encodes its
        codeword row from any live recovery set.
        """
        if i in self.retired:
            raise ValueError(f"server {i} is retired")
        async with self._reconfig_lock:
            if i in self._replacing:
                raise RuntimeError(f"server {i} is already being replaced")
            self._replacing.add(i)
            try:
                old = self.servers[i]
                if not old.halted:
                    await old.kill(forever=True)
                members = tuple(self._active_members())
                epoch, _ = await self._commit_membership(members, note="replace")
                # the replacement must not inherit the dead incarnation's
                # disk: a stale checkpoint would resurrect pre-fence state
                self.store.wipe(i)
                core = ServerCore(
                    i,
                    self.current_code,
                    self.config,
                    clock_dim=old.core.clock_dim,
                )
                core.cfg_epoch = epoch
                core.set_retired(self.retired)
                new = self._make_server(core)
                # the replacement inherits the dead server's endpoint so
                # existing clients (and peer address maps) keep working
                new.port = old.port
                new.commit_chain = sorted(
                    self._commit_log, key=lambda c: c.epoch
                )
                self.servers[i] = new
                await new.start()
                self._rewire_addresses()
                return new
            finally:
                self._replacing.discard(i)

    async def add_server(self, row_seed: int | None = None) -> AsyncioServer:
        """Grow the group: commit an extended code and boot the joiner.

        Every member derives the identical extension from the committed
        ``row_seed`` alone (no matrices on the wire).  The joiner keeps the
        founding vector-clock dimension and is *non-minting*: it stores
        redundancy, serves reads and repairs, but no client write is homed
        on it (see :mod:`repro.protocol.reconfig_core`).
        """
        async with self._reconfig_lock:
            joiner = self.current_code.N
            if any(c.node_id == joiner for c in self.clients):
                raise ValueError(
                    f"client id {joiner} collides with the joining server; "
                    "attach clients with explicit high node_ids before joins"
                )
            if row_seed is None:
                # deterministic per epoch so reruns commit identical codes
                row_seed = 0xCEC0DE + self.cfg_epoch
            new_code = extend_code(self.current_code, row_seed)
            members = tuple(self._active_members() + [joiner])
            validate_membership(new_code, members)
            epoch, _ = await self._commit_membership(
                members, joiner=joiner, row_seed=row_seed, note="add"
            )
            core = ServerCore(
                joiner, new_code, self.config, clock_dim=self.code.N
            )
            core.cfg_epoch = epoch
            core.set_retired(self.retired)
            new = self._make_server(core)
            new.commit_chain = sorted(self._commit_log, key=lambda c: c.epoch)
            self.current_code = new_code
            self.num_servers = new_code.N
            self.servers.append(new)
            await new.start()
            self._rewire_addresses()
            return new

    async def remove_server(self, i: int) -> None:
        """Shrink the group: retire server ``i`` (its code slot remains).

        Refuses memberships that would strand an object (the survivors
        must form a recovery set for every object).  The evicted server is
        told (if alive) and then permanently halted.
        """
        async with self._reconfig_lock:
            members = tuple(m for m in self._active_members() if m != i)
            if len(members) == len(self._active_members()):
                raise ValueError(f"server {i} is not an active member")
            validate_membership(self.current_code, members)
            epoch, commit = await self._commit_membership(members, note="remove")
            victim = self.servers[i]
            if not victim.halted:
                try:
                    await self._reconfig_rpc(victim, commit)
                except (*_CONN_ERRORS, asyncio.TimeoutError):
                    pass  # it is being removed; fencing handles the rest
                await victim.kill(forever=True)
            self.retired.add(i)
            self._rewire_addresses()

    def reset_server(self, i: int) -> None:
        """Sever server ``i``'s established connections (no crash)."""
        self.servers[i].reset_connections()

    def apply_fault_plan(self, plan: FaultPlan, time_scale: float = 1.0) -> None:
        """Arm a :class:`~repro.sim.faults.FaultPlan` on the event loop.

        The same schedule object the simulator consumes: halts become
        :meth:`kill_server`, restarts :meth:`restart_server`, and resets --
        ignored by the simulator -- become :meth:`reset_server`.  Times are
        schedule milliseconds, mapped to real seconds via ``time_scale``
        (matching :class:`~repro.runtime.chaos_rt.LiveFaultInjector`).
        """
        loop = asyncio.get_running_loop()

        def _later(at_ms: float, coro_or_fn, *args, is_coro: bool):
            def fire():
                if is_coro:
                    asyncio.ensure_future(coro_or_fn(*args))
                else:
                    coro_or_fn(*args)

            self._fault_handles.append(
                loop.call_later(at_ms * time_scale / 1000.0, fire)
            )

        for at, server in plan.halts:
            _later(at, self.kill_server, server, is_coro=True)
        for at, server in getattr(plan, "kill_forevers", ()):
            _later(at, self.kill_server, server, True, is_coro=True)
        for at, server in plan.restarts:
            _later(at, self.restart_server, server, is_coro=True)
        for at, server in plan.resets:
            _later(at, self.reset_server, server, is_coro=False)

        def _rot_memory(i: int) -> None:
            if not self.servers[i].halted:
                self.servers[i].core.corrupt_codeword(seed=plan.rot_seed)

        for at, server in getattr(plan, "rots", ()):
            _later(at, _rot_memory, server, is_coro=False)
        def _rot_disk(i: int) -> None:
            self.store.corrupt_file(i, seed=plan.rot_seed)

        for at, server in getattr(plan, "disk_rots", ()):
            _later(at, _rot_disk, server, is_coro=False)
        for at, server in getattr(plan, "torn_writes", ()):
            _later(at, self.store.truncate_file, server, is_coro=False)

    async def quiesce(
        self, idle_rounds: int = 4, poll: float = 0.03, timeout: float = 30.0
    ) -> None:
        """Wait until no frames have been delivered for a few poll rounds."""
        deadline = asyncio.get_running_loop().time() + timeout
        stable = 0
        last = None
        while stable < idle_rounds:
            snapshot = tuple(s.activity for s in self.servers)
            if snapshot == last:
                stable += 1
            else:
                stable = 0
                last = snapshot
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError("cluster did not quiesce in time")
            await asyncio.sleep(poll)

    async def shutdown(self) -> None:
        for handle in self._fault_handles:
            handle.cancel()
        self._fault_handles.clear()
        for task in self._replace_tasks:
            if not task.done():
                task.cancel()
        for task in self._replace_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._replace_tasks.clear()
        for client in self.clients:
            await client.close()
        for server in self.servers:
            await server.shutdown()
        self.store.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

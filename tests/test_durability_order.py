"""Persist before ack: no live output leaves before the commit covering it.

A server may only acknowledge what stable storage already holds: a client
reply (``WriteAck`` / ``ReadReturn``), an ARQ data frame (a peer may act
on it, and its ack lets the sender forget it) and an ARQ ack (the sender
prunes everything it covers) must each hit the socket only after the
durable commit that covers the state behind it.

The test instruments a live cluster without changing it:

* every ``AsyncioServer.interpret`` call is one numbered *step* of that
  server, and the messages a step emits remember the step;
* every durable commit records the server's current step as covered;
* every ``StreamWriter.write`` is decoded back to the frames it carries
  (through the ``wire.encode_frame(s)`` call that produced the bytes) and
  each reply, data frame and ack is checked against the covered step of
  the server that produced it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.effects import ReplyEffect, SendEffect
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import AsyncioCluster, AsyncioServer, FileDurableStore

try:  # the write-ahead log's commit point, when the runtime has one
    from repro.core.wal import DurableLog
except ImportError:  # pragma: no cover - stores without a log
    DurableLog = None


class _OrderProbe:
    def __init__(self) -> None:
        self.step: dict[int, int] = {}  # server -> steps interpreted
        self.covered: dict[int, int] = {}  # server -> steps made durable
        #: id(msg) -> (msg, server, step): the message keeps its id unique
        self.produced: dict[int, tuple] = {}
        #: (server, src, seq) -> step that delivered data frame ``seq``
        self.delivered: dict[tuple, int] = {}
        #: inbound peer writer -> (server, src)
        self.inbound: dict[object, tuple[int, int]] = {}
        #: id(bytes) -> (bytes, frames) for every encoded frame batch
        self.encoded: dict[int, tuple] = {}
        self.checked = {"reply": 0, "data": 0, "ack": 0}
        self.violations: list[str] = []
        self._undo: list[tuple] = []

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        probe = self

        def interpret(orig):
            def wrapper(server, effects):
                effects = list(effects)
                sid = server.node_id
                probe.step[sid] = step = probe.step.get(sid, 0) + 1
                for e in effects:
                    if type(e) in (SendEffect, ReplyEffect):
                        probe.produced[id(e.msg)] = (e.msg, sid, step)
                return orig(server, effects)

            return wrapper

        def commit(sid_of):
            def make(orig):
                def wrapper(*args, **kwargs):
                    result = orig(*args, **kwargs)
                    sid = sid_of(*args)
                    probe.covered[sid] = probe.step.get(sid, 0)
                    return result

                return wrapper

            return make

        def deliver(orig):
            def wrapper(server, src, msg):
                result = orig(server, src, msg)
                seq = server._recv_last.get(src, 0)
                probe.delivered[(server.node_id, src, seq)] = probe.step.get(
                    server.node_id, 0
                )
                return result

            return wrapper

        def peer_loop(orig):
            async def wrapper(server, src, reader, writer, *args, **kwargs):
                probe.inbound[writer] = (server.node_id, src)
                return await orig(server, src, reader, writer, *args, **kwargs)

            return wrapper

        def encoder(orig, many):
            def wrapper(frames):
                data = orig(frames)
                probe.encoded[id(data)] = (data, list(frames) if many else [frames])
                return data

            return wrapper

        def write(orig):
            def wrapper(writer, data):
                probe.check(writer, data)
                return orig(writer, data)

            return wrapper

        self._patch(AsyncioServer, "interpret", interpret)
        self._patch(AsyncioServer, "_deliver", deliver)
        self._patch(AsyncioServer, "_peer_loop", peer_loop)
        self._patch(
            FileDurableStore, "persist", commit(lambda store, ckpt: ckpt.server_id)
        )
        if DurableLog is not None:
            self._patch(DurableLog, "commit", commit(lambda log, *a: log.node_id))
        self._patch(wire, "encode_frame", lambda o: encoder(o, False))
        self._patch(wire, "encode_frames", lambda o: encoder(o, True))
        self._patch(asyncio.StreamWriter, "write", write)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _require(self, kind: str, sid: int, step: int, what: str) -> None:
        self.checked[kind] += 1
        if self.covered.get(sid, 0) < step:
            self.violations.append(
                f"server {sid} sent {what} from step {step} before its "
                f"commit (durable up to step {self.covered.get(sid, 0)})"
            )

    def check(self, writer, data) -> None:
        entry = self.encoded.pop(id(data), None)
        if entry is None or entry[0] is not data:
            return  # not a frame batch of the runtime (e.g. a hello)
        for frame in entry[1]:
            tag = frame[0]
            if tag == "a":
                who = self.inbound.get(writer)
                step = None if who is None else self.delivered.get((*who, frame[1]))
                if step is not None:
                    self._require("ack", who[0], step, f"ack {frame[1]}")
                continue
            msg = frame[1] if tag == "m" else frame[2] if tag == "d" else None
            src = self.produced.get(id(msg))
            if src is None or src[0] is not msg:
                continue  # client requests, gossip, control frames
            kind = "reply" if tag == "m" else "data"
            self._require(kind, src[1], src[2], type(msg).__name__)


async def _workload(batch: bool) -> _OrderProbe:
    probe = _OrderProbe()
    cluster = AsyncioCluster(
        example1_code(),
        config=ServerConfig(gc_interval=25.0),
        retry=RetryPolicy(timeout=500.0, max_retries=4),
        batch=batch,
    )
    probe.install()
    try:
        await cluster.start()
        clients = [await cluster.add_client(server=s) for s in (0, 2, 4)]
        value = 1
        for _ in range(3):
            for i, c in enumerate(clients):
                op = await c.write(i % cluster.code.K, cluster.value(value))
                assert op.done
                value += 1
            await asyncio.sleep(0.1)  # GC empties histories: reads decode
            for i, c in enumerate(clients):
                op = await c.read((i + 1) % cluster.code.K)
                assert op.done
        await cluster.quiesce()
    finally:
        probe.uninstall()
        await cluster.shutdown()
    return probe


@pytest.mark.parametrize("batch", [True, False])
def test_output_leaves_only_after_the_commit_covering_it(batch):
    probe = asyncio.run(_workload(batch))
    assert probe.violations == [], probe.violations[:5]
    # the instrumentation really saw every kind of output
    assert probe.checked["reply"] >= 18
    assert probe.checked["data"] > 0
    assert probe.checked["ack"] > 0

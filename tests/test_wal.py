"""The write-ahead log behind both durable stores (``repro.core.wal``).

* After every commit, the snapshot with its log replayed encodes
  byte-identically to the live durable state -- so no in-place mutation
  slips past the change tracker.
* A server crashed right after *any* of its commits and restarted from its
  store keeps the history causally consistent (Def. 5 witness and the bad
  pattern checker) and the cluster converges (Thm. 4.5).
* A torn final record, or a flipped bit anywhere in the log, is reported
  as a typed ``CorruptCheckpoint`` and loads nothing.
* A log left behind by a crash between writing a snapshot and truncating
  the log is never replayed onto the new snapshot.
"""

from __future__ import annotations

import pytest

from repro.consistency.causal import check_causal_consistency
from repro.consistency.patterns import check_causal_bad_patterns
from repro.core.cluster import CausalECCluster
from repro.core.messages import DigestMsg
from repro.core.snapshot import (
    CorruptCheckpoint,
    DurableStore,
    capture_server_state,
)
from repro.core.wal import frame_record, read_records
from repro.ec.codes import example1_code
from repro.ec.field import PrimeField
from repro.protocol.repair_core import RepairConfig
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import FileDurableStore
from repro.sim.transport import TransportConfig

F = PrimeField(257)
VICTIM = 2
RESTART_AFTER = 30.0  # ms


def _cluster(store: DurableStore) -> CausalECCluster:
    """Example 1 with GC timers, the repair overlay and ARQ engaged, so
    channel state is part of every commit."""
    return CausalECCluster(
        example1_code(F),
        seed=7,
        config=ServerConfig(gc_interval=25.0),
        durable=store,
        transport=TransportConfig(mode="always"),
        repair=RepairConfig(digest_interval=60.0, round_timeout=300.0),
    )


def _workload(cluster: CausalECCluster) -> None:
    """Writes and reads from three sessions, with pauses long enough for
    GC to empty the history lists (so later reads decode, some from
    remote symbols) and for the repair overlay's digest rounds."""
    clients = [cluster.add_client(server=s) for s in (0, VICTIM, 4)]
    K = cluster.code.K
    value = 1
    for r in range(2):
        for i, c in enumerate(clients):
            cluster.execute(c.write((i + r) % K, cluster.value(value)))
            value += 1
        cluster.run(for_time=150.0)
        for i, c in enumerate(clients):
            cluster.execute(c.read((i + r + 1) % K))
            cluster.execute(c.read((i + r + 2) % K))
    cluster.run(for_time=150.0)


def _quiescent(cluster: CausalECCluster) -> bool:
    return (
        not cluster.history.unsettled()
        and cluster.total_transient_entries() == 0
        and cluster.transport.in_flight(exclude=(DigestMsg,)) == 0
    )


def _hook_commits(store: DurableStore, on_commit) -> None:
    """Call ``on_commit(server_id)`` after every snapshot and record."""
    persist, append = store.persist, store.append

    def hooked_persist(checkpoint):
        persist(checkpoint)
        on_commit(checkpoint.server_id)

    def hooked_append(server_id, payload):
        append(server_id, payload)
        on_commit(server_id)

    store.persist, store.append = hooked_persist, hooked_append


def _crash_run(k: int | None) -> tuple[CausalECCluster, int]:
    """The scenario, with VICTIM crashed right after its k-th workload
    commit (``None``: no crash).  Returns the cluster and the victim's
    number of workload commits."""
    store = DurableStore()
    box: dict = {"cluster": None, "commits": 0}

    def on_commit(sid):
        cluster = box["cluster"]
        if cluster is None or sid != VICTIM:
            return  # construction-time snapshots
        box["commits"] += 1
        if box["commits"] == k:
            cluster.halt_server(VICTIM)
            cluster.scheduler.schedule(
                RESTART_AFTER, lambda: cluster.restart_server(VICTIM)
            )

    _hook_commits(store, on_commit)
    cluster = box["cluster"] = _cluster(store)
    _workload(cluster)
    for _ in range(40):
        if _quiescent(cluster) and not cluster.servers[VICTIM].halted:
            break
        cluster.run(for_time=100.0)
    return cluster, box["commits"]


def test_replay_matches_live_state_after_every_commit():
    store = DurableStore()
    box: dict = {"cluster": None, "checked": 0}

    def on_commit(sid):
        cluster = box["cluster"]
        if cluster is None:
            return
        server = cluster.servers[sid]
        live = capture_server_state(server, cluster.transport, deep=False)
        loaded = store.load(sid)
        for name, want in live.state.items():
            assert wire.encode(loaded.state[name]) == wire.encode(want), (
                f"server {sid}: replayed {name} differs from the live state"
            )
        assert wire.encode(loaded.transport) == wire.encode(live.transport)
        box["checked"] += 1

    _hook_commits(store, on_commit)
    cluster = box["cluster"] = _cluster(store)
    _workload(cluster)
    stats = [s.stats for s in cluster.servers]
    # the scenario reaches every kind of durable change, including the
    # former in-place mutation sites (decoded remote reads fill a pending
    # read's symbols; Encoding advances M's tag vector)
    assert sum(s.remote_reads for s in stats) > 0
    assert sum(s.reencodings for s in stats) > 0
    assert sum(s.gc_deletions for s in stats) > 0
    assert cluster.repair_stats()["digests_received"] > 0
    assert box["checked"] > 100
    assert store.corrupt_detected() == 0


def test_crash_at_every_record_boundary_recovers():
    _, commits = _crash_run(None)
    assert commits > 10
    for k in range(1, commits + 1):
        cluster, _ = _crash_run(k)
        victim = cluster.servers[VICTIM]
        assert victim.stats.restarts == 1, f"k={k}: victim never crashed"
        zero = cluster.code.zero_value()
        assert check_causal_consistency(
            cluster.history, zero, raise_on_violation=False
        ) == [], f"crash after commit {k}"
        assert check_causal_bad_patterns(
            cluster.history, zero, raise_on_violation=False
        ) == [], f"crash after commit {k}"
        assert _quiescent(cluster), f"crash after commit {k}: no convergence"
        assert cluster.durable.corrupt_detected() == 0


def _store_with_log() -> tuple[DurableStore, int, bytes]:
    store = DurableStore()
    cluster = _cluster(store)
    clients = [cluster.add_client(server=s) for s in (0, 4)]
    for i, c in enumerate(clients):
        cluster.execute(c.write(i, cluster.value(i + 1)))
    sid = max(range(cluster.num_servers), key=store.log_bytes)
    log = bytes(store.logs[sid])
    assert len(read_records(log)) >= 2
    assert store.load(sid) is not None
    return store, sid, log


def _assert_rejected(store: DurableStore, sid: int, damaged: bytes) -> None:
    before = store.corrupt_detected(sid)
    store.logs[sid] = bytearray(damaged)
    assert store.load(sid) is None
    assert store.corrupt_detected(sid) == before + 1
    report = store.corruption_reports[-1]
    assert isinstance(report, CorruptCheckpoint)
    assert report.server_id == sid and report.reason


def test_torn_final_record_is_reported():
    store, sid, log = _store_with_log()
    last = len(bytes(read_records(log)[-1]))
    for cut in (1, last // 2, last + 4):
        _assert_rejected(store, sid, log[:-cut])


def test_any_flipped_bit_in_the_log_is_reported():
    store, sid, log = _store_with_log()
    for pos in range(len(log)):
        damaged = bytearray(log)
        damaged[pos] ^= 1 << (pos % 8)
        _assert_rejected(store, sid, bytes(damaged))
    store.logs[sid] = bytearray(log)
    assert store.load(sid) is not None  # the intact log still loads


@pytest.fixture
def live_checkpoint():
    cluster = CausalECCluster(example1_code(F), seed=3)
    c = cluster.add_client(server=0)
    cluster.execute(c.write(0, cluster.value(5)))
    cluster.run(for_time=200.0)
    return capture_server_state(cluster.servers[1])


def _record(gen: int, changes: dict) -> bytes:
    return wire.encode((gen, 1.0, changes))


def test_file_store_replays_its_log(tmp_path, live_checkpoint):
    store = FileDurableStore(tmp_path)
    store.persist(live_checkpoint)
    gen = store.generation(1)
    store.append(1, _record(gen, {"_opid_seq": 41}))
    store.append(1, _record(gen, {"_opid_seq": 42, "view": 3}))
    assert store.persist_counts[1] == 3
    loaded = FileDurableStore(tmp_path).load(1)  # a fresh process
    assert loaded.state["_opid_seq"] == 42 and loaded.state["view"] == 3
    assert store.verify_file(1) is True


def test_file_store_detects_a_damaged_log(tmp_path, live_checkpoint):
    store = FileDurableStore(tmp_path)
    store.persist(live_checkpoint)
    store.append(1, _record(store.generation(1), {"_opid_seq": 41}))
    log = tmp_path / "server_1.wal"
    blob = bytearray(log.read_bytes())
    blob[-1] ^= 0x10
    log.write_bytes(bytes(blob))
    assert store.verify_file(1) is False
    assert store.load(1) is None
    assert store.corrupt_detected(1) == 2
    # a torn tail is reported the same way
    log.write_bytes(bytes(blob[:-3]))
    assert store.load(1) is None


def test_stale_log_is_never_replayed_onto_a_newer_snapshot(
    tmp_path, live_checkpoint
):
    store = FileDurableStore(tmp_path)
    store.persist(live_checkpoint)
    store.append(1, _record(store.generation(1), {"_opid_seq": 99}))
    stale = (tmp_path / "server_1.wal").read_bytes()
    # crash between the snapshot's rename and the log's truncation: the
    # new snapshot is on disk, the old generation's log survived
    store.persist(live_checkpoint)
    (tmp_path / "server_1.wal").write_bytes(stale)
    loaded = FileDurableStore(tmp_path).load(1)
    assert loaded is not None
    assert loaded.state["_opid_seq"] == live_checkpoint.state["_opid_seq"]


def test_record_framing_round_trips():
    payloads = [b"", b"x", bytes(range(256))]
    blob = b"".join(frame_record(p) for p in payloads)
    assert [bytes(p) for p in read_records(blob)] == payloads

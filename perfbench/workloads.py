"""The three benchmark workloads: set-up, timed window, correctness gates.

Every workload function fills an :class:`Outcome` from ``(seed, seconds,
trace, workdir)``.  Inputs (operation kinds, objects, written values) are
generated here from ``seed``; the program only receives them.
Correctness gates run outside the timed window and every failure is
collected in ``Outcome.failures``.

With ``trace`` set, the window is split: the first half runs untraced, the
second half under a :class:`~tracing.Tracer`, and ``bench.trace_overhead``
is traced over untraced throughput.  End-to-end figures always come from
an untraced window.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.analysis.topology import Topology
from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
    expected_final_value,
)
from repro.core.cluster import CausalECCluster
from repro.ec.codes import example1_code, six_dc_code
from repro.ec.field import PrimeField
from repro.protocol.client_core import RetryPolicy
from repro.protocol.server_core import ServerConfig
from repro.runtime.asyncio_rt import AsyncioCluster
from repro.sim.network import MatrixLatency
from repro.workloads.driver import (
    ClosedLoopDriver,
    WorkloadConfig,
    encode_unique_value,
)

from tracing import Tracer

#: closed-loop sessions of the live workload, by home server: server 0
#: stores x1, server 3 stores the parity x1+x2+x3
SESSION_HOMES = (0, 3)
#: GF(257) symbols per value of the live workload
LIVE_VALUE_LEN = 64
#: no re-sends: an op completes or fails after this many milliseconds
OP_TIMEOUT_MS = 10_000.0
LIVE_SETUPS = 3
RECOVERIES = 3
#: sim-six-dc: operations per session and mean think time of one unit
SIM_OPS_PER_SESSION = 100
SIM_THINK_MS = 100.0
#: six_dc_code symbols per value; GF(257)^1 holds too few unique values
SIM_VALUE_LEN = 4
#: explore-example1: states per bounded exploration
EXPLORE_MAX_STATES = 1000
#: sim and explore set up this often before each unit, spreading the
#: set-up samples over the run
SETUPS_PER_UNIT = 10
#: live-mixed: untimed ops after set-up, and the length of one slice of
#: the timed window; the reference chunks run between slices
LIVE_WARMUP_S = 1.0
LIVE_SLICE_S = 2.0
#: iterations of one CPU reference chunk (about 30 ms); fsyncs of one disk
#: reference chunk, each after writing DISK_REF_BYTES; chunks of each kind
#: timed after every live slice, sim unit or exploration
REF_ITERATIONS = 300_000
DISK_REF_FSYNCS = 4
DISK_REF_BYTES = 64 * 1024
REF_CHUNKS = 4
#: mean seconds of one CPU and one disk reference chunk at the nominal
#: machine speed (a 2-core VM, CPython 3.11.7, ext4 on a virtio disk);
#: ``setup_s`` and ``norm_ops_per_s`` are stated at this speed
REF_NOMINAL_S = 0.028
DISK_REF_NOMINAL_S = 0.002
#: ServerStats fields summed over servers into per-layer counters
STAT_FIELDS = (
    "reads", "writes", "remote_reads", "duplicate_requests",
    "parked_requests", "reencodings", "internal_reads",
)


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: correctness-gate failures; empty means the run is correct
    failures: list[str] = field(default_factory=list)
    #: wall and process-CPU seconds of each set-up
    setup_s: list[float] = field(default_factory=list)
    setup_cpu_s: list[float] = field(default_factory=list)
    #: seconds of each CPU and disk reference chunk timed between slices
    #: of the window; the disk chunks write ``ref_file``
    ref_s: list[float] = field(default_factory=list)
    disk_ref_s: list[float] = field(default_factory=list)
    ref_file: Path | None = None
    #: the workload's figures by name: ``{"value", "unit", ...}``
    figures: dict[str, dict] = field(default_factory=dict)
    #: counter-only per-layer metrics, each with its base
    counters: dict[str, dict] = field(default_factory=dict)
    #: traced per-layer metrics (``trace`` runs only)
    per_layer: dict[str, dict] = field(default_factory=dict)
    tracer: Tracer | None = None
    #: wall seconds of the (traced, in trace runs) timed window
    window_s: float = 0.0

    def figure(self, name: str, value: float, unit: str, **extra) -> None:
        self.figures[name] = {"value": float(value), "unit": unit, **extra}

    @contextmanager
    def setup_timer(self):
        """Record the wall and CPU seconds of the set-up in the block."""
        cpu0, start = time.process_time(), time.perf_counter()
        yield
        self.setup_s.append(time.perf_counter() - start)
        self.setup_cpu_s.append(time.process_time() - cpu0)

    def calibrate(self) -> None:
        """Time :data:`REF_CHUNKS` CPU and disk reference chunks."""
        self.ref_s += [reference_chunk() for _ in range(REF_CHUNKS)]
        self.disk_ref_s += [disk_reference_chunk(self.ref_file)
                            for _ in range(REF_CHUNKS)]

    def finish(self, ops: int, wall_s: float, cpu_s: float) -> None:
        """Record the figures every workload has.

        ``setup_s`` and ``norm_ops_per_s`` are stated at the nominal machine
        speed: process CPU time is scaled by the CPU reference's slowdown.
        In the window the rest of the wall time is waiting for ``fsync``
        and is scaled by the disk reference's slowdown; in a set-up it is
        mostly timer polls and is kept as measured.
        """
        self.window_s = wall_s
        # >1 when the machine ran slower than the nominal reference speed
        slowdown = statistics.fmean(self.ref_s) / REF_NOMINAL_S
        disk_slowdown = statistics.fmean(self.disk_ref_s) / DISK_REF_NOMINAL_S

        def nominal(wall: float, cpu: float, wait_slowdown: float) -> float:
            cpu = min(cpu, wall)
            return cpu / slowdown + (wall - cpu) / wait_slowdown

        self.figure("machine_slowdown", slowdown, "ratio", n=len(self.ref_s))
        self.figure("disk_slowdown", disk_slowdown, "ratio",
                    n=len(self.disk_ref_s))
        self.figure("setup_s", statistics.median(
            nominal(w, c, 1.0) for w, c in zip(self.setup_s, self.setup_cpu_s)
        ), "s", n=len(self.setup_s))
        self.figure("setup_wall_s", statistics.median(self.setup_s), "s",
                    n=len(self.setup_s))
        self.figure("ops_per_s", ops / wall_s, "ops/s", n=ops)
        self.figure("norm_ops_per_s",
                    ops / nominal(wall_s, cpu_s, disk_slowdown), "ops/s",
                    n=ops)
        self.figure("cpu_ms_per_op", 1000.0 * cpu_s / max(ops, 1), "ms",
                    n=ops)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.figure("peak_rss_mb", rss_kb / 1024.0, "MB")


def reference_chunk() -> float:
    """Seconds of a fixed pure-Python loop: the machine's current speed.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the shared machine does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


#: bound at import, before a Tracer wraps ``os.fsync``: the disk reference
#: must not count as the program's fsyncs
_fsync = os.fsync


def disk_reference_chunk(path: Path) -> float:
    """Seconds to write and fsync a fixed buffer: the disk's current speed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = bytes(DISK_REF_BYTES)
    start = time.perf_counter()
    for _ in range(DISK_REF_FSYNCS):
        with open(path, "wb") as fh:
            fh.write(buf)
            fh.flush()
            _fsync(fh.fileno())
    return time.perf_counter() - start


def _ratio(num: float, den: float, unit: str) -> dict:
    return {"value": num / den if den else 0.0, "unit": unit,
            "num": num, "den": den}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _history_gates(history, zero) -> list[str]:
    """Def. 5 witness plus "every read returns a written or initial value"."""
    return check_causal_consistency(
        history, zero, raise_on_violation=False
    ) + check_returns_written_values(history, zero, raise_on_violation=False)


class _WriteValues:
    """Unique write values 1, 2, 3, ..., and one array per distinct value.

    The history keeps every read's value, so each read would grow the
    process by its own copy and make ``peak_rss_mb`` follow throughput.
    :meth:`intern` swaps a read's value for the written array of equal
    content, which leaves what the checkers see unchanged.
    """

    def __init__(self, code):
        self._holder = SimpleNamespace(code=code)
        self._count = itertools.count(1)
        zero = code.zero_value()
        self._by_content = {(x, zero.tobytes()): zero for x in range(code.K)}

    def next(self, obj: int) -> np.ndarray:
        value = encode_unique_value(self._holder, next(self._count))
        self._by_content[(obj, value.tobytes())] = value
        return value

    def intern(self, op) -> None:
        same = self._by_content.get((op.obj, op.value.tobytes()))
        if same is not None:
            op.value = same


# ----------------------------------------------------------------------
# live-mixed: AsyncioCluster over loopback TCP


def _live_counters(cluster) -> dict[str, int]:
    frames = cluster.frame_stats()
    out = {
        "persists": sum(cluster.store.persist_counts.values()),
        "frames": frames["frames_sent"],
        "flushes": frames["flushes"],
    }
    for name in STAT_FIELDS:
        out[name] = sum(getattr(s.core.stats, name) for s in cluster.servers)
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _server_core_counters(d: dict, ops: int) -> dict[str, dict]:
    return {
        "server_core.duplicate_requests_per_op":
            _ratio(d["duplicate_requests"], ops, "count/op"),
        "server_core.parked_per_op":
            _ratio(d["parked_requests"], ops, "count/op"),
        "server_core.remote_read_frac":
            _ratio(d["remote_reads"], d["reads"], "ratio"),
        "server_core.reencodings_per_write":
            _ratio(d["reencodings"], d["writes"], "count/write"),
        "server_core.internal_reads_per_write":
            _ratio(d["internal_reads"], d["writes"], "count/write"),
    }


class _LiveSession:
    """One closed-loop session; its inputs are drawn from ``(seed, index)``.

    Ops come in blocks holding every (kind, object) pair once, in an order
    shuffled per block: kinds and objects are uniform, and the read/write
    mix of a run does not drift with the seed.
    """

    def __init__(self, client, seed: int, index: int, num_objects: int,
                 values):
        self.client = client
        self.values = values
        rng = np.random.default_rng([seed, index])
        block = [(kind, obj) for kind in ("read", "write")
                 for obj in range(num_objects)]
        self.ops = (block[i] for _ in itertools.count()
                    for i in rng.permutation(len(block)))

    async def run(self, deadline: float, lat: dict, tracer: Tracer | None):
        """Issue one op at a time until ``deadline``; returns (done, failed)."""
        done = failed = 0
        clock = time.perf_counter
        while clock() < deadline:
            kind, obj = next(self.ops)
            start = clock()
            if kind == "read":
                op = await self.client.read(obj)
            else:
                op = await self.client.write(obj, self.values.next(obj))
            end = clock()
            if not op.done:
                failed += 1
                continue
            done += 1
            if kind == "read":
                self.values.intern(op)
            lat[kind].append(1000.0 * (end - start))
            if tracer is not None:
                tracer.root_span("client." + kind, start, end, op.opid)
        return done, failed


async def _lag_probe(stop: asyncio.Event, out: list, interval: float = 0.01):
    """Overshoot of a fixed-interval sleep: how late the loop wakes us."""
    clock = time.perf_counter
    while not stop.is_set():
        start = clock()
        await asyncio.sleep(interval)
        out.append(1000.0 * (clock() - start - interval))


async def _live_window(out: Outcome, cluster, sessions, seconds: float,
                       tracer: Tracer | None) -> dict:
    """Slices of closed-loop ops, the reference loop timed between them.

    A reference chunk blocks the event loop, so it runs only while no
    session has an op outstanding, and its time is outside the window.
    """
    lat: dict[str, list[float]] = {"read": [], "write": []}
    lag: list[float] = []
    win = {"lat": lat, "lag": lag, "done": 0, "failed": 0,
           "elapsed": 0.0, "cpu": 0.0}
    before = _live_counters(cluster)
    slices = max(1, round(seconds / LIVE_SLICE_S))
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(slices):
            stop = asyncio.Event()
            probe = (asyncio.ensure_future(_lag_probe(stop, lag))
                     if tracer is not None else None)
            cpu0, start = time.process_time(), time.perf_counter()
            results = await asyncio.gather(
                *(s.run(start + seconds / slices, lat, tracer)
                  for s in sessions)
            )
            win["elapsed"] += time.perf_counter() - start
            win["cpu"] += time.process_time() - cpu0
            win["done"] += sum(r[0] for r in results)
            win["failed"] += sum(r[1] for r in results)
            stop.set()
            if probe is not None:
                await probe
            out.calibrate()
        # trailing protocol work of the window's ops belongs to their cost
        await cluster.quiesce()
    finally:
        if tracer is not None:
            tracer.uninstall()
    win["counters"] = _delta(_live_counters(cluster), before)
    return win


async def _live_setup(code, store_dir: Path):
    """Boot, dial, attach the sessions' clients, quiesce."""
    shutil.rmtree(store_dir, ignore_errors=True)
    cluster = AsyncioCluster(
        code,
        config=ServerConfig(),
        store_dir=store_dir,
        retry=RetryPolicy(timeout=OP_TIMEOUT_MS, max_retries=0),
    )
    await cluster.start()
    clients = [await cluster.add_client(server=h) for h in SESSION_HOMES]
    await cluster.quiesce()
    return cluster, clients


async def _recover(cluster, expected: dict, phantoms: dict) -> tuple[float, list[str]]:
    """Kill every server, restart each from disk, read every object once.

    Returns the seconds from the first restart until the last read
    returned, and the objects whose read lost the last acknowledged write.
    """
    for i in range(cluster.num_servers):
        await cluster.kill_server(i)
    start = time.perf_counter()
    for i in range(cluster.num_servers):
        await cluster.restart_server(i)
    client = await cluster.add_client(server=SESSION_HOMES[0])
    reads = [await client.read(obj) for obj in expected]
    elapsed = time.perf_counter() - start
    lost = []
    for op in reads:
        ok = op.done and (
            np.array_equal(op.value, expected[op.obj])
            or any(np.array_equal(op.value, v) for v in phantoms[op.obj])
        )
        if not ok:
            lost.append(
                f"object {op.obj}: read after restart returned {op.value!r}, "
                f"last acknowledged write was {expected[op.obj]!r}"
            )
    return elapsed, lost


async def _live(out: Outcome, *, seed: int, seconds: float, trace: bool,
                workdir: Path) -> None:
    code = example1_code(PrimeField(257), value_len=LIVE_VALUE_LEN)
    store_dir = workdir / "store"
    cluster = None
    try:
        for _ in range(LIVE_SETUPS):
            if cluster is not None:
                await cluster.shutdown()
            with out.setup_timer():
                cluster, clients = await _live_setup(code, store_dir)
        values = _WriteValues(code)
        sessions = [
            _LiveSession(c, seed, i, code.K, values)
            for i, c in enumerate(clients)
        ]
        warmup = await _live_window(out, cluster, sessions, LIVE_WARMUP_S,
                                    None)
        out.ref_s.clear()
        if trace:
            base = await _live_window(out, cluster, sessions, seconds / 2,
                                      None)
            out.tracer = Tracer()
            win = await _live_window(out, cluster, sessions, seconds / 2,
                                     out.tracer)
            windows = [warmup, base, win]
        else:
            win = await _live_window(out, cluster, sessions, seconds, None)
            windows = [warmup, win]
        ops = win["done"]
        out.failed = sum(w["failed"] for w in windows)
        out.attempted = sum(w["done"] for w in windows) + out.failed
        d = win["counters"]
        out.counters = {
            "asyncio_rt.persists_per_op": _ratio(d["persists"], ops, "count/op"),
            "asyncio_rt.frames_per_flush":
                _ratio(d["frames"], d["flushes"], "frames/flush"),
            "asyncio_rt.flushes_per_op": _ratio(d["flushes"], ops, "count/op"),
            **_server_core_counters(d, ops),
            "server_core.history_entries_end": {
                "value": float(sum(s.core.history_size()
                                   for s in cluster.servers)),
                "unit": "count",
            },
        }
        lat = win["lat"]
        for kind in ("read", "write"):
            if lat[kind]:
                for q in (50, 90):
                    out.figure(f"{kind}_p{q}_ms", _pct(lat[kind], q), "ms",
                               n=len(lat[kind]))
        out.figure("failed_frac", out.failed / max(out.attempted, 1), "ratio",
                   num=out.failed, den=out.attempted)
        out.figure("frames_per_op", d["frames"] / max(ops, 1), "frames/op",
                   num=d["frames"], den=ops)
        disk = sum(p.stat().st_size for p in store_dir.iterdir())
        ideal = code.K * LIVE_VALUE_LEN * 8
        out.figure("disk_bytes_per_value_byte", disk / ideal, "ratio",
                   num=disk, den=ideal)

        history, zero = cluster.history, code.zero_value()
        expected = {x: expected_final_value(history, x, zero)
                    for x in range(code.K)}
        phantoms = {x: [w.value for w in history.writes()
                        if w.obj == x and not w.done]
                    for x in range(code.K)}
        recover = []
        for _ in range(RECOVERIES):
            elapsed, lost = await _recover(cluster, expected, phantoms)
            recover.append(elapsed)
            out.failures += lost
        out.figure("recover_s", statistics.median(recover), "s",
                   n=len(recover))
        out.failures += _history_gates(history, zero)
        if trace:
            out.per_layer = _live_per_layer(out, win, ops, base)
        out.finish(ops, win["elapsed"], win["cpu"])
    finally:
        if cluster is not None:
            await cluster.shutdown()
        shutil.rmtree(store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# per-layer metrics of a traced window

#: every per-layer metric a traced run reports, with its unit; layers a
#: workload bypasses report 0
PER_LAYER_UNITS = {
    "asyncio_rt.persists_per_op": "count/op",
    "asyncio_rt.persist_self_ms_per_op": "ms/op",
    "asyncio_rt.fsyncs_per_op": "count/op",
    "asyncio_rt.fsync_ms_per_op": "ms/op",
    "asyncio_rt.disk_bytes_written_per_op": "B/op",
    "snapshot.capture_ms_per_op": "ms/op",
    "asyncio_rt.frames_per_flush": "frames/flush",
    "asyncio_rt.flushes_per_op": "count/op",
    "asyncio_rt.loop_lag_p50_ms": "ms",
    "asyncio_rt.loop_lag_p90_ms": "ms",
    "wire.encode_ms_per_op": "ms/op",
    "wire.decode_ms_per_op": "ms/op",
    "wire.frame_bytes_per_op": "B/op",
    "server_core.handles_per_op": "count/op",
    "server_core.self_ms_per_op": "ms/op",
    "server_core.duplicate_requests_per_op": "count/op",
    "server_core.parked_per_op": "count/op",
    "server_core.remote_read_frac": "ratio",
    "server_core.reencodings_per_write": "count/write",
    "server_core.internal_reads_per_write": "count/write",
    "server_core.history_entries_end": "count",
    "ec.calls_per_op": "count/op",
    "ec.ms_per_op": "ms/op",
    "sim.events_per_op": "count/op",
    "sim.msgs_per_op": "count/op",
    "sim.self_ms_per_op": "ms/op",
    "explore.self_ms_per_state": "ms/state",
    "explore.handle_ms_per_state": "ms/state",
    "explore.executions": "count",
    "bench.trace_overhead": "ratio",
}


def _per_layer(out: Outcome, ops: int, overhead: float,
               extra: dict | None = None) -> dict[str, dict]:
    """Traced layer totals plus the counters, per op (per state)."""
    totals = out.tracer.layer_totals()
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0}

    def get(layer: str, key: str) -> float:
        return totals.get(layer, empty)[key]

    def ms(layer: str, unit: str = "ms/op", key: str = "self_s") -> dict:
        return _ratio(1000.0 * get(layer, key), ops, unit)

    m = {
        "asyncio_rt.persist_self_ms_per_op": ms("persist"),
        "asyncio_rt.fsyncs_per_op": _ratio(get("fsync", "calls"), ops, "count/op"),
        "asyncio_rt.fsync_ms_per_op": ms("fsync"),
        "asyncio_rt.disk_bytes_written_per_op":
            _ratio(get("persist", "bytes"), ops, "B/op"),
        "snapshot.capture_ms_per_op": ms("capture"),
        "wire.encode_ms_per_op": ms("wire.encode"),
        "wire.decode_ms_per_op": ms("wire.decode"),
        "wire.frame_bytes_per_op":
            _ratio(get("wire.encode", "bytes"), ops, "B/op"),
        "server_core.handles_per_op":
            _ratio(get("server_core", "calls"), ops, "count/op"),
        "server_core.self_ms_per_op": ms("server_core"),
        "ec.calls_per_op": _ratio(get("ec", "calls"), ops, "count/op"),
        "ec.ms_per_op": ms("ec"),
        "sim.self_ms_per_op": ms("sim"),
        "explore.self_ms_per_state": ms("explore", "ms/state"),
        # the explorer's only wrapped children are ServerCore handlers
        "explore.handle_ms_per_state": _ratio(
            1000.0 * (get("explore", "incl_s") - get("explore", "self_s")),
            ops, "ms/state"),
        "bench.trace_overhead": {"value": overhead, "unit": "ratio"},
    }
    m.update(out.counters)
    m.update(extra or {})
    return {
        name: {**m.get(name, {"value": 0.0}), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def _live_per_layer(out: Outcome, win: dict, ops: int, base: dict) -> dict:
    lag = win["lag"]
    overhead = (ops / win["elapsed"]) / (base["done"] / base["elapsed"])
    return _per_layer(out, ops, overhead, {
        "asyncio_rt.loop_lag_p50_ms":
            {"value": _pct(lag, 50), "unit": "ms", "n": len(lag)},
        "asyncio_rt.loop_lag_p90_ms":
            {"value": _pct(lag, 90), "unit": "ms", "n": len(lag)},
    })


def live_mixed(out: Outcome, seed: int, seconds: float, trace: bool,
               workdir: Path) -> None:
    asyncio.run(_live(out, seed=seed, seconds=seconds, trace=trace,
                      workdir=workdir))


# ----------------------------------------------------------------------
# sim-six-dc: the discrete-event simulator, no store, no sockets


def _sim_unit(seed: int, unit: int):
    """A fresh six-DC cluster plus its closed-loop driver."""
    unit_seed = seed * 1000 + unit
    code = six_dc_code(PrimeField(257), value_len=SIM_VALUE_LEN)
    cluster = CausalECCluster(
        code,
        latency=MatrixLatency(Topology.aws_six_dc().rtt, local=0.1),
        seed=unit_seed,
        config=ServerConfig(),
    )
    driver = ClosedLoopDriver(
        cluster, code.K, client_sites=list(range(code.N)),
        config=WorkloadConfig(
            ops_per_client=SIM_OPS_PER_SESSION, read_ratio=0.5,
            think_time_mean=SIM_THINK_MS, seed=unit_seed,
        ),
    )
    return cluster, driver


def _sim_window(out: Outcome, seed: int, seconds: float, first_unit: int,
                tracer: Tracer | None) -> dict:
    """Run whole units until ``seconds`` of simulation wall time passed."""
    acc = {"unit": first_unit, "ops": 0, "wall": 0.0, "cpu": 0.0,
           "read_ms": [], "bits": 0.0, "msgs": 0, "events": 0,
           **{name: 0 for name in STAT_FIELDS}}
    while acc["wall"] < seconds:
        for _ in range(SETUPS_PER_UNIT):
            with out.setup_timer():
                cluster, driver = _sim_unit(seed, acc["unit"])
        acc["unit"] += 1
        if tracer is not None:
            tracer.install()
        try:
            cpu0, start = time.process_time(), time.perf_counter()
            driver.run()
            acc["wall"] += time.perf_counter() - start
            acc["cpu"] += time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.calibrate()
        # the discarded set-ups are cyclic garbage; collecting it here keeps
        # peak_rss_mb from following the collector's timing
        gc.collect()
        history = cluster.history
        done = [op for op in history.operations if op.done]
        out.attempted += len(history.operations)
        out.failed += len(history.operations) - len(done)
        acc["ops"] += len(done)
        acc["read_ms"] += [op.latency for op in done if op.kind == "read"]
        acc["bits"] += cluster.network.stats.total_bits
        acc["msgs"] += cluster.network.stats.total_messages
        acc["events"] += cluster.scheduler.events_processed
        for name in STAT_FIELDS:
            acc[name] += sum(getattr(s.stats, name) for s in cluster.servers)
        acc["history_entries"] = sum(s.history_size() for s in cluster.servers)
        out.failures += _history_gates(history, cluster.code.zero_value())
    return acc


def sim_six_dc(out: Outcome, seed: int, seconds: float, trace: bool,
               workdir: Path) -> None:
    if trace:
        base = _sim_window(out, seed, seconds / 2, 0, None)
        out.tracer = Tracer()
        acc = _sim_window(out, seed, seconds / 2, base["unit"], out.tracer)
    else:
        acc = _sim_window(out, seed, seconds, 0, None)
    ops = acc["ops"]
    out.counters = {
        **_server_core_counters(acc, ops),
        "sim.events_per_op": _ratio(acc["events"], ops, "count/op"),
        "sim.msgs_per_op": _ratio(acc["msgs"], ops, "count/op"),
        "server_core.history_entries_end": {
            "value": float(acc["history_entries"]), "unit": "count"},
    }
    reads = acc["read_ms"]
    out.figure("failed_frac", out.failed / max(out.attempted, 1), "ratio",
               num=out.failed, den=out.attempted)
    out.figure("sim_read_p50_ms", _pct(reads, 50), "sim_ms", n=len(reads),
               p90=_pct(reads, 90), mean=float(np.mean(reads)))
    out.figure("net_bytes_per_op", acc["bits"] / 8 / max(ops, 1), "B/op",
               num=acc["bits"] / 8, den=ops)
    if trace:
        overhead = (ops / acc["wall"]) / (base["ops"] / base["wall"])
        out.per_layer = _per_layer(out, ops, overhead)
    out.finish(ops, acc["wall"], acc["cpu"])


# ----------------------------------------------------------------------
# explore-example1: the bounded model checker, no I/O


def _explore_setup(out: Outcome, code, value):
    """The initial state plus the issued write."""
    # importing explore patches LinearCode.__deepcopy__: this process only
    from repro.verification.explore import StateExplorer

    with out.setup_timer():
        explorer = StateExplorer(code, max_states=EXPLORE_MAX_STATES)
        state = explorer.initial_state()
        explorer.issue_write(state, 0, 0, value)
    return explorer, state


def _explore_window(out: Outcome, code, value, seconds: float,
                    tracer: Tracer | None) -> dict:
    """Run whole bounded explorations until ``seconds`` of wall time."""
    acc = {"states": 0, "executions": 0, "explorations": 0, "wall": 0.0,
           "cpu": 0.0}
    while acc["wall"] < seconds:
        for _ in range(SETUPS_PER_UNIT):
            explorer, state = _explore_setup(out, code, value)
        if tracer is not None:
            tracer.install()
        try:
            cpu0, start = time.process_time(), time.perf_counter()
            result = explorer.explore(state)
            acc["wall"] += time.perf_counter() - start
            acc["cpu"] += time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.calibrate()
        out.attempted += 1
        acc["explorations"] += 1
        acc["states"] += result.states_visited
        acc["executions"] += result.executions
        if not (result.ok and result.confluent):
            out.failed += 1
            out.failures.append(
                f"exploration not ok: confluent={result.confluent}, "
                f"violations={result.violations[:3]}"
            )
    return acc


def explore_example1(out: Outcome, seed: int, seconds: float, trace: bool,
                     workdir: Path) -> None:
    code = example1_code(PrimeField(257))
    value = [1 + seed % 256]
    if trace:
        base = _explore_window(out, code, value, seconds / 2, None)
        out.tracer = Tracer()
        acc = _explore_window(out, code, value, seconds / 2, out.tracer)
    else:
        acc = _explore_window(out, code, value, seconds, None)
    states = acc["states"]
    out.counters = {
        "explore.executions":
            _ratio(acc["executions"], acc["explorations"], "count"),
    }
    if trace:
        overhead = (states / acc["wall"]) / (base["states"] / base["wall"])
        out.per_layer = _per_layer(out, states, overhead)
    out.finish(states, acc["wall"], acc["cpu"])
    out.figure("states_per_s", out.figures["ops_per_s"]["value"], "states/s",
               n=states)


WORKLOADS = {
    "live-mixed": live_mixed,
    "sim-six-dc": sim_six_dc,
    "explore-example1": explore_example1,
}

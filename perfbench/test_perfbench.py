"""Tests of the benchmark itself: its gates fail on bad output.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        workloads.PER_LAYER_UNITS
    )


def _sim_run(capsys) -> tuple[int, dict]:
    code = run.main(["--workload", "sim-six-dc", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"])
    return code, _last_json(capsys)


def test_clean_history_passes(capsys):
    code, result = _sim_run(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_history_fails_the_run(capsys, monkeypatch):
    real_gates = workloads._history_gates

    def corrupting_gates(history, zero):
        read = next(op for op in history.operations
                    if op.kind == "read" and op.done)
        read.value = np.full_like(read.value, 256)  # never written
        return real_gates(history, zero)

    monkeypatch.setattr(workloads, "_history_gates", corrupting_gates)
    code, result = _sim_run(capsys)
    assert code != 0
    assert result["correct"] is False


def test_restart_check_reports_a_lost_write(tmp_path):
    from repro.ec.codes import example1_code
    from repro.ec.field import PrimeField

    async def scenario():
        code = example1_code(PrimeField(257), value_len=4)
        values = workloads._WriteValues(code)
        cluster, clients = await workloads._live_setup(code, tmp_path / "store")
        try:
            for obj in range(code.K):
                assert (await clients[0].write(obj, values.next(obj))).done
            await cluster.quiesce()
            written = {x: workloads.expected_final_value(
                cluster.history, x, code.zero_value()) for x in range(code.K)}
            none = {x: [] for x in range(code.K)}
            _, lost = await workloads._recover(cluster, written, none)
            assert lost == []
            wrong = {**written, 1: values.next(1)}
            _, lost = await workloads._recover(cluster, wrong, none)
            assert len(lost) == 1 and lost[0].startswith("object 1")
        finally:
            await cluster.shutdown()

    asyncio.run(scenario())


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans += [
        ["persist", 0.0, 10.0, -1, 100],
        ["wire.encode", 1.0, 4.0, 0, None],
        ["fsync", 5.0, 9.0, 0, None],
        ["ec", 20.0, 22.0, -1, None],
        ["ec", 20.5, 21.0, 3, None],
    ]
    totals = tracer.layer_totals()
    assert totals["persist"]["self_s"] == pytest.approx(3.0)
    assert totals["persist"]["bytes"] == 100
    assert totals["fsync"]["self_s"] == pytest.approx(4.0)
    # a nested call inside the same layer counts once, time is not doubled
    assert totals["ec"]["calls"] == 1
    assert totals["ec"]["self_s"] == pytest.approx(2.0)
    assert totals["ec"]["incl_s"] == pytest.approx(2.0)


def test_tracer_uninstall_restores_the_program():
    from repro.protocol.server_core import ServerCore
    from repro.runtime import asyncio_rt, wire

    before = (ServerCore.__dict__["handle_message"], wire.encode_frame,
              asyncio_rt.FileDurableStore.__dict__["persist"])
    tracer = Tracer()
    tracer.install()
    assert ServerCore.__dict__["handle_message"] is not before[0]
    tracer.uninstall()
    after = (ServerCore.__dict__["handle_message"], wire.encode_frame,
             asyncio_rt.FileDurableStore.__dict__["persist"])
    assert after == before

"""CausalEC benchmark runner: one workload per process, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-mixed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced window and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
figure of the workload by name and unit.  Each run also appends a record
(seed, git SHA, Python version, nproc, sample counts, counters) to
``.perfbench_out/runs.jsonl``; traced runs write their spans next to it.
The exit code is 0 only when every correctness gate passed.

``--workload all`` runs every workload in its own child process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: the end-to-end metrics of BENCHMARK.json; every workload reports each
END_TO_END = ("setup_s", "norm_ops_per_s", "peak_rss_mb")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _metric(entry: dict) -> dict:
    value = float(entry["value"])
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {entry!r}")
    return {"value": value, "unit": entry["unit"]}


def _print_table(title: str, table: dict[str, dict]) -> None:
    print(title)
    for name, entry in table.items():
        extra = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in entry.items() if k not in ("value", "unit")
        )
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']:12s}"
              f"{'  (' + extra + ')' if extra else ''}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process; print tables and the result."""
    from workloads import WORKLOADS, Outcome

    workdir = OUT_DIR / f"work-{os.getpid()}"
    out = Outcome(ref_file=workdir / "reference.bin")
    try:
        WORKLOADS[workload](out, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    window = "traced window" if trace else "untraced window"
    _print_table(f"figures ({window}):", out.figures)
    _print_table(f"counters ({window}):", out.counters)
    shares = {}
    if trace:
        _print_table("per-layer (traced):", out.per_layer)
        # client spans are asynchronous roots that overlap every layer
        shares = {
            layer: agg["self_s"] / out.window_s
            for layer, agg in out.tracer.layer_totals().items()
            if not layer.startswith("client.")
        }
        print("self time as a share of the traced window:")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:40s} {share:8.3f}")
    for failure in out.failures:
        print(f"GATE FAILED: {failure}")

    if trace:
        metrics = {n: _metric(e) for n, e in out.per_layer.items()}
    else:
        metrics = {n: _metric(out.figures[n]) for n in END_TO_END}
    result = {
        "correct": not out.failures,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unix_time": time.time(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gate_failures": out.failures,
        "figures": out.figures,
        "counters": out.counters,
        "per_layer": out.per_layer,
        "self_time_share": shares,
        "result": result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if trace:
        out.tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, one after another."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        results[name] = {k: result.get(k) for k in ("correct", "attempted",
                                                      "failed")}
        code = code or proc.returncode
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

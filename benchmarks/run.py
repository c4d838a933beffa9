"""modlab benchmark: one named workload, end-to-end or traced per layer.

Usage (from the root of a modlab checkout):

    python3 benchmarks/run.py --workload modulus|fields|cli --seed N \
        --seconds S --trace 0|1

The run generates the workload's inputs from the seed, times the set-up in
several fresh interpreters, then runs the workload as a closed loop in one
of them for S seconds of whole rounds and checks every output. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = Path("benchmarks") / ".work"
# Set-ups timed per run, each in a fresh interpreter; the measuring process's
# own set-up is one of them. A single set-up is dominated by import time,
# which varies by a quarter between interpreters on a 2-core machine.
SETUP_SAMPLES = 5
BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
# One BLAS thread: the closed loop has one caller, and a shared 2-core
# machine gives steadier timings without a second BLAS thread.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(samples: list, beyond: int = BEYOND) -> tuple[float, float]:
    """Highest percentile that has at least ``beyond`` samples beyond it.

    Returns (value, percentile): the (n - beyond)-th smallest of n samples,
    which is the 100 (n - beyond) / n-th percentile.
    """
    n = len(samples)
    if n < 4 * beyond:
        raise ValueError(f"{n} samples: a tail needs at least {4 * beyond}")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n


def summarize(rounds: list) -> dict:
    """End-to-end timing metrics from the measured rounds.

    Each round runs the same operations, so each statistic is taken per
    round and the median over rounds is reported; the tail percentile then
    does not depend on how many rounds fit in the run.
    """
    return {
        "run_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(r["latency_s"]) for r in rounds),
        "op_tail_ms": 1e3 * statistics.median(tail(r["latency_s"])[0] for r in rounds),
    }


def worker(work_dir: Path, mode: str, seconds: float = 0.0, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--dir", str(work_dir), "--mode", mode]
    if mode == "measure":
        cmd += ["--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["modulus", "fields", "cli"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "modlab" / "__init__.py").is_file():
        print("run.py: no modlab source at ./src/modlab; run from the root of a modlab checkout", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    import inputs

    work_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_out = WORK / f"trace-{args.workload}-s{args.seed}.json" if args.trace else None
    try:
        manifest = inputs.GENERATORS[args.workload](args.seed, work_dir)
        setups = [worker(work_dir, "setup")["setup"] for _ in range(SETUP_SAMPLES - 1)]
        record = worker(work_dir, "measure", args.seconds, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(record["setup"])
    rounds = record["rounds"]
    unexpected = [msg for r in rounds for msg in r["unexpected"]]
    for msg in sorted(set(unexpected)):
        print(f"unexpected failure: {msg}", file=sys.stderr)
    per_round = len(manifest["ops"])
    _, pct = tail(rounds[0]["latency_s"])
    print(f"{args.workload}: {len(rounds)} rounds of {per_round} operations; per round, op_p50_ms is the "
          f"median and op_tail_ms the p{pct:.4g} ({BEYOND} of {per_round} samples beyond it); "
          f"each is the median over rounds. setup_s is the median of {len(setups)} fresh-interpreter set-ups.")
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    if args.trace:
        layers = record["layers"]
        round_s = sum(r["wall_s"] for r in rounds) / len(rounds)
        covered = sum(value for name, value in layers.items() if name.endswith("_s"))
        print(f"trace: a traced round takes {round_s:.4f} s on average; the layer self times cover "
              f"{covered:.4f} s of it, the other {round_s - covered:.4f} s is code between the layers.")
        layers.update({f"setup.{key}": setup[key] for key in ("import_s", "ingest_s", "warmup_s")})
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        e2e = dict(setup_s=setup["total_s"], **summarize(rounds), peak_rss_mb=record["peak_rss_mb"])
        units = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    result = {
        "correct": not unexpected,
        "attempted": per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "bytes" if name == "report.bytes" else "count"


if __name__ == "__main__":
    sys.exit(main())

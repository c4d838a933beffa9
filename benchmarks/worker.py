"""One fresh interpreter: set up a workload, then (in measure mode) run it.

Usage: python benchmarks/worker.py --dir <inputs> --mode setup|measure
                                   [--seconds S] [--trace-out PATH]

Run from the root of a modlab checkout; modlab is imported from ``src/``
there. The set-up clock starts after the generated inputs have been read
into memory and covers ``import modlab``, building the inputs through
modlab's constructors and readers, and one warm-up call of each operation
group (entry point). The measurement is a closed loop: one caller issues
each operation after the previous one returned, in whole rounds, until
``--seconds`` have passed. The last line of standard output is a JSON
record for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path.cwd()


def set_up(directory: Path) -> tuple[list, list, dict]:
    """Operations, the report files they write, and the set-up phase times."""
    # Read with the standard library only: numpy is imported by modlab, on the clock.
    manifest = json.loads((directory / "inputs.json").read_text())
    raw = (directory / "inputs.bin").read_bytes()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import modlab

    t1 = perf_counter()
    if not Path(modlab.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"modlab imported from {modlab.__file__}, not from ./src")
    import inputs
    import ops

    op_list = ops.build(manifest, inputs.array_views(manifest, raw))
    t2 = perf_counter()
    seen = set()
    for op in op_list:
        if op.group not in seen:
            seen.add(op.group)
            try:
                op.run()
            except Exception:  # counted as a failure when the rounds run it
                pass
    t3 = perf_counter()
    phases = {"import_s": t1 - t0, "ingest_s": t2 - t1, "warmup_s": t3 - t2, "total_s": t3 - t0}
    return op_list, ops.report_files(manifest), phases


def measure(op_list, stale: list, seconds: float, tracer=None) -> list:
    """Whole rounds until ``seconds`` have passed; ``stale`` files are removed before each."""
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        for path in stale:
            path.unlink(missing_ok=True)
        latencies, results = [], []
        start = perf_counter()
        for op in op_list:
            a = perf_counter()
            try:
                result = tracer.call("op", op.run) if tracer else op.run()
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - a)
            results.append((result, error))
        wall = perf_counter() - start
        failed, unexpected = 0, []
        for op, (result, error) in zip(op_list, results):
            reason = error or op.check(result)
            if reason:
                failed += 1
                if not op.expect_fail:
                    unexpected.append(f"{op.kind}: {reason}")
        rounds.append({"wall_s": wall, "latency_s": latencies, "failed": failed, "unexpected": unexpected})
        if perf_counter() >= deadline:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    op_list, stale, phases = set_up(args.dir)
    record = {"setup": phases}
    if args.mode == "measure":
        tracer = None
        if args.trace_out:
            tracer = spans.Tracer()
            spans.install_modlab(tracer)
        rounds = measure(op_list, stale, args.seconds, tracer)
        record["rounds"] = rounds
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.write(args.trace_out)
            record["layers"] = spans.layer_metrics(tracer, len(rounds))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

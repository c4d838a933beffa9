"""Reference figures, measured once per machine and recorded in README.md.

Usage, from the root of a modlab checkout (about a minute):

    python3 benchmarks/figures.py

Prints one line per figure: the sizes of ROADMAP item 1's "numbers to
reproduce first" (128^2 grid, 2000 random polylines), the l1 g* at M=16 on
64^2, the h=1e-4 dichotomy rung, ``import modlab`` in fresh interpreters and
one full ``modlab suite`` run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

ROOT = Path.cwd()


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.THREADS)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)


def main() -> None:
    imports = [float(fresh("import time; t = time.perf_counter(); import modlab; "
                           "print(time.perf_counter() - t)").stdout) for _ in range(10)]
    print(f"import modlab, 10 fresh interpreters: min {min(imports):.3f} s, "
          f"median {statistics.median(imports):.3f} s, max {max(imports):.3f} s")
    suite_s, _ = timed(fresh, "import sys; from modlab.cli import main; main(['suite', '--out', '/dev/null'])")
    print(f"modlab suite, one run in a fresh interpreter: {suite_s:.2f} s")

    os.environ.update(run.THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import inputs
    import modlab
    import spans

    rng = np.random.default_rng(0)
    grid = modlab.Grid([0.0, 0.0], [1.0, 1.0], [128, 128])
    fam = modlab.CurveFamily([modlab.Polyline(inputs.random_polyline(rng)) for _ in range(2000)])
    assemble_s, prob = timed(modlab.assemble_problem, fam, grid, 2.0)
    print(f"assembly, 128^2, 2000 random polylines: {assemble_s:.2f} s")
    for p in (2.0, 3.0, 1.0):
        tracer = spans.Tracer()
        spans.install_modlab(tracer)
        prob.exponent = p
        solve_s, result = timed(modlab.solve_modulus, prob, tol=1e-8)
        tracer.uninstall()
        counts = tracer.counts
        print(f"p={p:g} solve: {solve_s:.2f} s, certified={result.converged}, reported iterations "
              f"{result.iterations}, L-BFGS-B iterations {int(counts['modulus.lbfgsb_iterations'])} "
              f"(max_iter hits {int(counts['modulus.lbfgsb_maxiter_hits'])}), LP iterations "
              f"{int(counts['modulus.lp_iterations'])}")

    values, _ = inputs.smooth_field(rng, 64, 16)
    f = modlab.VectorField(modlab.Grid([0.0, 0.0], [1.0, 1.0], [64, 64]), values, modlab.NormTag.L1)
    gstar_s, ub = timed(modlab.upper_gradient_star, f)
    print(f"l1 g*, M=16, 64^2: {gstar_s:.2f} s ({ub.dual_set_descriptor})")
    rung_s, _ = timed(modlab.dichotomy_report, 0.7071067811865476, [1e-4])
    print(f"dichotomy rung h=1e-4 (M=200000, resolution 512): {rung_s:.2f} s")


if __name__ == "__main__":
    main()

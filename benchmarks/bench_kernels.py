#!/usr/bin/env python3
"""Benchmark the compiled polynomial kernels against the pure-Python fallback.

Micro-benchmarks call both kernel modules directly on identical inputs;
the end-to-end rows rerun a full parametric resolution in a subprocess with
SPARSEPROJ_PURE toggled, so the import-time backend selection is exercised
exactly as a user would hit it.

Usage: python benchmarks/bench_kernels.py [--fast]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from sparseproj import _kernels_py
from sparseproj.rat import rat

try:
    from sparseproj import _speedups
except ImportError:
    _speedups = None


def _rand_poly(rng, nvars, terms):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, 6) for _ in range(nvars))
        out[e] = rat(rng.randint(-99, 99), rng.randint(1, 9))
    return out


def _time(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


END_TO_END = (
    "from sparseproj.mpoly import SparsePoly\n"
    "from sparseproj.projection import parametric_toric_geomres\n"
    "import sparseproj.kernels as k, time\n"
    "g1 = SparsePoly(3, {(0,0,0): 2, (1,1,0): 3, (0,1,1): -1})\n"
    "g2 = SparsePoly(3, {(0,0,0): -1, (2,1,1): 2, (0,2,0): 2, (1,1,1): 1})\n"
    "t0 = time.perf_counter()\n"
    "for _ in range(5):\n"
    "    parametric_toric_geomres([g1, g2], 1, (0, 1), xi=(1,))\n"
    "print(k.IMPLEMENTATION, (time.perf_counter() - t0) / 5)\n"
)

END_TO_END_BIG = (
    "from sparseproj.mpoly import SparsePoly\n"
    "from sparseproj.projection import parametric_toric_geomres\n"
    "import sparseproj.kernels as k, time\n"
    "f1 = SparsePoly(4, {(0,0,0,0): 3, (1,1,1,0): 2, (2,0,0,2): -1, (0,0,0,4): 5})\n"
    "f2 = SparsePoly(4, {(1,0,1,2): 2, (0,1,2,4): -3, (1,3,0,4): 7})\n"
    "t0 = time.perf_counter()\n"
    "parametric_toric_geomres([f1, f2], 2, (0, 1), xi=(2, 3))\n"
    "print(k.IMPLEMENTATION, time.perf_counter() - t0)\n"
)


def run_subprocess(code, pure):
    env = dict(os.environ)
    if pure:
        env["SPARSEPROJ_PURE"] = "1"
    else:
        env.pop("SPARSEPROJ_PURE", None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    backend, seconds = out.stdout.split()
    return backend, float(seconds)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="skip the large end-to-end case")
    args = parser.parse_args()

    if _speedups is None:
        print("compiled kernels not built; run pip install -e . first")
        return 1

    rng = random.Random(0)
    rows = []

    for terms in (30, 150):
        a = _rand_poly(rng, 3, terms)
        b = _rand_poly(rng, 3, terms)
        t_py = _time(_kernels_py.poly_mul, a, b)
        t_cy = _time(_speedups.poly_mul, a, b)
        rows.append((f"poly_mul {terms}x{terms} terms t=3", t_py, t_cy))

    _, t_py = run_subprocess(END_TO_END, pure=True)
    _, t_cy = run_subprocess(END_TO_END, pure=False)
    rows.append(("parametric resolution (3 vars, prec 12)", t_py, t_cy))

    if not args.fast:
        _, t_py = run_subprocess(END_TO_END_BIG, pure=True)
        _, t_cy = run_subprocess(END_TO_END_BIG, pure=False)
        rows.append(("parametric resolution (4 vars, prec 44)", t_py, t_cy))

    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  {'python':>10}  {'cython':>10}  {'speedup':>8}")
    for name, t_py, t_cy in rows:
        print(f"{name:<{width}}  {t_py * 1e3:>8.2f}ms  {t_cy * 1e3:>8.2f}ms  "
              f"{t_py / t_cy:>7.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

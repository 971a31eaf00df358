#!/usr/bin/env python3
"""Pipeline benchmark of sparseproj: one run of one workload.

    python3 perfbench/run.py --workload {fivevar,bernstein,curves} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run is whole rounds of the workload,
each in a fresh interpreter (``worker.py``), single-threaded, with ``src`` on
its path, until the rounds have measured SECONDS; a traced run is one round.
The library keeps process-wide caches, so rounds that shared a process would
not measure the same program.  After the rounds every output is checked with
sympy, apart from the program.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, the end-to-end ones with
``--trace 0`` and the per-layer ones with ``--trace 1``.  A traced run also
writes its span records to ``.perfbench/trace-WORKLOAD-SEED.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fivevar", "bernstein", "curves")
# all rounds of a run must end by then; the checks follow within seconds
RUN_TIMEOUT_S = 170
# self times plus the recorder's own time must cover the traced wall time
ACCOUNTING_TOLERANCE = 0.03

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lifting.newton_hensel_lift_s": "s", "lifting.precision": "order",
    "kernels.series_mul_s": "s", "kernels.series_mul_calls": "count",
    "kernels.poly_mul_calls": "count",
    "polytope.mixed_volume_s": "s", "polytope.mixed_volume_calls": "count",
    "polytope.hull_calls": "count", "polytope.hull_points": "count",
    "supports.trans_basis_s": "s",
    "groebner.buchberger_s": "s", "groebner.normal_form_calls": "count",
    "zerodim.solve_toric_0d_s": "s", "zerodim.solve_calls": "count",
    "zerodim.lambda_retries": "count", "zerodim.quotient_dim": "count",
    "linalg.solve_consistent_s": "s",
    "pade.pade_s": "s", "pade.pade_calls": "count",
    "mpoly.mpoly_gcd_s": "s", "mpoly.mpoly_gcd_calls": "count",
    "projection.audit_parametric_s": "s",
    "linalg.matrix_rank_s": "s", "linalg.matrix_rank_calls": "count",
    "linalg.nullspace_s": "s",
    "projection.geom_res_proj_s": "s", "projection.verify_resolution_s": "s",
    "projection.retries": "count", "projection.coeff_bits_max": "bits",
    "formats.parse_system_s": "s", "formats.emit_resolution_s": "s",
    "trace.unwrapped_s": "s", "trace.overhead": "ratio",
}
# metric -> span whose calls it counts, where the names differ
_CALLS_OF = {"zerodim.solve_calls": "zerodim.solve_toric_0d"}


def layer_metrics(trace, wall):
    """Per-layer metrics from the span records of a traced run."""
    calls, self_s, values = trace["calls"], trace["self_s"], trace["values"]
    counted = sum(n for name, n in calls.items() if name not in self_s)
    recorder = trace["recorder_s"] + counted * trace["counted_cost_s"]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            out[name] = wall / (wall - recorder)
        elif name == "trace.unwrapped_s":
            out[name] = self_s.get("bench.op", 0.0)
        elif name.endswith("_calls"):
            out[name] = calls.get(_CALLS_OF.get(name, name[:-len("_calls")]), 0)
        elif name.endswith("_s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = values.get(name, 0)
    accounted = (sum(self_s.values()) + trace["recorder_s"]) / wall
    return out, accounted


def _mixed_volume(src):
    sys.path.insert(0, src)
    from sparseproj.polytope import Support, SupportFamily, mixed_volume

    def mv(supports):
        n = len(supports[0][0])
        return mixed_volume(SupportFamily([Support(n, {tuple(e) for e in pts})
                                           for pts in supports]))
    return mv


def run_round(args, round_index, src, workdir, timeout):
    """One round in a fresh interpreter; its report, with setup_s added."""
    os.makedirs(workdir)
    try:
        # a fixed string hash keeps every set and dict order the same run to run
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]),
                   PYTHONHASHSEED="0")
        command = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
                   str(args.seed), str(round_index), str(args.trace), workdir]
        spawn = time.perf_counter()
        child = subprocess.run(command, env=env, cwd=os.path.dirname(src),
                               timeout=timeout, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            print(child.stdout + child.stderr, file=sys.stderr)
            raise RuntimeError(f"the workload process exited with {child.returncode}")
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # perf_counter is the system-wide monotonic clock, shared with the child
    report["setup_s"] = report["ready"] - spawn
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparseproj", "__init__.py")):
        print(f"error: no sparseproj sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench")
    # whole rounds until the run has measured --seconds; a traced run is one round
    rounds = []
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        while not rounds or (not args.trace and
                             sum(r["wall_s"] for r in rounds) < args.seconds):
            workdir = os.path.join(out_dir, f"run-{os.getpid()}-{len(rounds)}")
            rounds.append(run_round(args, len(rounds), src, workdir,
                                    max(1.0, deadline - time.perf_counter())))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, HERE)
    from checks import check
    from workloads import make_inputs

    problems, attempted, failed = [], 0, 0
    mixed_volume = _mixed_volume(src)
    for k, report in enumerate(rounds):
        errors = report["errors"]
        attempted += len(errors)
        failed += sum(e is not None for e in errors)
        for i, err in enumerate(errors):
            if err is not None:
                print(f"round {k} operation {i} failed:\n{err}", file=sys.stderr)
        ops = make_inputs(args.workload, args.seed, k)
        problems += [f"round {k}: {p}" for p in
                     check(args.workload, ops, report["outputs"], mixed_volume,
                           mutant=k == 0)]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} rounds {len(rounds)}")
    print(f"backend rat={rounds[0]['backend']} kernels={rounds[0]['implementation']} "
          f"python={sys.version.split()[0]}")
    walls = [r["wall_s"] for r in rounds]
    if args.trace:
        report = rounds[0]
        metrics, accounted = layer_metrics(report["trace"], walls[0])
        print(f"self times plus recorder time cover {accounted:.4f} of the traced "
              f"wall time {walls[0]:.3f} s")
        if abs(accounted - 1) > ACCOUNTING_TOLERANCE:
            problems.append(f"trace accounts for {accounted:.4f} of the traced wall time")
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "backend": report["backend"],
                       "implementation": report["implementation"],
                       "wall_s": walls[0], "op_s": report["op_s"], "metrics": metrics,
                       **report["trace"]}, fh, indent=1, sort_keys=True)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": rounds[0]["setup_s"],
            "wall_s": statistics.fmean(walls),
            "op_p50_s": statistics.median(t for r in rounds for t in r["op_s"]),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
        }
        units = END_TO_END
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"attempted {attempted} failed {failed} correct {not problems}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured run of one workload, in the interpreter that run.py starts.

Usage: worker.py WORKLOAD SEED ROUND TRACE WORKDIR

Set-up (import sparseproj, build the round's inputs) ends at the ``ready``
time; the timed region then runs every operation of the round once.  The
outputs, per-operation times and, with TRACE = 1, the span records go to
WORKDIR/result.json.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import make_inputs

import sparseproj  # noqa: F401  (set-up includes the package import)

cli = importlib.import_module("sparseproj.cli")
formats = importlib.import_module("sparseproj.formats")
mpoly = importlib.import_module("sparseproj.mpoly")
projection = importlib.import_module("sparseproj.projection")
rat = importlib.import_module("sparseproj.rat")


def _lift_precision(rec, args, kwargs):
    kappa = kwargs.get("kappa", args[3] if len(args) > 3 else 0)
    rec.values["lifting.precision"] = max(rec.values["lifting.precision"], int(kappa))


def _hull_points(rec, args, kwargs):
    rec.values["polytope.hull_points"] += len(args[0])


def _quotient_dim(rec, res):
    rec.values["zerodim.quotient_dim"] += res.degree()


def _lambda_retry(rec, exc):
    if type(exc).__name__ == "LambdaNotSeparating":
        rec.values["zerodim.lambda_retries"] += 1
    _projection_retry(rec, exc)


def _projection_retry(rec, exc):
    # a failure of a stage that q_projection answers with a fresh draw
    if "projection.q_projection" in rec.open_names():
        rec.values["projection.retries"] += 1


def coeff_bits(res) -> int:
    """Largest numerator or denominator bit length in a resolution."""
    best = 0
    for p in (res.q, *res.params.values()):
        for c in p.coeffs:
            values = [*c.num.terms.values(), *c.den.terms.values()] \
                if hasattr(c, "num") else [c]
            for v in values:
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _result_bits(rec, result):
    if result.resolution is not None:
        values = rec.values
        values["projection.coeff_bits_max"] = max(values["projection.coeff_bits_max"],
                                                  coeff_bits(result.resolution))


# (defining module, attribute, kind, span name, hooks).  Counted spans have
# count metrics only; their time stays in the self time of their caller.
SPANS = [
    ("sparseproj.projection", "q_projection", "timed", "projection.q_projection",
     {"on_return": _result_bits}),
    ("sparseproj.lifting", "newton_hensel_lift", "timed", "lifting.newton_hensel_lift",
     {"on_call": _lift_precision, "on_error": _projection_retry}),
    ("sparseproj.kernels", "series_mul", "timed", "kernels.series_mul", {}),
    ("sparseproj.kernels", "poly_mul", "counted", "kernels.poly_mul", {}),
    ("sparseproj.polytope", "mixed_volume", "timed", "polytope.mixed_volume", {}),
    ("sparseproj.polytope", "hull_volume_and_corners", "counted", "polytope.hull",
     {"on_call": _hull_points}),
    ("sparseproj.supports", "trans_basis", "timed", "supports.trans_basis", {}),
    ("sparseproj.groebner", "buchberger", "timed", "groebner.buchberger", {}),
    ("sparseproj.groebner", "normal_form", "counted", "groebner.normal_form", {}),
    ("sparseproj.zerodim", "solve_toric_0d", "timed", "zerodim.solve_toric_0d",
     {"on_return": _quotient_dim, "on_error": _lambda_retry}),
    ("sparseproj.linalg", "solve_consistent", "timed", "linalg.solve_consistent", {}),
    ("sparseproj.linalg", "matrix_rank", "timed", "linalg.matrix_rank", {}),
    ("sparseproj.linalg", "nullspace", "timed", "linalg.nullspace", {}),
    ("sparseproj.pade", "pade", "timed", "pade.pade", {"on_error": _projection_retry}),
    ("sparseproj.mpoly", "mpoly_gcd", "timed", "mpoly.mpoly_gcd", {}),
    ("sparseproj.projection", "audit_parametric", "timed", "projection.audit_parametric",
     {"on_error": _projection_retry}),
    ("sparseproj.projection", "geom_res_proj", "timed", "projection.geom_res_proj",
     {"on_error": _projection_retry}),
    ("sparseproj.projection", "verify_resolution", "timed", "projection.verify_resolution", {}),
    ("sparseproj.formats", "parse_system", "timed", "formats.parse_system", {}),
    ("sparseproj.formats", "emit_resolution", "timed", "formats.emit_resolution", {}),
]


def build(workload, ops, workdir):
    """Turn the input dicts into the operations' arguments."""
    built = []
    for k, op in enumerate(ops):
        if "system" in op:
            path = os.path.join(workdir, f"system{k}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op["system"])
            command = "project" if workload == "fivevar" else "solve0d"
            args = [command, path, *op["args"]]
            if workload == "fivevar":
                args += ["--output", os.path.join(workdir, "fivevar.res")]
            built.append(args)
        else:
            polys = [mpoly.SparsePoly(3, {tuple(e): rat.rat(c) for e, c in zip(pts, cs)})
                     for pts, cs in zip(op["supports"], op["coeffs"])]
            built.append((polys, op["seed"]))
    return built


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_projection(op):
    polys, seed = op
    return projection.q_projection(projection.ProjectionProblem(polys, 2, seed=seed))


def main(argv):
    workload, seed, round_index, trace, workdir = argv
    ops = make_inputs(workload, int(seed), int(round_index))
    built = build(workload, ops, workdir)
    run_op = run_projection if workload == "curves" else run_cli
    ready = time.perf_counter()

    recorder = None
    if trace == "1":
        from spans import Recorder, calibrate_counted

        count_cost = calibrate_counted()
        recorder = Recorder()
        recorder.install(SPANS)
        run_op = recorder.timed("bench.op", run_op)

    results, errors, op_s = [], [], []
    t0 = time.perf_counter()
    for op in built:
        t = time.perf_counter()
        try:
            results.append(run_op(op))
            errors.append(None)
        except Exception:  # an operation that fails is counted, the run goes on
            results.append(None)
            errors.append(traceback.format_exc())
        op_s.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "ready": ready, "wall_s": wall, "op_s": op_s, "peak_rss_kb": peak_kb,
        "backend": getattr(rat, "BACKEND", "unknown"),
        "implementation": getattr(sys.modules.get("sparseproj.kernels"),
                                  "IMPLEMENTATION", "unknown"),
        "errors": errors,
    }
    if recorder is not None:
        recorder.uninstall()
        report["trace"] = {
            "calls": dict(recorder.calls), "self_s": dict(recorder.self_s),
            "values": dict(recorder.values), "recorder_s": recorder.recorder_s,
            "counted_cost_s": count_cost,
            "errors": {f"{k[0]}:{k[1]}": v for k, v in recorder.errors.items()},
        }
    if workload == "curves":
        report["outputs"] = [formats.emit_resolution(r) if r is not None else None
                             for r in results]
    else:
        report["outputs"] = results
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Subcommands: mv, transbasis, gamma, solve0d, project, verify.  Exit codes:
0 success, 1 mathematical/genericity failure, 2 usage or parse error.

Random data can be pinned per variable with assignment syntax, e.g.
``--lambda X5=1 --mu X3=1 --b X4=1 --xi X1=2,X2=3``; unpinned draws come
from ``--seed``, and ``--retries K`` allows K redraws of the vectors that
fail (``zerodim.Draws``).  ``--seed``, ``--bound`` and ``--retries``
override the SystemFile's ``seed``, ``bound`` and ``retries`` lines.
"""

from __future__ import annotations

import argparse
import sys

from .formats import ParseError, emit_resolution, parse_resolution, parse_system
from .polytope import PolytopeError, mixed_volume
from .projection import ProjectionProblem, q_projection, verify_resolution
from .rat import rat_str
from .ratfun import RatFun
from .supports import DegenerateFamily, VarOrder, gamma_decomposition, trans_basis
from .upoly import UniPoly
from .zerodim import Draws, solve_separating

# every typed failure of the pipeline is an ArithmeticError, apart from these
# two ValueErrors, which must not read as usage errors
MATH_ERRORS = (ArithmeticError, DegenerateFamily, PolytopeError)


def render_upoly_y(p: UniPoly, labels) -> str:
    """Canonical one-line rendering of a Y-polynomial with fraction coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree(), -1, -1):
        c = p[k]
        if not c:
            continue
        if isinstance(c, RatFun):
            if c == 1:
                body = ""
            elif c == -1:
                body = "-"
            elif c.is_poly() and len(c.num.terms) == 1:
                body = c.format(labels)
            else:
                num = c.num.format(labels)
                if c.den.is_constant():
                    body = f"({num})"
                else:
                    body = f"({num})/({c.den.format(labels)})"
        else:
            if c == 1:
                body = ""
            elif c == -1:
                body = "-"
            else:
                body = rat_str(c)
        if k == 0:
            term = body if body not in ("", "-") else (body + "1")
        else:
            y = "Y" if k == 1 else f"Y^{k}"
            term = body + y if body in ("", "-") else f"{body}*{y}"
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return "".join(parts)


def _parse_assignments(text: str, what: str) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if "=" not in item:
            raise ParseError(f"{what}: expected assignments like X5=1, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if not name.startswith("X"):
            raise ParseError(f"{what}: variable {name!r} must look like X5")
        try:
            idx = int(name[1:]) - 1
            value = int(val)
        except ValueError as exc:
            raise ParseError(f"{what}: bad assignment {item!r}") from exc
        if idx < 0:
            raise ParseError(f"{what}: variable index must be positive")
        out[idx] = value
    return out


def _settings(args, problem: ProjectionProblem):
    """Seed, bound and retry limit: each flag when given, else the file's."""
    def pick(flag, value):
        return value if flag is None else flag

    return (pick(args.seed, problem.seed), pick(args.bound, problem.bound),
            pick(args.retries, problem.retry_limit))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseproj",
        description="exact geometric resolutions of projections of sparse systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mv = sub.add_parser("mv", help="mixed volume of the system's support family")
    p_mv.add_argument("file")

    p_tb = sub.add_parser("transbasis", help="greedy transcendence basis")
    p_tb.add_argument("file")

    p_ga = sub.add_parser("gamma", help="list the toric cover components")
    p_ga.add_argument("file")

    p_0d = sub.add_parser("solve0d", help="zero-dimensional toric resolution (r = n)")
    p_0d.add_argument("file")
    p_0d.add_argument("--lambda", dest="lam", default=None,
                      help="separating form, e.g. X3=1 or X2=2,X3=-1")
    p_0d.add_argument("--seed", type=int, default=None)
    p_0d.add_argument("--bound", type=int, default=None)
    p_0d.add_argument("--retries", type=int, default=None)

    p_pr = sub.add_parser("project", help="geometric resolution of the projection")
    p_pr.add_argument("file")
    p_pr.add_argument("--seed", type=int, default=None)
    p_pr.add_argument("--bound", type=int, default=None)
    p_pr.add_argument("--retries", type=int, default=None)
    p_pr.add_argument("--lambda", dest="lam", default=None,
                      help="pin the separating form, e.g. X5=1")
    p_pr.add_argument("--mu", default=None, help="pin the projection form, e.g. X3=1")
    p_pr.add_argument("--b", default=None, help="pin the specialization, e.g. X4=1")
    p_pr.add_argument("--xi", default=None, help="pin the expansion point, e.g. X1=2,X2=3")
    p_pr.add_argument("--format", choices=("text", "structured"), default="text")
    p_pr.add_argument("--output", default=None, help="also write a ResolutionFile here")

    p_vf = sub.add_parser("verify", help="audit a ResolutionFile against a SystemFile")
    p_vf.add_argument("system")
    p_vf.add_argument("resolution")
    return parser


def cmd_mv(args) -> int:
    problem = parse_system(_read(args.file))
    print(mixed_volume(problem.family))
    return 0


def cmd_transbasis(args) -> int:
    problem = parse_system(_read(args.file))
    tb = trans_basis(problem.family)
    print(" ".join(str(i + 1) for i in tb))
    return 0


def cmd_gamma(args) -> int:
    problem = parse_system(_read(args.file))
    for comp in gamma_decomposition(problem.family):
        zeros = " ".join(str(i + 1) for i in sorted(comp.zero_set)) or "-"
        active = " ".join(str(j + 1) for j in comp.active) or "-"
        print(f"I: {zeros} | J: {active}")
    return 0


def cmd_solve0d(args) -> int:
    problem = parse_system(_read(args.file))
    n = problem.n
    if problem.r != n:
        print(f"solve0d needs a square system (r = n), got r={problem.r} n={n}",
              file=sys.stderr)
        return 2
    lam = None
    if args.lam:
        assign = _parse_assignments(args.lam, "--lambda")
        bad = [i for i in assign if i >= n]
        if bad:
            raise ParseError(f"--lambda: variable X{bad[0] + 1} out of range")
        lam = tuple(assign.get(i, 0) for i in range(n))
    res = solve_separating(problem.system, Draws(*_settings(args, problem)), lam)
    print(f"deg {res.degree()}")
    print("lambda " + " ".join(str(c) for c in res.lam))
    print("q(Y) = " + render_upoly_y(res.q, ()))
    for v in res.dep_vars:
        print(f"X{v + 1} = " + render_upoly_y(res.params[v], ()))
    return 0


# One row per pin: flag, ProjectionProblem keyword (also the argparse dest),
# the VarOrder attribute listing its frame variables, whether it may assign a
# subset of them (the rest pinned to 0) or must assign exactly them, and the
# error message.
_PINS = (
    ("--lambda", "lam", "dependent_original", True,
     "--lambda: {var} is not a dependent variable (dependents: {names})"),
    ("--mu", "mu", "projected_original", True,
     "--mu: {var} is not a projected dependent variable (projected: {names})"),
    ("--b", "b", "specialized_original", False,
     "--b must assign exactly the specialized variables: {names}"),
    ("--xi", "xi", "free_original", False,
     "--xi must assign exactly the free variables: {names}"),
)


def _pin_from_assignments(problem: ProjectionProblem, args):
    """Convert per-variable pin assignments into frame-ordered tuples."""
    order = VarOrder(trans_basis(problem.family), problem.n, problem.r, problem.ell)
    kwargs = {}
    for flag, key, frame, subset, message in _PINS:
        text = getattr(args, key)
        if text is None:
            continue
        assign = _parse_assignments(text, flag)
        variables = getattr(order, frame)
        extra = [v for v in assign if v not in variables]
        if extra or (not subset and len(assign) != len(variables)):
            raise ParseError(message.format(
                var=f"X{extra[0] + 1}" if extra else None,
                names=" ".join(f"X{v + 1}" for v in variables)))
        kwargs[key] = tuple(assign.get(v, 0) for v in variables)
    return kwargs


def cmd_project(args) -> int:
    problem = parse_system(_read(args.file))
    seed, bound, retries = _settings(args, problem)
    pins = _pin_from_assignments(problem, args)
    problem = ProjectionProblem(problem.system, problem.ell, seed=seed, bound=bound,
                                retry_limit=retries, **pins)
    result = q_projection(problem)
    structured = emit_resolution(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(structured)
    if args.format == "structured":
        sys.stdout.write(structured)
        return 0
    order = result.order
    if result.dense_image:
        print(f"DENSE_IMAGE t={order.t}")
        print("the projection closure is the whole target space")
        return 0
    labels = tuple(f"X{v + 1}" for v in order.free_original)
    free = " ".join(f"X{v + 1}" for v in order.free_original)
    print(f"free variables: {free}")
    mu_name = " + ".join(
        (f"{c}*X{v + 1}" if c != 1 else f"X{v + 1}")
        for v, c in zip(order.projected_original, result.mu) if c)
    print(f"separating form mu = {mu_name}")
    print("q(Y) = " + render_upoly_y(result.resolution.q, labels))
    for fv, ov in zip(range(order.t, order.ell), order.projected_original):
        print(f"X{ov + 1} = " + render_upoly_y(result.resolution.params[fv], labels))
    print(f"degree {result.resolution.degree()} (bound {result.provenance['degree_cap']})")
    return 0


def cmd_verify(args) -> int:
    problem = parse_system(_read(args.system))
    parsed = parse_resolution(_read(args.resolution))
    if parsed.dense_image:
        print("dense image marker: nothing to audit")
        return 0
    prov = parsed.provenance
    t = parsed.t
    r = len(parsed.parent_dependent)
    try:
        b = tuple(int(x) for x in prov.get("b", "").split())
        order_orig = tuple(int(x) - 1 for x in prov["order"].split())
        if sorted(order_orig) != list(range(problem.n)):
            raise ValueError("order must be a permutation of the variables")
        spec_vars = order_orig[t + r:]
        if len(b) != len(spec_vars):
            raise ValueError("b needs one entry per specialized variable")
    except (KeyError, ValueError):
        print("resolution file lacks the provenance needed for the audit",
              file=sys.stderr)
        return 2
    bindings = {v: val for v, val in zip(spec_vars, b)}
    frame_positions = list(order_orig[: t + r])
    specialized = [g.eval_partial(bindings).reindex(frame_positions)
                   for g in problem.system]

    failures = []
    report = verify_resolution(parsed.parametric, specialized)
    for name, ok in report:
        print(f"parametric {name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"parametric {name}")
    proj_frame = tuple(range(t, t + len(parsed.projected)))
    report = verify_resolution(parsed.resolution,
                               (parsed.parametric, proj_frame, parsed.mu))
    for name, ok in report:
        print(f"projected {name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"projected {name}")
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("all identities pass")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "mv": cmd_mv,
        "transbasis": cmd_transbasis,
        "gamma": cmd_gamma,
        "solve0d": cmd_solve0d,
        "project": cmd_project,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except MATH_ERRORS as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

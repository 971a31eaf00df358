"""Output checks made apart from the program, with sympy.

Each checker returns a list of problems (empty when the outputs pass) for
the operations that did not fail.  ``mutate_text`` changes one coefficient in one
output; every run also checks that the checker rejects that mutant, so a
checker that has gone blind fails the run.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import cache

import sympy as sp

X = sp.symbols("X1:6")
T, Y, Z = sp.symbols("T Y Z")
_LOCALS = {f"X{i + 1}": x for i, x in enumerate(X)} | {"Y": Y}
# a coefficient digit run: not an exponent, not a denominator, not a variable index
_COEFF = re.compile(r"(?<![\^/\dX])\d+")


def parse_expr(text: str):
    return sp.sympify(text.replace("^", "**"), locals=_LOCALS)


def cleared(expr, var):
    """Numerator of expr made primitive as a polynomial in var: the content in
    the other variables, which clearing denominators can add, is removed."""
    return sp.Poly(sp.numer(sp.together(expr)), var).primitive()[1].as_expr()


def poly_from_support(pts, coeffs):
    return sum(c * sp.Mul(*(x ** k for x, k in zip(X, e))) for e, c in zip(pts, coeffs))


def mutate_text(text: str, prefix: str, sep: str = "") -> str:
    """Add one to the first coefficient after ``sep`` on the last line that
    starts with ``prefix``; a line without one gets a constant term of 1."""
    lines = text.split("\n")
    i = max(k for k, line in enumerate(lines) if line.startswith(prefix))
    line = lines[i]
    m = _COEFF.search(line, line.index(sep, len(prefix)) + len(sep) if sep else len(prefix))
    if m is None:
        lines[i] = line + "+1"
    else:
        lines[i] = line[:m.start()] + str(int(m.group()) + 1) + line[m.end():]
    return "\n".join(lines)


def _line(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"output lacks a line starting with {prefix!r}")


# -- fivevar ---------------------------------------------------------------------

_FIVEVAR_B = (1, 2, 3, 5)


@cache
def _fivevar_reference():
    """Resultants Res_X5(f1, f2) at X4 = b, and the expected numerator of q."""
    x1, x2, x3, x4, x5 = X
    f1 = 3 + 2 * x1 * x2 * x3 - x1**2 * x4**4 * x5**2 + 5 * x4**8 * x5**4
    f2 = 2 * x1 * x3 * x4 * x5**2 - 3 * x2 * x3**2 * x4**5 * x5**4 \
        + 7 * x1 * x2**3 * x4**5 * x5**4
    res = [sp.Poly(sp.resultant(f1.subs(x4, b), f2.subs(x4, b), x5), x1, x2, x3)
           for b in _FIVEVAR_B]
    g = res[0]
    for r in res[1:]:
        g = sp.gcd(g, r)
    # the non-toric root X5 = 0 contributes 2*X1*X2*X3 + 3 to every resultant
    quo, rem = sp.div(sp.sqf_part(g), sp.Poly(2 * x1 * x2 * x3 + 3, x1, x2, x3))
    if not rem.is_zero:
        raise ArithmeticError("2*X1*X2*X3 + 3 does not divide the resultant gcd")
    return res, quo.primitive()[1]


def check_fivevar(ops, outputs):
    text = outputs[0]
    problems = []
    if _line(text, "free variables:") != "X1 X2" or \
            _line(text, "separating form mu =") != "X3":
        return ["unexpected free variables or separating form"]
    x1, x2, x3 = X[:3]
    q = parse_expr(_line(text, "q(Y) ="))
    p = sp.Poly(cleared(q.subs(Y, x3), x3), x1, x2, x3).primitive()[1]
    resultants, expected = _fivevar_reference()
    for b, r in zip(_FIVEVAR_B, resultants):
        if not sp.div(r, p)[1].is_zero:
            problems.append(f"q(X3) does not divide Res_X5(f1, f2) at X4 = {b}")
    if p != expected and -p != expected:
        problems.append("q(X3) is not the squarefree resultant gcd less 2*X1*X2*X3 + 3")
    return problems


# -- bernstein -------------------------------------------------------------------


def check_bernstein(ops, outputs, mixed_volume):
    problems = []
    for k, (op, text) in enumerate(zip(ops, outputs)):
        if text is not None:
            problems += [f"system {k}: {p}"
                         for p in _guarded(check_system, op, text, mixed_volume)]
    return problems


def check_system(op, text, mixed_volume):
    """Bernstein's root count and the exact identities of one 0-dim solve."""
    problems = []
    q = sp.Poly(parse_expr(_line(text, "q(Y) =")), Y, domain="QQ")
    params = [sp.Poly(parse_expr(_line(text, f"X{i + 1} =")), Y, domain="QQ")
              for i in range(3)]
    lam = [int(c) for c in _line(text, "lambda").split()]
    mv = mixed_volume(op["supports"])
    if q.degree() != mv or int(_line(text, "deg")) != mv:
        problems.append(f"deg q = {q.degree()}, mixed volume {mv}")
    if q.LC() != 1 or sp.gcd(q, q.diff(Y)).degree() != 0:
        problems.append("q is not monic and squarefree")
    if (sum((c * v for c, v in zip(lam, params)), sp.Poly(0, Y, domain="QQ"))
            - sp.Poly(Y, Y, domain="QQ")).rem(q):
        problems.append("lambda(X(Y)) != Y mod q")
    powers = defaultdict(dict)
    for j, (pts, cs) in enumerate(zip(op["supports"], op["coeffs"])):
        acc = sp.Poly(0, Y, domain="QQ")
        for e, c in zip(pts, cs):
            term = sp.Poly(c, Y, domain="QQ")
            for i, d in enumerate(e):
                if d not in powers[i]:
                    powers[i][d] = (params[i] ** d).rem(q)
                term = (term * powers[i][d]).rem(q)
            acc += term
        if acc.rem(q):
            problems.append(f"f{j + 1}(X(Y)) != 0 mod q")
    return problems


# -- curves ------------------------------------------------------------------------


def _parse_resolution(text):
    """free/projected variables, mu, q(Y) and the params from a ResolutionFile."""
    out = {"q": 0, "v": defaultdict(lambda: 0)}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key in ("free", "projected"):
            out[key] = [X[int(v) - 1] for v in rest.split()]
        elif key == "mu":
            out["mu"] = [int(c) for c in rest.split()]
        elif key == "q":
            k, _, coeff = rest.partition(" : ")
            out["q"] += parse_expr(coeff) * Y ** int(k)
        elif key == "v":
            var, k, _, coeff = rest.split(" ", 3)
            out["v"][X[int(var) - 1]] += parse_expr(coeff) * Y ** int(k)
    return out


def check_curve(op, text):
    """The projection's closure from a lex Groebner basis of the toric ideal.

    With Z = mu . X_proj, the elements of the basis in the free variables and
    Z generate the elimination ideal of the image; the squarefree part of
    their gcd must equal the cleared q(Z) up to a constant.  Every basis
    element in the free and projected variables and Z must vanish at
    X_proj = v(Y), Z = Y modulo q(Y).  With t = 0 there are no free
    variables and the image is a finite set of points.
    """
    if "DENSE_IMAGE" in text:
        # t < l = 2 for a curve in three variables: its image is never dense
        return ["the projection is reported dense"]
    res = _parse_resolution(text)
    x1, x2, x3 = X[:3]
    f = [poly_from_support(pts, cs) for pts, cs in zip(op["supports"], op["coeffs"])]
    toric = [*f, T * x1 * x2 * x3 - 1]
    free, proj, mu = res["free"], res["projected"], res["mu"]
    elim = [x for x in (x1, x2, x3) if x not in free and x not in proj]
    z = sum(c * x for c, x in zip(mu, proj))
    basis = sp.groebner([*toric, Z - z], T, *elim, *proj, Z, *free, order="lex")
    image = [g for g in basis.exprs if g.free_symbols <= {Z, *free}]
    if not image:
        return ["no element of the elimination ideal in the free variables and Z"]
    gen = image[0]
    for g in image[1:]:
        gen = sp.gcd(gen, g)
    q = res["q"]
    ratio = sp.cancel(cleared(q.subs(Y, Z), Z) / cleared(sp.sqf_part(gen), Z))
    problems = []
    if ratio.free_symbols or ratio == 0:
        problems.append("q(Z) is not the generator of the elimination ideal")
    q_num = sp.Poly(sp.numer(sp.together(q)), Y)
    subs = {x: res["v"][x] for x in proj} | {Z: Y}
    for g in basis.exprs:
        if g.free_symbols <= {Z, *free, *proj}:
            value = sp.Poly(sp.numer(sp.together(g.subs(subs))), Y)
            if not value.is_zero and not sp.prem(value, q_num).is_zero:
                problems.append(f"basis element {g} does not vanish on the resolution")
                break
    return problems


def check_curves(ops, outputs):
    problems = []
    for k, (op, text) in enumerate(zip(ops, outputs)):
        if text is not None:
            problems += [f"curve {k}: {p}" for p in _guarded(check_curve, op, text)]
    return problems


def _guarded(checker, *args):
    """A checker's problems; an output it cannot read is one more problem."""
    try:
        return checker(*args)
    except Exception as exc:  # malformed output must fail the check, not the run
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# -- dispatch ------------------------------------------------------------------------

# (line prefix, separator) of the output line that gets one coefficient changed
MUTATION = {"fivevar": ("q(Y) = ",), "bernstein": ("X1 = ",), "curves": ("q ", " : ")}


def check(workload, ops, outputs, mixed_volume, mutant=True):
    """Problems of the outputs; with ``mutant``, also of a one-coefficient
    mutant of the first output, which the checker must reject."""
    def run(outs):
        if workload == "fivevar":
            return _guarded(check_fivevar, ops, outs)
        if workload == "bernstein":
            return check_bernstein(ops, outs, mixed_volume)
        return check_curves(ops, outs)

    problems = run(outputs)
    done = [k for k, text in enumerate(outputs) if text is not None]
    if mutant and done:
        mutated = [None] * len(outputs)
        mutated[done[0]] = mutate_text(outputs[done[0]], *MUTATION[workload])
        if not run(mutated):
            problems.append(f"the checker accepted a mutated output of operation {done[0]}")
    return problems

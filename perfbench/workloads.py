"""Workload inputs, made from the run's seed.

fivevar    the README's five-variable system, l = 3, through the CLI with the
           README/acceptance pins and a fixed seed; the run's seed is unused.
bernstein  square systems in three variables, solved as ``sparseproj solve0d``
           does.  Supports come from BERNSTEIN_SUPPORTS; the run's seed draws
           the coefficients and the seed of each solve.
curves     space curves (n = 3, r = 2) projected to (X1, X2) by q_projection.
           Supports come from CURVE_SUPPORTS; the run's seed draws the
           coefficients and the seed of each problem.

The support catalogues are fixed so that the work in a run does not depend
on the seed: at one support the solve time varies little with the
coefficients, while across supports of the same mixed volume it varies
several-fold.  ``python3 perfbench/workloads.py catalogue`` recomputes both
catalogues from their own seeds and prints them; ``python3
perfbench/workloads.py show WORKLOAD SEED ROUND`` prints the inputs of
one round of a run.
"""

from __future__ import annotations

import random
import sys

FIVEVAR_SYSTEM = """\
# f1 = 3 + 2*X1*X2*X3 - X1^2*X4^4*X5^2 + 5*X4^8*X5^4
# f2 = 2*X1*X3*X4*X5^2 - 3*X2*X3^2*X4^5*X5^4 + 7*X1*X2^3*X4^5*X5^4
system n=5 r=2 l=3
poly
0 0 0 0 0 : 3
1 1 1 0 0 : 2
2 0 0 4 2 : -1
0 0 0 8 4 : 5
poly
1 0 1 1 2 : 2
0 1 2 5 4 : -3
1 3 0 5 4 : 7
"""
FIVEVAR_PINS = ["--lambda", "X5=1", "--mu", "X3=1", "--b", "X4=1", "--seed", "42"]

BERNSTEIN_CATALOGUE_SEED = 1303
BERNSTEIN_TARGET_MV = (9, 11, 12, 13, 13, 14, 15, 17)
BERNSTEIN_COEFF = 50
# (supports of f1, f2, f3; mixed volume), from `workloads.py catalogue`
BERNSTEIN_SUPPORTS = [
    ([[(0, 0, 0), (2, 2, 0), (0, 1, 1)], [(0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 2, 0)], [(0, 0, 0), (1, 0, 0), (2, 2, 0)]], 9),
    ([[(0, 0, 0), (0, 2, 2), (1, 0, 0)], [(0, 0, 0), (0, 1, 2), (2, 1, 2)], [(0, 0, 0), (0, 2, 1), (0, 1, 2)]], 11),
    ([[(0, 0, 0), (0, 0, 2), (0, 1, 1)], [(0, 0, 0), (2, 0, 0), (2, 2, 0)], [(0, 0, 0), (0, 0, 2), (2, 2, 2), (0, 0, 1)]], 12),
    ([[(0, 0, 0), (1, 1, 2), (1, 1, 1)], [(0, 0, 0), (0, 0, 2), (1, 2, 2), (0, 2, 1)], [(0, 0, 0), (2, 1, 0), (0, 0, 2), (2, 1, 1)]], 13),
    ([[(0, 0, 0), (1, 2, 1), (1, 0, 2), (0, 2, 1)], [(0, 0, 0), (1, 1, 0), (1, 0, 0), (1, 2, 1)], [(0, 0, 0), (0, 0, 1), (2, 1, 1), (2, 0, 1)]], 13),
    ([[(0, 0, 0), (1, 1, 0), (0, 0, 2)], [(0, 0, 0), (2, 1, 0), (2, 2, 0)], [(0, 0, 0), (2, 2, 2), (0, 2, 0)]], 14),
    ([[(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 0, 1)], [(0, 0, 0), (0, 2, 0), (2, 1, 0)], [(0, 0, 0), (0, 2, 2), (1, 1, 2), (1, 0, 0)]], 15),
    ([[(0, 0, 0), (0, 1, 2), (0, 0, 1), (2, 1, 1)], [(0, 0, 0), (0, 2, 1), (1, 0, 2), (1, 0, 1)], [(0, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 2)]], 17),
]

CURVE_CATALOGUE_SEED = 266
CURVE_COUNT = 40
CURVE_MAX_FIBER_DEGREE = 2
CURVE_MAX_DEGREE_BOUND = 8
CURVE_COEFF = 9
# (supports of f1, f2; fiber degree), from `workloads.py catalogue`
CURVE_SUPPORTS = [
    ([[(0, 0, 0), (2, 1, 1), (0, 2, 1)], [(0, 0, 0), (2, 0, 0), (1, 0, 1)]], 2),
    ([[(0, 0, 0), (1, 0, 0), (1, 0, 2)], [(0, 0, 0), (0, 1, 0), (2, 0, 2)]], 2),
    ([[(0, 0, 0), (2, 1, 0), (1, 0, 0)], [(0, 0, 0), (2, 1, 2), (1, 0, 2)]], 2),
    ([[(0, 0, 0), (1, 1, 1), (2, 1, 0)], [(0, 0, 0), (1, 2, 0), (0, 1, 0)]], 2),
    ([[(0, 0, 0), (1, 0, 1), (1, 1, 0)], [(0, 0, 0), (2, 1, 0), (1, 2, 0)]], 2),
    ([[(0, 0, 0), (0, 1, 1), (0, 1, 0)], [(0, 0, 0), (1, 2, 0), (2, 2, 1)]], 2),
    ([[(0, 0, 0), (1, 2, 1), (1, 1, 0)], [(0, 0, 0), (1, 2, 1), (0, 2, 1)]], 1),
    ([[(0, 0, 0), (2, 2, 1), (0, 1, 1)], [(0, 0, 0), (1, 1, 0), (2, 1, 1)]], 2),
    ([[(0, 0, 0), (0, 0, 1), (1, 0, 0)], [(0, 0, 0), (1, 1, 1), (0, 2, 0)]], 2),
    ([[(0, 0, 0), (2, 0, 1), (2, 1, 1)], [(0, 0, 0), (1, 1, 0), (1, 2, 1)]], 2),
    ([[(0, 0, 0), (1, 0, 0), (1, 2, 2)], [(0, 0, 0), (1, 2, 1), (2, 1, 0)]], 2),
    ([[(0, 0, 0), (0, 2, 1), (1, 1, 0)], [(0, 0, 0), (1, 2, 0), (0, 2, 1)]], 2),
    ([[(0, 0, 0), (2, 0, 1), (2, 0, 2)], [(0, 0, 0), (2, 0, 0), (2, 1, 2)]], 2),
    ([[(0, 0, 0), (0, 0, 2), (1, 0, 1)], [(0, 0, 0), (0, 0, 2), (1, 1, 2)]], 2),
    ([[(0, 0, 0), (2, 0, 0), (0, 1, 2)], [(0, 0, 0), (0, 1, 0), (1, 1, 0)]], 2),
    ([[(0, 0, 0), (2, 1, 1), (2, 0, 0)], [(0, 0, 0), (1, 2, 1), (1, 2, 0)]], 2),
    ([[(0, 0, 0), (2, 1, 0), (1, 0, 0)], [(0, 0, 0), (0, 2, 0), (2, 1, 2)]], 2),
    ([[(0, 0, 0), (2, 0, 1), (2, 0, 0)], [(0, 0, 0), (2, 1, 2), (0, 0, 2)]], 1),
    ([[(0, 0, 0), (1, 0, 1), (2, 0, 0)], [(0, 0, 0), (0, 0, 1), (1, 2, 0)]], 2),
    ([[(0, 0, 0), (2, 1, 1), (1, 0, 1)], [(0, 0, 0), (0, 0, 1), (2, 0, 2)]], 2),
    ([[(0, 0, 0), (2, 2, 1), (2, 2, 2)], [(0, 0, 0), (1, 2, 2), (0, 1, 1)]], 2),
    ([[(0, 0, 0), (1, 0, 1), (2, 0, 1)], [(0, 0, 0), (2, 2, 1), (2, 0, 0)]], 2),
    ([[(0, 0, 0), (0, 1, 2), (1, 0, 0)], [(0, 0, 0), (2, 0, 0), (1, 0, 1)]], 1),
    ([[(0, 0, 0), (0, 2, 2), (1, 2, 2)], [(0, 0, 0), (2, 0, 1), (0, 0, 1)]], 2),
    ([[(0, 0, 0), (1, 1, 1), (2, 1, 1)], [(0, 0, 0), (1, 2, 1), (1, 1, 0)]], 1),
    ([[(0, 0, 0), (1, 0, 0), (0, 0, 2)], [(0, 0, 0), (2, 1, 2), (1, 1, 0)]], 2),
    ([[(0, 0, 0), (1, 1, 2), (2, 0, 2)], [(0, 0, 0), (1, 1, 1), (0, 0, 1)]], 2),
    ([[(0, 0, 0), (2, 1, 0), (1, 0, 0)], [(0, 0, 0), (0, 2, 0), (0, 0, 1)]], 1),
    ([[(0, 0, 0), (2, 1, 1), (1, 1, 1)], [(0, 0, 0), (2, 2, 1), (1, 1, 0)]], 1),
    ([[(0, 0, 0), (0, 2, 2), (1, 0, 1)], [(0, 0, 0), (0, 0, 1), (1, 0, 0)]], 2),
    ([[(0, 0, 0), (1, 2, 1), (1, 2, 0)], [(0, 0, 0), (2, 1, 0), (2, 2, 1)]], 2),
    ([[(0, 0, 0), (0, 1, 0), (0, 1, 2)], [(0, 0, 0), (2, 1, 2), (0, 1, 2)]], 2),
    ([[(0, 0, 0), (2, 0, 1), (1, 0, 1)], [(0, 0, 0), (2, 0, 0), (0, 2, 0)]], 2),
    ([[(0, 0, 0), (2, 1, 0), (2, 0, 0)], [(0, 0, 0), (1, 0, 2), (0, 1, 1)]], 2),
    ([[(0, 0, 0), (1, 1, 2), (0, 1, 1)], [(0, 0, 0), (1, 2, 2), (2, 2, 2)]], 2),
    ([[(0, 0, 0), (1, 1, 1), (0, 1, 0)], [(0, 0, 0), (2, 2, 1), (0, 2, 0)]], 2),
    ([[(0, 0, 0), (2, 2, 2), (1, 2, 0)], [(0, 0, 0), (0, 1, 0), (2, 1, 0)]], 2),
    ([[(0, 0, 0), (1, 0, 1), (1, 0, 2)], [(0, 0, 0), (2, 1, 2), (2, 0, 2)]], 2),
    ([[(0, 0, 0), (1, 1, 2), (1, 0, 0)], [(0, 0, 0), (1, 0, 2), (2, 1, 2)]], 2),
    ([[(0, 0, 0), (0, 1, 0), (2, 1, 1)], [(0, 0, 0), (1, 2, 0), (0, 1, 1)]], 2),
]


def _coeff(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _random_support(rng, nvars, monomials, max_exp):
    """Constant term plus ``monomials`` distinct non-constant monomials."""
    pts = [(0,) * nvars]
    while len(pts) < monomials + 1:
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if e not in pts:
            pts.append(e)
    return pts


def system_text(supports, coeffs) -> str:
    """SystemFile text of a square system; solve0d ignores l, the grammar
    needs 1 <= l < n."""
    n = len(supports[0][0])
    lines = [f"system n={n} r={len(supports)} l=1"]
    for pts, cs in zip(supports, coeffs):
        lines.append("poly")
        lines.extend(" ".join(map(str, e)) + f" : {c}" for e, c in zip(pts, cs))
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, round_index: int) -> list:
    """One round of the run's operations as JSON-ready dicts.

    Every round runs each catalogue entry once, with coefficients and seeds
    drawn afresh; equal arguments give equal inputs."""
    if workload == "fivevar":
        return [{"system": FIVEVAR_SYSTEM, "args": FIVEVAR_PINS}]
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    ops = []
    if workload == "bernstein":
        for supports, _ in BERNSTEIN_SUPPORTS:
            coeffs = [[_coeff(rng, BERNSTEIN_COEFF) for _ in pts] for pts in supports]
            ops.append({"system": system_text(supports, coeffs),
                        "args": ["--seed", str(rng.randrange(10**6))],
                        "supports": supports, "coeffs": coeffs})
    elif workload == "curves":
        for supports, _ in CURVE_SUPPORTS:
            coeffs = [[_coeff(rng, CURVE_COEFF) for _ in pts] for pts in supports]
            ops.append({"supports": supports, "coeffs": coeffs,
                        "seed": rng.randrange(10**6)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- catalogue construction (needs sparseproj on the path) ---------------------


def _mv(supports, extra_simplices=0):
    from sparseproj.polytope import Support, SupportFamily, mixed_volume

    n = len(supports[0][0])
    members = [Support(n, set(pts)) for pts in supports]
    return mixed_volume(SupportFamily(members + [Support.simplex(n)] * extra_simplices))


def bernstein_catalogue():
    """The first systems drawn with the catalogue seed whose mixed volumes
    fill BERNSTEIN_TARGET_MV, in its order."""
    rng = random.Random(BERNSTEIN_CATALOGUE_SEED)
    slots = [None] * len(BERNSTEIN_TARGET_MV)
    while None in slots:
        supports = [_random_support(rng, 3, rng.randint(2, 3), 2) for _ in range(3)]
        mv = _mv(supports)
        free = [i for i, (target, got) in enumerate(zip(BERNSTEIN_TARGET_MV, slots))
                if target == mv and got is None]
        if free:
            slots[free[0]] = supports
    return list(zip(slots, BERNSTEIN_TARGET_MV))


def _parallel(a, b) -> bool:
    """Whether exponent vectors a and b in three variables are parallel."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]) == (0, 0, 0)


def curve_catalogue():
    """First CURVE_COUNT small curves: at most CURVE_MAX_FIBER_DEGREE toric
    points over a generic X1 (the 2-D mixed volume in X2, X3), a lift
    degree bound MV(S1, S2, simplex) of at most CURVE_MAX_DEGREE_BOUND, and
    no polynomial in a single monomial m (two parallel exponents): such a
    polynomial, c0 + c1*m + c2*m^2 say, has a double root for some seeded
    coefficients, and the projection then fails on those seeds only."""
    rng = random.Random(CURVE_CATALOGUE_SEED)
    out = []
    while len(out) < CURVE_COUNT:
        supports = [_random_support(rng, 3, 2, 2) for _ in range(2)]
        if any(_parallel(pts[1], pts[2]) for pts in supports):
            continue
        fiber = _mv([[e[1:] for e in pts] for pts in supports])
        if 1 <= fiber <= CURVE_MAX_FIBER_DEGREE and \
                _mv(supports, 1) <= CURVE_MAX_DEGREE_BOUND:
            out.append((supports, fiber))
    return out


def main(argv):
    if argv[:1] == ["catalogue"]:
        print("BERNSTEIN_SUPPORTS = [")
        for supports, mv in bernstein_catalogue():
            print(f"    ({supports!r}, {mv}),")
        print("]")
        print("CURVE_SUPPORTS = [")
        for supports, fiber in curve_catalogue():
            print(f"    ({supports!r}, {fiber}),")
        print("]")
        return 0
    if len(argv) == 4 and argv[0] == "show":
        for op in make_inputs(argv[1], int(argv[2]), int(argv[3])):
            print(op.get("system") or op)
        return 0
    print("usage: workloads.py catalogue | show WORKLOAD SEED ROUND", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Buchberger's algorithm over Q with the sugar selection strategy.

Degree-compatible order (graded reverse lexicographic) throughout.  Basis
elements are kept monic; pairs are pruned by the product criterion and a
chain criterion.  This backs the zero-dimensional toric solver only, so
the workloads are small saturated systems.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .kernels import poly_addmul
from .mpoly import SparsePoly, grevlex_key
from .rat import RAT_ONE


class NotZeroDimensional(ArithmeticError):
    pass


def _lead(p: SparsePoly):
    return max(p.terms, key=grevlex_key)


def _monic(p: SparsePoly) -> SparsePoly:
    """Nonzero p divided by its leading coefficient."""
    c = p.terms[_lead(p)]
    return p if c == 1 else p.scale(RAT_ONE / c)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(p: SparsePoly, basis, leads=None) -> SparsePoly:
    """Full reduction of p modulo the (monic) basis; canonical remainder."""
    if leads is None:
        leads = [_lead(g) for g in basis]
    n = p.nvars
    rem = dict(p.terms)
    out = {}
    while rem:
        e = max(rem, key=grevlex_key)
        c = rem.pop(e)
        for le, g in zip(leads, basis):
            if _divides(le, e):
                shift = tuple(x - y for x, y in zip(e, le))
                shifted = {tuple(x + y for x, y in zip(eg, shift)): cg
                           for eg, cg in g.terms.items()}
                del shifted[e]
                poly_addmul(rem, -c, shifted)
                break
        else:
            out[e] = c
    return SparsePoly(n, out, _clean=True)


def buchberger(gens) -> list[SparsePoly]:
    """Reduced monic Groebner basis of the ideal generated by ``gens``."""
    basis: list[SparsePoly] = []
    sugars: list[int] = []
    for g in gens:
        if g:
            basis.append(_monic(g))
            sugars.append(g.total_degree())
    if not basis:
        return []
    leads = [_lead(g) for g in basis]

    pairs: list = []
    counter = 0

    def push_pair(i: int, j: int):
        nonlocal counter
        li, lj = leads[i], leads[j]
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        if all(a + b == m for a, b, m in zip(li, lj, lcm)):
            return  # product criterion: coprime leads reduce to zero
        sugar = max(sugars[i] + sum(lcm) - sum(li), sugars[j] + sum(lcm) - sum(lj))
        counter += 1
        heappush(pairs, (sugar, sum(lcm), counter, lcm, i, j))

    for i in range(len(basis)):
        for j in range(i):
            push_pair(j, i)

    done = set()
    while pairs:
        sugar, _, _, lcm, i, j = heappop(pairs)
        done.add((i, j))
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already handled makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        li, lj = leads[i], leads[j]
        si = tuple(m - a for m, a in zip(lcm, li))
        sj = tuple(m - a for m, a in zip(lcm, lj))
        sp = {}
        poly_addmul(sp, RAT_ONE, {tuple(x + y for x, y in zip(e, si)): c
                                  for e, c in basis[i].terms.items()})
        poly_addmul(sp, -RAT_ONE, {tuple(x + y for x, y in zip(e, sj)): c
                                   for e, c in basis[j].terms.items()})
        spoly = SparsePoly(basis[i].nvars, sp, _clean=True)
        rem = normal_form(spoly, basis, leads)
        if rem:
            basis.append(_monic(rem))
            sugars.append(sugar)
            leads.append(_lead(basis[-1]))
            for k in range(len(basis) - 1):
                push_pair(k, len(basis) - 1)

    return _interreduce(basis)


def _interreduce(basis) -> list[SparsePoly]:
    # minimal basis (no lead divides another), then tail-reduce each element
    basis = sorted(basis, key=lambda g: grevlex_key(_lead(g)))
    minimal = []
    for g in basis:
        lg = _lead(g)
        if any(_divides(_lead(h), lg) for h in minimal):
            continue
        minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        red = normal_form(g, others) if others else g
        out.append(_monic(red))
    return sorted(out, key=lambda g: grevlex_key(_lead(g)))


def quotient_basis(basis, nvars: int) -> list[tuple]:
    """Standard monomials below the staircase of a zero-dimensional ideal.

    Raises NotZeroDimensional when some variable has no pure power among the
    leading terms (infinite staircase).
    """
    leads = [_lead(g) for g in basis]
    if any(sum(le) == 0 for le in leads):
        return []  # ideal is (1)
    for v in range(nvars):
        if not any(le[v] > 0 and all(x == 0 for i, x in enumerate(le) if i != v)
                   for le in leads):
            raise NotZeroDimensional(f"no pure power of variable {v} in the lead ideal")
    out = []
    stack = [(0,) * nvars]
    seen = {(0,) * nvars}
    while stack:
        e = stack.pop()
        if any(_divides(le, e) for le in leads):
            continue
        out.append(e)
        for v in range(nvars):
            e2 = e[:v] + (e[v] + 1,) + e[v + 1:]
            if e2 not in seen:
                seen.add(e2)
                stack.append(e2)
    out.sort(key=grevlex_key)
    return out

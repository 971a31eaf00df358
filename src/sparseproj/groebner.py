"""Buchberger's algorithm over Q with the sugar selection strategy, run over Z.

Degree-compatible order (graded reverse lexicographic) throughout.  Inside,
a basis is an ``IntBasis``: primitive integer polynomials (dicts exponent ->
int) with positive leading coefficients.  One fraction-free reduction,
``_reduce``, serves the S-polynomials, the interreduction and
``normal_form``: a step rem <- (L/h)*rem - (c/h)*x^s*g, with L the
divisor's leading coefficient, c the coefficient of the term it removes and
h = gcd(L, c), does no rational arithmetic, and the next term comes from a
lazy max-heap on grevlex keys.  Pairs are chosen by sugar and pruned by the
product criterion and a chain criterion.  The result is the reduced monic
basis over Q, converted to Fraction once.  This backs the zero-dimensional
toric solver only, so the workloads are small saturated systems.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

from .mpoly import SparsePoly, grevlex_key
from .rat import RAT_ONE, Rat


class NotZeroDimensional(ArithmeticError):
    pass


def _lead(p: SparsePoly):
    return max(p.terms, key=grevlex_key)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _cleared(p: SparsePoly) -> tuple[dict, int]:
    """(P, d) with integer P and p = P/d, d the lcm of p's denominators."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in p.terms.items()}, d


class IntBasis:
    """Polynomials over Z as divisors of ``_reduce``.

    ``add`` stores each as a primitive polynomial with a positive leading
    coefficient: its leading exponent, that exponent's total degree, the
    leading coefficient, and the other terms.  ``IntBasis(basis)`` clears a
    basis over Q once, for a caller that takes many normal forms modulo it.
    """

    __slots__ = ("leads", "degs", "lcs", "tails")

    def __init__(self, basis=()):
        self.leads, self.degs, self.lcs, self.tails = [], [], [], []
        for g in basis:
            self.add(_cleared(g)[0])

    def __len__(self):
        return len(self.leads)

    def add(self, g: dict) -> None:
        """Append the nonzero integer polynomial g, made primitive."""
        lead = max(g, key=grevlex_key)
        content = gcd(*g.values())
        if g[lead] < 0:
            content = -content
        self.leads.append(lead)
        self.degs.append(sum(lead))
        self.lcs.append(g[lead] // content)
        self.tails.append([(e, c // content) for e, c in g.items() if e != lead])

    def poly(self, i: int) -> dict:
        g = dict(self.tails[i])
        g[self.leads[i]] = self.lcs[i]
        return g


def _reduce(rem: dict, divisors: IntBasis):
    """Full fraction-free reduction of the integer polynomial ``rem``, which
    it consumes.

    Returns (out, s): R = s*rem_in - (a combination of the divisors) is
    reduced, and ``out`` lists its terms from the largest down as
    (exponent, c, s_e): R's coefficient at the exponent is c * s / s_e.
    """
    leads, degs, lcs, tails = divisors.leads, divisors.degs, divisors.lcs, divisors.tails
    indices = range(len(leads))
    # (-degree, reversed exponent) pops the grevlex-largest exponent first
    heap = [(-sum(e), e[::-1], e) for e in rem]
    heapify(heap)
    out = []
    scale = 1
    while heap:
        neg_deg, _, e = heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue  # cancelled after it was pushed, or pushed twice
        deg = -neg_deg
        for i in indices:
            if degs[i] <= deg and all(map(le, leads[i], e)):
                break
        else:
            out.append((e, c, scale))
            continue
        h = gcd(lcs[i], c)
        m = lcs[i] // h
        if m != 1:
            rem = {t: v * m for t, v in rem.items()}
            scale *= m
        k = c // h
        shift = tuple(map(sub, e, leads[i]))
        get = rem.get
        for eg, cg in tails[i]:
            t = tuple(map(add, eg, shift))
            v = get(t)
            if v is None:
                rem[t] = -k * cg
                heappush(heap, (-sum(t), t[::-1], t))
            else:
                v -= k * cg
                if v:
                    rem[t] = v
                else:
                    del rem[t]
    return out, scale


def normal_form(p: SparsePoly, basis) -> SparsePoly:
    """Full reduction of p modulo a Groebner basis over Q; canonical remainder.

    ``basis`` is a list of SparsePoly or its ``IntBasis``.  With p = P/d and
    s*P reducing to R over Z, the result is R/(s*d), each coefficient
    normalised once.
    """
    if not isinstance(basis, IntBasis):
        basis = IntBasis(basis)
    if not p:
        return p
    rem, d = _cleared(p)
    out, _ = _reduce(rem, basis)
    return SparsePoly(p.nvars, {e: Rat(c, s * d) for e, c, s in out}, _clean=True)


def buchberger(gens) -> list[SparsePoly]:
    """Reduced monic Groebner basis of the ideal generated by ``gens``."""
    basis = IntBasis()
    sugars: list[int] = []
    for g in gens:
        if g:
            basis.add(_cleared(g)[0])
            sugars.append(g.total_degree())
    if not basis:
        return []
    leads, lcs, tails = basis.leads, basis.lcs, basis.tails

    pairs: list = []
    counter = 0

    def push_pair(i: int, j: int):
        nonlocal counter
        li, lj = leads[i], leads[j]
        lcm_ij = tuple(max(a, b) for a, b in zip(li, lj))
        if all(a + b == m for a, b, m in zip(li, lj, lcm_ij)):
            return  # product criterion: coprime leads reduce to zero
        sugar = max(sugars[i] + sum(lcm_ij) - sum(li), sugars[j] + sum(lcm_ij) - sum(lj))
        counter += 1
        heappush(pairs, (sugar, sum(lcm_ij), counter, lcm_ij, i, j))

    for i in range(len(basis)):
        for j in range(i):
            push_pair(j, i)

    done = set()
    while pairs:
        sugar, _, _, lcm_ij, i, j = heappop(pairs)
        done.add((i, j))
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already handled makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lcm_ij):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial (Lj/h)*x^si*gi - (Li/h)*x^sj*gj; the leads cancel
        h = gcd(lcs[i], lcs[j])
        sp: dict = {}
        for g, factor in ((i, lcs[j] // h), (j, -(lcs[i] // h))):
            shift = tuple(map(sub, lcm_ij, leads[g]))
            for e, c in tails[g]:
                t = tuple(map(add, e, shift))
                v = sp.get(t, 0) + factor * c
                if v:
                    sp[t] = v
                else:
                    del sp[t]
        out, scale = _reduce(sp, basis)
        if out:
            basis.add({e: c * (scale // s) for e, c, s in out})
            sugars.append(sugar)
            for k in range(len(basis) - 1):
                push_pair(k, len(basis) - 1)

    return _interreduce(basis)


def _interreduce(basis: IntBasis) -> list[SparsePoly]:
    # minimal basis (no lead divides another), then tail-reduce each element
    # modulo all of them: every multiple of a lead lies above it, so an
    # element never divides a term of its own tail
    leads = basis.leads
    minimal = []
    for i in sorted(range(len(basis)), key=lambda i: grevlex_key(leads[i])):
        if not any(_divides(leads[j], leads[i]) for j in minimal):
            minimal.append(i)
    divisors = IntBasis()
    for i in minimal:
        divisors.add(basis.poly(i))
    out = []
    for i in minimal:
        # reducing L*x^lead + tail scales the lead along with the tail, so a
        # remainder term c at scale s_e has the monic coefficient c/(s_e*L)
        tail, _ = _reduce(dict(basis.tails[i]), divisors)
        lc = basis.lcs[i]
        terms = {leads[i]: RAT_ONE}
        terms.update((e, Rat(c, s * lc)) for e, c, s in tail)
        out.append(SparsePoly(len(leads[i]), terms, _clean=True))
    return out


def quotient_basis(basis, nvars: int) -> list[tuple]:
    """Standard monomials below the staircase of a zero-dimensional ideal.

    Raises NotZeroDimensional when some variable has no pure power among the
    leading terms (infinite staircase).
    """
    leads = [_lead(g) for g in basis]
    if any(sum(lead) == 0 for lead in leads):
        return []  # ideal is (1)
    for v in range(nvars):
        if not any(lead[v] > 0 and all(x == 0 for i, x in enumerate(lead) if i != v)
                   for lead in leads):
            raise NotZeroDimensional(f"no pure power of variable {v} in the lead ideal")
    out = []
    stack = [(0,) * nvars]
    seen = {(0,) * nvars}
    while stack:
        e = stack.pop()
        if any(_divides(lead, e) for lead in leads):
            continue
        out.append(e)
        for v in range(nvars):
            e2 = e[:v] + (e[v] + 1,) + e[v + 1:]
            if e2 not in seen:
                seen.add(e2)
                stack.append(e2)
    out.sort(key=grevlex_key)
    return out

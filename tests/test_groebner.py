from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseproj.groebner import (
    IntBasis,
    NotZeroDimensional,
    buchberger,
    normal_form,
    quotient_basis,
)
from sparseproj.kernels import poly_addmul
from sparseproj.mpoly import SparsePoly, grevlex_key
from sparseproj.rat import RAT_ONE, rat


def P(nvars, terms):
    return SparsePoly(nvars, terms)


def test_buchberger_twisted_cubic_style():
    # x^2 - y, x^3 - z under grevlex
    f = P(3, {(2, 0, 0): -1, (0, 1, 0): 1})
    g = P(3, {(3, 0, 0): -1, (0, 0, 1): 1})
    basis = buchberger([f, g])
    # grevlex reduced basis: x^2-y, xy-z, y^2-xz (cross-checked independently)
    rendered = sorted(p.format() for p in basis)
    assert rendered == ["-X1*X3+X2^2", "X1*X2-X3", "X1^2-X2"]


def test_normal_form_is_canonical():
    f = P(2, {(2, 0): 1, (0, 1): -1})      # x^2 - y
    basis = buchberger([f])
    p = P(2, {(4, 0): 1})                  # x^4
    assert normal_form(p, basis) == P(2, {(0, 2): 1})
    # reduced to zero inside the ideal
    assert normal_form(f * f, basis).is_zero()


def test_quotient_basis_square():
    fs = [P(2, {(2, 0): 1, (0, 0): -1}), P(2, {(0, 2): 1, (0, 0): -2})]
    basis = buchberger(fs)
    std = quotient_basis(basis, 2)
    assert sorted(std) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_quotient_basis_positive_dimensional():
    basis = buchberger([P(2, {(1, 1): 1, (0, 0): -1})])
    with pytest.raises(NotZeroDimensional):
        quotient_basis(basis, 2)


def test_quotient_basis_unit_ideal():
    basis = buchberger([P(1, {(1,): 1}), P(1, {(1,): 1, (0,): 1})])
    assert quotient_basis(basis, 1) == []


def test_buchberger_membership_property(rng):
    from conftest import random_poly

    for _ in range(5):
        gens = [random_poly(rng, 2, max_terms=3, max_exp=2, bound=5)
                for _ in range(2)]
        basis = buchberger(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()
        # random combinations stay in the ideal
        h = gens[0] * random_poly(rng, 2, max_terms=2, max_exp=2, bound=5) \
            + gens[1] * random_poly(rng, 2, max_terms=2, max_exp=1, bound=5)
        assert normal_form(h, basis).is_zero()


# -- the Buchberger over Fraction that the integer one replaced, as an oracle ------


def _oracle_lead(p):
    return max(p.terms, key=grevlex_key)


def _oracle_monic(p):
    c = p.terms[_oracle_lead(p)]
    return p if c == 1 else p.scale(RAT_ONE / c)


def _oracle_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def oracle_normal_form(p, basis, leads=None):
    """Full reduction of p modulo the monic basis, every step over Fraction."""
    if leads is None:
        leads = [_oracle_lead(g) for g in basis]
    rem = dict(p.terms)
    out = {}
    while rem:
        e = max(rem, key=grevlex_key)
        c = rem.pop(e)
        for le, g in zip(leads, basis):
            if _oracle_divides(le, e):
                shift = tuple(x - y for x, y in zip(e, le))
                shifted = {tuple(x + y for x, y in zip(eg, shift)): cg
                           for eg, cg in g.terms.items()}
                del shifted[e]
                poly_addmul(rem, -c, shifted)
                break
        else:
            out[e] = c
    return SparsePoly(p.nvars, out, _clean=True)


def oracle_buchberger(gens):
    """Reduced monic basis by sugar order, product and chain criteria."""
    basis = []
    sugars = []
    for g in gens:
        if g:
            basis.append(_oracle_monic(g))
            sugars.append(g.total_degree())
    if not basis:
        return []
    leads = [_oracle_lead(g) for g in basis]

    pairs = []
    counter = 0

    def push_pair(i, j):
        nonlocal counter
        li, lj = leads[i], leads[j]
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        if all(a + b == m for a, b, m in zip(li, lj, lcm)):
            return
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
        if any(k not in (i, j) and _oracle_divides(leads[k], lcm)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        sp = {}
        for g, sign in ((i, RAT_ONE), (j, -RAT_ONE)):
            shift = tuple(m - a for m, a in zip(lcm, leads[g]))
            poly_addmul(sp, sign, {tuple(x + y for x, y in zip(e, shift)): c
                                   for e, c in basis[g].terms.items()})
        rem = oracle_normal_form(SparsePoly(basis[i].nvars, sp, _clean=True), basis, leads)
        if rem:
            basis.append(_oracle_monic(rem))
            sugars.append(sugar)
            leads.append(_oracle_lead(basis[-1]))
            for k in range(len(basis) - 1):
                push_pair(k, len(basis) - 1)

    minimal = []
    for g in sorted(basis, key=lambda g: grevlex_key(_oracle_lead(g))):
        if not any(_oracle_divides(_oracle_lead(h), _oracle_lead(g)) for h in minimal):
            minimal.append(g)
    out = [_oracle_monic(oracle_normal_form(g, minimal[:i] + minimal[i + 1:]))
           for i, g in enumerate(minimal)]
    return sorted(out, key=lambda g: grevlex_key(_oracle_lead(g)))


rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def systems(draw):
    """(nvars, generators, p): 1-3 generators in 2-4 variables and a p to reduce."""
    nvars = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    poly = st.lists(st.tuples(exps, rationals), min_size=1, max_size=3 if nvars < 4 else 2)
    gens = draw(st.lists(poly, min_size=1, max_size=3 if nvars < 4 else 2))
    p = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), rationals),
                      max_size=5))
    return nvars, gens, p


# the examples pin the unit ideal (2/3*X1, X1 + 1/2) and a curve, a
# positive-dimensional ideal (3/2*X1*X2 - 1/5)
@settings(max_examples=120, deadline=None)
@given(systems())
@example((2, [[((1, 0), Fraction(2, 3))], [((1, 0), Fraction(1)), ((0, 0), Fraction(1, 2))]],
          [((2, 1), Fraction(5, 7))]))
@example((2, [[((1, 1), Fraction(3, 2)), ((0, 0), Fraction(-1, 5))]],
          [((2, 3), Fraction(1, 3)), ((0, 1), Fraction(7, 4))]))
def test_integer_buchberger_matches_the_fraction_oracle(system):
    nvars, gens, p = system
    gens = [SparsePoly(nvars, dict(terms)) for terms in gens]
    p = SparsePoly(nvars, dict(p))
    basis = buchberger(gens)
    expected = oracle_buchberger(gens)
    assert [g.terms for g in basis] == [g.terms for g in expected]
    assert all(type(c) is Fraction for g in basis for c in g.terms.values())
    want = oracle_normal_form(p, expected)
    assert normal_form(p, basis) == want
    assert normal_form(p, IntBasis(basis)) == want

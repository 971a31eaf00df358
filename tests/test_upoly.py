import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packing_edge_series
from sparseproj.kernels import series_mulmod, series_rows
from sparseproj.mpoly import SparsePoly
from sparseproj.rat import rat
from sparseproj.ratfun import RatFun
from sparseproj.series import SeriesRing, TruncSeries
from sparseproj.upoly import (
    Residue,
    UniPoly,
    upoly_coprime,
    upoly_divrem,
    upoly_ext_inv,
    upoly_mod,
)


def U(*coeffs):
    return UniPoly([rat(c) if not isinstance(c, tuple) else rat(*c) for c in coeffs])


def test_divrem_factorization_identity():
    q, r = upoly_divrem(U(-1, 0, 1), U(-1, 1))          # (Y^2-1, Y-1)
    assert q == U(1, 1) and r.is_zero()


def test_divrem_degree_shortfall():
    q, r = upoly_divrem(U(0, 1), U(0, 0, 1))            # (Y, Y^2)
    assert q.is_zero() and r == U(0, 1)


def test_divrem_hand_long_division():
    # (Y^3, Y^2 - 12/5 Y - 1/5) -> quotient Y + 12/5, remainder 149/25 Y + 12/25
    q, r = upoly_divrem(U(0, 0, 0, 1), U((-1, 5), (-12, 5), 1))
    assert q == U((12, 5), 1)
    assert r == U((12, 25), (149, 25))


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        upoly_divrem(U(1), UniPoly.zero())


coeffs = st.lists(st.integers(-20, 20), min_size=0, max_size=6)


@settings(max_examples=120, deadline=None)
@given(coeffs, coeffs)
def test_divrem_reconstruction(a, b):
    pa = UniPoly([rat(c) for c in a])
    pb = UniPoly([rat(c) for c in b])
    if pb.is_zero():
        return
    q, r = upoly_divrem(pa, pb)
    assert q * pb + r == pa
    assert r.degree() < pb.degree()


# -- the coefficient loops and the integer kernel against a schoolbook oracle ---
#
# Over Q, products mod q go to ``kernels.series_mulmod`` through ``Residue``.
# The oracle below is the plain coefficient loop, generic over the domain: over
# Fraction it is the reference for ``UniPoly`` products and divisions, over
# RatFun the reference for the loop that such coefficients keep.


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def oracle_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def oracle_divrem(a, b):
    n = len(b) - 1
    if len(a) <= n:
        return [], _trim(a)
    rem = list(a)
    quo = [0] * (len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        f = rem[k + n] / b[-1]
        quo[k] = f
        for i, c in enumerate(b):
            rem[k + i] = rem[k + i] - f * c
    return _trim(quo), _trim(rem[:n])


BIG = 2 ** 200
scalars = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.integers(-BIG, BIG),
    st.integers(-3, 3),
    st.just(Fraction(0)),
)
polys = st.lists(scalars, min_size=0, max_size=9).map(_trim)
divisors = st.lists(scalars, min_size=1, max_size=6).map(_trim).filter(bool)


def coeffs_of(p: UniPoly):
    return list(p.coeffs)


def over_q(cs):
    # the oracle's division of two ints would give a float
    return [Fraction(c) for c in cs]


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_product_matches_schoolbook(a, b):
    assert coeffs_of(UniPoly(a) * UniPoly(b)) == oracle_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(polys, divisors, st.booleans())
def test_divrem_matches_schoolbook(a, b, monic):
    if monic:
        b = [Fraction(c) / b[-1] for c in b]
    quo, rem = upoly_divrem(UniPoly(a), UniPoly(b))
    want_q, want_r = oracle_divrem(over_q(a), over_q(b))
    assert coeffs_of(quo) == want_q and coeffs_of(rem) == want_r
    # an int leading coefficient divides as a rational, never as a float
    assert all(type(c) in (int, Fraction) for c in quo.coeffs + rem.coeffs)


def test_integer_path_edge_cases():
    # int coefficients, a non-monic divisor, zero operands, deg a < deg b
    a = UniPoly([3, 0, -7, 2, 5, 1])
    b = UniPoly([1, -2, 4])
    quo, rem = upoly_divrem(a, b)
    assert coeffs_of(quo) == oracle_divrem(over_q(a.coeffs), over_q(b.coeffs))[0]
    assert quo * b + rem == a and rem.degree() < b.degree()
    assert all(type(c) is Fraction for c in quo.coeffs + rem.coeffs)
    assert (a * UniPoly.zero()).is_zero() and (UniPoly.zero() * a).is_zero()
    quo, rem = upoly_divrem(UniPoly.zero(), b)
    assert quo.is_zero() and rem.is_zero()
    quo, rem = upoly_divrem(b, a)
    assert quo.is_zero() and rem is b
    # a dividend that is an exact multiple leaves no remainder
    quo, rem = upoly_divrem(a * b, b)
    assert quo == a and rem.is_zero()


@settings(max_examples=100, deadline=None)
@given(polys, divisors)
def test_ext_inv_over_q(a, q):
    if len(q) < 2:
        return
    pa, pq = UniPoly(a), UniPoly(q)
    try:
        inv = upoly_ext_inv(pa, pq)
    except ZeroDivisionError:
        # not invertible: a common factor of positive degree, or a = 0 mod q
        assert not upoly_coprime(upoly_divrem(pa, pq)[1], pq) \
            or upoly_divrem(pa, pq)[1].is_zero()
        return
    assert inv.degree() < pq.degree()
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert oracle_divrem(oracle_mul(over_q(a), list(inv.coeffs)), over_q(q))[1] == [1]


monic_divisors = divisors.map(lambda b: [Fraction(c) / b[-1] for c in b])


@settings(max_examples=200, deadline=None)
@given(polys, polys, monic_divisors, st.booleans())
def test_mulmod_over_q_matches_schoolbook(a, b, q, int_modulus):
    # the kernel at no variables and order 0 against the coefficient loop; a
    # q with integer coefficients may come as ints
    if int_modulus and all(c.denominator == 1 for c in q):
        q = [int(c) for c in q]
    pa, pb, pq = UniPoly(a), UniPoly(b), UniPoly(q)
    mod = Residue(pq)
    got = mod.mul(pa, pb)
    assert got == upoly_mod(pa * pb, pq)
    assert coeffs_of(got) == oracle_divrem(oracle_mul(over_q(a), over_q(b)), over_q(q))[1]
    assert all(type(c) is Fraction for c in got.coeffs)
    got = mod.reduce(pa * pb)
    assert got == upoly_mod(pa * pb, pq)
    assert mod.reduce(pa) == upoly_mod(pa, pq)


def test_mulmod_over_q_edge_cases():
    q = UniPoly([Fraction(-2, 3), 0, 5, 1])
    a = UniPoly([3, 0, Fraction(-7, 2), 2, 0, 1])     # deg a >= deg q, interior zeros
    b = UniPoly([2 ** 200, -1, 0, 0, Fraction(1, 2 ** 150)])
    mod = Residue(q)
    assert mod.mul(a, b) == upoly_mod(a * b, q)
    assert mod.reduce(a) == upoly_mod(a, q) and mod.reduce(a * b) == upoly_mod(a * b, q)
    # a multiple of q reduces to zero, and so does everything modulo q = 1
    assert mod.mul(a, b * q).is_zero() and mod.reduce(b * q).is_zero()
    one = Residue(UniPoly([1]))
    assert one.mul(a, b).is_zero() and one.reduce(a).is_zero()
    # deg q = 1: the residue of p is p(-q_0)
    lin, x = Residue(UniPoly([Fraction(1, 3), 1])), Fraction(-1, 3)
    assert lin.mul(a, b) == UniPoly([_at(a, x) * _at(b, x)])
    assert lin.reduce(a) == UniPoly([_at(a, x)])
    # zero operands
    assert mod.mul(a, UniPoly.zero()).is_zero() and mod.mul(UniPoly.zero(), b).is_zero()
    assert mod.reduce(UniPoly.zero()).is_zero()
    # a product of degree below deg q is the product itself
    c = UniPoly([Fraction(1, 3), 2])
    assert mod.mul(c, c) == c * c
    # a non-monic modulus raises at construction, and so does a zero one
    for lead in (2, Fraction(1, 2), -1):
        with pytest.raises(ValueError, match="monic"):
            Residue(UniPoly([1, 0, lead]))
    with pytest.raises(ZeroDivisionError):
        Residue(UniPoly.zero())


def _at(p: UniPoly, x):
    return sum(c * x ** k for k, c in enumerate(p.coeffs))


ratfuns = st.builds(
    lambda n, d: RatFun(SparsePoly(1, {(k,): c for k, c in enumerate(n)}),
                        SparsePoly(1, {(0,): 1, (1,): d})),
    st.lists(st.integers(-9, 9), min_size=0, max_size=3), st.integers(0, 5))


@settings(max_examples=40, deadline=None)
@given(st.lists(ratfuns, max_size=4).map(_trim),
       st.lists(ratfuns, min_size=1, max_size=3).map(_trim).filter(bool))
def test_ratfun_coefficients_keep_the_loop(a, b):
    # the loop gives what the schoolbook oracle gives over Q(X1), and the
    # residue ring of a q over Q(X1) runs it, not the integer kernel
    import sparseproj.upoly as upoly

    assert coeffs_of(UniPoly(a) * UniPoly(b)) == oracle_mul(a, b)
    quo, rem = upoly_divrem(UniPoly(a), UniPoly(b))
    want_q, want_r = oracle_divrem(a, b)
    assert coeffs_of(quo) == want_q and coeffs_of(rem) == want_r

    def refuse(*args):
        raise AssertionError("integer kernel called on RatFun coefficients")

    q = UniPoly(b).monic()
    saved = upoly.series_mulmod, upoly.series_rows
    upoly.series_mulmod = upoly.series_rows = refuse
    try:
        mod = Residue(q)
        got, reduced = mod.mul(UniPoly(a), UniPoly(b)), mod.reduce(UniPoly(a))
    finally:
        upoly.series_mulmod, upoly.series_rows = saved
    assert coeffs_of(got) == oracle_divrem(oracle_mul(a, b), list(q.coeffs))[1]
    assert coeffs_of(reduced) == oracle_divrem(a, list(q.coeffs))[1]


def test_monic_associate():
    # p/lc(p) over Q and over Q(X1); zero and monic p stay as they are
    p = U(2, 4, 6)
    assert p.monic() == U((1, 3), (2, 3), 1)
    assert p.monic().is_monic() and UniPoly.zero().monic().is_zero()
    m = U(5, 1)
    assert m.monic() is m
    x1 = RatFun.from_poly(SparsePoly(1, {(1,): 1}))
    f = UniPoly([RatFun.from_const(1, 1), x1])
    assert f.monic() == UniPoly([1 / x1, RatFun.from_const(1, 1)])


# -- products mod q over truncated series: the kernel against the loop -------------
#
# ``Residue`` over the series of one ring sends products and reductions to
# ``kernels.series_mulmod``; the reference is ``upoly_mod(a * b, q)``, the
# coefficient loops of ``UniPoly`` and ``upoly_divrem`` over TruncSeries.


def _random_series(rng, ring, den_bits):
    """About a third of the components empty, the rest with 1-3 terms whose
    denominators have up to ``den_bits`` bits."""
    t = ring.nvars
    comps = [{} for _ in range(ring.prec + 1)]
    for d in range(ring.prec + 1):
        if rng.random() < 0.3:
            continue
        for _ in range(rng.randint(1, 3)):
            cuts = sorted(rng.randint(0, d) for _ in range(t - 1))
            e = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, d]))
            comps[d][e] = rat(rng.choice((-1, 1)) * rng.randint(1, 9),
                              rng.randint(1, 2 ** den_bits))
    return TruncSeries(ring, comps, _clean=True)


def _random_upoly(rng, ring, degree, den_bits):
    """Degree ``degree``, about a fifth of the lower coefficients zero."""
    coeffs = [ring.zero() if k < degree and rng.random() < 0.2
              else _random_series(rng, ring, den_bits) for k in range(degree + 1)]
    while not coeffs[-1]:
        coeffs[-1] = _random_series(rng, ring, den_bits)
    return UniPoly(coeffs)


def _monic(rng, ring, degree, den_bits):
    return UniPoly([_random_series(rng, ring, den_bits) for _ in range(degree)]
                   + [ring.constant(1)])


@pytest.mark.parametrize("t", [1, 2, 3])
def test_series_mulmod_matches_the_loop(t):
    rng = random.Random(23 + t)
    # three variables cost the loop about three times as much per precision
    for kappa in range(10 if t < 3 else 4):
        ring = SeriesRing(tuple(range(t)), (rat(1, 2),) * t, kappa)
        for n in range(1, 6):
            den_bits = rng.choice((1, 8, 100))
            q = _monic(rng, ring, n, den_bits)
            mod = Residue(q)
            # from below deg q to past it, so that both operands may exceed deg q
            a = _random_upoly(rng, ring, rng.randint(0, n + 2), den_bits)
            b = _random_upoly(rng, ring, rng.randint(n, n + 2), den_bits)
            got = mod.mul(a, b)
            assert got == upoly_mod(a * b, q)
            assert got.degree() < n
            assert all(type(c) is TruncSeries and c.ring is ring for c in got.coeffs)
            assert all(x for c in got.coeffs for comp in c.comps for x in comp.values())
            assert mod.reduce(a * b) == got and mod.reduce(b) == upoly_mod(b, q)
            # a multiple of q leaves nothing
            assert mod.mul(a, b * q).is_zero()
    # the packing bound: coefficients with a coordinate equal to kappa, whose
    # products cross degree kappa in the convolution and in the reduction
    for kappa in range(1, 5):
        ring = SeriesRing(tuple(range(t)), (rat(1, 2),) * t, kappa)
        plus, minus = (TruncSeries(ring, packing_edge_series(t, kappa, sign))
                       for sign in (1, -1))
        q = UniPoly([plus, minus, ring.constant(1)])
        a = UniPoly([minus, plus, plus])
        b = UniPoly([plus, ring.zero(), minus, plus])
        assert Residue(q).mul(a, b) == upoly_mod(a * b, q)


def test_series_mulmod_edge_cases():
    ring = SeriesRing((0,), (0,), 4)
    z = ring.from_shifted_poly
    rng = random.Random(5)
    q = _monic(rng, ring, 2, 100)
    mod = Residue(q)
    # Z^2 * Z^3 is cut off at degree 4: a product that cancels by truncation
    a = UniPoly([z(SparsePoly(1, {(2,): 1}))])
    b = UniPoly([ring.zero(), z(SparsePoly(1, {(3,): rat(1, 7)}))])
    assert mod.mul(a, b).is_zero() and upoly_mod(a * b, q).is_zero()
    # zero operands; q = 1 leaves no remainder
    assert mod.mul(UniPoly.zero(), b).is_zero()
    assert mod.mul(a, UniPoly.zero()).is_zero()
    assert mod.reduce(UniPoly.zero()).is_zero()
    one = Residue(UniPoly([ring.constant(1)]))
    assert one.mul(q, q).is_zero() and one.reduce(q).is_zero()
    # deg q = 1
    lin = UniPoly([_random_series(rng, ring, 100), ring.constant(1)])
    c = _random_upoly(rng, ring, 3, 8)
    assert Residue(lin).mul(c, c) == upoly_mod(c * c, lin)
    assert Residue(lin).reduce(c) == upoly_mod(c, lin)
    # a product of degree below deg q is not reduced
    c = UniPoly([_random_series(rng, ring, 100)])
    assert mod.mul(c, c) == c * c
    # a non-monic q raises at construction, and so does a zero q
    for lead in (ring.constant(2), ring.constant(1) + z(SparsePoly(1, {(1,): 1}))):
        with pytest.raises(ValueError, match="monic"):
            Residue(UniPoly([ring.constant(1), lead]))
    with pytest.raises(ZeroDivisionError):
        Residue(UniPoly([ring.zero()]))


def test_modulus_rows_are_built_once(monkeypatch):
    # one conversion of q per Residue, then only the two operands per product
    import sparseproj.kernels as kernels
    import sparseproj.upoly as upoly

    ring = SeriesRing((0, 1), (rat(1, 2), rat(3)), 3)
    rng = random.Random(11)
    q = _monic(rng, ring, 3, 8)
    calls = []

    def counting(coeffs, kappa):
        calls.append(coeffs)
        return series_rows(coeffs, kappa)

    monkeypatch.setattr(kernels, "series_rows", counting)
    monkeypatch.setattr(upoly, "series_rows", counting)
    mod = Residue(q)
    products = 5
    for _ in range(products):
        mod.mul(_random_upoly(rng, ring, 4, 8), _random_upoly(rng, ring, 3, 8))
    assert len(calls) == 1 + 2 * products
    assert [c for c in calls if c[0] is q.coeffs[0].comps] == [calls[0]]


def test_other_domains_keep_the_loop(monkeypatch):
    # Q operands go to the kernel, and so do ints and Rats beside series,
    # which are constants of the series ring; RatFun operands run
    # upoly_mod(a * b, q), not the kernel, and series of two rings raise
    import sparseproj.upoly as upoly

    a, q = U(1, 2, 3), U((1, 3), 0, 1)
    r3, r4 = SeriesRing((0,), (0,), 3), SeriesRing((0,), (0,), 4)
    sq = UniPoly([r3.constant(2), r3.constant(1)])
    mixed = UniPoly([1, r3.constant(5)])
    calls = []
    monkeypatch.setattr(upoly, "series_mulmod",
                        lambda *args: calls.append(args) or series_mulmod(*args))
    assert Residue(q).mul(a, a) == upoly_mod(a * a, q)
    assert Residue(sq).mul(mixed, mixed) == upoly_mod(mixed * mixed, sq)
    assert Residue(sq).mul(UniPoly.const(2), UniPoly([rat(1, 2), 3])) \
        == upoly_mod(UniPoly([r3.constant(2)]) * UniPoly([r3.constant(rat(1, 2)),
                                                          r3.constant(3)]), sq)
    assert len(calls) == 3

    def refuse(*args):
        raise AssertionError("series kernel called outside Q and one series ring")

    monkeypatch.setattr(upoly, "series_mulmod", refuse)
    x1 = RatFun.from_poly(SparsePoly(1, {(1,): 1}))
    one = RatFun.from_const(1, 1)
    fa, fq = UniPoly([x1, one]), UniPoly([x1 * x1, x1, one])
    assert Residue(fq).mul(fa, fa) == upoly_mod(fa * fa, fq)
    with pytest.raises(ValueError, match="series ring mismatch"):
        Residue(sq).mul(UniPoly([r4.constant(3)]), sq)

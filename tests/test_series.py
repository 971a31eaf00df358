import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_fraction, packing_edge_series
from sparseproj.kernels import series_mul
from sparseproj.mpoly import SparsePoly
from sparseproj.rat import rat
from sparseproj.series import NonUnitSeries, SeriesRing, TruncSeries


def Z(ring, terms):
    return ring.from_shifted_poly(SparsePoly(ring.nvars, terms))


def test_mul_identity_and_truncation():
    r = SeriesRing((0,), (0,), 2)
    a = Z(r, {(0,): 3, (1,): 1, (2,): -2})
    assert a * r.constant(1) == a
    prod = (r.constant(1) + Z(r, {(1,): 1})) * (r.constant(1) - Z(r, {(1,): 1}))
    assert prod == Z(r, {(0,): 1, (2,): -1})


def test_bivariate_square():
    r = SeriesRing((0, 1), (0, 0), 2)
    s = r.constant(1) + Z(r, {(1, 0): 1, (0, 1): 1})
    assert (s * s) == Z(r, {(0, 0): 1, (1, 0): 2, (0, 1): 2,
                            (2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_ring_mismatch():
    r1 = SeriesRing((0,), (0,), 2)
    r2 = SeriesRing((0,), (1,), 2)
    with pytest.raises(ValueError):
        r1.constant(1) + r2.constant(1)


def test_inverse_geometric():
    r = SeriesRing((0,), (0,), 3)
    inv = (r.constant(1) - Z(r, {(1,): 1})).inverse()
    assert inv == Z(r, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    assert r.constant(2).inverse() == r.constant(rat(1, 2))


def test_inverse_bivariate():
    r = SeriesRing((0, 1), (0, 0), 2)
    s = r.constant(1) + Z(r, {(1, 0): 1, (0, 1): 1})
    inv = s.inverse()
    assert inv == Z(r, {(0, 0): 1, (1, 0): -1, (0, 1): -1,
                        (2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert inv * s == r.constant(1)


def test_non_unit():
    r = SeriesRing((0,), (0,), 2)
    with pytest.raises(NonUnitSeries):
        Z(r, {(1,): 1}).inverse()


def test_expand_around_shift():
    r = SeriesRing((0,), (1,), 3)
    # X^2 around 1: 1 + 2Z + Z^2
    s = r.expand_poly(SparsePoly(1, {(2,): 1}))
    assert s == Z(r, {(0,): 1, (1,): 2, (2,): 1})
    frac = expand_fraction(r, SparsePoly(1, {(0,): 1}), SparsePoly(1, {(1,): 1}))
    # 1/X around 1: 1 - Z + Z^2 - Z^3
    assert frac == Z(r, {(0,): 1, (1,): -1, (2,): 1, (3,): -1})


series_strat = st.builds(
    lambda terms: [(d, dict(t)) for d, t in terms],
    st.lists(st.tuples(st.integers(0, 4),
                       st.lists(st.tuples(st.integers(0, 4), st.integers(-9, 9)),
                                max_size=3)),
             max_size=4))


def _mk(ring, spec, skip_constant=False):
    comps = [{} for _ in range(ring.prec + 1)]
    for d, terms in spec:
        if d <= ring.prec and not (skip_constant and d == 0):
            for e1, c in terms.items():
                if c and e1 <= d:
                    comps[d][(e1, d - e1)] = rat(c)
    return TruncSeries(ring, comps, _clean=True)


@settings(max_examples=60, deadline=None)
@given(series_strat, series_strat)
def test_unit_inverse_roundtrip(sa, sb):
    ring = SeriesRing((0, 1), (0, 0), 4)
    a = _mk(ring, sa, skip_constant=True) + ring.constant(1)
    assert a.inverse() * a == ring.constant(1)
    b = _mk(ring, sb)
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


# -- the fraction-free convolution against the plain one ------------------------


def _plain_series_mul(ac, bc, kappa):
    """The reference: Rat products summed term by term, zeros dropped at the end."""
    out = [{} for _ in range(kappa + 1)]
    for i, ai in enumerate(ac[: kappa + 1]):
        for j, bj in enumerate(bc[: kappa + 1 - i]):
            for ea, ca in ai.items():
                for eb, cb in bj.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    out[i + j][e] = out[i + j].get(e, 0) + ca * cb
    return [{e: c for e, c in comp.items() if c} for comp in out]


def _homogeneous(rng, nvars, degree, terms, den):
    comp = {}
    for _ in range(terms):
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        e = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, degree]))
        comp[e] = rat(rng.choice((-1, 1)) * rng.randint(1, 9), den(rng))
    return comp


def _operand(rng, nvars, length, den):
    """Components 0..length-1, about a third of them empty."""
    return [{} if rng.random() < 0.3 else
            _homogeneous(rng, nvars, d, rng.randint(1, 3), den) for d in range(length)]


def _small_denominator(rng):
    return rng.randint(1, 5)


def _large_denominator(rng):
    # unrelated odd denominators of about 90 bits: an operand's lcm is near their product
    return rng.getrandbits(90) | 1


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_series_mul_matches_the_plain_convolution(nvars):
    rng = random.Random(nvars)
    for trial in range(80):
        kappa = rng.randint(0, 6)
        den = (_small_denominator, _large_denominator)[trial % 2]
        # lengths from 0 (no component at all) to kappa + 3 (beyond the truncation)
        a = _operand(rng, nvars, rng.randint(0, kappa + 3), den)
        b = _operand(rng, nvars, rng.randint(0, kappa + 3), den)
        if trial % 10 == 0:
            b = [{} for _ in b]
        got = series_mul(a, b, kappa)
        assert got == _plain_series_mul(a, b, kappa)
        assert len(got) == kappa + 1
        assert all(c for comp in got for c in comp.values())
    # the packing bound: Z_1^kappa reaches the output, and no product of
    # degree above kappa carries into the next variable's digit or the degree
    for kappa in range(1, 5):
        a = packing_edge_series(nvars, kappa)
        b = packing_edge_series(nvars, kappa, sign=-1)
        got = series_mul(a, b, kappa)
        assert got == _plain_series_mul(a, b, kappa)
        assert (kappa,) + (0,) * (nvars - 1) in got[kappa]


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("size", ["small", "large"])
def test_series_mul_stores_no_cancelled_term(nvars, size):
    # (p + q)(p - q) with p in degrees <= 1 and q in degree 3, truncated at 5:
    # the cross terms in degrees 3 and 4 cancel exactly and q^2 is cut off
    rng = random.Random(nvars)
    kappa = 5
    if size == "small":
        p = [{}, _homogeneous(rng, nvars, 1, 1, _large_denominator)]
        q = _homogeneous(rng, nvars, 3, 1, _large_denominator)
    else:
        p = [_homogeneous(rng, nvars, d, 3, _large_denominator) for d in (0, 1)]
        q = _homogeneous(rng, nvars, 3, 3, _large_denominator)
    plus = [*p, {}, q]
    minus = [*p, {}, {e: -c for e, c in q.items()}]
    got = series_mul(plus, minus, kappa)
    assert got[3] == got[4] == {}
    assert all(c for comp in got for c in comp.values())
    assert got == series_mul(p, p, kappa) == _plain_series_mul(p, p, kappa)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_inverse_of_a_unit_with_large_denominators(nvars):
    rng = random.Random(20 + nvars)
    ring = SeriesRing(tuple(range(nvars)), (0,) * nvars, 7)
    comps = _operand(rng, nvars, ring.prec + 1, _large_denominator)
    comps[0] = {(0,) * nvars: rat(rng.randint(1, 9), _large_denominator(rng))}
    a = TruncSeries(ring, comps, _clean=True)
    assert a * a.inverse() == ring.constant(1)

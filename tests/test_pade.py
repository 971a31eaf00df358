import pytest

from conftest import random_poly
from sparseproj.mpoly import SparsePoly
from sparseproj.pade import NoValidApproximant, pade, pade_multivariate, pade_univariate
from sparseproj.rat import rat
from sparseproj.ratfun import RatFun, ratfun_normalize
from sparseproj.series import SeriesRing


def test_geometric_series():
    d = 4
    r = SeriesRing((0,), (0,), 2 * d)
    ser = (r.constant(1) - r.from_shifted_poly(SparsePoly(1, {(1,): 1}))).inverse()
    got = pade_univariate(ser, d)
    assert got == ratfun_normalize(SparsePoly.const(1, 1),
                                   SparsePoly(1, {(0,): 1, (1,): -1}))


def test_polynomial_series_denominator_one():
    r = SeriesRing((0,), (2,), 8)
    p = SparsePoly(1, {(3,): 2, (0,): -5})
    got = pade_univariate(r.expand_poly(p), 4)
    assert got == RatFun.from_poly(p)


def test_lifted_coefficient_reconstruction():
    # the worked example's q1 series around 1 reconstructs its fraction at d=6
    num = SparsePoly(1, {(3,): -12, (2,): -6, (1,): 6})
    den = SparsePoly(1, {(2,): 4, (1,): 2, (0,): -1})
    r = SeriesRing((0,), (1,), 12)
    got = pade_univariate(r.expand_fraction(num, den), 6)
    assert got == ratfun_normalize(num, den)


def test_constant_series_multivariate():
    r = SeriesRing((0, 1), (1, 2), 4)
    got = pade_multivariate(r.constant(rat(7, 3)), 2)
    assert got == RatFun.from_const(2, rat(7, 3))


def test_multivariate_geometric():
    d = 3
    r = SeriesRing((0, 1), (0, 0), 2 * d)
    den = SparsePoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    ser = r.expand_poly(den).inverse()
    got = pade_multivariate(ser, d)
    assert got == ratfun_normalize(SparsePoly.const(2, 1), den)


def test_monomial_denominator():
    # -5/(2*X1*X2) around (1,1), as in the five-variable example's w3
    r = SeriesRing((0, 1), (1, 1), 8)
    num = SparsePoly.const(2, -5)
    den = SparsePoly(2, {(1, 1): 2})
    ser = r.expand_fraction(num, den)
    got = pade_multivariate(ser, 4)
    assert got == ratfun_normalize(num, den)
    assert got.format() == "(-5/2)/(X1*X2)"


def test_univariate_multivariate_agreement():
    num = SparsePoly(1, {(2,): 3, (0,): -1})
    den = SparsePoly(1, {(1,): 2, (0,): 1})
    r = SeriesRing((0,), (2,), 10)
    ser = r.expand_fraction(num, den)
    assert pade_univariate(ser, 5) == pade_multivariate(ser, 5)
    assert pade(ser, 5) == pade_univariate(ser, 5)


def test_no_valid_approximant():
    # 1 + Z^2 at d=1 is the classic singular Pade block: every admissible
    # denominator vanishes at the expansion point
    r = SeriesRing((0,), (0,), 2)
    ser = r.from_shifted_poly(SparsePoly(1, {(0,): 1, (2,): 1}))
    with pytest.raises(NoValidApproximant):
        pade_univariate(ser, 1)
    with pytest.raises(NoValidApproximant):
        pade_multivariate(ser, 1)


def test_terms_above_2d_check_the_approximant():
    # 1 + Z^3 at precision 3: the [1/1] approximant from 1, 0, 0 is 1, and
    # the degree-3 term, unused to find it, shows that it is wrong
    r = SeriesRing((0,), (0,), 3)
    ser = r.from_shifted_poly(SparsePoly(1, {(0,): 1, (3,): 1}))
    with pytest.raises(NoValidApproximant):
        pade_univariate(ser, 1)
    with pytest.raises(NoValidApproximant):
        pade_multivariate(ser, 1)
    # a true fraction passes with any precision above 2d
    num = SparsePoly(1, {(1,): 2, (0,): -1})
    den = SparsePoly(1, {(1,): 1, (0,): 3})
    ser = SeriesRing((0,), (2,), 7).expand_fraction(num, den)
    assert pade_univariate(ser, 2) == pade_multivariate(ser, 2) == ratfun_normalize(num, den)


def test_precision_precondition():
    r = SeriesRing((0,), (0,), 3)
    with pytest.raises(ValueError):
        pade_univariate(r.constant(1), 2)


def test_roundtrip_random(rng):
    # random fractions with nonvanishing denominator at the shift point
    done = 0
    while done < 25:
        t = rng.randint(1, 2)
        d = rng.randint(1, 4)
        num = random_poly(rng, t, max_terms=4, max_exp=d, bound=9)
        den = random_poly(rng, t, max_terms=3, max_exp=d, bound=9)
        if num.total_degree() > d or den.total_degree() > d:
            continue
        shift = tuple(rng.randint(1, 5) for _ in range(t))
        if not den.eval_all(shift):
            continue
        ring = SeriesRing(tuple(range(t)), shift, 2 * d)
        ser = ring.expand_fraction(num, den)
        got = pade(ser, d)
        assert got == ratfun_normalize(num, den)
        done += 1


def test_bad_nullspace_vector_is_no_valid_approximant(monkeypatch):
    # a denominator whose residual survives above degree d is a typed failure,
    # which the projection driver treats as "try the next precision"
    import sys

    pade_module = sys.modules["sparseproj.pade"]
    monkeypatch.setattr(pade_module, "nullspace",
                        lambda rows, ncols: [[1] + [0] * (ncols - 1)])
    r = SeriesRing((0, 1), (0, 0), 2)
    den = SparsePoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    ser = r.expand_poly(den).inverse()
    with pytest.raises(NoValidApproximant, match="residual"):
        pade_multivariate(ser, 1)

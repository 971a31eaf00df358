import pytest

from conftest import expand_fraction, random_poly
from sparseproj.mpoly import SparsePoly
from sparseproj.pade import NoValidApproximant, pade, shifted_to_ratfun
from sparseproj.rat import rat
from sparseproj.ratfun import RatFun, ratfun_normalize
from sparseproj.series import SeriesRing


def reconstruct(ser, d):
    """The canonical fraction of the Pade approximant, in the X variables."""
    return shifted_to_ratfun(*pade(ser, d), ser.ring.shift)


def test_geometric_series():
    d = 4
    r = SeriesRing((0,), (0,), 2 * d)
    ser = (r.constant(1) - r.from_shifted_poly(SparsePoly(1, {(1,): 1}))).inverse()
    got = reconstruct(ser, d)
    assert got == ratfun_normalize(SparsePoly.const(1, 1),
                                   SparsePoly(1, {(0,): 1, (1,): -1}))


def test_polynomial_series_denominator_one():
    r = SeriesRing((0,), (2,), 8)
    p = SparsePoly(1, {(3,): 2, (0,): -5})
    got = reconstruct(r.expand_poly(p), 4)
    assert got == RatFun.from_poly(p)


def test_lifted_coefficient_reconstruction():
    # the worked example's q1 series around 1 reconstructs its fraction at d=6
    num = SparsePoly(1, {(3,): -12, (2,): -6, (1,): 6})
    den = SparsePoly(1, {(2,): 4, (1,): 2, (0,): -1})
    r = SeriesRing((0,), (1,), 12)
    got = reconstruct(expand_fraction(r, num, den), 6)
    assert got == ratfun_normalize(num, den)


def test_constant_series_multivariate():
    r = SeriesRing((0, 1), (1, 2), 4)
    got = reconstruct(r.constant(rat(7, 3)), 2)
    assert got == RatFun.from_const(2, rat(7, 3))


def test_multivariate_geometric():
    d = 3
    r = SeriesRing((0, 1), (0, 0), 2 * d)
    den = SparsePoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    ser = r.expand_poly(den).inverse()
    got = reconstruct(ser, d)
    assert got == ratfun_normalize(SparsePoly.const(2, 1), den)


def test_monomial_denominator():
    # -5/(2*X1*X2) around (1,1), as in the five-variable example's w3
    r = SeriesRing((0, 1), (1, 1), 8)
    num = SparsePoly.const(2, -5)
    den = SparsePoly(2, {(1, 1): 2})
    ser = expand_fraction(r, num, den)
    got = reconstruct(ser, 4)
    assert got == ratfun_normalize(num, den)
    assert got.format() == "(-5/2)/(X1*X2)"


def test_univariate_multivariate_agreement():
    num = SparsePoly(1, {(2,): 3, (0,): -1})
    den = SparsePoly(1, {(1,): 2, (0,): 1})
    r = SeriesRing((0,), (2,), 10)
    ser = expand_fraction(r, num, den)
    assert reconstruct(ser, 5) == ratfun_normalize(num, den)
    # the same fraction in two variables, X2 absent, has the same denominator
    num2, den2 = (SparsePoly(2, {e + (0,): c for e, c in p.terms.items()}) for p in (num, den))
    ser2 = expand_fraction(SeriesRing((0, 1), (2, 1), 10), num2, den2)
    assert reconstruct(ser2, 5) == ratfun_normalize(num2, den2)
    den_z, den2_z = pade(ser, 5)[1], pade(ser2, 5)[1]
    assert den2_z.terms == {e + (0,): c for e, c in den_z.terms.items()}


def test_no_valid_approximant():
    # 1 + Z1^2 at d=1 is the classic singular Pade block: every admissible
    # denominator vanishes at the expansion point, in one variable or two
    for t in (1, 2):
        r = SeriesRing(tuple(range(t)), (0,) * t, 2)
        z1_squared = (2,) + (0,) * (t - 1)
        ser = r.from_shifted_poly(SparsePoly(t, {(0,) * t: 1, z1_squared: 1}))
        with pytest.raises(NoValidApproximant, match="within the degree bound"):
            pade(ser, 1)


def test_terms_above_2d_check_the_approximant():
    # 1 + Z1^3 at precision 3: the [1/1] approximant from 1, 0, 0 is 1, and
    # the degree-3 term, unused to find it, shows that it is wrong; a
    # denominator whose residual survives above degree d is a typed failure,
    # which the projection driver treats as "try the next precision"
    for t in (1, 2):
        r = SeriesRing(tuple(range(t)), (0,) * t, 3)
        z1_cubed = (3,) + (0,) * (t - 1)
        ser = r.from_shifted_poly(SparsePoly(t, {(0,) * t: 1, z1_cubed: 1}))
        with pytest.raises(NoValidApproximant, match="residual"):
            pade(ser, 1)
    # a true fraction passes with any precision above 2d
    num = SparsePoly(1, {(1,): 2, (0,): -1})
    den = SparsePoly(1, {(1,): 1, (0,): 3})
    ser = expand_fraction(SeriesRing((0,), (2,), 7), num, den)
    assert reconstruct(ser, 2) == ratfun_normalize(num, den)


def test_precision_precondition():
    r = SeriesRing((0,), (0,), 3)
    with pytest.raises(ValueError):
        reconstruct(r.constant(1), 2)


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
        ser = expand_fraction(ring, num, den)
        assert reconstruct(ser, d) == ratfun_normalize(num, den)
        done += 1

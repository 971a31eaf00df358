import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseproj.rat import rat
from sparseproj.upoly import UniPoly, upoly_divrem


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

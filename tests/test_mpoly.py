import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseproj.mpoly as mpoly
from sparseproj.mpoly import (
    NotDivisible,
    SparsePoly,
    format_poly,
    grlex_key,
    mpoly_gcd,
)
from sparseproj.rat import rat


def P(nvars, terms):
    return SparsePoly(nvars, terms)


def test_eval_partial_merges_terms():
    # X4 <- 1 collapses the two high-degree monomials onto X5 powers
    f1 = P(5, {(0, 0, 0, 0, 0): 3, (1, 1, 1, 0, 0): 2,
               (2, 0, 0, 4, 2): -1, (0, 0, 0, 8, 4): 5})
    out = f1.eval_partial({3: 1})
    assert out == P(5, {(0, 0, 0, 0, 0): 3, (1, 1, 1, 0, 0): 2,
                        (2, 0, 0, 0, 2): -1, (0, 0, 0, 0, 4): 5})


def test_eval_partial_constant_and_zero():
    c = P(2, {(0, 0): 7})
    assert c.eval_partial({0: 5}) == c
    xy = P(2, {(1, 1): 1})
    assert xy.eval_partial({0: 0}).is_zero()


def test_eval_partial_out_of_range():
    with pytest.raises(ValueError):
        P(1, {(1,): 1}).eval_partial({3: 1})


def test_reindex_rejects_live_variable():
    p = P(3, {(1, 0, 2): 1})
    with pytest.raises(ValueError):
        p.reindex([0, 1])
    assert p.reindex([0, 2]) == P(2, {(1, 2): 1})


def test_translate_is_the_taylor_shift():
    rng = random.Random(5)
    for _ in range(20):
        p = P(3, {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-9, 9)
                  for _ in range(4)})
        shift = tuple(rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        moved = p.translate(shift)
        assert moved.translate(tuple(-x for x in shift)) == p
        point = tuple(rat(rng.randint(-4, 4)) for _ in range(3))
        assert moved.eval_all(point) == p.eval_all([x + y for x, y in zip(point, shift)])
    with pytest.raises(ValueError, match="shift length"):
        P(2, {(1, 0): 1}).translate((1,))


def test_exact_div_and_failure():
    x, y = P(2, {(1, 0): 1}), P(2, {(0, 1): 1})
    prod = (x + y) * (x - y)
    assert prod.exact_div(x + y) == x - y
    with pytest.raises(NotDivisible):
        (x * x + 1).exact_div(x + y)


def test_gcd_examples():
    a = P(2, {(1, 1): 2, (2, 1): 2})
    b = P(2, {(1, 0): 4, (2, 0): 4})
    assert mpoly_gcd(a, b) == P(2, {(2, 0): 1, (1, 0): 1})
    # coprime
    assert mpoly_gcd(P(2, {(1, 0): 1}), P(2, {(0, 1): 1})).is_constant()
    # gcd with zero: primitive part
    assert mpoly_gcd(P(1, {(1,): -6, (0,): -6}), SparsePoly.zero(1)) == \
        P(1, {(1,): 1, (0,): 1})


def reference_gcd(a, b):
    """Euclid over Q on Fraction vectors (lowest degree first), made monic
    and then cleared to a content-1 integer vector."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    monic = [c / a[-1] for c in a]
    den = lcm(*(c.denominator for c in monic))
    ints = [int(c * den) for c in monic]
    g = gcd(*ints)
    return [c // g for c in ints]


def _vector_to_poly(vec, nvars, var):
    zero = (0,) * nvars
    return P(nvars, {zero[:var] + (k,) + zero[var + 1:]: c
                     for k, c in enumerate(vec) if c})


def _random_vector(rng, degree):
    vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
    if not vec[-1]:
        vec[-1] = Fraction(1)
    return vec


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("nvars,var", [(1, 0), (2, 1)])
def test_univariate_gcd_matches_euclid_over_q(nvars, var):
    rng = random.Random(1009 + var)
    for _ in range(150):
        f, g, h = (_random_vector(rng, rng.randint(0, 5)) for _ in range(3))
        shared = rng.random() < 0.7
        a = _mul(f, g) if shared else g
        b = _mul(f, h) if shared else h
        got = mpoly_gcd(_vector_to_poly(a, nvars, var), _vector_to_poly(b, nvars, var))
        assert got == _vector_to_poly(reference_gcd(a, b), nvars, var)


def test_gcd_with_a_constant_or_a_monomial():
    p = P(1, {(3,): 1, (2,): rat(-3, 2), (0,): 2})
    one = P(1, {(0,): 1})
    assert mpoly_gcd(P(1, {(0,): rat(3, 7)}), p) == one
    assert mpoly_gcd(p, P(1, {(0,): -4})) == one
    assert mpoly_gcd(P(1, {(2,): 5}), p) == one
    assert mpoly_gcd(P(1, {(2,): rat(5, 3)}), p * P(1, {(1,): 1})) == P(1, {(1,): 1})
    assert mpoly_gcd(P(1, {(2,): 5}), P(1, {(3,): 1, (2,): 1})) == P(1, {(2,): 1})


def test_gcd_with_an_unlucky_prime():
    prime = mpoly._PRIME
    # modulo the prime both are divisible by X, yet over Q the gcd is 1
    a = P(1, {(1,): 1, (0,): prime})
    b = P(1, {(2,): 1, (1,): 1, (0,): prime})
    assert mpoly_gcd(a, b) == P(1, {(0,): 1})
    # ... and a shared factor still comes out whole
    c = P(1, {(1,): 1, (0,): 3})
    assert mpoly_gcd(a * c, b * c) == c


def test_gcd_with_the_prime_dividing_a_leading_coefficient():
    prime = mpoly._PRIME
    a = P(1, {(2,): prime, (0,): 1})
    b = P(1, {(1,): 1, (0,): 1})
    assert mpoly_gcd(a, b) == P(1, {(0,): 1})
    c = P(1, {(1,): 2, (0,): -5})
    assert mpoly_gcd(a * c, b * c) == c


def test_gcd_sign_and_content():
    # -6*X*(X + 1) and 4*(X - 1)*(X + 1)/3: gcd X + 1, content 1, lead > 0
    a = P(1, {(2,): -6, (1,): -6})
    b = P(1, {(2,): rat(4, 3), (0,): rat(-4, 3)})
    g = mpoly_gcd(a, b)
    assert g == P(1, {(1,): 1, (0,): 1})
    assert mpoly_gcd(-a, -b) == g
    # a negative, non-monic shared factor: the gcd is its primitive part, lead > 0
    c = P(1, {(1,): rat(-4, 9), (0,): rat(2, 3)})
    assert mpoly_gcd(a * c, b * c) == P(1, {(2,): 2, (1,): -1, (0,): -3})


def test_bivariate_gcd_reaches_the_univariate_case(monkeypatch):
    # (2*X1^2 + 3)*(X2 + X1) and (2*X1^2 + 3)*(X2 - 3)*X1: the contents in X2
    # live in X1 alone, so their gcd takes the one-variable case
    calls = []
    dense_gcd = mpoly._dense_gcd

    def spy(a, b):
        calls.append((a, b))
        return dense_gcd(a, b)

    monkeypatch.setattr(mpoly, "_dense_gcd", spy)
    c = P(2, {(2, 0): 2, (0, 0): 3})
    a = c * P(2, {(0, 1): 1, (1, 0): 1})
    b = c * P(2, {(0, 1): 1, (0, 0): -3}) * P(2, {(1, 0): 1})
    assert mpoly_gcd(a, b) == c
    assert calls


def test_grlex_rendering():
    p = P(2, {(3, 0): -12, (2, 0): -6, (1, 0): 6})
    assert format_poly(p) == "-12*X1^3-6*X1^2+6*X1"
    q = P(2, {(0, 0): rat(1, 4), (1, 0): rat(-1, 2), (2, 0): -1})
    assert format_poly(q) == "-X1^2-1/2*X1+1/4"
    assert format_poly(SparsePoly.zero(2)) == "0"
    mixed = P(2, {(1, 1): 1, (0, 2): 1, (2, 0): 1})
    assert format_poly(mixed) == "X1^2+X1*X2+X2^2"


poly_strategy = st.builds(
    lambda terms: SparsePoly(2, {e: rat(c) for e, c in terms}),
    st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.integers(-30, 30)), min_size=0, max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy)
def test_gcd_divides_both(a, b):
    if not a and not b:
        return
    g = mpoly_gcd(a, b)
    if a:
        a.exact_div(g)
    if b:
        b.exact_div(g)


def test_lead_and_degree():
    p = P(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    e, c = p.lead(grlex_key)
    assert e == (1, 1, 0)  # graded-lex ties break toward X1
    assert p.total_degree() == 2
    assert p.degree_in(2) == 2

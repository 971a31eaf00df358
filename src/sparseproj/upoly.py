"""Dense univariate polynomials over an exact coefficient domain.

Coefficients are stored lowest degree first in a trimmed tuple; the zero
polynomial is the empty tuple.  The domain is duck-typed: Rat, RatFun and
TruncSeries all work, as do plain ints (which the domains absorb on contact).
``divrem`` divides by the leading coefficient, so over the truncated-series
ring it raises whenever that coefficient is not a unit.  The lift never
divides by a series: it reduces only modulo a monic q and refines
det(J)^(-1) by Newton steps.

Over Q (every coefficient an int or a Rat) divisions go to the integer
kernel ``kernels.dense_divrem``, with one gcd per output coefficient.
``upoly_mulmod`` is every product mod q of the pipeline: over Q, the series
ring in no variables at order 0, and over the truncated series of one ring
it goes to ``kernels.series_mulmod``, which reduces the integer product and
normalises only the remainder; otherwise it is ``upoly_mod(a * b, q)``.
"""

from __future__ import annotations

from .kernels import dense_divrem, series_mulmod
from .mpoly import SparsePoly, mpoly_gcd
from .rat import RAT_ONE, RAT_ZERO, Rat
from .series import TruncSeries


def _over_q(coeffs) -> bool:
    """Every coefficient an int or a Rat; stops at the first that is not."""
    for c in coeffs:
        if type(c) is not Rat and type(c) is not int:
            return False
    return True


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def y_power(cls, k: int, coeff=1) -> "UniPoly":
        return cls((0,) * k + (coeff,))

    # -- queries ---------------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self):
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        la, lb = len(self.coeffs), len(other.coeffs)
        out = [0] * max(la, lb)
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        if not c:
            return UniPoly(())
        return UniPoly(tuple(c * x for x in self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def map_coeffs(self, fn) -> "UniPoly":
        return UniPoly(tuple(fn(c) for c in self.coeffs))


def upoly_divrem(a: UniPoly, b: UniPoly):
    """Quotient and remainder with deg(rem) < deg(b).

    Divides by lc(b), unless b is monic; over a non-field coefficient domain
    this raises when that coefficient is not invertible.
    """
    if b.is_zero():
        raise ZeroDivisionError("zero divisor")
    da, db = a.degree(), b.degree()
    if da < db:
        return UniPoly(()), a
    if _over_q(a.coeffs) and _over_q(b.coeffs):
        quo, rem = dense_divrem(a.coeffs, b.coeffs)
        return UniPoly(quo), UniPoly(rem)
    rem = list(a.coeffs)
    lb = b.lc()
    monic = lb == 1
    bc = b.coeffs
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        top = rem[db + k]
        if not top:
            continue
        f = top if monic else top / lb
        q[k] = f
        for i in range(db):
            rem[i + k] = rem[i + k] - f * bc[i]
        rem[db + k] = 0
    return UniPoly(q), UniPoly(rem[:db])


def upoly_mod(a: UniPoly, b: UniPoly) -> UniPoly:
    return upoly_divrem(a, b)[1]


def upoly_mulmod(a: UniPoly, b: UniPoly, q: UniPoly) -> UniPoly:
    """a*b mod q.

    Over Q and over the truncated series of one ring, q must be monic and
    the kernel ``series_mulmod`` computes the product and its remainder on
    integers; a rational c is the series ``[{(): c}]`` in no variables at
    order 0.  Every other domain runs ``upoly_mod(a * b, q)``.
    """
    if q and all(_over_q(p.coeffs) for p in (q, a, b)):
        rem = series_mulmod(*[[[{(): c}] if c else [{}] for c in p.coeffs]
                              for p in (a, b, q)], 0)
        return UniPoly([comps[0].get((), RAT_ZERO) for comps in rem])
    ring = q.coeffs[-1].ring if q and type(q.coeffs[-1]) is TruncSeries else None
    if ring is None or not all(type(c) is TruncSeries and c.ring == ring
                               for p in (a, b, q) for c in p.coeffs):
        return upoly_mod(a * b, q)
    rem = series_mulmod([c.comps for c in a.coeffs], [c.comps for c in b.coeffs],
                        [c.comps for c in q.coeffs], ring.prec)
    return UniPoly([TruncSeries(ring, comps, _clean=True) for comps in rem])


def upoly_ext_inv(a: UniPoly, q: UniPoly) -> UniPoly:
    """Inverse of a modulo q via the extended Euclidean algorithm.

    Works over any domain whose division raises on non-units; raises
    ZeroDivisionError when a is not invertible mod q (non-unit gcd).
    """
    r0, r1 = q, upoly_mod(a, q)
    # a rational 1, so that a constant int ``a`` inverts to a Rat
    t0, t1 = UniPoly(()), UniPoly.const(RAT_ONE)
    while not r1.is_zero():
        quo, rem = upoly_divrem(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, t0 - quo * t1
    if r0.degree() != 0:
        raise ZeroDivisionError("not invertible modulo q")
    inv_lead = r0.coeffs[0]
    return upoly_mod(t0.map_coeffs(lambda c: c / inv_lead), q)


def upoly_coprime(a: UniPoly, b: UniPoly) -> bool:
    """gcd(a, b) = 1 for polynomials over Q, via ``mpoly_gcd``.

    The monic Euclidean algorithm over Q suffers severe coefficient growth
    on the minimal polynomials showing up here.  ``mpoly_gcd`` certifies
    most coprime pairs by one Euclidean algorithm modulo a prime, and runs
    the integer primitive PRS, whose content stripping keeps the integers
    bounded, only when that certificate fails.
    """
    def sparse(p: UniPoly) -> SparsePoly:
        return SparsePoly(1, {(k,): c for k, c in enumerate(p.coeffs) if c})

    return mpoly_gcd(sparse(a), sparse(b)).is_constant()


def upoly_is_squarefree(q: UniPoly) -> bool:
    """Squarefreeness over Q: gcd(q, q') = 1."""
    return q.degree() <= 0 or upoly_coprime(q, q.derivative())

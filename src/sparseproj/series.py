"""Truncated multivariate power series in homogeneous-component form.

A series lives in a SeriesRing fixing the free variables, the expansion
point xi, and the truncation order kappa; it stores one sparse exponent dict
per homogeneous degree 0..kappa in the shifted variables Z_i = X_i - xi_i.
Zero components are empty dicts, so the convolution kernels skip them -- the
Newton lifting relies on this: a series known to agree with a polynomial (or
to vanish below some degree) costs only its true support.  A product is
``kernels.series_mul``: each operand's terms as integer numerators over its
one denominator, one integer convolution that drops the terms above kappa,
and one normalisation per output coefficient; ``kernels.series_mulmod``
multiplies polynomials in Y over series, and over Q, the ring in no
variables at order 0, on the same integer rows.  A polynomial in the X
variables enters by one Taylor shift,
``SparsePoly.translate(xi)``, which writes it in the Z variables.

Inversion requires a unit (nonzero constant term) and runs the usual
quadratic Newton iteration; a non-unit raises NonUnitSeries.  The pipeline
itself divides no series: the lift inverts its Jacobian determinant over Q
at the fiber and refines that inverse by Newton steps modulo q.
"""

from __future__ import annotations

from .kernels import series_mul
from .mpoly import SparsePoly
from .rat import RAT_ONE, RAT_ZERO, Rat, rat


class NonUnitSeries(ZeroDivisionError):
    pass


class SeriesRing:
    __slots__ = ("vars", "shift", "prec")

    def __init__(self, variables, shift, prec: int):
        self.vars = tuple(variables)
        self.shift = tuple(rat(x) for x in shift)
        if len(self.vars) != len(self.shift):
            raise ValueError("shift length must match variable count")
        if prec < 0:
            raise ValueError("negative precision")
        self.prec = prec

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return (isinstance(other, SeriesRing) and self.vars == other.vars
                and self.shift == other.shift and self.prec == other.prec)

    def __hash__(self):
        return hash((self.vars, self.shift, self.prec))

    def __repr__(self):
        return f"SeriesRing(vars={self.vars}, shift={self.shift}, prec={self.prec})"

    def with_prec(self, prec: int) -> "SeriesRing":
        return SeriesRing(self.vars, self.shift, prec)

    # -- constructors ----------------------------------------------------------

    def zero(self) -> "TruncSeries":
        return TruncSeries(self, [{} for _ in range(self.prec + 1)], _clean=True)

    def constant(self, value) -> "TruncSeries":
        comps = [{} for _ in range(self.prec + 1)]
        value = rat(value)
        if value:
            comps[0][(0,) * self.nvars] = value
        return TruncSeries(self, comps, _clean=True)

    def from_shifted_poly(self, p: SparsePoly) -> "TruncSeries":
        """Inject a polynomial already written in the Z variables."""
        if p.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        comps = [{} for _ in range(self.prec + 1)]
        for e, c in p.terms.items():
            d = sum(e)
            if d <= self.prec:
                comps[d][e] = c
        return TruncSeries(self, comps, _clean=True)

    def expand_poly(self, p: SparsePoly) -> "TruncSeries":
        """Expand a polynomial in the X variables around the shift point."""
        return self.from_shifted_poly(p.translate(self.shift))


class TruncSeries:
    __slots__ = ("ring", "comps")

    def __init__(self, ring: SeriesRing, comps, *, _clean: bool = False):
        self.ring = ring
        if _clean:
            self.comps = comps
        else:
            fixed = [{} for _ in range(ring.prec + 1)]
            for d, comp in enumerate(comps[: ring.prec + 1]):
                for e, c in comp.items():
                    c = rat(c)
                    if c:
                        if sum(e) != d:
                            raise ValueError("component not homogeneous of its degree")
                        fixed[d][tuple(e)] = c
            self.comps = fixed

    # -- structure -----------------------------------------------------------

    @property
    def prec(self) -> int:
        return self.ring.prec

    def __bool__(self) -> bool:
        return any(self.comps)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.ring == other.ring and self.comps == other.comps
        if isinstance(other, (int, Rat)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(frozenset(c.items()) for c in self.comps)))

    def __repr__(self):
        return f"TruncSeries(prec={self.prec}, nonzero={[d for d, c in enumerate(self.comps) if c]})"

    def constant_term(self):
        return self.comps[0].get((0,) * self.ring.nvars, RAT_ZERO)

    def valuation(self) -> int:
        """Smallest degree with a nonzero component; prec+1 when zero."""
        for d, comp in enumerate(self.comps):
            if comp:
                return d
        return self.prec + 1

    def truncated(self, prec: int, ring: SeriesRing | None = None) -> "TruncSeries":
        if ring is None:
            ring = self.ring.with_prec(prec)
        comps = [dict(c) for c in self.comps[: prec + 1]]
        while len(comps) < prec + 1:
            comps.append({})
        return TruncSeries(ring, comps, _clean=True)

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            if other.ring != self.ring:
                raise ValueError("series ring mismatch")
            return other
        if isinstance(other, (int, Rat)):
            return self.ring.constant(other)
        raise TypeError(f"cannot coerce {type(other).__name__} into series")

    def __add__(self, other):
        o = self._coerce(other)
        comps = []
        for a, b in zip(self.comps, o.comps):
            merged = dict(a)
            for e, c in b.items():
                acc = merged.get(e, RAT_ZERO) + c
                if acc:
                    merged[e] = acc
                else:
                    merged.pop(e, None)
            comps.append(merged)
        return TruncSeries(self.ring, comps, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(
            self.ring, [{e: -c for e, c in comp.items()} for comp in self.comps],
            _clean=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            f = rat(other)
            if not f:
                return self.ring.zero()
            return TruncSeries(
                self.ring, [{e: c * f for e, c in comp.items()} for comp in self.comps],
                _clean=True)
        o = self._coerce(other)
        return TruncSeries(self.ring, series_mul(self.comps, o.comps, self.prec),
                           _clean=True)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        c0 = self.constant_term()
        if not c0:
            raise NonUnitSeries("non-unit series")
        inv = [{} for _ in range(self.prec + 1)]
        inv[0][(0,) * self.ring.nvars] = RAT_ONE / c0
        p = 0
        while p < self.prec:
            p = min(2 * p + 1, self.prec)
            # inv <- inv*(2 - a*inv) truncated at degree p
            prod = series_mul(self.comps[: p + 1], inv, p)
            two_minus = [{e: -c for e, c in comp.items()} for comp in prod]
            acc = two_minus[0].get((0,) * self.ring.nvars, RAT_ZERO) + 2
            if acc:
                two_minus[0][(0,) * self.ring.nvars] = acc
            else:
                two_minus[0].pop((0,) * self.ring.nvars, None)
            inv = series_mul(inv, two_minus, p)
        while len(inv) < self.prec + 1:
            inv.append({})
        return TruncSeries(self.ring, inv, _clean=True)

    def __truediv__(self, other):
        if isinstance(other, (int, Rat)):
            f = rat(other)
            if not f:
                raise ZeroDivisionError("division by zero scalar")
            return self * (RAT_ONE / f)
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

"""Rational-function reconstruction from truncated series.

Univariate series go through the classical extended-Euclidean (subresultant)
Pade scheme halted at the degree bound; multivariate series are solved as an
exact homogeneous linear system in the unknown denominator coefficients,
trying denominator total degrees 0, 1, ... so the returned approximant has
the minimal denominator degree.  Both return the fraction rewritten in the
original (un-shifted) variables in canonical form.  Both find the
denominator q from the terms through degree 2d only, and both take the
numerator from one series product q*s through the series precision, at least
2d: its terms above degree d must vanish, so the terms above 2d test the
approximant for free.  ``pade(..., shifted=True)`` stops before that
rewrite and returns the numerator and denominator in the shifted variables Z,
which is all a caller needs to evaluate the fraction at a point, and costs no
gcd.
"""

from __future__ import annotations

from .linalg import nullspace
from .mpoly import SparsePoly
from .rat import RAT_ONE, RAT_ZERO, rat
from .ratfun import RatFun, ratfun_normalize
from .series import TruncSeries
from .upoly import UniPoly, upoly_divrem


class NoValidApproximant(ArithmeticError):
    pass


def _unshift(p: SparsePoly, shift) -> SparsePoly:
    """Substitute Z_i = X_i - xi_i, returning a polynomial in the X variables."""
    n = p.nvars
    powers: dict[tuple[int, int], SparsePoly] = {}

    def var_power(i: int, k: int) -> SparsePoly:
        got = powers.get((i, k))
        if got is None:
            base = SparsePoly(n, {tuple(1 if j == i else 0 for j in range(n)): RAT_ONE,
                                  (0,) * n: -rat(shift[i])})
            got = base if k == 1 else var_power(i, k - 1) * base
            powers[(i, k)] = got
        return got

    out = SparsePoly.zero(n)
    for e, c in p.terms.items():
        term = SparsePoly.const(n, c)
        for i, k in enumerate(e):
            if k:
                term = term * var_power(i, k)
        out = out + term
    return out


def shifted_to_ratfun(num_z: SparsePoly, den_z: SparsePoly, shift) -> RatFun:
    """The canonical fraction num_z/den_z rewritten in the original variables."""
    return ratfun_normalize(_unshift(num_z, shift), _unshift(den_z, shift))


def pade_univariate(s: TruncSeries, degree_bound: int) -> RatFun:
    """Pade approximant of a 1-variable series, degrees bounded by d."""
    return shifted_to_ratfun(*_pade_univariate_z(s, degree_bound), s.shift)


def _pade_univariate_z(s: TruncSeries, degree_bound: int):
    d = int(degree_bound)
    if s.ring.nvars != 1:
        raise ValueError("univariate reconstruction needs a 1-variable series")
    if s.prec < 2 * d:
        raise ValueError(f"precision {s.prec} below 2*degree_bound {2 * d}")
    r0 = UniPoly.y_power(2 * d + 1, RAT_ONE)
    r1 = UniPoly([s.comps[k].get((k,), RAT_ZERO) for k in range(2 * d + 1)])
    t0, t1 = UniPoly.zero(), UniPoly.const(RAT_ONE)
    while r1.degree() > d:
        quo, rem = upoly_divrem(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, t0 - quo * t1
    num_z, den_z = r1, t1
    if den_z.is_zero() or not den_z[0]:
        raise NoValidApproximant("no valid approximant (denominator vanishes at the shift)")
    den_z = SparsePoly(1, {(k,): c for k, c in enumerate(den_z.coeffs)})
    return _residual_numerator(s, den_z, d), den_z


def _residual_numerator(s: TruncSeries, den_z: SparsePoly, d: int) -> SparsePoly:
    """The numerator den_z*s, which must have no term above degree d."""
    comps = (s.ring.from_shifted_poly(den_z) * s).comps
    if any(comps[d + 1:]):
        raise NoValidApproximant("residual does not vanish through the series precision")
    num: dict = {}
    for comp in comps[: d + 1]:
        num.update(comp)
    return SparsePoly(s.ring.nvars, num, _clean=True)


def _monomials(nvars: int, max_deg: int):
    """All exponent tuples with total degree <= max_deg, low degrees first."""
    if nvars == 0:
        return [()]
    out = []
    for rest in _monomials(nvars - 1, max_deg):
        for k in range(max_deg - sum(rest) + 1):
            out.append((k,) + rest)
    out.sort(key=lambda e: (sum(e), e))
    return out


def pade_multivariate(s: TruncSeries, degree_bound: int) -> RatFun:
    """Minimal-denominator rational reconstruction of a t-variable series."""
    return shifted_to_ratfun(*_pade_multivariate_z(s, degree_bound), s.shift)


def _pade_multivariate_z(s: TruncSeries, degree_bound: int):
    d = int(degree_bound)
    t = s.ring.nvars
    if s.prec < 2 * d:
        raise ValueError(f"precision {s.prec} below 2*degree_bound {2 * d}")
    sc: dict = {}
    for comp in s.comps[: 2 * d + 1]:
        sc.update(comp)
    targets = [e for e in _monomials(t, 2 * d) if d < sum(e)]
    const = (0,) * t
    for e_den in range(d + 1):
        unknowns = [e for e in _monomials(t, e_den)]
        rows = []
        for m in targets:
            row = []
            for u in unknowns:
                diff = tuple(a - b for a, b in zip(m, u))
                row.append(sc.get(diff, RAT_ZERO) if all(x >= 0 for x in diff) else RAT_ZERO)
            rows.append(row)
        const_idx = unknowns.index(const)
        for vec in nullspace(rows, len(unknowns)):
            if vec[const_idx]:
                den_terms = {u: rat(c) for u, c in zip(unknowns, vec) if c}
                den_z = SparsePoly(t, den_terms)
                return _residual_numerator(s, den_z, d), den_z
    raise NoValidApproximant("no valid approximant within the degree bound")


def pade(s: TruncSeries, degree_bound: int, *, shifted: bool = False):
    """Dispatch on the number of series variables.

    Returns the canonical RatFun in the original variables, or with
    ``shifted=True`` the pair (numerator, denominator) in the shifted
    variables, before unshifting and normalisation.
    """
    if s.ring.nvars == 1:
        num_z, den_z = _pade_univariate_z(s, degree_bound)
    else:
        num_z, den_z = _pade_multivariate_z(s, degree_bound)
    return (num_z, den_z) if shifted else shifted_to_ratfun(num_z, den_z, s.shift)

"""Rational-function reconstruction from truncated series.

For a degree bound d the denominator's unknown coefficients, one per
monomial of total degree <= d, must make the series product q*s vanish in
degrees d+1..2d.  Those conditions are one homogeneous linear system, whose
columns go one at a time, low degrees first, into ``linalg.KrylovEchelon``:
the first column that depends on the earlier ones with a nonzero constant
coefficient in its relation gives the denominator of minimal degree that
does not vanish at the expansion point.  In one variable that is the
classical Pade approximant (every solution is a polynomial multiple of it).
The numerator is the same product q*s through the series precision, at
least 2d: its terms above degree d must vanish, so the terms above 2d test
the approximant for free.  ``pade`` returns numerator and denominator in the
shifted variables Z, which is all a caller needs to evaluate the fraction at
a point, and costs no gcd; ``shifted_to_ratfun`` rewrites them in the
original variables in canonical form, by the Taylor shift
``SparsePoly.translate(-xi)``.
"""

from __future__ import annotations

from .linalg import KrylovEchelon
from .mpoly import SparsePoly
from .rat import RAT_ONE, RAT_ZERO, rat
from .ratfun import RatFun, ratfun_normalize
from .series import TruncSeries


class NoValidApproximant(ArithmeticError):
    pass


def shifted_to_ratfun(num_z: SparsePoly, den_z: SparsePoly, shift) -> RatFun:
    """The canonical fraction num_z/den_z rewritten in the original variables."""
    back = tuple(-rat(x) for x in shift)
    return ratfun_normalize(num_z.translate(back), den_z.translate(back))


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


def pade(s: TruncSeries, degree_bound: int):
    """Minimal-denominator Pade approximant of a t-variable series.

    Returns (numerator, denominator) in the shifted variables Z, before
    unshifting and normalisation (see ``shifted_to_ratfun``).  Raises
    NoValidApproximant when every admissible denominator vanishes at the
    shift or the numerator has terms above degree d.
    """
    d = int(degree_bound)
    t = s.ring.nvars
    if s.prec < 2 * d:
        raise ValueError(f"precision {s.prec} below 2*degree_bound {2 * d}")
    sc: dict = {}
    for comp in s.comps[: 2 * d + 1]:
        sc.update(comp)
    targets = [e for e in _monomials(t, 2 * d) if d < sum(e)]
    # one column per denominator monomial, constant first, so a relation's
    # first coefficient is the constant's; the first dependency in which it
    # is nonzero is the denominator of least degree that does not vanish at
    # the shift
    const = (0,) * t
    echelon = KrylovEchelon(RAT_ONE)
    kept = []
    for u in _monomials(t, d):
        column = []
        for m in targets:
            diff = tuple(a - b for a, b in zip(m, u))
            column.append(sc.get(diff, RAT_ZERO) if all(x >= 0 for x in diff) else RAT_ZERO)
        relation = echelon.add(column)
        if relation is None:
            kept.append(u)
        elif u == const or relation[0]:
            den_terms = {k: -c for k, c in zip(kept, relation) if c}
            den_terms[u] = RAT_ONE
            den_z = SparsePoly(t, den_terms)
            return _residual_numerator(s, den_z, d), den_z
    raise NoValidApproximant("no valid approximant within the degree bound")

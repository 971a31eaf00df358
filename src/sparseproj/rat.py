"""Exact rational scalars.

Every coefficient in this package is a ``fractions.Fraction``: an
arbitrary-precision rational in canonical form (coprime numerator and
denominator, positive denominator, zero stored as 0/1).  ``Rat`` names that
one type, and construction goes through :func:`rat`.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def rat(num, den=1):
    """Build a canonical rational from integers, a string, or another Rat."""
    if den == 1:
        if type(num) is Fraction:
            return num
        if isinstance(num, str):
            return Fraction(num)
    return Fraction(num, den)


def rat_from_str(text: str):
    """Parse ``p`` or ``p/q`` (optional sign, arbitrary precision)."""
    text = text.strip()
    if "/" in text:
        n, _, d = text.partition("/")
        num, den = int(n), int(d)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(num, den)
    return Fraction(int(text))


def rat_str(value) -> str:
    """Canonical text form: ``p`` for integers, ``p/q`` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

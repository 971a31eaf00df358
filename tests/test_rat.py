from fractions import Fraction

import pytest

from sparseproj.rat import Rat, rat, rat_from_str, rat_str


def test_canonical_form():
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rat(0, 5) == 0 and rat(0, 5).denominator == 1
    assert rat(8, 4).denominator == 1 and rat(1, 3).denominator == 3


def test_string_roundtrip():
    for text in ("0", "7", "-7", "2/3", "-12345678901234567890/7"):
        assert rat_str(rat_from_str(text)) == text
    with pytest.raises(ZeroDivisionError):
        rat_from_str("1/0")
    with pytest.raises(ValueError):
        rat_from_str("x")
    # decimals are not part of the grammar, though Fraction("1.5") parses
    with pytest.raises(ValueError):
        rat_from_str("1.5")


def test_arithmetic_exact():
    a = rat(1, 3)
    b = rat(1, 6)
    assert a + b == rat(1, 2)
    assert a * b == rat(1, 18)
    assert (a - a) == 0 and not (a - a)
    big = rat(10**40 + 1, 10**40)
    assert big - 1 == rat(1, 10**40)


def test_backend_reported():
    # one scalar type: the stdlib Fraction
    assert Rat is Fraction
    assert type(rat(1, 2)) is Fraction and type(rat("2/3")) is Fraction


def test_package_keeps_module_names():
    import sparseproj.pade as pade_module
    import sparseproj.rat as rat_module

    assert issubclass(pade_module.NoValidApproximant, ArithmeticError)
    assert rat_module.Rat is Fraction

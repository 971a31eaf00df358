import pytest

from sparseproj.rat import BACKEND, Rat, is_integer, rat, rat_from_str, rat_str


def test_canonical_form():
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rat(0, 5) == 0 and rat(0, 5).denominator == 1
    assert is_integer(rat(8, 4)) and not is_integer(rat(1, 3))


def test_string_roundtrip():
    for text in ("0", "7", "-7", "2/3", "-12345678901234567890/7"):
        assert rat_str(rat_from_str(text)) == text
    with pytest.raises(ZeroDivisionError):
        rat_from_str("1/0")
    with pytest.raises(ValueError):
        rat_from_str("x")


def test_arithmetic_exact():
    a = rat(1, 3)
    b = rat(1, 6)
    assert a + b == rat(1, 2)
    assert a * b == rat(1, 18)
    assert (a - a) == 0 and not (a - a)
    big = rat(10**40 + 1, 10**40)
    assert big - 1 == rat(1, 10**40)


def test_backend_reported():
    assert BACKEND in ("gmpy2", "fraction")
    assert isinstance(rat(1, 2), Rat)


def test_package_keeps_module_names():
    import sparseproj.pade as pade_module
    import sparseproj.rat as rat_module

    assert issubclass(pade_module.NoValidApproximant, ArithmeticError)
    assert rat_module.BACKEND in ("gmpy2", "fraction")

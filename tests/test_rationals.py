from fractions import Fraction

import pytest

from spinboson.rationals import ComplexRational


def test_inexact_numbers_are_rejected():
    for value in (0.1, 1.0, 0.5 + 0.5j):
        with pytest.raises(TypeError, match=r"Fraction\(\.\.\.\)"):
            ComplexRational.coerce(value)
    with pytest.raises(TypeError, match="Fraction"):
        ComplexRational(0.1)
    with pytest.raises(TypeError, match="Fraction"):
        ComplexRational(1, 0.5)
    # the explicit conversion keeps working
    assert ComplexRational(Fraction(0.1)).re == Fraction(3602879701896397, 2**55)
    assert ComplexRational(Fraction("0.1")).re == Fraction(1, 10)

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinboson.moments import (
    complex_gaussian_expectation,
    gaussian_expectation,
    limit_moment,
)
from spinboson.thermal import ground_position_expectation


def test_limit_moment_values():
    assert limit_moment(0) == 1
    assert limit_moment(1) == Fraction(1, 4)
    assert limit_moment(2) == Fraction(3, 16)
    assert limit_moment(3) == Fraction(15, 64)
    # 10! / (2^15 * 5!) = 9!! / 4^5
    assert limit_moment(5) == Fraction(945, 1024)


@given(st.integers(min_value=0, max_value=12))
def test_limit_moment_matches_double_factorial(ell):
    # cross-check: Gaussian moments (2l-1)!! * (1/4)^l
    dfac = math.prod(range(2 * ell - 1, 0, -2)) if ell else 1
    assert limit_moment(ell) == dfac * Fraction(1, 4) ** ell


def _characteristic_function(t):
    """exp(-t^2 / 8), the characteristic function of the sigma = 1/2 law."""
    return math.exp(-t * t / 8.0)


def test_characteristic_function_matches_moment_series():
    # partial sums of sum (it)^{2n} <eta^{2n}> / (2n)! converge to exp(-t^2/8)
    for t in (0.5, 1.0, 2.0):
        total = 0.0
        for n in range(0, 40):
            total += (-1) ** n * t ** (2 * n) * float(limit_moment(n)) / math.factorial(2 * n)
        assert total == pytest.approx(_characteristic_function(t), abs=1e-10)


def test_characteristic_function_derivatives_give_moments():
    # 2n-th derivative at 0 via a rich central finite-difference stencil
    import numpy as np

    h = 0.05
    for n in range(1, 4):
        order = 2 * n
        offsets = np.arange(-order // 2 - 2, order // 2 + 3)
        a = np.vander(offsets * h, increasing=True).T
        rhs = np.zeros(len(offsets))
        rhs[order] = math.factorial(order)
        weights = np.linalg.solve(a, rhs)
        deriv = sum(
            w * _characteristic_function(o * h) for w, o in zip(weights, offsets)
        )
        assert deriv == pytest.approx(
            (-1) ** n * float(limit_moment(n)), abs=1e-6
        )


def test_gaussian_expectation_polynomials_exact():
    assert gaussian_expectation([1]) == 1
    assert gaussian_expectation([0, 0, 1]) == Fraction(1, 4)
    assert gaussian_expectation([0, 0, 0, 0, 1]) == Fraction(3, 16)
    # odd powers vanish identically
    assert gaussian_expectation([0, 1, 0, 5]) == 0


def test_gaussian_expectation_refuses_float_coefficients():
    with pytest.raises(TypeError):  # 0.5 is a binary64, not an exact 1/2
        gaussian_expectation([0, 0, 0.5])


def test_complex_gaussian_monomials():
    assert complex_gaussian_expectation({(0, 0): 1}) == 1
    assert complex_gaussian_expectation({(1, 1): 1}).re == Fraction(1, 2)
    assert complex_gaussian_expectation({(5, 5): 32}).re == 120
    # phase integral kills off-diagonal monomials exactly
    assert complex_gaussian_expectation({(2, 1): 7}) == 0
    assert complex_gaussian_expectation({(0, 3): 1}) == 0


@pytest.mark.parametrize("expect, f", [
    (gaussian_expectation, lambda eta: eta**4),
    (complex_gaussian_expectation, lambda zs, z: 1.0),
    (ground_position_expectation, lambda x: x**2),
], ids=["gaussian", "complex_gaussian", "ground_position"])
def test_callable_is_refused(expect, f):
    # expectations are exact polynomial moments; nothing integrates a callable
    with pytest.raises(TypeError, match="callable"):
        expect(f)

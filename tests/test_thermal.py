import math
import random
from fractions import Fraction

import pytest

from spinboson.boson import NormalForm
from spinboson.moments import complex_gaussian_expectation
from spinboson.rationals import ComplexRational
from spinboson.thermal import (
    THEOREM_STATE,
    ThermalState,
    density_diagonal,
    ground_position_expectation,
    partition_normalization_squared,
    polylog_negative,
    thermal_expect,
    thermal_expect_weighted,
)


def test_state_validation():
    with pytest.raises(ValueError):
        ThermalState(Fraction(0))
    with pytest.raises(ValueError):
        ThermalState(Fraction(1))
    with pytest.raises(ValueError):
        ThermalState(Fraction(3, 2))


@pytest.mark.parametrize("call", [
    lambda: ThermalState(0.3),
    lambda: thermal_expect_weighted(THEOREM_STATE, 0.5, NormalForm({(1, 1): 1})),
    lambda: polylog_negative(2, 0.5),
    lambda: density_diagonal(THEOREM_STATE, 2.0),
    lambda: ground_position_expectation([0, 0, 0.5]),
], ids=["ThermalState", "thermal_expect_weighted", "polylog_negative",
        "density_diagonal", "ground_position_expectation"])
def test_float_inputs_are_refused(call):
    # a binary64 value is not silently taken for the rational it rounds to
    with pytest.raises(TypeError):
        call()


def test_theorem_state_basics():
    assert THEOREM_STATE.x == Fraction(1, 3)
    assert THEOREM_STATE.mean_occupation == Fraction(1, 2)
    # Z = sum_n x^{n + 1/2} = sqrt(3)/2 at x = 1/3
    assert partition_normalization_squared(THEOREM_STATE) == Fraction(3, 4)


def test_density_diagonal_values():
    for n in range(21):
        assert density_diagonal(THEOREM_STATE, n) == Fraction(2, 3 ** (n + 1))
    assert sum(density_diagonal(THEOREM_STATE, n) for n in range(200)) < 1
    with pytest.raises(ValueError):
        density_diagonal(THEOREM_STATE, -1)


def test_polylog_exact_values():
    x = Fraction(1, 3)
    assert polylog_negative(0, x) == Fraction(1, 2)
    assert polylog_negative(1, x) == Fraction(3, 4)
    # Li_{-2}(x) = x(1+x)/(1-x)^3
    assert polylog_negative(2, x) == x * (1 + x) / (1 - x) ** 3


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)])
def test_polylog_against_series(k, x):
    series = sum(float(x) ** n * n**k for n in range(1, 400))
    assert float(polylog_negative(k, x)) == pytest.approx(series, abs=1e-12)


def test_thermal_expect_examples():
    # <a+ a> = nbar = 1/2 and the theorem's flagship value
    assert thermal_expect(THEOREM_STATE, NormalForm({(1, 1): 1})).re == Fraction(1, 2)
    assert thermal_expect(THEOREM_STATE, NormalForm({(5, 5): 32})).re == 120
    # off-diagonal terms average to zero
    assert thermal_expect(THEOREM_STATE, NormalForm({(2, 1): 9})) == ComplexRational(0)


@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)])
@pytest.mark.parametrize("n", range(7))
def test_factorial_moment_law(x, n):
    # tr(rho a+^n a^n) = n! * nbar^n, cross-checked by direct summation
    state = ThermalState(x)
    exact = thermal_expect(state, NormalForm({(n, n): 1})).re
    assert exact == math.factorial(n) * state.mean_occupation**n
    series = sum(
        float(density_diagonal(state, lvl))
        * math.prod(range(lvl, lvl - n, -1))
        for lvl in range(400)
    )
    assert float(exact) == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
def test_weighted_expectation_matches_direct_sum(base):
    state = THEOREM_STATE
    form = NormalForm({(0, 0): 2, (1, 1): Fraction(-1, 3), (3, 3): 1, (2, 0): 7})
    exact = thermal_expect_weighted(state, base, form).re
    series = 0.0
    for lvl in range(600):
        weight = float(density_diagonal(state, lvl)) * float(base) ** lvl
        series += weight * float(form.diagonal_element(lvl).re)
    assert float(exact) == pytest.approx(series, rel=1e-12)


def test_weighted_expectation_divergence():
    with pytest.raises(ValueError):
        thermal_expect_weighted(THEOREM_STATE, Fraction(3), NormalForm({(0, 0): 1}))
    with pytest.raises(ValueError):
        thermal_expect_weighted(THEOREM_STATE, Fraction(-1), NormalForm({(0, 0): 1}))


def test_thermal_matches_complex_gaussian():
    # the theorem state reproduces the complex Gaussian monomial rule
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(0, 5)
        coeff = ComplexRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        # match via z ~ a/sqrt(2) scaling: <z*^m z^m> = m!/2^m while
        # <a+^m a^m> = m! (1/2)^m, identical at nbar = 1/2
        thermal = thermal_expect(THEOREM_STATE, NormalForm({(m, m): coeff}))
        gauss = complex_gaussian_expectation({(m, m): coeff})
        assert thermal == gauss


def test_ground_oscillator():
    # position spread 1/2: <x^2> = 1/4, <x^4> = 3/16
    assert ground_position_expectation([0, 0, 1]) == Fraction(1, 4)
    assert ground_position_expectation([0, 0, 0, 0, 1]) == Fraction(3, 16)

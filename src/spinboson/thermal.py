"""Exact expectations in a single-mode thermal (geometric) state.

Only the dimensionless ratio hbar*omega / kT enters any trace, so a state is
parameterized by the exact Boltzmann ratio x = exp(-hbar*omega / kT) alone.
The state matched to the infinite-temperature spin limit has x = 1/3.
Closed forms (factorial moments, negative-order polylogarithms) are the
primary computation path; truncated series appear only in the tests as
independent oracles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import moments
from .boson import NormalForm
from .rationals import ComplexRational, _as_fraction


@dataclass(frozen=True)
class ThermalState:
    """Geometric state with populations p_n = (1 - x) x^n, 0 < x < 1."""

    x: Fraction

    def __post_init__(self):
        x = _as_fraction(self.x)
        object.__setattr__(self, "x", x)
        if not 0 < x < 1:
            raise ValueError(f"Boltzmann ratio x={x} must lie in (0, 1)")

    @property
    def mean_occupation(self) -> Fraction:
        return self.x / (1 - self.x)


#: the state singled out by the bosonization theorem: hw/kT = ln 3
THEOREM_STATE = ThermalState(Fraction(1, 3))


def density_diagonal(state: ThermalState, n: int) -> Fraction:
    """Occupation probability p_n = (1 - x) x^n."""
    if (n := operator.index(n)) < 0:
        raise ValueError("level index must be >= 0")
    return (1 - state.x) * state.x**n


def polylog_negative(k: int, x: Fraction) -> Fraction:
    """Exact Li_{-k}(x) = sum_n n^k x^n for integer k >= 0 and 0 < x < 1.

    Computed through the recurrence Li_{-k-1} = x d/dx Li_{-k} applied to
    the rational function x / (1 - x), carried symbolically and evaluated at
    the end.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    x = _as_fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"x={x} must lie in (0, 1)")
    num, power = _polylog_rational(k)
    return sum(c * x**p for p, c in enumerate(num)) / (1 - x) ** power


def _polylog_rational(k: int) -> Tuple[Tuple[int, ...], int]:
    """Li_{-k} as (numerator coefficients, power of (1 - x))."""
    num = [0, 1]  # x
    power = 1
    for _ in range(k):
        # x * d/dx [P / (1-x)^q] = x * (P' (1-x) + q P) / (1-x)^{q+1}
        deriv = [p * c for p, c in enumerate(num)][1:] or [0]
        combined = [0] * (len(num) + 1)
        for p, c in enumerate(deriv):
            combined[p] += c
            combined[p + 1] -= c
        for p, c in enumerate(num):
            combined[p] += power * c
        num = [0] + combined  # multiply by x
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        power += 1
    return tuple(num), power


def thermal_expect(state: ThermalState, form: NormalForm) -> ComplexRational:
    """Exact tr(rho * form) for a normally ordered form.

    Number conservation kills every m != n term; diagonal terms give the
    factorial moments tr(rho a+^n a^n) = n! nbar^n, the weight-1 case of
    ``thermal_expect_weighted``.
    """
    return thermal_expect_weighted(state, 1, form)


def thermal_expect_weighted(
    state: ThermalState, base: Fraction, form: NormalForm
) -> ComplexRational:
    """Raw weighted sum sum_n p_n base^n <n| form |n>, unnormalized.

    Requires base * x < 1 for the geometric series to converge.  Uses the
    closed form sum_n t^n n!/(n-m)! = m! t^m / (1-t)^{m+1}.
    """
    base = _as_fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    t = base * state.x
    if t >= 1:
        raise ValueError(
            f"base * x = {t} >= 1: the weighted thermal series diverges"
        )
    head = 1 - state.x
    total = ComplexRational(0)
    for (m, n), c in form.terms.items():
        if m == n:
            term = head * math.factorial(m) * t**m / (1 - t) ** (m + 1)
            total = total + c * term
    return total


def partition_normalization_squared(state: ThermalState) -> Fraction:
    """Exact Z^2 = x / (1 - x)^2, avoiding any radical."""
    return state.x / (1 - state.x) ** 2


def ground_position_expectation(f):
    """Expectation of f(x) in the ground oscillator equivalent to S_z.

    The position density coincides with the limiting Gaussian law of the
    trace moments, so this delegates to the same expectation functional.
    ``f`` is a polynomial coefficient sequence, lowest power first; the value
    is exact.
    """
    return moments.gaussian_expectation(f)

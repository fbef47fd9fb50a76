"""Limit moments and exact Gaussian expectations of polynomials.

The normalized traces of even powers of any scaled collective spin component
converge to the moments (2l)! / (2^{3l} l!), i.e. the moments of a centered
Gaussian with standard deviation 1/2.  This module provides those closed
forms and the exact expectations of polynomials under the real and complex
Gaussian laws.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .rationals import ComplexRational, _as_fraction


def limit_moment(ell: int) -> Fraction:
    """Limit of the 2*ell-th normalized trace moment: (2l)! / (2^{3l} l!)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return Fraction(math.factorial(2 * ell), 2 ** (3 * ell) * math.factorial(ell))


def gaussian_expectation(coeffs: Sequence) -> Fraction:
    """Exact expectation of a polynomial under the sigma = 1/2 centered Gaussian.

    ``coeffs`` are the coefficients, lowest power first.
    """
    if callable(coeffs):
        raise TypeError("expected polynomial coefficients, not a callable")
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        c = _as_fraction(c)
        if c and k % 2 == 0:
            # <eta^{2m}> = (2m-1)!! / 4^m, the limit moment of order m
            total += c * limit_moment(k // 2)
    return total


def complex_gaussian_expectation(g: Mapping[Tuple[int, int], object]) -> ComplexRational:
    """Exact expectation of a monomial map {(m, n): coeff} of (z*, z) under the
    density (2/pi) exp(-2|z|^2): the phase integral kills every m != n term
    and the radial integral gives m! / 2^m.
    """
    if callable(g):
        raise TypeError("expected a monomial map, not a callable")
    total = ComplexRational(0)
    for (m, n), coeff in g.items():
        if m == n:
            radial = Fraction(math.factorial(m), 2**m)
            total = total + ComplexRational.coerce(coeff) * radial
    return total

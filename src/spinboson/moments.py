"""Limit moments and Gaussian expectation laws.

The normalized traces of even powers of any scaled collective spin component
converge to the moments (2l)! / (2^{3l} l!), i.e. the moments of a centered
Gaussian with standard deviation 1/2.  This module provides those closed
forms together with the real and complex Gaussian expectation functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Tuple, Union

from .rationals import ComplexRational

#: default absolute tolerance for adaptive quadrature
DEFAULT_QUAD_TOL = 1e-12
#: quadrature window, in standard deviations, with negligible tail mass
_TAIL_SIGMAS = 8


class QuadratureError(Exception):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def limit_moment(ell: int) -> Fraction:
    """Limit of the 2*ell-th normalized trace moment: (2l)! / (2^{3l} l!)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return Fraction(math.factorial(2 * ell), 2 ** (3 * ell) * math.factorial(ell))


@dataclass(frozen=True)
class GaussianLaw:
    """The limiting real law: zero mean, standard deviation 1/2."""

    mean: Fraction = Fraction(0)
    standard_deviation: Fraction = Fraction(1, 2)

    def density(self, eta: float) -> float:
        return math.sqrt(2.0 / math.pi) * math.exp(-2.0 * eta * eta)


Integrand = Union[Callable[[float], float], Sequence]


def _poly_moment(coeffs: Sequence) -> Fraction:
    """Exact expectation of a polynomial given by its coefficient sequence."""
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c and k % 2 == 0:
            # <eta^{2m}> = (2m-1)!! / 4^m, the limit moment of order m
            total += c * limit_moment(k // 2)
    return total


def _checked(val: float, err: float, tol: float) -> float:
    """Quadrature value ``val``, or QuadratureError if its residual exceeds tol."""
    if err > tol:
        raise QuadratureError(
            f"quadrature residual {err:.3e} exceeds tolerance {tol:.3e}",
            residual=err,
        )
    return val


def gaussian_expectation(f: Integrand, tol: float = DEFAULT_QUAD_TOL):
    """Expectation of f under the sigma = 1/2 centered Gaussian.

    Polynomials (given as a coefficient sequence, lowest power first) are
    evaluated exactly; callables go through adaptive quadrature on a
    truncated window whose tail mass is far below ``tol``.
    """
    if not callable(f):
        return _poly_moment(f)
    from scipy import integrate

    law = GaussianLaw()
    half_width = float(_TAIL_SIGMAS) * 0.5
    val, err = integrate.quad(
        lambda eta: f(eta) * law.density(eta),
        -half_width,
        half_width,
        epsabs=tol / 10,
        epsrel=tol / 10,
        limit=200,
    )
    return _checked(val, err, tol)


SymbolLike = Mapping[Tuple[int, int], object]


def complex_gaussian_expectation(g, tol: float = DEFAULT_QUAD_TOL):
    """Expectation of g(z*, z) under the density (2/pi) exp(-2|z|^2).

    Monomial maps {(m, n): coeff} are exact: the phase integral kills every
    m != n term and the radial integral gives m! / 2^m.  Callables
    g(zstar, z) integrate numerically over the plane in polar coordinates.
    """
    if not callable(g):
        total = ComplexRational(0)
        for (m, n), coeff in g.items():
            if m == n:  # the phase integral kills every m != n term
                radial = Fraction(math.factorial(m), 2**m)
                total = total + ComplexRational.coerce(coeff) * radial
        return total
    from scipy import integrate

    max_r = float(_TAIL_SIGMAS) * 0.5

    def integrand(part):
        def f(r, phi):
            z = complex(r * math.cos(phi), r * math.sin(phi))
            value = getattr(g(z.conjugate(), z), part)
            return (2.0 / math.pi) * value * math.exp(-2.0 * r * r) * r
        return f

    out = []
    for part in ("real", "imag"):
        val, err = integrate.dblquad(
            integrand(part), 0.0, 2.0 * math.pi, 0.0, max_r,
            epsabs=tol / 10, epsrel=tol / 10,
        )
        out.append(_checked(val, err, tol))
    return complex(*out)

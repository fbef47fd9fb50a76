"""Heisenberg XY application of the bosonization.

The Hamiltonian (gamma/N)(S+S- + S-S+) is diagonal in the |j, m> basis with
eigenvalue (2 gamma / N)(j(j+1) - m^2), so finite-N thermal expectations
reduce to scalar Boltzmann weights against the exact diagonal polynomial of
the observable.  On the boson side everything collapses to geometric series
in the weighted thermal state.

The boson side has one reading: the exponential weight and the observable
are normal ordered together, and H maps to the x = 1/3 oscillator at
hbar*omega/k_BT = ln 3.  This is the reading the finite-N spin computation
converges to.

Note on the readings that are not implemented.  Normal ordering the weight
on its own, to (1-2g)^{a+a}, and multiplying it against the normal-ordered
observable (the "separable" reading) gives <a+a> = 1/5 at gamma = 1, kT = 4,
against 2/5 for the joint reading; the spin side of S+S- + S-S+ tends to
2 * 2/5 = 0.8, so only the joint reading matches the large-N limit.  The
paper prints the prefactor as exp(-ln(1-2g) a+a); with that sign the
prefactor cancels the weight (1-2g)^{a+a}, so ``boson_thermal_expectation``
uses the opposite sign, the only one consistent with the weighted
expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import mpmath
import numpy as np

from . import spin_core
from .boson import NormalForm
from .rationals import ComplexRational
from .spin_core import SpinPolynomial, Z
from .thermal import THEOREM_STATE

#: decimal digits of the mpmath sum in ``spin_thermal_expectation``
WORKING_DIGITS = 50
#: largest N the dense XY oracle diagonalizes (a 2^N x 2^N eigenproblem)
DENSE_ORACLE_CAP = 12


@dataclass(frozen=True)
class XYParams:
    """Coupling gamma (units of hbar) and temperature kT (k_B absorbed)."""

    gamma: Fraction
    kT: Fraction

    def __post_init__(self):
        # floats and complex numbers raise TypeError: no silent rounding
        for name in ("gamma", "kT"):
            value = ComplexRational.coerce(getattr(self, name)).as_fraction()
            object.__setattr__(self, name, value)
        if self.kT <= 0:
            raise ValueError("kT must be positive")

    @property
    def g(self) -> Fraction:
        """The dimensionless ratio gamma / kT."""
        return self.gamma / self.kT


@dataclass(frozen=True)
class ValidityReport:
    """Structured verdict on the bosonization bounds."""

    passed: bool
    bounds: Tuple[Tuple[str, bool], ...]
    temperature_bound: str = ""

    def failed_bounds(self) -> List[str]:
        return [name for name, ok in self.bounds if not ok]


class ValidityError(ValueError):
    """Raised when an operation requires bounds that do not hold."""


def validity_check(params: XYParams) -> ValidityReport:
    """Evaluate the bounds 2 gamma/kT < 1 and -gamma/kT < 1.

    For ferromagnetic coupling (gamma < 0) the two bounds collapse to the
    temperature bound kT > |gamma|, reported alongside.
    """
    g = params.g
    bounds = (
        ("2*gamma/kT < 1", 2 * g < 1),
        ("-gamma/kT < 1", -g < 1),
    )
    note = ""
    if params.gamma < 0:
        ok = params.kT > abs(params.gamma)
        note = f"kT > |gamma| ({'satisfied' if ok else 'violated'})"
    return ValidityReport(
        passed=all(ok for _, ok in bounds),
        bounds=bounds,
        temperature_bound=note,
    )


def _require_valid(params: XYParams) -> None:
    report = validity_check(params)
    if not report.passed:
        raise ValidityError(
            "bosonization bounds violated: " + ", ".join(report.failed_bounds())
        )


def spin_thermal_expectation(
    params: XYParams,
    N: int,
    poly: SpinPolynomial,
) -> float:
    """Finite-N tr(exp(-beta H) poly) / tr(exp(-beta H)), H the XY model.

    The H eigenvalue (2 gamma / N)(j(j+1) - m^2) makes the Boltzmann weight
    of a cell exp(-g a / 2N) exp(g u^2 / 2N), with a = 2j(2j + 2), u = 2m and
    g = gamma / kT: one sector weight and one even factor in u, evaluated in
    ``WORKING_DIGITS``-digit floating point against the exact diagonal
    tables.  The finite-N trace exists for any parameters, but far outside
    the bosonization bounds the signed sector terms cancel by more than the
    working digits and the result loses accuracy: ``S-^8*S+^8`` at
    gamma / kT = 1000, N = 16 returns 5.6e-106 against 2.4e-218.
    """
    spin_core.check_sector_budget(N, poly)
    tables = spin_core.fold_diagonals(N, poly)
    if any(imaginary for *_, imaginary in tables):
        raise ValueError("thermal expectation requires real coefficients")
    with mpmath.workdps(WORKING_DIGITS):
        g = mpmath.mpf(params.g.numerator) / params.g.denominator
        weights = (s.multiplicity * mpmath.exp(-g * s.twice_j * (s.twice_j + 2)
                                               / (2 * N))
                   for s in spin_core.irrep_sectors(N))
        *sums, total = spin_core.sector_sums(
            N, [rows for rows, *_ in tables] + [spin_core.IDENTITY_TABLE],
            weights, lambda u: mpmath.exp(g * u * u / (2 * N)))
        num = mpmath.mpf(0)
        for s, (_, lcd, radical, _) in zip(sums, tables):
            num += s * (mpmath.sqrt(N) if radical else 1) / lcd
        return float(num / total)


def spin_thermal_dense_oracle(
    params: XYParams, N: int, poly: SpinPolynomial
) -> float:
    """Dense tensor-product check of the finite-N thermal expectation.

    Builds the 2^N Hamiltonian, diagonalizes it, and traces against the
    dense observable in binary64; each observable word is the trace oracle's
    exact integer product, converted once.  Refuses N above
    ``DENSE_ORACLE_CAP`` and words whose products could leave int64.
    """
    if N > DENSE_ORACLE_CAP:
        raise spin_core.ResourceLimitError(
            f"dense XY oracle capped at N={DENSE_ORACLE_CAP}"
        )
    import scipy.linalg

    spin_core._check_int64(N, poly.degree())
    ops = spin_core._collective_ops(N)
    splus = ops[spin_core.PLUS].astype(float)
    sminus = ops[spin_core.MINUS].astype(float)
    h = (float(params.gamma) / N) * (splus @ sminus + sminus @ splus)
    evals, vecs = scipy.linalg.eigh(h.toarray())
    weights = np.exp(-evals / float(params.kT))
    obs = np.zeros((2**N, 2**N), dtype=complex)
    for word, coeff in poly.terms.items():
        mat = spin_core._chain(ops, word).toarray() / 2.0 ** word.count(Z)
        obs += complex(coeff) * mat * N ** (-len(word) / 2)
    rotated = vecs.conj().T @ obs @ vecs
    num = float(np.real(np.sum(weights * np.diag(rotated))))
    den = float(np.sum(weights))
    return num / den


def boson_thermal_expectation(params: XYParams, form: NormalForm) -> Fraction:
    """Large-N boson-side XY expectation of a normal-ordered observable.

    With x = 1/3 and B = 1 - 2 gamma/kT, a diagonal term a+^m a^m takes the
    value m! (x / (1 - B x))^m.
    """
    _require_valid(params)
    x = THEOREM_STATE.x
    ratio = x / (1 - (1 - 2 * params.g) * x)
    total = ComplexRational(0)
    for (m, n), c in form.terms.items():
        if m == n:
            total = total + c * (math.factorial(m) * ratio**m)
    return total.as_fraction()


def partition_function(params: XYParams) -> float:
    """Closed-form Z = r^{-1/2} / (1 - 1/r) with r = 3 / (1 - 2 gamma/kT)."""
    _require_valid(params)
    # the bounds give 0 < 1 - 2 gamma/kT < 3, so r > 1 and the series converges
    r = float(3 / (1 - 2 * params.g))
    return r**-0.5 / (1 - 1 / r)


def effective_temperature(params: XYParams) -> float:
    """k_B T_eff = 2|gamma| / ln(3 / (1 - 2 gamma/kT)).

    The oscillator scale hbar*omega_0 = 2|gamma| comes from the low
    excitation sector; T_eff stays finite as the physical T grows.
    """
    _require_valid(params)
    if params.gamma == 0:
        raise ValueError("effective temperature undefined at gamma = 0")
    denom = math.log(3 / float(1 - 2 * params.g))
    return 2 * abs(float(params.gamma)) / denom


"""Heisenberg XY application of the bosonization.

The Hamiltonian (gamma/N)(S+S- + S-S+) is diagonal in the |j, m> basis with
eigenvalue (2 gamma / N)(j(j+1) - m^2), so finite-N thermal expectations
reduce to scalar Boltzmann weights against the exact diagonal polynomial of
the observable.  The weights follow by recurrence from one ``exp`` per call
and are summed in stdlib ``decimal``, with as many digits as the
cancellation of the signed terms requires.  On the boson side everything
collapses to geometric series in the weighted thermal state.

The boson side reads the weighted state in two ways, with g = gamma/kT.
The joint reading normal orders the weight and the observable together: H
maps to the x = 1/3 oscillator at hbar*omega/k_BT = ln 3, weighted to
x' = 1/(3 + 2g).  ``boson_thermal_expectation`` (the printed <f>_boson) uses
it, the only reading the finite-N spin computation converges to.  The
separable reading normal orders the weight on its own, to (1-2g)^{a+a}, an
oscillator of Boltzmann ratio 1/r, r = 3/(1 - 2g): ``partition_function``
(Z), ``effective_temperature`` (T_eff) and both bounds (r > 1) use it, as the
paper prints them.  Its expectations are not implemented: at gamma = 1,
kT = 4 it gives <a+a> = 1/5 against the joint 2/5, and the spin side of
S+S- + S-S+ tends to 2 * 2/5 = 0.8.  The paper prints the prefactor as
exp(-ln(1-2g) a+a); with that sign the prefactor cancels the weight
(1-2g)^{a+a}, so ``boson_thermal_expectation`` uses the opposite sign, the
only one consistent with the weighted expectation.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import spin_core
from .boson import NormalForm
from .rationals import ComplexRational
from .spin_core import MINUS, PLUS, SpinPolynomial
from .thermal import THEOREM_STATE, ThermalState, thermal_expect

#: decimal digits of the first sum in ``spin_thermal_expectation``
WORKING_DIGITS = 50
#: digits a result must keep beyond its estimated cancellation, or it is
#: summed again with more
GUARD_DIGITS = 20
_SMALLEST_FLOAT = decimal.Decimal(math.ulp(0.0))
#: budget on (N + 1) x degree, the cells of a sum over every sector
MAX_TRACE_CELLS = 10**8
#: largest N of the dense XY oracle
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


def _boltzmann_factors(g: Fraction, N: int):
    """Sector weights d(N, j) exp(-g a / 2N) and boundary factors
    rho(2j) = exp(g (2j)^2 / 2N), in the current decimal context.

    With x = exp(g / 2N), the ratio of consecutive sector weights is
    x^-(4 * 2j + 8) and that of rho is x^(4 * 2j + 4); both exponents step by
    8, so one ``exp`` serves every sector.  d(N, j) = C(N, k) - C(N, k - 1),
    k = N/2 - j, is stepped by C(N, k - 1) = C(N, k) k / (N - k + 1) relative
    to the first sector's C(N, k), which the ratio of two sums cancels.
    """
    x = (decimal.Decimal(g.numerator) / (2 * N * g.denominator)).exp()
    tj = N % 2
    binomial = decimal.Decimal(1)
    weight, weight_step = x ** -(tj * (tj + 2)), x ** -(4 * tj + 8)
    rho, rho_step = x ** (tj * tj), x ** (4 * tj + 4)
    down, up = x ** -8, x ** 8
    weights, rhos = [], []
    for k in range((N - tj) // 2, -1, -1):
        below = binomial * k / (N - k + 1)
        weights.append((binomial - below) * weight)
        rhos.append(rho)
        binomial = below
        weight *= weight_step
        weight_step *= down
        rho *= rho_step
        rho_step *= up
    return weights, rhos


def spin_thermal_expectation(params: XYParams, N: int, poly: SpinPolynomial) -> float:
    """Finite-N tr(exp(-beta H) poly) / tr(exp(-beta H)), H the XY model.

    The H eigenvalue (2 gamma / N)(j(j+1) - m^2) makes the Boltzmann weight
    of a cell exp(-g a / 2N) exp(g u^2 / 2N), with a = 2j(2j + 2), u = 2m and
    g = gamma / kT: one sector weight and one even factor in u, built by
    recurrence from a single ``exp``.  One pass in ``decimal`` sums every
    monomial a^k u^(2i) of the exact diagonal against them; each letter
    count's coefficients times those sums give the numerator.  The finite-N
    trace exists for any parameters, but far outside the bosonization bounds
    the signed terms cancel.  The sums are positive, so the absolute
    coefficients times the same sums bound the terms' magnitudes.  The first
    pass has ``WORKING_DIGITS`` digits;
    while fewer than ``GUARD_DIGITS`` of them survive the cancellation that
    the bound allows, the sum is rerun with more.  A result whose rounding
    error is below the smallest binary64 number is final too, so an
    expectation that vanishes exactly returns 0.0.
    """
    spin_core.check_trace_budget(N, poly)
    if (N + 1) * max(1, poly.degree) > MAX_TRACE_CELLS:
        raise spin_core.ResourceLimitError(
            f"{N + 1} sectors x degree {poly.degree} exceed {MAX_TRACE_CELLS} cells")
    diagonal = spin_core._sector_trace_poly(poly)
    if any(imaginary for _, imaginary in diagonal):
        raise ValueError("thermal expectation requires real coefficients")
    if not diagonal:
        return 0.0
    keys, rows = spin_core.monomial_rows(list(diagonal.values()))
    digits = WORKING_DIGITS
    while True:
        context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX,
                                  Emin=decimal.MIN_EMIN)
        with decimal.localcontext(context):
            sums = spin_core.sector_moments(N, keys, *_boltzmann_factors(params.g, N))
            num = bound = decimal.Decimal(0)
            for (L, _), row in zip(diagonal, rows):
                divisor, radical = spin_core.letter_scale(N, L)
                scale = ((context.sqrt(N) if radical else 1)
                         / decimal.Decimal(divisor * 2**L * poly.den))
                num += scale * sum(c * s for c, s in zip(row, sums))
                bound += scale * sum(abs(c) * s for c, s in zip(row, sums))
            total = sums[0]
            # slack bounds the rounding error of num with GUARD_DIGITS to
            # spare: num is final when it exceeds slack, or when the error
            # is below every binary64 number
            slack = bound.scaleb(GUARD_DIGITS - digits)
            if slack <= abs(num) or slack < _SMALLEST_FLOAT * total:
                return float(num / total)
            loss = bound.adjusted() - num.adjusted() + 1 if num else digits
        digits = max(2 * digits, loss + 2 * GUARD_DIGITS)


def spin_thermal_dense_oracle(
    params: XYParams, N: int, poly: SpinPolynomial
) -> float:
    """Dense check of the finite-N thermal expectation from the action of the
    letters on the 2^N basis.

    e^{-beta H} poly is a function of collective letters, so its trace is
    sum_k C(N, k) <e_k|e^{-beta H} poly|e_k>, as in ``dense_oracle_trace``.
    H keeps the number of down sites, so in shell k it acts on the sums
    |a, k - a> only, the level of e_k = |k, 0>; ``_shell_apply`` walks the
    tree of S+*S- + S-*S+ there for H, and the tree of ``poly`` on e_k.  Each
    sum divided by its norm sqrt(C(k, a) C(N - k, k - a)) makes H symmetric,
    and one ``eigh`` per shell gives the Boltzmann factors.  Before any walk
    ``check_dense_budget`` refuses what it refuses with the cap
    ``DENSE_ORACLE_CAP``; an imaginary entry left on the level of some e_k
    is refused as ``spin_thermal_expectation`` refuses an imaginary diagonal.
    """
    spin_core.check_dense_budget(N, poly, DENSE_ORACLE_CAP)
    plus, minus = spin_core.node("letter", PLUS), spin_core.node("letter", MINUS)
    h_tree = spin_core.node("sum", spin_core.node("product", plus, minus),
                            spin_core.node("product", minus, plus))
    # a of |a, k - a> per shell; e_k = |k, 0> is last
    levels = [range(max(0, 2 * k - N), k + 1) for k in range(N + 1)]
    observed = []  # per shell, the coefficients of |a, k - a> in poly e_k
    for k, level in enumerate(levels):
        obs = [0.0] * len(level)
        for (L, i, a, b), c in spin_core._shell_apply(N, k, poly, {(0, 0, k, 0): 1}).items():
            if a + b == k:
                if i:
                    raise ValueError("thermal expectation requires real coefficients")
                obs[a - level.start] += c * N ** (-L / 2) / (2**L * poly.den)
        observed.append(obs)
    import numpy as np

    num = den = 0.0
    for k, (level, obs) in enumerate(zip(levels, observed)):
        norms = np.sqrt([float(math.comb(k, a) * math.comb(N - k, k - a))
                         for a in level])
        h = np.zeros((len(level), len(level)))
        for j, a in enumerate(level):
            for (_, _, x, _), c in spin_core._shell_apply(
                    N, k, h_tree, {(0, 0, a, k - a): 1}).items():
                h[x - level.start, j] += c / 4  # twice each of two letters
        h *= float(params.gamma) / N * np.outer(norms, 1 / norms)
        evals, vecs = np.linalg.eigh(h)
        weights = math.comb(N, k) * np.exp(-evals / float(params.kT)) * vecs[-1]
        num += float(weights @ (vecs.T @ (norms * np.array(obs))))
        den += float(weights @ vecs[-1])
    return num / den


def boson_thermal_expectation(params: XYParams, form: NormalForm) -> Fraction:
    """Large-N boson-side XY expectation of a normal-ordered observable.

    In the joint reading the XY weight leaves a thermal oscillator at
    hbar*omega'/kT = ln(3 + 2g), g = gamma/kT: the x = 1/3 state becomes
    x' = x / (1 + 2 g x) = 1 / (3 + 2g), so a+^m a^m takes m! nbar'^m with
    nbar' = 1 / (2 + 2g), and <S+S- + S-S+> -> 2 nbar' = 1 / (1 + g).
    """
    _require_valid(params)
    x = THEOREM_STATE.x
    return thermal_expect(ThermalState(x / (1 + 2 * params.g * x)), form).as_fraction()


def partition_function(params: XYParams) -> float:
    """Closed-form Z = r^{-1/2} / (1 - 1/r) with r = 3 / (1 - 2 gamma/kT),
    the binary64 rounding of its exact value r/(r - 1) sqrt(1/r)."""
    _require_valid(params)
    # the bounds give 0 < 1 - 2 gamma/kT < 3, so r > 1 and the series converges
    r = 3 / (1 - 2 * params.g)
    return float(spin_core.rounded_radical(0, r / (r - 1), 1 / r, 53, 2))


def effective_temperature(params: XYParams) -> float:
    """k_B T_eff = 2|gamma| / ln(3 / (1 - 2 gamma/kT)).

    The oscillator scale hbar*omega_0 = 2|gamma| comes from the low
    excitation sector; T_eff stays finite as the physical T grows.  ln r is
    log1p of the exact r - 1 = (2 + 2g)/(1 - 2g), free of cancellation.
    """
    _require_valid(params)
    if params.gamma == 0:
        raise ValueError("effective temperature undefined at gamma = 0")
    g = params.g
    return 2 * abs(float(params.gamma)) / math.log1p((2 + 2 * g) / (1 - 2 * g))


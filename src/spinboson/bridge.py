"""End-to-end verification of the bosonization theorem.

Connects the three representations of the same limit: exact spin traces at
finite N, thermal-oscillator expectations at x = 1/3, and the complex
Gaussian integral.  Every spin polynomial has one boson image: S+ and S-
become the thermal mode, Sz the position of the sigma = 1/2 ground
oscillator, which enters through its moments.  Also quantifies the one piece
of information the symbol map deliberately discards, namely the O(1/N)
difference between spin words with the same letter content but different
orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import moments, spin_core, thermal
from .boson import BosonSymbol, NormalForm, normal_order_symbol
from .rationals import ComplexRational
from .spin_core import SpinPolynomial, Z, node

MAX_ORDERING_LETTERS = 10


@dataclass
class ConvergenceReport:
    """Spin-side values against the fixed boson-side target."""

    n_values: List[int]
    spin_values: List[float]
    boson_value: float
    abs_errors: List[float]
    fitted_rate: Optional[float]
    spin_decimals: List[str]


def fit_decay_rate(n_values: Sequence[int], errors: Sequence[float]):
    """Least-squares slope of log-error against log-N, sign flipped.

    Returns None unless at least two distinct N have a nonzero error; a
    vanishing error means the finite-N value is already exact.  The slope of
    the binary64 logs is exact, rounded once: the same on every Python.
    """
    pts = [(math.log(n), math.log(e)) for n, e in zip(n_values, errors) if e > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    # over the largest power-of-two denominator every log is an integer
    scale = max(v.as_integer_ratio()[1] for pt in pts for v in pt)
    xs, ys = ([p * (scale // q) for p, q in map(float.as_integer_ratio, col)]
              for col in zip(*pts))
    k, sx, sy = len(pts), sum(xs), sum(ys)
    num = k * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    return -num / (k * sum(x * x for x in xs) - sx * sx)


def boson_image(poly: SpinPolynomial) -> NormalForm:
    """Normal-ordered image of a spin polynomial.

    A word with p S+, q S- and r Sz letters maps to <eta^r> z*^p z^q: S+ and
    S- become the commuting symbols of the x = 1/3 thermal mode, and Sz the
    position eta of the ground oscillator, a sigma = 1/2 Gaussian independent
    of that mode in the limit, which leaves only its moment (zero for odd r).
    Ordering, O(1/N), is discarded: the letters are counted as commuting, and
    the moments, not multiplicative in r, are taken last.
    """
    sym_terms = {}
    for (p, q, r), coeff in spin_core.letter_counts(poly).items():
        if r % 2 == 0:  # odd moments of eta vanish
            term = coeff * moments.limit_moment(r // 2)
            sym_terms[p, q] = sym_terms.get((p, q), ComplexRational(0)) + term
    return normal_order_symbol(BosonSymbol(sym_terms))


def verify_theorem(
    poly: SpinPolynomial,
    n_values: Sequence[int],
    digits: int = 12,
) -> ConvergenceReport:
    """Spin traces at ascending N against the limit of the boson image.

    The limit is the x = 1/3 thermal expectation of ``boson_image(poly)``;
    any spin polynomial with a real limit is accepted.  Each error is the
    exact gap, rounded once to binary64.
    """
    n_values = list(n_values)
    if n_values != sorted(n_values):
        raise ValueError("N values must be ascending")
    for n in n_values:
        spin_core.check_trace_budget(n, poly)
    boson = thermal.thermal_expect(thermal.THEOREM_STATE, boson_image(poly))
    if not boson.is_real:
        raise ValueError(f"boson-side value {boson} is not real")
    results = [spin_core.normalized_trace(n, poly, digits=digits)
               for n in n_values]
    errors = [abs(float(spin_core.rounded_radical(
        res.exact.re - boson.re, res.sqrt_n.re, res.n, 53, 2))) for res in results]
    return ConvergenceReport(
        n_values=n_values,
        spin_values=[res.real() for res in results],
        boson_value=float(boson.re),
        abs_errors=errors,
        fitted_rate=fit_decay_rate(n_values, errors),
        spin_decimals=[res.decimal for res in results],
    )


def ordering_sensitivity(poly: SpinPolynomial, N: int) -> float:
    """Largest trace spread among reorderings of any term's letters.

    Measures the part of the spin polynomial that the commuting symbol map
    cannot see; the theorem guarantees it vanishes as N grows.  Every word
    has a real trace, so the spread of a term c w is |c| (max - min) over the
    orderings of w, one sector pass per letter multiset, rounded once.
    """
    spin_core.check_trace_budget(N, poly)
    weights = {}  # sorted letters: the largest |c|^2 of a word made of them
    for word, coeff in spin_core.words(poly).items():
        if len(word) > MAX_ORDERING_LETTERS:
            raise spin_core.ResourceLimitError(
                f"word of length {len(word)} exceeds the ordering cap "
                f"{MAX_ORDERING_LETTERS}"
            )
        letters = tuple(sorted(word))
        weights[letters] = max(weights.get(letters, 0), coeff.re**2 + coeff.im**2)
    worst = 0.0
    for letters, weight in weights.items():
        diagonals = [spin_core._word_diag_poly(variant) or {}
                     for variant in _orderings(letters)]
        values = spin_core._diagonal_values(N, diagonals)
        divisor, radical = spin_core.letter_scale(N, len(letters))
        spread = (max(values) - min(values)) / (divisor * 2 ** len(letters))
        worst = max(worst, float(spin_core.rounded_radical(
            0, 1, spread**2 * weight * N**radical, 53, 2)))
    return worst


def _orderings(letters: tuple):
    """Every distinct ordering of the multiset ``letters``, once each."""
    if not letters:
        yield ()
    for first in dict.fromkeys(letters):
        i = letters.index(first)
        yield from ((first, *rest) for rest in _orderings(letters[:i] + letters[i + 1:]))


def position_sector(f_coeffs: Sequence, n_values: Sequence[int]) -> ConvergenceReport:
    """Traces of f(Sz/sqrt(N)) against the ground-oscillator expectation.

    ``f_coeffs`` are polynomial coefficients, lowest power first; this is
    ``verify_theorem`` of sum_k c_k Sz^k.
    """
    sz = node("letter", Z)
    poly = node("sum", node("constant", 0), *(
        node("product", node("constant", c), node("power", sz, k))
        for k, c in enumerate(f_coeffs)))
    return verify_theorem(poly, n_values)

"""Exact traces of polynomials in scaled collective spin operators.

For N spin-1/2 sites the collective operators S_+, S_-, S_z act block
diagonally on total-spin sectors j, each occurring with the Catalan-triangle
multiplicity d(N, j).  Every operator letter carries an implicit 1/sqrt(N),
so the normalized trace of a word of length L is

    2^{-N} N^{-L/2} sum_j d(N, j) tr_j(word).

The per-sector trace is evaluated symbolically: an expression tree is
evaluated in the Dyson-Maleev gauge, where the diagonal of each letter count
is a polynomial in a = 4j(j+1) and u = 2m with integer coefficients.
``monomial_rows`` lists the monomials a^k u^(2i) these diagonals hold (odd
powers of u cancel), and ``sector_moments`` sums each monomial against a
weight over every (j, m) cell in one pass over the sectors, from running
sums of the even powers of m; a diagonal's sum is its coefficients times
those sums.  The exact trace and the XY thermal expectation differ only in
that weight; the binary64 trace rounds the exact one.  Every site operator
is traceless, so 2^{-n} tr_n of an L-letter word is a polynomial in n of
degree <= L/2 for all n >= 1; a^k u^(2i) = (4 S^2)^k (2 Sz)^(2i) gives one of
degree i + k.  Above ``CROSSOVER_N`` sites the sums are taken at n = 1 ...
i + k + 2 only, and the exact polynomial through all but the last node, which
checks it, is evaluated at N.  A dense tensor-product oracle over the 2^N
space checks small N.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

from .rationals import ComplexRational

PLUS = "+"
MINUS = "-"
Z = "z"

#: A word is a finite tuple of letters, applied right-to-left like a product.
SpinWord = Tuple[str, ...]

#: largest N the dense trace oracle builds its 2^N x 2^N products for
DENSE_ORACLE_CAP = 14
#: longest word a trace or a power p**k may hold; trace cost grows ~ L^3
MAX_WORD_LETTERS = 64
#: largest N whose trace sums every sector, at most 8256 cells; above it only
#: the interpolation nodes n <= MAX_WORD_LETTERS // 2 + 2 are summed
CROSSOVER_N = 2 * MAX_WORD_LETTERS
#: budget on the estimated number of terms in the word expansion of a product
#: or power
MAX_POWER_TERMS = 10**6
#: budget on shifts x letter counts x (a, u) monomials of an expression, about
#: 4 s of shift algebra at most (1-2 us per entry on a 2-vCPU VM, Python 3.11)
MAX_ALGEBRA_CELLS = 2 * 10**6
#: most digits a trace renders, about 1 s for an irrational value (68 s at 10**6)
MAX_DIGITS = 10**5


class ResourceLimitError(Exception):
    """Raised when a computation would exceed its configured budget."""


def _check_word_length(length: int) -> None:
    if length > MAX_WORD_LETTERS:
        raise ResourceLimitError(
            f"words of {length} letters exceed the limit of {MAX_WORD_LETTERS}"
        )


def check_trace_budget(N: int, poly: SpinPolynomial) -> None:
    """Refuse a trace of ``poly`` at N sites before any work: terms of too many
    letters, or a shift-algebra key space (shifts x letter counts x (a, u)
    monomials) above ``MAX_ALGEBRA_CELLS``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_word_length(d := poly.degree)
    cells = (poly.high - poly.low + 1) * (d - poly.least + 1) * (d // 2 + 1) * (d + 1)
    if cells > MAX_ALGEBRA_CELLS:
        raise ResourceLimitError(f"a predicted {cells} operator entries exceed "
                                 f"the budget of {MAX_ALGEBRA_CELLS}")


class SpinPolynomial(NamedTuple):
    """An exact polynomial over S+, S-, Sz as an expression tree, built by
    ``node``: terms of ``least`` to ``degree`` letters, shifting m by ``low``
    ... ``high`` (S+ +1, S- -1), with den times their coefficients Gaussian
    integers.  Each letter carries an implicit 1/sqrt(N), applied when a trace
    is taken."""

    kind: str
    args: tuple
    degree: int
    least: int
    low: int
    high: int
    den: int


def node(kind: str, *args) -> SpinPolynomial:
    """The node ('letter', ch), ('constant', c), ('sum', *terms), ('product',
    *factors; they act right to left, like a word) or ('power', base, k).  Each
    factor of a power counts as at least one letter, so a power of more than
    ``MAX_WORD_LETTERS`` is refused before its coefficient is built."""
    if kind == "letter":
        shift = {PLUS: 1, MINUS: -1, Z: 0}[args[0]]
        return SpinPolynomial(kind, args, degree=1, least=1, low=shift, high=shift, den=1)
    if kind == "constant":
        c = ComplexRational.coerce(args[0])
        return SpinPolynomial(kind, (c,), degree=0, least=0, low=0, high=0,
                              den=math.lcm(c.re.denominator, c.im.denominator))
    if kind == "power":
        base, k = args
        _check_word_length(k * max(base.degree, 1))
        return SpinPolynomial(kind, args, degree=k * base.degree, least=k * base.least,
                              low=k * base.low, high=k * base.high, den=base.den**k)
    if kind == "sum":
        return SpinPolynomial(kind, args, degree=max(t.degree for t in args),
                              least=min(t.least for t in args),
                              low=min(t.low for t in args), high=max(t.high for t in args),
                              den=math.lcm(*(t.den for t in args)))
    return SpinPolynomial(kind, args, degree=sum(f.degree for f in args),
                          least=sum(f.least for f in args), low=sum(f.low for f in args),
                          high=sum(f.high for f in args),
                          den=math.prod(f.den for f in args))


def _add_words(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _multiply_words(p: dict, q: dict) -> dict:
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def _terms_estimate(factors: list) -> int:
    """Estimate min(t_1 ... t_k, sum_{L <= d_1 + ... + d_k} a^L) of the terms
    of the product of ``factors``, term maps of t_i terms of degree d_i with a
    distinct letters in all.  Values are clipped where they are already over
    the budget, so no large integer is built."""
    clip = MAX_POWER_TERMS.bit_length()  # 2**clip > MAX_POWER_TERMS
    letters = len(set().union(*(word for terms in factors for word in terms)))
    length = sum(max(map(len, terms), default=0) for terms in factors)
    count = sum(letters**L for L in range(min(length, clip) + 1))
    product = 1
    for terms in factors:
        product = min(product * len(terms), MAX_POWER_TERMS + 1)
    return min(product, count)


def words(poly: SpinPolynomial) -> Dict[SpinWord, ComplexRational]:
    """The word expansion {word: coefficient} of ``poly``, without zero terms.

    A product or power whose expansion ``_terms_estimate`` puts above
    ``MAX_POWER_TERMS`` terms is refused before it is multiplied out.
    """
    kind, args = poly.kind, poly.args
    if kind == "letter":
        return {args: ComplexRational(1)}
    if kind == "constant":
        return {(): args[0]} if args[0] else {}
    if kind == "sum":
        return functools.reduce(_add_words, map(words, args))
    factors = [words(args[0])] * args[1] if kind == "power" else list(map(words, args))
    if _terms_estimate(factors) > MAX_POWER_TERMS:
        raise ResourceLimitError(f"a product of {len(factors)} factors "
                                 f"would have more than {MAX_POWER_TERMS} terms")
    return functools.reduce(_multiply_words, factors, {(): ComplexRational(1)})


# ---------------------------------------------------------------------------
# Irrep bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrrepSpec:
    """A total-spin sector: twice_j, its dimension and multiplicity d(N, j)."""

    twice_j: int
    dimension: int
    multiplicity: int


#: (N, k, C(N, k)) of the last multiplicity call.  Only one entry is kept (a
#: per-N table would hold about 0.36 N^2 bits), and it is read and replaced as
#: one tuple, so calls in any order, or from threads, stay exact.
_last_binomial = (0, 0, 1)


def irrep_multiplicity(N: int, twice_j: int) -> int:
    """Multiplicity d(N, j) = C(N, k) - C(N, k - 1) = C(N, k)(2j + 1)/(N - k + 1),
    with k = N/2 - j.

    A call for the same N at k one below the previous call, the order in which
    ``irrep_sectors`` walks, steps C(N, k) = C(N, k + 1)(k + 1)/(N - k) from
    the previous binomial; any other call computes ``math.comb(N, k)``.
    """
    global _last_binomial
    if N < 1:
        raise ValueError("N must be >= 1")
    if twice_j < 0 or twice_j > N or (N - twice_j) % 2 != 0:
        raise ValueError(
            f"twice_j={twice_j} invalid for N={N}: need 0 <= twice_j <= N "
            f"and twice_j congruent to N mod 2"
        )
    k = (N - twice_j) // 2
    last_n, last_k, last_c = _last_binomial
    if last_n == N and last_k == k + 1:
        c = last_c * (k + 1) // (N - k)
    else:
        c = math.comb(N, k)
    _last_binomial = (N, k, c)
    return c * (twice_j + 1) // (N - k + 1)


def irrep_sectors(N: int) -> Iterator[IrrepSpec]:
    """All sectors for N sites, smallest j first."""
    for twice_j in range(N % 2, N + 1, 2):
        yield IrrepSpec(twice_j, twice_j + 1, irrep_multiplicity(N, twice_j))


# ---------------------------------------------------------------------------
# The Dyson-gauge shift algebra
#
# With a = 2j(2j+2) and u = 2m, a diagonal similarity (the Dyson-Maleev gauge)
# makes 2S+ a shift of m by +1 with coefficient 1, 2S- a shift by -1 with
# a - u(u-2) = 4(j(j+1) - m(m-1)), and 2Sz the factor u.  An operator maps
# (shift, letter count L, imaginary part) to an integer polynomial in (a, u):
# den times a tree node, 2^L times each L-letter part.  Products act right to
# left, (PQ)_{s+t}(u) = P_s(u + 2t) Q_t(u), and drop the shifts that the
# factors still to come cannot undo; a trace sees shift 0 only, exact in every
# cell, since a walk past |m| = j must step back where S- vanishes.
# ---------------------------------------------------------------------------

_Poly2 = Dict[Tuple[int, int], int]
#: shift and polynomial of 2 S+, 2 S- and 2 Sz
_LETTER_OPS = {PLUS: (1, {(0, 0): 1}), Z: (0, {(0, 1): 1}),
               MINUS: (-1, {(1, 0): 1, (0, 2): -1, (0, 1): 2})}


def _shifted(poly: _Poly2, d: int) -> _Poly2:
    """poly(a, u + d), without zero terms."""
    out: _Poly2 = {}
    for (ka, ku), c in poly.items():
        for k in range(ku + 1):
            out[ka, k] = out.get((ka, k), 0) + c * math.comb(ku, k) * d ** (ku - k)
    return {k: c for k, c in out.items() if c}


def _times(p, q, lo: int, hi: int):
    """The operator product p q, keeping the shifts lo ... hi."""
    out = {}
    for (t, lq, iq), qpoly in q.items():
        for (s, lp, ip), ppoly in p.items():
            if not lo <= s + t <= hi:
                continue
            target = out.setdefault((s + t, lp + lq, (ip + iq) % 2), {})
            for (a1, u1), c1 in (_shifted(ppoly, 2 * t) if t else ppoly).items():
                c1 *= -1 if ip and iq else 1  # i * i
                for (a2, u2), c2 in qpoly.items():
                    k = a1 + a2, u1 + u2
                    target[k] = target.get(k, 0) + c1 * c2
    return out


def _operator(expr: SpinPolynomial, lo: int, hi: int, letters=_LETTER_OPS):
    """den times ``expr`` in the shift algebra, keeping the shifts lo ... hi."""
    kind, args = expr.kind, expr.args
    if kind == "letter":
        shift, poly = letters[args[0]]
        return {(shift, 1, 0): poly} if lo <= shift <= hi else {}
    if kind == "constant":
        c = args[0]
        parts = [p.numerator * expr.den // p.denominator for p in (c.re, c.im)]
        return {(0, 0, i): {(0, 0): p}
                for i, p in enumerate(parts) if p and lo <= 0 <= hi}
    if kind == "sum":
        out = {}
        for term in args:
            for key, poly in _operator(term, lo, hi, letters).items():
                target, scale = out.setdefault(key, {}), expr.den // term.den
                for k, c in poly.items():
                    target[k] = target.get(k, 0) + scale * c
        return out
    # a product or a power (a right fold): factors keep what the others can undo
    factors = reversed(args) if kind == "product" else itertools.repeat(*args)
    low_left, high_left = expr.low, expr.high  # of the factors left of f
    values, acc = {}, {(0, 0, 0): {(0, 0): 1}} if lo <= 0 <= hi else {}
    for i, f in enumerate(factors):
        low_left, high_left = low_left - f.low, high_left - f.high
        if id(f) not in values:
            values[id(f)] = _operator(f, lo - expr.high + f.high, hi - expr.low + f.low,
                                      letters)
        acc = (values[id(f)] if i == 0
               else _times(values[id(f)], acc, lo - high_left, hi - low_left))
    return acc


def _sector_trace_poly(expr: SpinPolynomial) -> Dict[Tuple[int, int], _Poly2]:
    """The shift-0 part of den times ``expr``: {(L, imaginary part): poly}."""
    return {(L, i): {k: c for k, c in poly.items() if c}
            for (_, L, i), poly in _operator(expr, 0, 0).items() if any(poly.values())}


#: commuting letters: p S+, q S- and r Sz give shift p - q, count p + q + r, a^r
_COUNTING_LETTERS = {PLUS: (1, {(0, 0): 1}), MINUS: (-1, {(0, 0): 1}),
                     Z: (0, {(1, 0): 1})}


def letter_counts(poly: SpinPolynomial) -> Dict[Tuple[int, int, int], ComplexRational]:
    """The coefficient of each letter count (#S+, #S-, #Sz) in ``poly``, with
    its letters taken to commute."""
    out = {}
    counted = _operator(poly, poly.low, poly.high, _COUNTING_LETTERS)
    for (s, L, imaginary), powers in counted.items():
        for (r, _), c in powers.items():
            part = Fraction(c, poly.den)
            key = (L - r + s) // 2, (L - r - s) // 2, r
            term = ComplexRational(0, part) if imaginary else ComplexRational(part)
            out[key] = out.get(key, ComplexRational(0)) + term
    return out


def _word_diag_poly(word: SpinWord) -> _Poly2 | None:
    """2^L times the diagonal element of a length-L word, a polynomial in (a, u);
    None when the word changes m, i.e. the diagonal vanishes identically."""
    letters = (node("letter", ch) for ch in word)
    return _sector_trace_poly(node("product", *letters)).get((len(word), 0))


def letter_scale(N: int, L: int) -> Tuple[int, bool]:
    """N^{-L/2} as 1 / divisor, and whether sqrt(N) multiplies it."""
    return N ** ((L + 1) // 2), L % 2 == 1


def monomial_rows(diagonals: Sequence[_Poly2]):
    """The monomials a^k u^(2i) that ``diagonals`` hold, as sorted keys (i, k)
    with (0, 0) first, and each diagonal's coefficients in ``keys`` order.
    Odd powers of u are dropped: they sum to zero over every sector."""
    keys = sorted({(ku // 2, ka) for dp in diagonals for ka, ku in dp if ku % 2 == 0}
                  | {(0, 0)})
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for dp in diagonals:
        row = [0] * len(keys)
        for (ka, ku), c in dp.items():
            if ku % 2 == 0:
                row[index[ku // 2, ka]] = c
        rows.append(row)
    return keys, rows


def sector_moments(N: int, keys, weights, rhos) -> list:
    """Sum w_j rho(u) u^(2i) a^k over the cells (j, m) of N sites, per key (i, k).

    Here a = 2j(2j + 2) and u = 2m.  ``weights`` yields w_j and ``rhos``
    yields rho(2j) for 2j = N mod 2, N mod 2 + 2, ..., N.  rho must be even
    in u, so the sum of rho(u) u^(2i) over |u| <= 2j is a running sum over
    the sectors.  The arithmetic is that of the weights and rhos: exact int
    multiplicities and ones for traces (there are no binary64 weights; the
    float trace rounds the exact one), or ``decimal.Decimal`` Boltzmann
    factors for XY.  ``keys`` are sorted with (0, 0) first, as
    ``monomial_rows`` makes them, so ``sums[0]`` is the total weight.
    """
    moments = [0] * (keys[-1][0] + 1)  # moments[i]: sum of rho(u) u^(2i)
    top = max(k for _, k in keys)
    sums = [0] * len(keys)
    for tj, w, rho in zip(range(N % 2, N + 1, 2), weights, rhos):
        term = rho if tj == 0 else 2 * rho
        uu = tj * tj
        for i in range(len(moments)):
            moments[i] += term
            term *= uu
        a = tj * (tj + 2)
        scaled = [w]  # w a^k
        for _ in range(top):
            scaled.append(scaled[-1] * a)
        sums = [s + scaled[k] * moments[i] for s, (i, k) in zip(sums, keys)]
    return sums


# ---------------------------------------------------------------------------
# Normalized trace
# ---------------------------------------------------------------------------


def rounded_radical(a: Fraction, b: Fraction, q: Fraction, digits: int,
                    base: int = 10) -> Fraction:
    """a + b sqrt(q), q >= 0, where it is rational; otherwise the midpoint of
    the cell of the grid base^-s that holds it, all of whose points have more
    than ``digits`` digits.  In base 2 or 10 that grid holds every rounding
    boundary at ``digits`` digits, so the midpoint rounds as the value does."""
    if not b:
        return a
    root = math.isqrt(m := q.numerator * q.denominator)  # sqrt(q) = sqrt(m) / q.den
    if root * root == m:
        return a + b * Fraction(root, q.denominator)
    b = Fraction(b, q.denominator)
    d = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    sq = B * B * m  # the value is (A + B sqrt(m)) / d
    # 2^lead > max(|A|, |B| sqrt(m)) >= 2^(lead - 1), and where the terms cancel
    # A + B sqrt(m) = (A^2 - sq) / (A - B sqrt(m)): so |value| > 2^(bits - 2) / d
    lead = max(A.bit_length(), (sq.bit_length() + 1) // 2)
    bits = (A * A - sq).bit_length() - lead if A * B < 0 else lead
    s = max(0, digits + 2 - math.floor((bits - 2 - d.bit_length()) / math.log2(base)))
    r = math.isqrt(sq * base ** (2 * s))  # B base^s sqrt(m) is irrational
    floor = (A * base**s + (r if B > 0 else -r - 1)) // d  # |floor| > base^digits
    return Fraction(2 * floor + 1, 2 * base**s)


@dataclass
class TraceResult:
    """Exact value ``exact + sqrt_n * sqrt(N)`` of a normalized trace, and its
    decimal string.  The radical part is only nonzero for odd-length words with
    nonvanishing trace, where the 1/sqrt(N) per letter leaves a stray sqrt(N)."""

    n: int
    exact: ComplexRational
    sqrt_n: ComplexRational = field(default_factory=ComplexRational)
    decimal: str = ""
    float_path: bool = False

    def approx(self) -> complex:
        """The binary64 rounding of each part of the exact value."""
        return complex(*(float(rounded_radical(a, b, self.n, 53, 2)) for a, b in (
            (self.exact.re, self.sqrt_n.re), (self.exact.im, self.sqrt_n.im))))

    def real(self) -> float:
        if rounded_radical(self.exact.im, self.sqrt_n.im, self.n, 53, 2):
            raise ValueError(f"trace value {self.approx()} is not real")
        return self.approx().real


def _render_decimal(result_n: int, exact: ComplexRational,
                    sqrt_n: ComplexRational, digits: int) -> str:
    # one correctly rounded division per part, in this context, not the caller's
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)
    re, im = (ctx.divide(v.numerator, v.denominator) for v in (
        rounded_radical(a, b, result_n, digits) for a, b in
        ((exact.re, sqrt_n.re), (exact.im, sqrt_n.im))))
    if not im:
        return str(re)
    return f"{re}{'-' if im.is_signed() else '+'}{im.copy_abs()}i"


def _node_values(n: int, keys, rows) -> list:
    """Each row's sum over the cells of n sites, over the identity's 2^n."""
    sums = sector_moments(n, keys, (s.multiplicity for s in irrep_sectors(n)),
                          itertools.repeat(1))
    return [Fraction(sum(c * s for c, s in zip(row, sums)), sums[0]) for row in rows]


def _lagrange(count: int, x: int) -> list:
    """Weights w with sum_i w_i p(i) = p(x), i = 1 ... count, for every
    polynomial p of degree < count."""
    nodes = range(1, count + 1)
    return [Fraction(math.prod(x - j for j in nodes if j != i),
                     math.prod(i - j for j in nodes if j != i)) for i in nodes]


def _diagonal_values(N: int, diagonals: Sequence[_Poly2]) -> list:
    """Each diagonal's sum over the cells of N sites, over 2^N, from one
    ``monomial_rows`` call: every sector is summed up to ``CROSSOVER_N``
    sites.  Above it, 2^{-n} tr a^k u^(2i) is a polynomial in n of degree
    i + k, so each value is fixed by the nodes n = 1 ... d + 1, d the largest
    i + k, and evaluated at N; a mismatch at the check node n = d + 2 raises
    ArithmeticError."""
    keys, rows = monomial_rows(diagonals)
    if N <= CROSSOVER_N:
        return _node_values(N, keys, rows)
    degree, out = max(i + k for i, k in keys), []
    at_check, at_n = _lagrange(degree + 1, degree + 2), _lagrange(degree + 1, N)
    for *fit, check in zip(*(_node_values(n, keys, rows) for n in range(1, degree + 3))):
        if sum(w * v for w, v in zip(at_check, fit)) != check:
            raise ArithmeticError(
                f"trace polynomial of degree {degree} misses its check node")
        out.append(sum(w * v for w, v in zip(at_n, fit)))
    return out


def normalized_trace(N: int, poly: SpinPolynomial, digits: int = 12,
                     use_float: bool = False) -> TraceResult:
    """Exact 2^{-N} trace of a polynomial with 1/sqrt(N) per letter.

    Each letter count's diagonal is summed over the N + 1 sectors up to
    ``CROSSOVER_N`` sites; above it the same sums are taken at a few small n
    and interpolated in n.  Set ``use_float`` to round the exact value to
    binary64; the result is then labeled with ``float_path=True`` and
    ``exact`` holds the rounding.
    """
    if digits > MAX_DIGITS:
        raise ResourceLimitError(f"{digits} digits exceed the limit of {MAX_DIGITS}")
    check_trace_budget(N, poly)
    diagonal = _sector_trace_poly(poly)
    values = _diagonal_values(N, list(diagonal.values()))
    parts = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for (L, imaginary), v in zip(diagonal, values):
        divisor, radical = letter_scale(N, L)
        parts[radical][imaginary] += v / (divisor * 2**L * poly.den)
    exact, sqrt_n = (ComplexRational(*p) for p in parts)
    if use_float:
        return _normalized_trace_float(N, exact, sqrt_n, digits)
    return TraceResult(N, exact, sqrt_n, _render_decimal(N, exact, sqrt_n, digits))


def _normalized_trace_float(N: int, exact, sqrt_n, digits: int) -> TraceResult:
    """The binary64 rounding of an exact trace ``exact + sqrt_n sqrt(N)``."""
    value = TraceResult(N, exact, sqrt_n).approx()
    exact = ComplexRational(Fraction(value.real), Fraction(value.imag))
    decimal = _render_decimal(N, exact, ComplexRational(0), digits) + " (float)"
    return TraceResult(N, exact, decimal=decimal, float_path=True)


# ---------------------------------------------------------------------------
# Dense tensor-product oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _collective_ops(N: int):
    """Sparse integer collective operators S+, S-, 2*Sz on the 2^N space.

    Bit b of a basis index is 0 when its site is up.  S+ clears one set bit,
    so it has a 1 at (i - 2^b, i) for each set bit b of i; S- is its
    transpose, and 2 Sz is diagonal with N - 2 popcount(i).
    """
    import numpy as np
    import scipy.sparse as sp

    index = np.arange(2**N, dtype=np.int64)
    down = [index[(index >> b) & 1 == 1] for b in range(N)]
    cols = np.concatenate(down)
    rows = np.concatenate([c - (1 << b) for b, c in enumerate(down)])
    splus = sp.csr_matrix((np.ones(len(cols), np.int64), (rows, cols)),
                          shape=(2**N, 2**N))
    twice_sz = sp.diags(N - 2 * sum((index >> b) & 1 for b in range(N)),
                        format="csr", dtype=np.int64)
    twice_sz.eliminate_zeros()
    return {PLUS: splus, MINUS: splus.T.tocsr(), Z: twice_sz}


def _check_int64(N: int, terms: dict) -> None:
    """Refuse ``terms`` when their longest word, of L letters, is too long: S+,
    S-, 2Sz have entries and row sums <= N, so any product of <= L letters,
    and its trace, is at most 2^N * N^L.  L is that of the expanded words,
    since cancellation can leave it below the tree's degree."""
    L = max(map(len, terms), default=0)
    if 2**N * N**L >= 2**63:
        raise ResourceLimitError(
            f"dense oracle: a {L}-letter word at N={N} can reach "
            f"2^N * N^L = {2**N * N**L} >= 2^63, beyond int64"
        )


def _chain(ops, letters: Sequence[str]):
    """The integer product of ``letters`` left to right (identity if none)."""
    import scipy.sparse as sp

    if not letters:
        return sp.identity(ops[PLUS].shape[0], dtype=ops[PLUS].dtype, format="csr")
    prod = ops[letters[0]]
    for ch in letters[1:]:
        prod = prod @ ops[ch]
    return prod


def dense_oracle_trace(N: int, poly: SpinPolynomial, digits: int = 12) -> TraceResult:
    """Independent trace via explicit tensor products of Pauli operators.

    Builds the collective operators on the full 2^N space with integer
    entries (2*Sz keeps everything integral) and reads each exact trace as
    sum(P .* Q^T), where P and Q are the products of the first and second
    half of the word.  A trace is invariant under cyclic rotation, so it is
    computed once per rotation class, from the class's least rotation.
    Refuses N > ``DENSE_ORACLE_CAP``, digits > ``MAX_DIGITS`` and int64 overflow.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > DENSE_ORACLE_CAP:
        raise ResourceLimitError(
            f"dense oracle supports N <= {DENSE_ORACLE_CAP}; got N={N}")
    if digits > MAX_DIGITS:
        raise ResourceLimitError(f"{digits} digits exceed the limit of {MAX_DIGITS}")
    terms = words(poly)
    _check_int64(N, terms)
    ops = _collective_ops(N)
    pow2 = 2**N
    class_traces: Dict[SpinWord, int] = {}
    parts = [ComplexRational(0), ComplexRational(0)]  # rational, sqrt(N)
    for word, coeff in terms.items():
        L = len(word)
        key = min((word[i:] + word[:i] for i in range(L)), default=word)
        if key not in class_traces:
            half = (L + 1) // 2
            P, Q = _chain(ops, key[:half]), _chain(ops, key[half:])
            class_traces[key] = int(P.multiply(Q.T).sum())
        divisor, radical = letter_scale(N, L)
        parts[radical] += coeff * Fraction(
            class_traces[key], 2 ** word.count(Z) * pow2 * divisor)
    exact, sqrt_n = parts
    return TraceResult(N, exact, sqrt_n, _render_decimal(N, exact, sqrt_n, digits))

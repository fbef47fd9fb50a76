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
degree i + k.  Above ``CROSSOVER_N`` sites each monomial's polynomial is
fitted once per process, from its sums at n = 1 ... i + k + 2, the last of
which checks it, and evaluated at N in integers.  A dense oracle checks
small N from the action of the letters on the 2^N basis: every letter
commutes with site permutations, so it walks the expression tree on one
basis state per number of down sites, in the span of two-group Dicke sums.
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

#: largest N of the dense trace oracle
DENSE_ORACLE_CAP = 14
#: longest word a trace or a power p**k may hold; trace cost grows ~ L^3
MAX_WORD_LETTERS = 64
#: largest N whose trace sums every sector, at most 8256 cells; above it only
#: the interpolation nodes n <= MAX_WORD_LETTERS // 2 + 2 are summed, once per key
CROSSOVER_N = 2 * MAX_WORD_LETTERS
#: budget on the estimated number of terms in the word expansion of a product
#: or power, about 6 s at most: normal-order of (S+ + S- + Sz)^10, 59049
#: words, takes 3.7 s, ~60 us per word (2-vCPU VM, Python 3.11)
MAX_POWER_TERMS = 10**5
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


def check_digits(digits: int) -> None:
    """Refuse a digit count below 1 or above ``MAX_DIGITS`` before any work."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1; got {digits}")
    if digits > MAX_DIGITS:
        raise ResourceLimitError(f"{digits} digits exceed the limit of {MAX_DIGITS}")


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
    factors for XY.  ``keys`` are sorted; with (0, 0) first, as
    ``monomial_rows`` makes them, ``sums[0]`` is the total weight.
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


#: {(i, k): Newton forward differences at n = 1, of order 0 ... i + k, of
#: 2^{-n} tr_n a^k u^(2i)}, each an integer over 2^_FIT_BITS, as node values
#: at n <= _FIT_BITS are.  Only checked fits are stored, each written whole;
#: i + k <= MAX_WORD_LETTERS // 2 bounds it to 561 keys.
_fits: Dict[Tuple[int, int], Tuple[int, ...]] = {}
_FIT_BITS = MAX_WORD_LETTERS // 2 + 2


def _diagonal_values(N: int, diagonals: Sequence[_Poly2]) -> list:
    """Each diagonal's sum over the cells of N sites, over 2^N, from one
    ``monomial_rows`` call: every sector is summed up to ``CROSSOVER_N``
    sites.  Above it, P(n) = 2^{-n} tr_n a^k u^(2i) is a polynomial in n of
    degree d = i + k, fitted once per key and process: the keys missing
    from ``_fits`` are summed in one set of node passes, n = 1 ... their
    largest d + 2, and are stored once each key's difference of order d + 1
    (the check node) is 0; otherwise ArithmeticError is raised and none is
    stored.  Then P(N) = sum_j C(N - 1, j) Delta^j P(1), in integers."""
    keys, rows = monomial_rows(diagonals)
    if N <= CROSSOVER_N:
        return _node_values(N, keys, rows)
    if missing := [key for key in keys if key not in _fits]:
        nodes = [sector_moments(n, missing, (s.multiplicity for s in irrep_sectors(n)),
                                itertools.repeat(1))
                 for n in range(1, max(i + k for i, k in missing) + 3)]
        fitted = {}
        for (i, k), column in zip(missing, zip(*nodes)):
            diffs, row = [], [s << (_FIT_BITS - n) for n, s in enumerate(column[:i + k + 2], 1)]
            while row:
                diffs.append(row[0])
                row = [b - a for a, b in zip(row, row[1:])]
            if diffs.pop():
                raise ArithmeticError(
                    f"trace polynomial of degree {i + k} misses its check node")
            fitted[i, k] = tuple(diffs)
        _fits.update(fitted)
    binomials = [1]  # C(N - 1, j)
    for j in range(max(i + k for i, k in keys)):
        binomials.append(binomials[-1] * (N - 1 - j) // (j + 1))
    at_n = [sum(b * d for b, d in zip(binomials, _fits[key])) for key in keys]
    return [Fraction(sum(c * v for c, v in zip(row, at_n)), 1 << _FIT_BITS) for row in rows]


def normalized_trace(N: int, poly: SpinPolynomial, digits: int = 12,
                     use_float: bool = False) -> TraceResult:
    """Exact 2^{-N} trace of a polynomial with 1/sqrt(N) per letter.

    Each letter count's diagonal is summed over the N + 1 sectors up to
    ``CROSSOVER_N`` sites; above it each monomial's exact polynomial in n,
    fitted once per process from a few small n, is evaluated at N.  Set
    ``use_float`` to round the exact value to binary64; the result is then
    labeled with ``float_path=True`` and ``exact`` holds the rounding.
    """
    check_digits(digits)
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


def check_dense_budget(N: int, poly: SpinPolynomial, cap: int) -> None:
    """Refuse a dense oracle of ``poly`` at N sites before any walk: what
    ``check_trace_budget`` refuses, then N above the oracle's ``cap``."""
    check_trace_budget(N, poly)
    if N > cap:
        raise ResourceLimitError(f"dense oracle supports N <= {cap}; got N={N}")


def _letter(N: int, k: int, ch: str, state: dict) -> dict:
    """Twice one letter on a vector of shell k, {(L, imaginary, a, b):
    coefficient of |a, b>}, with L one higher.  |a, b> is the sum of the
    basis states with a of the first k sites and b of the other N - k down,
    and the letters map these sums to each other:
    S+|a, b> = (k - a + 1)|a - 1, b> + (N - k - b + 1)|a, b - 1>,
    S-|a, b> = (a + 1)|a + 1, b> + (b + 1)|a, b + 1> and
    2Sz|a, b> = (N - 2a - 2b)|a, b>."""
    out: Dict[Tuple[int, int, int, int], int] = {}
    for (L, i, a, b), c in state.items():
        if ch == Z:
            steps = (((a, b), N - 2 * (a + b)),)
        elif ch == PLUS:
            steps = (((a - 1, b), 2 * (k - a + 1)), ((a, b - 1), 2 * (N - k - b + 1)))
        else:
            steps = (((a + 1, b), 2 * (a + 1)), ((a, b + 1), 2 * (b + 1)))
        for (x, y), m in steps:
            if 0 <= x <= k and 0 <= y <= N - k and m:
                out[L + 1, i, x, y] = out.get((L + 1, i, x, y), 0) + m * c
    return out


def _shell_apply(N: int, k: int, expr: SpinPolynomial, state: dict) -> dict:
    """den times ``expr`` applied to a vector of shell k (see ``_letter``),
    with each L-letter part of it also times 2^L, in Python integers: a
    constant multiplies by the Gaussian integer den c, a sum adds its terms,
    each times den / its den, and a product applies its factors right to
    left, a power its base as often as its exponent."""
    kind, args = expr.kind, expr.args
    if kind == "letter":
        return _letter(N, k, args[0], state)
    if kind in ("product", "power"):
        for f in reversed(args) if kind == "product" else itertools.repeat(*args):
            state = _shell_apply(N, k, f, state)
        return state
    if kind == "constant":
        re, im = (p.numerator * expr.den // p.denominator for p in (args[0].re, args[0].im))
        times_i = {(L, 1 - i, a, b): -v if i else v for (L, i, a, b), v in state.items()}
        parts = ((re, state), (im, times_i))
    else:  # a sum
        parts = ((expr.den // t.den, _shell_apply(N, k, t, state)) for t in args)
    out: Dict[Tuple[int, int, int, int], int] = {}
    for scale, vector in parts:
        for key, v in vector.items():
            out[key] = out.get(key, 0) + scale * v
    return {key: v for key, v in out.items() if v}


def dense_oracle_trace(N: int, poly: SpinPolynomial, digits: int = 12) -> TraceResult:
    """Independent trace from the action of the letters on the 2^N basis.

    Every letter commutes with the site permutations, so the diagonal element
    of ``poly`` at a basis state depends only on its number k of down sites:
    the trace is sum_k C(N, k) <e_k|poly|e_k>, with e_k the state whose first
    k sites are down.  Permuting the first k sites, or the last N - k, fixes
    e_k, so poly e_k stays in the span of the sums |a, b> of ``_letter``,
    where e_k = |k, 0> is a single state; ``_shell_apply`` walks the tree on
    it, and <e_k|poly|e_k> is the coefficient of |k, 0>, exact in Python
    integers.  Refuses digits below 1 or above ``MAX_DIGITS``, then what
    ``check_dense_budget`` refuses with the cap ``DENSE_ORACLE_CAP``, before
    any walk.
    """
    check_digits(digits)
    check_dense_budget(N, poly, DENSE_ORACLE_CAP)
    traces: Dict[Tuple[int, int], int] = {}  # (L, imaginary): sum over shells
    binomial = 1  # C(N, k)
    for k in range(N + 1):
        for (L, i, a, b), c in _shell_apply(N, k, poly, {(0, 0, k, 0): 1}).items():
            if (a, b) == (k, 0):
                traces[L, i] = traces.get((L, i), 0) + binomial * c
        binomial = binomial * (N - k) // (k + 1)
    parts = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for (L, i), trace in traces.items():
        divisor, radical = letter_scale(N, L)
        parts[radical][i] += Fraction(trace, poly.den * 2**L * 2**N * divisor)
    exact, sqrt_n = (ComplexRational(*p) for p in parts)
    return TraceResult(N, exact, sqrt_n, _render_decimal(N, exact, sqrt_n, digits))

"""Exact traces of polynomials in scaled collective spin operators.

For N spin-1/2 sites the collective operators S_+, S_-, S_z act block
diagonally on total-spin sectors j, each occurring with the Catalan-triangle
multiplicity d(N, j).  Every operator letter carries an implicit 1/sqrt(N),
so the normalized trace of a word of length L is

    2^{-N} N^{-L/2} sum_j d(N, j) tr_j(word).

The per-sector trace is evaluated symbolically.  Diagonal matrix elements do
not change under a diagonal similarity, so each word is walked in the
Dyson-Maleev gauge (S+ with amplitude 1, S- with j(j+1) - m(m-1), Sz with m),
where 2^L times the diagonal of a length-L word is a polynomial in
a = 4j(j+1) and u = 2m with integer coefficients.  ``fold_diagonals`` sums
these polynomials, with their coefficients and letter scales, into integer
tables over one common denominator, and ``sector_sums`` sums a table against
a weight over every (j, m) cell in one pass over the sectors, from running
sums of the even powers of m.  The exact trace and the XY thermal expectation
differ only in that weight; the binary64 trace rounds the exact one.  Every
site operator is traceless, so 2^{-n} tr_n of an L-letter word is a
polynomial in n of degree <= L/2 for all n >= 1: above ``CROSSOVER_N`` sites
the tables folded at N are summed at n = 1 ... L/2 + 2 only, and the exact
polynomial through all but the last node, which checks it, is evaluated at N.
A dense tensor-product oracle over the 2^N space checks small N.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .rationals import CoefficientMap, ComplexRational

PLUS = "+"
MINUS = "-"
Z = "z"
LETTERS = (PLUS, MINUS, Z)

#: A word is a finite tuple of letters, applied right-to-left like a product.
SpinWord = Tuple[str, ...]

DEFAULT_ORACLE_CAP = 14
#: budget on (sector dimension) x (total word degree) for a sum over sectors
MAX_TRACE_CELLS = 10**8
#: longest word a trace or a power p**k may hold; trace cost grows ~ L^3
MAX_WORD_LETTERS = 64
#: largest N whose trace sums every sector, at most 8256 cells; above it only
#: the interpolation nodes n <= MAX_WORD_LETTERS // 2 + 2 are summed
CROSSOVER_N = 2 * MAX_WORD_LETTERS
#: budget on the estimated number of terms in a power p**k
MAX_POWER_TERMS = 10**6


class ResourceLimitError(Exception):
    """Raised when a computation would exceed its configured budget."""


def _check_word_length(length: int) -> None:
    if length > MAX_WORD_LETTERS:
        raise ResourceLimitError(
            f"words of {length} letters exceed the limit of {MAX_WORD_LETTERS}"
        )


def check_trace_budget(N: int, poly: "SpinPolynomial") -> None:
    """Refuse a trace of ``poly`` at N sites before any work is done."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_word_length(poly.degree())


def check_sector_budget(N: int, poly: "SpinPolynomial") -> None:
    """``check_trace_budget`` plus the (N + 1) x degree cells of a sum over
    every sector."""
    check_trace_budget(N, poly)
    degree = poly.degree()
    if (N + 1) * max(1, degree) > MAX_TRACE_CELLS:
        raise ResourceLimitError(
            f"sector dimension {N + 1} x degree {degree} exceeds "
            f"budget {MAX_TRACE_CELLS}"
        )


def _check_word(word: Sequence[str]) -> SpinWord:
    w = tuple(word)
    for ch in w:
        if ch not in LETTERS:
            raise ValueError(f"unknown spin letter {ch!r}")
    return w


class SpinPolynomial(CoefficientMap):
    """Exact linear combination of words over {S+, S-, Sz}.

    Each letter carries an implicit 1/sqrt(N) scaling that is applied when a
    trace is taken.  Coefficients are Gaussian rationals; zero coefficients
    are never stored.
    """

    __slots__ = ()
    _check_key = staticmethod(_check_word)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "SpinPolynomial":
        return cls({(): ComplexRational(1)})

    @classmethod
    def from_word(cls, word: Sequence[str], coeff=1) -> "SpinPolynomial":
        return cls({tuple(word): ComplexRational.coerce(coeff)})

    @classmethod
    def s_plus(cls) -> "SpinPolynomial":
        return cls.from_word((PLUS,))

    @classmethod
    def s_minus(cls) -> "SpinPolynomial":
        return cls.from_word((MINUS,))

    @classmethod
    def s_z(cls) -> "SpinPolynomial":
        return cls.from_word((Z,))

    @classmethod
    def s_x(cls) -> "SpinPolynomial":
        half = ComplexRational(Fraction(1, 2))
        return cls({(PLUS,): half, (MINUS,): half})

    @classmethod
    def s_y(cls) -> "SpinPolynomial":
        # Sy = (S+ - S-) / (2i)
        c = ComplexRational(0, Fraction(-1, 2))
        return cls({(PLUS,): c, (MINUS,): -c})

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other) -> "SpinPolynomial":
        if not isinstance(other, SpinPolynomial):
            return self.scale(other)
        out: Dict[SpinWord, ComplexRational] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, ComplexRational(0)) + c1 * c2
        return SpinPolynomial(out)

    def __pow__(self, n: int) -> "SpinPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        if self._power_terms_estimate(n) > MAX_POWER_TERMS:
            raise ResourceLimitError(
                f"power {n} of a {len(self.terms)}-term polynomial would have "
                f"more than {MAX_POWER_TERMS} terms"
            )
        _check_word_length(n * self.degree())
        out = SpinPolynomial.identity()
        for _ in range(n):
            out = out * self
        return out

    def _power_terms_estimate(self, n: int) -> int:
        """Estimate min(t^n, sum_{L <= n*d} a^L) of the terms in self**n.

        t is the number of terms, d the degree and a the number of distinct
        letters.  Exponents are clipped where the value is already over the
        budget, so no large integer is built.
        """
        clip = MAX_POWER_TERMS.bit_length()  # 2**clip > MAX_POWER_TERMS
        letters = len({ch for word in self.terms for ch in word})
        length = n * self.degree()
        if letters == 1:
            words = length + 1
        else:
            words = sum(letters**L for L in range(min(length, clip) + 1))
        return min(len(self.terms) ** min(n, clip), words)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "SpinPolynomial(0)"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            name = "".join("S" + ch for ch in w) or "1"
            parts.append(f"({self.terms[w]})*{name}")
        return "SpinPolynomial(" + " + ".join(parts) + ")"


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
# Symbolic per-word trace machinery
#
# Variables: a = 2j(2j+2) (so j(j+1) = a/4) and u = 2m.  A diagonal similarity
# leaves every diagonal matrix element of a word unchanged, so words are
# walked in the Dyson-Maleev gauge, where S+ moves m up with amplitude 1,
# S- moves it down with amplitude j(j+1) - m(m-1) = (a - u(u-2))/4 and Sz
# multiplies by m = u/2.  Times 2^L, the diagonal of a length-L word is then
# a polynomial in (a, u) with integer coefficients.
# ---------------------------------------------------------------------------

_Poly2 = Dict[Tuple[int, int], int]


def _word_diag_poly(word: SpinWord) -> _Poly2 | None:
    """2^L times the diagonal element of a length-L word, a polynomial in (a, u).

    Returns None when the word changes m, i.e. the diagonal vanishes
    identically.  The walk runs right to left at offset d from u; a walk that
    leaves |m| <= j must step back down across m = +-j, where the S- amplitude
    vanishes, so the polynomial is exact in every cell of every sector.
    """
    if word.count(PLUS) != word.count(MINUS):
        return None
    d = 0
    poly: _Poly2 = {(0, 0): 1}
    for ch in reversed(word):
        if ch == PLUS:
            d += 2
            continue
        # (a power, u power, coefficient) of the factor
        if ch == MINUS:  # a - (u+d)(u+d-2)
            factor = ((1, 0, 1), (0, 2, -1), (0, 1, 2 - 2 * d), (0, 0, d * (2 - d)))
            d -= 2
        else:  # u + d
            factor = ((0, 1, 1), (0, 0, d))
        out: _Poly2 = {}
        for (ka, ku), c in poly.items():
            for la, lu, f in factor:
                if f:
                    key = (ka + la, ku + lu)
                    out[key] = out.get(key, 0) + c * f
        poly = out
    return {k: c for k, c in poly.items() if c}


def _p1_eval(coeffs: Sequence[int], x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def letter_scale(N: int, L: int) -> Tuple[int, bool]:
    """N^{-L/2} as 1 / divisor, and whether sqrt(N) multiplies it."""
    return N ** ((L + 1) // 2), L % 2 == 1


def fold_diagonals(N: int, poly: SpinPolynomial):
    """The diagonal of ``poly`` at N sites as integer tables in (a, u).

    Every word's diagonal polynomial, its coefficient and its letter scale
    N^{-L/2} are summed exactly, one table for each combination of a
    rational or sqrt(N) scale and a real or imaginary coefficient part.  All
    tables share the denominator 2^L N^{ceil(L/2)} lcm(coefficient
    denominators), L the degree of ``poly``.  Returns (rows, denominator,
    radical, imaginary) for each nonzero table; rows[ku][ka] / denominator is
    the coefficient of a^ka u^ku.
    """
    degree = poly.degree()
    lcd = math.lcm(*(part.denominator for c in poly.terms.values()
                     for part in (c.re, c.im)))
    top = letter_scale(N, degree)[0]
    tables = {}
    for word, coeff in poly.terms.items():
        dp = _word_diag_poly(word)
        if dp is None:
            continue
        divisor, radical = letter_scale(N, len(word))
        scale = 2 ** (degree - len(word)) * (top // divisor)
        for imaginary, part in enumerate((coeff.re, coeff.im)):
            if not part:
                continue
            rows = tables.setdefault(
                (radical, imaginary),
                [[0] * (degree // 2 + 1) for _ in range(degree + 1)])
            factor = scale * part.numerator * (lcd // part.denominator)
            for (ka, ku), c in dp.items():
                rows[ku][ka] += factor * c
    denominator = 2 ** degree * top * lcd
    return [(rows, denominator, radical, imaginary)
            for (radical, imaginary), rows in sorted(tables.items())
            if any(any(row) for row in rows)]


#: the table of the identity operator, appended to a sector sum to normalize it
IDENTITY_TABLE = [[1]]


def sector_sums(N: int, tables, weights, rhos) -> list:
    """Sum w_j rho(u) T(a, u) over the cells (j, m) of N sites, per table T.

    Tables hold T as rows[ku][ka], the coefficient of a^ka u^ku, with
    a = 2j(2j + 2) and u = 2m.  ``weights`` yields w_j and ``rhos`` yields
    rho(2j) for 2j = N mod 2, N mod 2 + 2, ..., N.  rho must be even in u,
    so the odd powers of u cancel over u = -2j..2j and the even ones come
    from running sums of rho(u) u^k over the sectors.  The arithmetic is that
    of the weights and rhos: exact int multiplicities and ones for traces
    (there are no binary64 weights; the float trace rounds the exact one), or
    ``decimal.Decimal`` Boltzmann factors for XY.  The table polynomials are
    evaluated exactly at the integer a; only the weighted sums round.
    """
    evens = [rows[::2] for rows in tables]
    # moments[i]: sum of rho(u) u^(2i) over |u| <= 2j
    moments = [0] * max(len(rows) for rows in evens)
    totals = [0] * len(tables)
    for tj, w, rho in zip(range(N % 2, N + 1, 2), weights, rhos):
        term = rho if tj == 0 else 2 * rho
        uu = tj * tj
        for i in range(len(moments)):
            moments[i] += term
            term *= uu
        a = tj * (tj + 2)
        for t, rows in enumerate(evens):
            totals[t] += w * sum(_p1_eval(row, a) * m
                                 for row, m in zip(rows, moments))
    return totals


# ---------------------------------------------------------------------------
# Normalized trace
# ---------------------------------------------------------------------------


@dataclass
class TraceResult:
    """Exact value of a normalized trace, rendered to a decimal string.

    The exact value is ``exact + sqrt_n * sqrt(N)``; the radical part is only
    nonzero for polynomials containing odd-length words with nonvanishing
    trace, where the per-letter 1/sqrt(N) scaling leaves a stray sqrt(N).
    """

    n: int
    exact: ComplexRational
    sqrt_n: ComplexRational = field(default_factory=ComplexRational)
    decimal: str = ""
    float_path: bool = False

    def approx(self) -> complex:
        return complex(self.exact) + complex(self.sqrt_n) * math.sqrt(self.n)

    def real(self) -> float:
        v = self.approx()
        if abs(v.imag) > 1e-12 * max(1.0, abs(v.real)):
            raise ValueError(f"trace value {v} is not real")
        return v.real


def _render_decimal(result_n: int, exact: ComplexRational,
                    sqrt_n: ComplexRational, digits: int) -> str:
    ctx = decimal.Context(prec=digits + 10, rounding=decimal.ROUND_HALF_EVEN)
    out_ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)

    def frac(f: Fraction):
        return ctx.divide(decimal.Decimal(f.numerator), decimal.Decimal(f.denominator))

    whole = math.isqrt(result_n)
    if whole * whole == result_n:  # an exact root leaves no trailing zeros
        exact, sqrt_n = exact + sqrt_n * whole, ComplexRational(0)
    root = ctx.sqrt(decimal.Decimal(result_n)) if sqrt_n else decimal.Decimal(0)
    re = out_ctx.plus(frac(exact.re) + frac(sqrt_n.re) * root)
    im = out_ctx.plus(frac(exact.im) + frac(sqrt_n.im) * root)
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def _node_values(n: int, rows) -> list:
    """Sector sums of the tables ``rows`` at n sites over the identity's 2^n."""
    *sums, total = sector_sums(
        n, rows + [IDENTITY_TABLE], (s.multiplicity for s in irrep_sectors(n)),
        itertools.repeat(1))
    return [Fraction(s, total) for s in sums]


def _lagrange(values: Sequence[Fraction], x: int) -> Fraction:
    """The polynomial through (1, values[0]), (2, values[1]), ... at x."""
    nodes = range(1, len(values) + 1)
    return sum(v * Fraction(math.prod(x - j for j in nodes if j != i),
                            math.prod(i - j for j in nodes if j != i))
               for i, v in zip(nodes, values))


def _interpolated_values(N: int, rows, degree: int) -> list:
    """``_node_values(N, rows)`` from the nodes n = 1 ... degree // 2 + 2.

    Each value is a polynomial in n of degree <= degree // 2, fixed by all but
    the last node; a mismatch at the last one raises ArithmeticError.
    """
    out = []
    for *fit, check in zip(*(_node_values(n, rows)
                             for n in range(1, degree // 2 + 3))):
        if _lagrange(fit, len(fit) + 1) != check:
            raise ArithmeticError(
                f"trace polynomial of degree {degree // 2} misses its check node")
        out.append(_lagrange(fit, N))
    return out


def normalized_trace(
    N: int,
    poly: SpinPolynomial,
    digits: int = 12,
    use_float: bool = False,
) -> TraceResult:
    """Exact 2^{-N} trace of a polynomial with 1/sqrt(N) per letter.

    Up to ``CROSSOVER_N`` sites the N + 1 sectors are summed directly; above
    it the same tables are summed at a few small n and interpolated in n.
    Set ``use_float`` to round the exact value to binary64; the result is
    then labeled with ``float_path=True`` and ``exact`` holds the rounding.
    """
    check_trace_budget(N, poly)
    tables = fold_diagonals(N, poly)
    rows = [table[0] for table in tables]
    values = (_node_values(N, rows) if N <= CROSSOVER_N
              else _interpolated_values(N, rows, poly.degree()))
    parts = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for (_, lcd, radical, imaginary), v in zip(tables, values):
        parts[radical][imaginary] = v / lcd
    exact, sqrt_n = (ComplexRational(*p) for p in parts)
    if use_float:
        return _normalized_trace_float(N, exact, sqrt_n, digits)
    return TraceResult(N, exact, sqrt_n, _render_decimal(N, exact, sqrt_n, digits))


def _normalized_trace_float(N: int, exact, sqrt_n, digits: int) -> TraceResult:
    """The binary64 rounding of an exact trace ``exact + sqrt_n sqrt(N)``."""
    value = complex(exact) + complex(sqrt_n) * math.sqrt(N)
    exact = ComplexRational(Fraction(value.real), Fraction(value.imag))
    decimal = _render_decimal(N, exact, ComplexRational(0), digits) + " (float)"
    return TraceResult(N, exact, decimal=decimal, float_path=True)


# ---------------------------------------------------------------------------
# Dense tensor-product oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _collective_ops(N: int):
    """Sparse integer collective operators S+, S-, 2*Sz on the 2^N space."""
    import scipy.sparse as sp

    sp_site = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.int64))
    sm_site = sp_site.T.tocsr()
    sz2_site = sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=np.int64))
    eye = sp.identity(2, dtype=np.int64, format="csr")

    def collective(site_op):
        total = sp.csr_matrix((2**N, 2**N), dtype=np.int64)
        for k in range(N):
            mat = site_op if k == 0 else eye
            for i in range(1, N):
                mat = sp.kron(mat, site_op if i == k else eye, format="csr")
            total = total + mat
        return total.tocsr()

    return {PLUS: collective(sp_site), MINUS: collective(sm_site),
            Z: collective(sz2_site)}


def _check_int64(N: int, L: int) -> None:
    """Refuse L-letter words: S+, S-, 2Sz have entries and row sums <= N, so
    any product of <= L letters, and its trace, is at most 2^N * N^L."""
    if 2**N * N**L >= 2**63:
        raise ResourceLimitError(
            f"dense oracle: a {L}-letter word at N={N} can reach "
            f"2^N * N^L = {2**N * N**L} >= 2^63, beyond int64"
        )


def _chain(ops, letters: Sequence[str]):
    """The integer product of ``letters`` left to right (identity if none)."""
    import scipy.sparse as sp

    if not letters:
        return sp.identity(ops[PLUS].shape[0], dtype=np.int64, format="csr")
    prod = ops[letters[0]]
    for ch in letters[1:]:
        prod = prod @ ops[ch]
    return prod


def dense_oracle_trace(
    N: int,
    poly: SpinPolynomial,
    digits: int = 12,
    cap: int = DEFAULT_ORACLE_CAP,
) -> TraceResult:
    """Independent trace via explicit tensor products of Pauli operators.

    Builds the collective operators on the full 2^N space with integer
    entries (2*Sz keeps everything integral) and reads each exact trace as
    sum(P .* Q^T), where P and Q are the products of the first and second
    half of the word.  A trace is invariant under cyclic rotation, so it is
    computed once per rotation class, from the class's least rotation.
    Refuses N above ``cap`` and words whose products could leave int64.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > cap:
        raise ResourceLimitError(
            f"dense oracle supports N <= {cap}; got N={N}. Raise the cap "
            f"explicitly if you can afford the 2^N x 2^N construction."
        )
    _check_int64(N, poly.degree())
    ops = _collective_ops(N)
    pow2 = 2**N
    class_traces: Dict[SpinWord, int] = {}
    parts = [ComplexRational(0), ComplexRational(0)]  # rational, sqrt(N)
    for word, coeff in poly.terms.items():
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

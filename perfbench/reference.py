"""Independent references for every request the benchmark sends.

Nothing here imports spinboson.  Three methods are used:

* ``binomial_sz_moment``: 2^-N tr((2 Sz)^k) summed over the 2^N basis
  states by their count of up spins, exact at any N.
* ``TracePolynomial``: for a polynomial whose words have length L, the
  unscaled trace 2^-N tr(word) is a polynomial in N of degree <= L/2 (expand
  every letter into site operators; a site that carries one letter only
  traces to zero, so at most L/2 distinct sites contribute, and the number of
  ways to place k distinct sites is the falling factorial N(N-1)...(N-k+1)).
  The polynomial is fixed by exact traces at N = 1 .. L/2 + 1, computed here
  from integer sector matrices in a Dyson gauge (S+ -> 1, S- -> j(j+1) -
  m(m-1), a similarity transform that keeps every trace), and is then
  evaluated at the requested N.  One more point is computed and compared, so
  a wrong degree bound raises instead of passing silently.
* ``xy_spin_expectation``: the XY thermal expectation in binary64 over every
  (j, m) cell with log-gamma multiplicities and per-word diagonal walks.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Expression syntax (same grammar as the CLI: + - * ^ / parentheses, S+ S- Sz)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(S\+|S-|Sz|\d+|[-+*^/()])")


def parse(expr: str):
    """Parse an expression into a small tree of tuples."""
    tokens = []
    pos = 0
    expr = expr.rstrip()
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            raise ValueError(f"cannot parse {expr!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr_():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            node = ("add" if op == "+" else "sub", node, term())
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            node = ("mul", node, factor())
        return node

    def factor():
        node = atom()
        if peek() == "^":
            take()
            node = ("pow", node, int(take()))
        return node

    def atom():
        tok = take()
        if tok == "-":
            return ("neg", atom())
        if tok in ("S+", "S-", "Sz"):
            return ("letter", tok)
        if tok.isdigit():
            value = Fraction(int(tok))
            if peek() == "/":
                take()
                value /= int(take())
            return ("num", value)
        if tok == "(":
            node = expr_()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {expr!r}")
            return node
        raise ValueError(f"unexpected token {tok!r} in {expr!r}")

    tree = expr_()
    if peek() != "":
        raise ValueError(f"trailing input in {expr!r}")
    return tree


def word_tree(word: Sequence[str]):
    """Tree for a product of letters given as 'S+', 'S-', 'Sz'."""
    node = ("letter", word[0])
    for letter in word[1:]:
        node = ("mul", node, ("letter", letter))
    return node


# ---------------------------------------------------------------------------
# Exact evaluation in one total-spin sector.  An operator is graded by word
# length: {L: (integer matrix, denominator)}.
# ---------------------------------------------------------------------------


def _letter_matrix(letter: str, tj: int):
    dim = tj + 1
    mat = np.zeros((dim, dim), dtype=object)
    if letter == "S+":
        for i in range(dim - 1):
            mat[i + 1, i] = 1
        return mat, 1
    if letter == "S-":
        for i in range(1, dim):
            tm = 2 * i - tj
            mat[i - 1, i] = tj * (tj + 2) - (tm - 2) * tm  # 4 (j(j+1) - m(m-1))
        return mat, 4
    for i in range(dim):
        mat[i, i] = 2 * i - tj  # 2 m
    return mat, 2


def _add(x: Dict, y: Dict, sign: int = 1) -> Dict:
    out = dict(x)
    for L, (m2, d2) in y.items():
        if L in out:
            m1, d1 = out[L]
            d = d1 * d2 // math.gcd(d1, d2)
            out[L] = (m1 * (d // d1) + sign * m2 * (d // d2), d)
        else:
            out[L] = (sign * m2, d2)
    return out


def _mul(x: Dict, y: Dict) -> Dict:
    out: Dict = {}
    for L1, (m1, d1) in x.items():
        for L2, (m2, d2) in y.items():
            out = _add(out, {L1 + L2: (m1.dot(m2), d1 * d2)})
    return out


def _eval(node, tj: int, cache: Dict) -> Dict:
    kind = node[0]
    if kind == "letter":
        if node[1] not in cache:
            cache[node[1]] = {1: _letter_matrix(node[1], tj)}
        return cache[node[1]]
    if kind == "num":
        ident = np.identity(tj + 1, dtype=object) * node[1].numerator
        return {0: (ident, node[1].denominator)}
    if kind == "neg":
        return _add({}, _eval(node[1], tj, cache), -1)
    if kind in ("add", "sub"):
        return _add(_eval(node[1], tj, cache), _eval(node[2], tj, cache),
                    1 if kind == "add" else -1)
    if kind == "mul":
        return _mul(_eval(node[1], tj, cache), _eval(node[2], tj, cache))
    base = _eval(node[1], tj, cache)
    out = {0: (np.identity(tj + 1, dtype=object), 1)}
    for _ in range(node[2]):
        out = _mul(out, base)
    return out


def _max_length(node) -> int:
    kind = node[0]
    if kind == "letter":
        return 1
    if kind == "num":
        return 0
    if kind == "neg":
        return _max_length(node[1])
    if kind in ("add", "sub"):
        return max(_max_length(node[1]), _max_length(node[2]))
    if kind == "mul":
        return _max_length(node[1]) + _max_length(node[2])
    return _max_length(node[1]) * node[2]


def sector_multiplicity(N: int, tj: int) -> int:
    k = (N - tj) // 2
    return math.comb(N, k) - (math.comb(N, k - 1) if k else 0)


def unscaled_traces(tree, N: int) -> Dict[int, Fraction]:
    """{L: 2^-N tr(part of length L)} at one N, without the 1/sqrt(N)."""
    out: Dict[int, Fraction] = {}
    for tj in range(N % 2, N + 1, 2):
        mult = sector_multiplicity(N, tj)
        for L, (mat, den) in _eval(tree, tj, {}).items():
            tr = sum(mat[i, i] for i in range(tj + 1))
            out[L] = out.get(L, Fraction(0)) + Fraction(mult * tr, den)
    return {L: v / 2**N for L, v in out.items()}


def _interpolate(points: List[Tuple[int, Fraction]]) -> List[Fraction]:
    """Coefficients (lowest first) of the polynomial through the points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        for t, c in enumerate(basis):
            coeffs[t] += yi * c / denom
    return coeffs


def _poly_at(coeffs: Sequence[Fraction], x) -> Fraction:
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * x + c
    return v


class TracePolynomial:
    """Exact normalized trace of one expression at every N.

    ``value(N)`` is 2^-N tr(poly) with 1/sqrt(N) per letter, as an exact
    rational.  Only even word lengths may have a nonzero trace.
    """

    def __init__(self, tree):
        self.max_length = _max_length(tree)
        npts = self.max_length // 2 + 1
        samples = {n: unscaled_traces(tree, n) for n in range(1, npts + 2)}
        lengths = sorted({L for s in samples.values() for L in s})
        self.polys: Dict[int, List[Fraction]] = {}
        for L in lengths:
            pts = [(n, samples[n].get(L, Fraction(0))) for n in range(1, npts + 1)]
            coeffs = _interpolate(pts)
            check = samples[npts + 1].get(L, Fraction(0))
            if _poly_at(coeffs, npts + 1) != check:
                raise ArithmeticError(f"trace of length-{L} part is not a "
                                      f"polynomial of degree <= {npts - 1}")
            if any(coeffs):
                if L % 2:
                    raise ValueError("odd-length words with nonzero trace "
                                     "carry a sqrt(N) part; not supported")
                self.polys[L] = coeffs

    @classmethod
    def of(cls, expr: str) -> "TracePolynomial":
        return cls(parse(expr))

    def value(self, N: int) -> Fraction:
        return sum((_poly_at(c, N) / Fraction(N) ** (L // 2)
                    for L, c in self.polys.items()), Fraction(0))

    def limit(self) -> Fraction:
        """N -> infinity limit: the N^(L/2) coefficient of each part."""
        return sum((c[L // 2] for L, c in self.polys.items() if len(c) > L // 2),
                   Fraction(0))


def binomial_sz_moment(N: int, k: int) -> Fraction:
    """2^-N tr((2 Sz / sqrt(N))^k), summed over the 2^N basis states by
    their number of down spins i (eigenvalue 2 Sz = N - 2i)."""
    if k % 2:
        return Fraction(0)
    total = 0
    c = 1  # C(N, i)
    for i in range(N + 1):
        total += c * (N - 2 * i) ** k
        c = c * (N - i) // (i + 1)
    return Fraction(total, 2**N * N ** (k // 2))


def round_sig(value: Fraction, digits: int) -> Decimal:
    """Exact rational correctly rounded to ``digits`` significant digits."""
    if value == 0:
        return Decimal(0)
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    return ctx.divide(Decimal(value.numerator), Decimal(value.denominator))


def distinct_orderings(word: Sequence[str]) -> List[Tuple[str, ...]]:
    return sorted(set(permutations(word)))


def ordering_spread(word: Sequence[str], N: int) -> float:
    """Largest minus smallest trace over the distinct orderings of a word."""
    values = [float(TracePolynomial(word_tree(w)).value(N))
              for w in distinct_orderings(word)]
    return max(values) - min(values)


# ---------------------------------------------------------------------------
# XY thermal expectation, binary64
# ---------------------------------------------------------------------------


def xy_spin_expectation(g: float, N: int,
                        words: Sequence[Tuple[int, Sequence[str]]]) -> float:
    """<f> under exp(-(g/2N)(a - u^2)) with a = 2j(2j+2), u = 2m.

    ``words`` are (integer coefficient, letters); each letter carries
    1/sqrt(N).  Diagonal elements follow the Dyson-gauge walk of each word.
    """
    sectors = np.arange(N % 2, N + 1, 2)
    k = (N - sectors) // 2
    log_mult = np.array([
        math.lgamma(N + 1) - math.lgamma(ki + 1) - math.lgamma(N - ki + 1)
        + math.log1p(-ki / (N - ki + 1))  # C(N,k) - C(N,k-1) = C(N,k)(1 - k/(N-k+1))
        for ki in k
    ])
    dims = sectors + 1
    tj = np.repeat(sectors, dims).astype(float)
    log_mult = np.repeat(log_mult, dims)
    tm = np.concatenate([np.arange(-t, t + 1, 2) for t in sectors]).astype(float)
    a = tj * (tj + 2)
    log_w = log_mult - g * (a - tm * tm) / (2 * N)
    w = np.exp(log_w - log_w.max())
    f = np.zeros_like(tm)
    for coeff, word in words:
        cur = tm.copy()
        amp = np.ones_like(tm)
        for letter in reversed(word):
            if letter == "Sz":
                amp *= cur / 2
            elif letter == "S+":
                cur += 2
            else:
                amp *= (a - (cur - 2) * cur) / 4
                cur -= 2
        if np.any(cur != tm):
            continue  # net shift: no diagonal part
        f += coeff * amp * N ** (-len(word) / 2)
    return float(np.sum(w * f) / np.sum(w))


def xy_boson_expectation(g: Fraction,
                         words: Sequence[Tuple[int, Sequence[str]]]) -> float:
    """Large-N limit: each word with m raisings and m lowerings gives
    m! (x / (1 - B x))^m = m! / (2 (1 + g))^m at x = 1/3, B = 1 - 2g."""
    total = Fraction(0)
    for coeff, word in words:
        m = word.count("S+")
        if m == word.count("S-"):
            total += coeff * math.factorial(m) / (2 * (1 + g)) ** m
    return float(total)


def xy_partition_function(g: Fraction) -> float:
    r = float(3 / (1 - 2 * g))
    return r**-0.5 / (1 - 1 / r)


def xy_effective_temperature(gamma: Fraction, g: Fraction) -> float:
    return 2 * abs(float(gamma)) / math.log(3 / float(1 - 2 * g))

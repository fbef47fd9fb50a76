"""Single-mode symbolic Weyl algebra.

Two distinct orderings live here and must not be confused:

* ``normal_order_symbol`` is the map that takes a commuting polynomial in
  (z*, z) and re-types it with every z* as a creation operator on the left,
  coefficients unchanged.  It is not an operator identity.
* ``wick_reorder`` rewrites an operator word into its normal form using the
  commutator [a, a+] = 1, which *is* an operator identity, and serves as an
  independent check of the Stirling-number expansion of a+^n a^n.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .rationals import ComplexRational

CREATE = "C"
ANNIHILATE = "A"

#: operator word over {CREATE, ANNIHILATE}, applied right-to-left
OperatorWord = Tuple[str, ...]

_TermMap = Dict[Tuple[int, int], ComplexRational]


class _TermPolynomial:
    """Finitely supported map (m, n) -> ComplexRational with m, n >= 0; zero
    coefficients are never stored."""

    def __init__(self, terms=None):
        self.terms = {}
        for (m, n), c in (terms or {}).items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in key ({m}, {n})")
            if c := ComplexRational.coerce(c):
                self.terms[m, n] = c

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ComplexRational(0)) + c
        return type(self)(out)

    def scale(self, scalar):
        c = ComplexRational.coerce(scalar)
        return type(self)({k: c * v for k, v in self.terms.items()})

    def to_json(self) -> str:
        data = {
            f"{m},{n}": [str(c.re), str(c.im)]
            for (m, n), c in sorted(self.terms.items())
        }
        return json.dumps(data)


class BosonSymbol(_TermPolynomial):
    """Commuting polynomial in (z*, z); key (m, n) is the monomial z*^m z^n."""

    def __repr__(self):
        if not self.terms:
            return "BosonSymbol(0)"
        parts = [f"({c})*z*^{m} z^{n}" for (m, n), c in sorted(self.terms.items())]
        return "BosonSymbol(" + " + ".join(parts) + ")"


class NormalForm(_TermPolynomial):
    """Normally ordered operator: key (m, n) denotes a+^m a^n."""

    def diagonal_element(self, level: int) -> ComplexRational:
        """Exact <level| form |level>; only m = n terms contribute."""
        return sum((c * Fraction(math.factorial(level), math.factorial(level - m))
                    for (m, n), c in self.terms.items() if m == n <= level),
                   ComplexRational(0))

    def render(self) -> str:
        """Human-readable normal-ordered sum for CLI display."""
        if not self.terms:
            return "0"
        parts = []
        for (m, n), c in sorted(self.terms.items()):
            factors = []
            if m:
                factors.append("ad" + (f"^{m}" if m > 1 else ""))
            if n:
                factors.append("a" + (f"^{n}" if n > 1 else ""))
            mono = " ".join(factors) or "1"
            parts.append(f"({c}) {mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"NormalForm<{self.render()}>"


def normal_order_symbol(sym: BosonSymbol) -> NormalForm:
    """Re-type a commuting symbol as a normally ordered operator.

    Coefficients are carried over unchanged; z* becomes a creation operator
    on the left of every annihilation operator.
    """
    return NormalForm(dict(sym.terms))


def wick_reorder(word: Sequence[str]) -> NormalForm:
    """Normal form of an operator word via a a+ = a+ a + 1.

    The word is applied right-to-left; the returned NormalForm equals the
    word exactly as an operator.
    """
    # accumulate the product left to right, right-multiplying the running
    # normal form by one letter at a time
    state: _TermMap = {(0, 0): ComplexRational(1)}
    for ch in word:
        new: _TermMap = {}

        def add(key, c):
            new[key] = new.get(key, ComplexRational(0)) + c

        for (m, n), c in state.items():
            if ch == CREATE:
                # a+^m a^n a+ = a+^{m+1} a^n + n a+^m a^{n-1}
                add((m + 1, n), c)
                if n:
                    add((m, n - 1), c * n)
            elif ch == ANNIHILATE:
                add((m, n + 1), c)
            else:
                raise ValueError(f"unknown boson letter {ch!r}")
        state = {k: c for k, c in new.items() if c}
    return NormalForm(state)


def stirling_row(n: int) -> Tuple[int, ...]:
    """Signed Stirling numbers B^n_l: u (u-1) ... (u-n+1) by power l of u."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [0, 1]  # u
    for k in range(1, n):
        # multiply by (u - k)
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
            nxt[p] -= k * c
        coeffs = nxt
    return tuple(coeffs)


def number_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients of 2^n sum_l B^n_l u^l, the image of (a+ a + a a+)^n.

    Under the symbol map a+ a + a a+ has symbol 2 z* z, whose normal order
    is 2^n a+^n a^n = 2^n sum_l B^n_l (a+ a)^l.
    """
    return tuple(2**n * c for c in stirling_row(n))


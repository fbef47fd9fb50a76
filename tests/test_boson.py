import json
import math
from fractions import Fraction

import pytest

from spinboson.boson import (
    ANNIHILATE,
    CREATE,
    BosonSymbol,
    NormalForm,
    normal_order_symbol,
    number_polynomial,
    stirling_row,
    wick_reorder,
)
from spinboson.rationals import ComplexRational


def test_normal_order_symbol_examples():
    assert normal_order_symbol(BosonSymbol({(0, 0): 1})) == NormalForm({(0, 0): 1})
    # (2 z* z)^5 = 32 z*^5 z^5 keeps its coefficient as 32 ad^5 a^5
    sym = BosonSymbol({(5, 5): 32})
    assert normal_order_symbol(sym).terms == {(5, 5): ComplexRational(32)}
    sym = BosonSymbol({(1, 0): 1, (0, 1): 1})
    form = normal_order_symbol(sym)
    assert form.terms == {(1, 0): ComplexRational(1), (0, 1): ComplexRational(1)}
    sym = BosonSymbol({(2, 1): ComplexRational(Fraction(1, 3), -2), (0, 0): 0})
    assert normal_order_symbol(sym).terms == {
        (2, 1): ComplexRational(Fraction(1, 3), -2)
    }


def test_wick_examples():
    assert wick_reorder((ANNIHILATE, CREATE)).terms == {
        (1, 1): ComplexRational(1),
        (0, 0): ComplexRational(1),
    }
    assert wick_reorder((ANNIHILATE, CREATE, ANNIHILATE)).terms == {
        (1, 2): ComplexRational(1),
        (0, 1): ComplexRational(1),
    }
    assert wick_reorder((CREATE, ANNIHILATE)).terms == {(1, 1): ComplexRational(1)}
    assert wick_reorder(()).terms == {(0, 0): ComplexRational(1)}


def test_wick_adjoint_symmetry():
    import random

    rng = random.Random(5)
    swap = {CREATE: ANNIHILATE, ANNIHILATE: CREATE}
    for _ in range(25):
        word = tuple(
            rng.choice((CREATE, ANNIHILATE)) for _ in range(rng.randint(0, 8))
        )
        adj_word = tuple(swap[ch] for ch in reversed(word))
        adjoint = NormalForm({(n, m): c.conjugate()
                              for (m, n), c in wick_reorder(word).terms.items()})
        assert wick_reorder(adj_word) == adjoint


def test_stirling_examples():
    assert stirling_row(1)[1] == 1
    assert stirling_row(2)[2] == 1
    assert stirling_row(2)[1] == -1
    assert stirling_row(3)[3] == 1
    assert stirling_row(3)[2] == -3
    assert stirling_row(3)[1] == 2
    with pytest.raises(ValueError):
        stirling_row(0)


def _number_power_normal_form(ell):
    """(a+ a)^ell expanded to normal form via Wick reordering."""
    return wick_reorder((CREATE, ANNIHILATE) * ell)


@pytest.mark.parametrize("n", range(1, 9))
def test_stirling_rows_match_wick(n):
    """a+^n a^n = sum_l B^n_l (a+ a)^l as exact normal forms."""
    lhs = NormalForm({(n, n): 1})
    rhs = NormalForm({})
    for ell, coeff in enumerate(stirling_row(n)):
        if coeff:
            rhs = rhs + _number_power_normal_form(ell).scale(coeff)
    assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 9))
def test_generating_function_reproduces_rows(n):
    # (1+t)^u = sum_n sum_k B^n_k t^n/n! u^k: the t^n coefficient of the
    # binomial series is binom(u, n), i.e. the falling factorial over n!
    # coefficient of t^n in (1+t)^u as a polynomial in u: C(u, n)
    row = stirling_row(n)
    # C(u, n) * n! = u(u-1)...(u-n+1); compare at integer points
    for u in range(0, n + 3):
        falling = math.prod(range(u, u - n, -1))
        assert sum(c * u**k for k, c in enumerate(row)) == falling


def test_number_polynomial_values():
    assert number_polynomial(1) == (0, 2)
    assert number_polynomial(2) == (0, -4, 4)
    assert number_polynomial(5) == (0, 768, -1600, 1120, -320, 32)
    # i.e. 32(u^5 - 10u^4 + 35u^3 - 50u^2 + 24u)
    assert number_polynomial(5) == tuple(
        32 * c for c in (0, 24, -50, 35, -10, 1)
    )


@pytest.mark.parametrize("c", [Fraction(-2, 5), Fraction(1, 4), Fraction(2, 5)])
def test_exponential_series_matches_closed_form(c):
    # sum_n c^n/n! * number_polynomial(n)(u) -> (1+2c)^u, the normal-ordered
    # exp(c (a+a + aa+)) as a power of the number operator
    base = 1 + 2 * c
    for u in range(0, 7):
        series = 1.0
        for n in range(1, 13):
            poly = number_polynomial(n)
            series += (
                float(c) ** n
                / math.factorial(n)
                * sum(coeff * u**k for k, coeff in enumerate(poly))
            )
        assert series == pytest.approx(float(base) ** u, abs=1e-9)


def test_json_round_trip():
    form = NormalForm({(2, 1): ComplexRational(Fraction(1, 3), Fraction(-2, 7)),
                       (0, 0): 1})
    data = json.loads(form.to_json())
    assert data == {"0,0": ["1", "0"], "2,1": ["1/3", "-2/7"]}
    terms = {tuple(int(p) for p in key.split(",")):
             ComplexRational(Fraction(re), Fraction(im))
             for key, (re, im) in data.items()}
    assert NormalForm(terms) == form
    sym = BosonSymbol({(0, 4): Fraction(5, 2)})
    assert json.loads(sym.to_json()) == {"0,4": ["5/2", "0"]}


def test_render():
    form = NormalForm({(2, 1): 3, (0, 0): Fraction(1, 2)})
    assert form.render() == "(1/2) 1 + (3) ad^2 a"
    assert NormalForm({}).render() == "0"


def test_diagonal_element():
    form = NormalForm({(2, 2): 1, (1, 0): 5})
    # <3| ad^2 a^2 |3> = 3!/(3-2)! = 6; the (1,0) term is off-diagonal
    assert form.diagonal_element(3).re == 6
    assert form.diagonal_element(1).re == 0

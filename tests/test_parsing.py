import itertools
import random
from fractions import Fraction

import pytest

from spinboson.parsing import ParseError, parse_polynomial, render_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import MINUS, PLUS, Z, node, words


def _words(text):
    return words(parse_polynomial(text))


def test_single_letters():
    assert _words("S+") == {(PLUS,): ComplexRational(1)}
    assert _words("S-") == {(MINUS,): ComplexRational(1)}
    assert _words("Sz") == {(Z,): ComplexRational(1)}


def test_flagship_expression():
    # the 32 products of five factors S+*S- or S-*S+, each once
    pairs = itertools.product([(PLUS, MINUS), (MINUS, PLUS)], repeat=5)
    assert _words("(S+*S- + S-*S+)^5") == {sum(p, ()): ComplexRational(1) for p in pairs}


def test_rational_coefficients():
    assert _words("Sz^2 + (1/2)*S+*S-") == {
        (Z, Z): ComplexRational(1),
        (PLUS, MINUS): ComplexRational(Fraction(1, 2)),
    }
    assert _words("3/4") == {(): ComplexRational(Fraction(3, 4))}


def test_unary_minus_and_subtraction():
    assert _words("-Sz") == {(Z,): ComplexRational(-1)}
    assert _words("S+*S- - S-*S+") == {
        (PLUS, MINUS): ComplexRational(1),
        (MINUS, PLUS): ComplexRational(-1),
    }
    assert _words("--Sz") == {(Z,): ComplexRational(1)}
    # a leading minus binds looser than ^, as in -x^2 = -(x^2)
    assert _words("-Sz^2") == {(Z, Z): ComplexRational(-1)}
    assert _words("(-Sz)^2") == _words("Sz^2") == {(Z, Z): ComplexRational(1)}
    assert _words("-2^2*S+*-S-^2") == {(PLUS, MINUS, MINUS): ComplexRational(4)}


def test_powers_and_cancellation():
    assert _words("Sz^0") == {(): ComplexRational(1)}
    assert _words("(Sz - Sz)^3") == {}
    assert _words("Sz^3") == {(Z, Z, Z): ComplexRational(1)}


def test_whitespace_insensitivity():
    assert parse_polynomial("S+ * S-   +Sz ^ 2") == parse_polynomial("S+*S-+Sz^2")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("S+ @ S-")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_polynomial("Sz^")
    with pytest.raises(ParseError):
        parse_polynomial("(S+ * S-")
    with pytest.raises(ParseError):
        parse_polynomial("1/0")
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("Sz Sz")


def test_render_examples():
    assert render_polynomial(parse_polynomial("Sz - Sz")) == "0"
    assert render_polynomial(parse_polynomial("1")) == "1"
    poly = parse_polynomial("S+*S- - (1/2)*Sz")
    assert render_polynomial(poly) == "(-1/2)*Sz + S+*S-"


def test_render_parse_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(
                rng.choice((PLUS, MINUS, Z)) for _ in range(rng.randint(0, 4))
            )
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if coeff:
                terms[word] = ComplexRational(coeff)
        poly = node("sum", node("constant", 0), *(
            node("product", node("constant", c), *(node("letter", ch) for ch in word))
            for word, c in terms.items()))
        assert words(parse_polynomial(render_polynomial(poly))) == terms

import random
from fractions import Fraction

import pytest

from spinboson.parsing import ParseError, parse_polynomial, render_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import MINUS, PLUS, Z, SpinPolynomial


def test_single_letters():
    assert parse_polynomial("S+").terms == {(PLUS,): ComplexRational(1)}
    assert parse_polynomial("S-").terms == {(MINUS,): ComplexRational(1)}
    assert parse_polynomial("Sz").terms == {(Z,): ComplexRational(1)}


def test_flagship_expression():
    poly = parse_polynomial("(S+*S- + S-*S+)^5")
    built = (SpinPolynomial.s_plus() * SpinPolynomial.s_minus()
             + SpinPolynomial.s_minus() * SpinPolynomial.s_plus()) ** 5
    assert poly.terms == built.terms


def test_rational_coefficients():
    poly = parse_polynomial("Sz^2 + (1/2)*S+*S-")
    assert poly.terms == {
        (Z, Z): ComplexRational(1),
        (PLUS, MINUS): ComplexRational(Fraction(1, 2)),
    }
    poly = parse_polynomial("3/4")
    assert poly.terms == {(): ComplexRational(Fraction(3, 4))}


def test_unary_minus_and_subtraction():
    poly = parse_polynomial("-Sz")
    assert poly.terms == {(Z,): ComplexRational(-1)}
    poly = parse_polynomial("S+*S- - S-*S+")
    assert poly.terms == {
        (PLUS, MINUS): ComplexRational(1),
        (MINUS, PLUS): ComplexRational(-1),
    }
    assert parse_polynomial("--Sz").terms == {(Z,): ComplexRational(1)}


def test_powers_and_cancellation():
    assert parse_polynomial("Sz^0").terms == {(): ComplexRational(1)}
    assert parse_polynomial("(Sz - Sz)^3").terms == {}
    assert parse_polynomial("Sz^3").terms == {(Z, Z, Z): ComplexRational(1)}


def test_whitespace_insensitivity():
    a = parse_polynomial("S+ * S-   +Sz ^ 2")
    b = parse_polynomial("S+*S-+Sz^2")
    assert a.terms == b.terms


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
    assert render_polynomial(SpinPolynomial({})) == "0"
    assert render_polynomial(SpinPolynomial.identity()) == "1"
    poly = SpinPolynomial(
        {(Z,): ComplexRational(Fraction(-1, 2)), (PLUS, MINUS): ComplexRational(1)}
    )
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
        poly = SpinPolynomial(terms)
        assert parse_polynomial(render_polynomial(poly)).terms == poly.terms

import itertools
import math
import random
from fractions import Fraction

import pytest

from spinboson import spin_core
from spinboson.bridge import (
    boson_image,
    fit_decay_rate,
    ordering_sensitivity,
    position_sector,
    verify_theorem,
)
from spinboson.parsing import parse_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import ResourceLimitError, node, normalized_trace
from spinboson.thermal import THEOREM_STATE, thermal_expect


def test_boson_image_examples():
    form = boson_image(parse_polynomial("S+*S- + S-*S+"))
    # both orderings collapse to the same commuting symbol
    assert form.terms == {(1, 1): ComplexRational(2)}
    big = boson_image(parse_polynomial("S+*S-*S+*S-"))
    assert big.terms == {(2, 2): ComplexRational(1)}
    assert boson_image(parse_polynomial("1")).terms == {
        (0, 0): ComplexRational(1)
    }


def test_boson_image_of_sz_words():
    # an odd number of Sz letters has the vanishing moment <eta> = 0
    assert boson_image(parse_polynomial("Sz*S+")).terms == {}
    # two Sz letters contribute <eta^2> = 1/4
    form = boson_image(parse_polynomial("Sz*Sz*S+*S-"))
    assert form.terms == {(1, 1): ComplexRational(Fraction(1, 4))}


@pytest.mark.parametrize("expr, limit", [
    ("Sz*Sz*S+*S-", Fraction(1, 8)),
    ("Sz*S+*Sz*S-", Fraction(1, 8)),
    ("Sz^4*(S+*S-)^2", Fraction(3, 32)),
    ("Sz^2*(S+*S- + S-*S+)", Fraction(1, 4)),
    ("Sz*S+*S-", Fraction(0)),
])
def test_mixed_word_limits_are_exact(expr, limit):
    # <eta^r> times the x = 1/3 factorial moment m! (1/2)^m
    form = boson_image(parse_polynomial(expr))
    assert thermal_expect(THEOREM_STATE, form) == limit


@pytest.mark.parametrize("expr", ["Sz*S+*Sz*S-", "Sz^4*(S+*S-)^2"])
def test_verify_mixed_words_converge_at_rate_one(expr):
    report = verify_theorem(parse_polynomial(expr), [500, 1000, 2000])
    assert all(a > b for a, b in zip(report.abs_errors, report.abs_errors[1:]))
    assert 0.7 <= report.fitted_rate <= 1.3


@pytest.mark.parametrize("expr", ["Sz*Sz*S+*S-", "Sz^2*(S+*S- + S-*S+)"])
def test_verify_mixed_words_exact_at_finite_n(expr):
    # these traces equal their limit at every N, so no rate can be fitted
    report = verify_theorem(parse_polynomial(expr), [500, 1000, 2000])
    assert report.boson_value > 0
    assert report.abs_errors == [0.0, 0.0, 0.0]
    assert report.fitted_rate is None


def test_verify_odd_sz_word_converges_at_rate_one_half():
    # an odd-length word has a sqrt(N) part: its trace is O(N^{-1/2})
    report = verify_theorem(parse_polynomial("Sz*S+*S-"), [500, 1000, 2000])
    assert report.boson_value == 0.0
    assert report.fitted_rate == pytest.approx(0.5, abs=0.05)


def test_verify_theorem_flagship():
    report = verify_theorem(parse_polynomial("(S+*S- + S-*S+)^5"), [200, 400, 800, 1600])
    assert report.boson_value == pytest.approx(120.0)
    assert all(a > b for a, b in zip(report.abs_errors, report.abs_errors[1:]))
    assert report.spin_values[-1] == pytest.approx(120.0, abs=0.5)
    assert 0.7 <= report.fitted_rate <= 1.3


def test_verify_theorem_requires_sorted_n():
    with pytest.raises(ValueError):
        verify_theorem(parse_polynomial("S+*S-"), [100, 50])


def test_fit_decay_rate():
    # a clean 1/N law fits to rate 1
    ns = [64, 128, 256, 512]
    errs = [3.0 / n for n in ns]
    assert fit_decay_rate(ns, errs) == pytest.approx(1.0)
    assert fit_decay_rate(ns, [0.0, 0.0, 0.0, 1e-3]) is None
    # two errors at one N fix no slope
    assert fit_decay_rate([100, 100], [5e-3, 5e-3]) is None
    assert fit_decay_rate([100, 100, 0], [5e-3, 5e-3, 0.0]) is None


def test_fitted_rate_is_the_exact_slope_rounded_once():
    # the same binary64 on every Python version
    h5 = parse_polynomial("(S+*S- + S-*S+)^5")
    assert verify_theorem(h5, [10**12, 10**17]).fitted_rate == 0.9999999999997978
    report = verify_theorem(parse_polynomial("Sz^2 + S+*Sz*S-"), [7, 50, 300, 2001])
    assert report.fitted_rate == 0.5000000000000001
    rng = random.Random(5)
    for _ in range(200):
        ns = sorted(rng.sample(range(2, 10**9), 4))
        errs = [rng.random() * 10.0 ** rng.randint(-300, 3) for _ in ns]
        xs, ys = ([Fraction(math.log(v)) for v in col] for col in (ns, errs))
        k, sx, sy = len(ns), sum(xs), sum(ys)
        slope = ((k * sum(x * y for x, y in zip(xs, ys)) - sx * sy)
                 / (k * sum(x * x for x in xs) - sx * sx))
        assert fit_decay_rate(ns, errs) == float(-slope)


def test_ordering_sensitivity_examples():
    # the two orderings of a two-letter word are cyclic shifts of each
    # other, so trace cyclicity makes the spread vanish identically
    poly = parse_polynomial("S+*S-")
    for N in (16, 64, 256):
        assert ordering_sensitivity(poly, N) == 0.0
    # the identity has a single (empty) ordering
    assert ordering_sensitivity(parse_polynomial("1"), 32) == 0.0


def test_ordering_sensitivity_degree_four_decays():
    poly = parse_polynomial("S+*S+*S-*S-")
    s12 = ordering_sensitivity(poly, 12)
    s48 = ordering_sensitivity(poly, 48)
    assert s12 > s48 > 0
    assert s48 <= (s12 * 12) / 48 * 1.01


def test_ordering_sensitivity_cap(monkeypatch):
    # the degree is checked on the tree, before any word is expanded
    def expanded(poly):
        raise AssertionError("the words were expanded")

    monkeypatch.setattr(spin_core, "words", expanded)
    # the degree of the tree, also where long words cancel or are multiplied by 0
    for text in ("(S+*S-)^6", "(S+ + S- + Sz)^10*Sz", "S+^11 - S+^11 + Sz", "Sz^12*0"):
        with pytest.raises(ResourceLimitError, match="exceed the ordering cap 10"):
            ordering_sensitivity(parse_polynomial(text), 8)


def _spread(coeff, word, N):
    """max |c t1 - c t2| over every pair of orderings of ``word``."""
    values = [complex(coeff) * normalized_trace(N, parse_polynomial("*".join(v))).approx()
              for v in set(itertools.permutations(word))]
    return max(abs(v1 - v2) for v1 in values for v2 in values)


def test_ordering_sensitivity_is_the_pairwise_spread():
    # a complex coefficient, and an odd word whose traces have a sqrt(N) part
    c = ComplexRational(Fraction(2, 3), Fraction(-5, 4))
    first, second = ["S+", "Sz", "S-", "Sz", "S+", "S-"], ["Sz", "S+", "Sz", "S-", "Sz"]
    poly = node("sum", node("product", node("constant", c), parse_polynomial("*".join(first))),
                parse_polynomial("(1/3)*" + "*".join(second)))
    for N in (6, 40):
        want = max(_spread(c, first, N), _spread(Fraction(1, 3), second, N))
        assert want > 0
        assert ordering_sensitivity(poly, N) == pytest.approx(want, rel=1e-12)


def test_ordering_sensitivity_is_one_sector_pass_per_letter_multiset(monkeypatch):
    rows_calls = []
    monomial_rows = spin_core.monomial_rows

    def counted(diagonals):
        rows_calls.append(len(diagonals))
        return monomial_rows(diagonals)

    def refused(*args, **kwargs):
        raise AssertionError("an ordering was traced on its own")

    monkeypatch.setattr(spin_core, "monomial_rows", counted)
    monkeypatch.setattr(spin_core, "normalized_trace", refused)
    # two distinct words with the same letters share one pass of their 12
    # orderings, and one word has 6 orderings
    poly = parse_polynomial("S+*S-*Sz*Sz + 3*Sz*S+*Sz*S- + S+*S+*S-*S-")
    for N in (40, 2000):
        rows_calls.clear()
        assert ordering_sensitivity(poly, N) > 0
        assert sorted(rows_calls) == [6, 12]


def test_ordering_sensitivity_lists_each_multiset_ordering_once(monkeypatch):
    calls = []
    word_diag_poly = spin_core._word_diag_poly

    def counted(word):
        calls.append(word)
        return word_diag_poly(word)

    monkeypatch.setattr(spin_core, "_word_diag_poly", counted)
    # 32 words of the letters S+^5 S-^5, which have 10!/(5! 5!) orderings
    h5 = parse_polynomial("(S+*S- + S-*S+)^5")
    assert ordering_sensitivity(h5, 64) == 0.27184057235717773
    assert len(calls) == len(set(calls)) == 252


def test_ordering_sensitivity_rounds_the_exact_spread_once():
    assert ordering_sensitivity(parse_polynomial("S+*S-*Sz*S+*S-*Sz*S+*S-"),
                                2000) == 0.00168496959375
    word = ["S+", "Sz", "S-", "Sz", "S+", "S-"]
    poly = parse_polynomial("-(2/3)*" + "*".join(word))
    for N in (64, 200):
        traces = [normalized_trace(N, parse_polynomial("*".join(v))).exact.re
                  for v in set(itertools.permutations(word))]
        assert ordering_sensitivity(poly, N) == float(
            Fraction(2, 3) * (max(traces) - min(traces)))


@pytest.mark.parametrize("text", ["1", "S+*S-"])
def test_ordering_sensitivity_refuses_n_below_1(text):
    with pytest.raises(ValueError, match="N must be >= 1"):
        ordering_sensitivity(parse_polynomial(text), 0)


def test_position_sector_exact_square():
    report = position_sector([0, 0, 1], [16, 64, 256])
    assert report.boson_value == pytest.approx(0.25)
    assert report.abs_errors == [0.0, 0.0, 0.0]
    assert report.fitted_rate is None


def test_position_sector_of_no_coefficients_is_zero():
    report = position_sector([], [16, 64])
    assert report.spin_values == [0.0, 0.0] and report.boson_value == 0.0


def test_position_sector_cubic_and_quartic():
    report = position_sector([0, 0, 0, 1], [16, 64])
    assert report.boson_value == 0.0
    assert report.abs_errors == [0.0, 0.0]
    report = position_sector([0, 0, 0, 0, 1], [64, 128, 256, 512])
    assert report.boson_value == pytest.approx(3 / 16)
    assert all(a > b for a, b in zip(report.abs_errors, report.abs_errors[1:]))
    assert 0.7 <= report.fitted_rate <= 1.3


def test_two_route_rate_for_ladder_words():
    report = verify_theorem(parse_polynomial("S+*S+*S-*S-"), [64, 128, 256, 512])
    assert report.boson_value == pytest.approx(0.5)  # 2! * (1/2)^2
    assert 0.7 <= report.fitted_rate <= 1.3


@pytest.mark.parametrize("expr, limit", [
    ("(S+*S- + S-*S+)^5", 120),
    ("Sz^4", Fraction(3, 16)),
    ("(S+ + S-)^4", 3),
    ("Sz*Sz*S+*S-", Fraction(1, 8)),
    ("Sz^4*(S+*S-)^2", Fraction(3, 32)),
])
def test_exact_limit_is_the_boson_image(expr, limit):
    """The N -> infinity limit c0, read off exact traces, equals the image.

    An even-length trace is a polynomial in x = 1/N of degree <= L/2, so
    L/2 + 1 exact values fix it, and its value at x = 0 is the limit.
    """
    poly = parse_polynomial(expr)
    xs, values = [], []
    for k in range(poly.degree // 2 + 1):
        res = normalized_trace(10**6 + k, poly)
        assert res.sqrt_n == 0
        xs.append(Fraction(1, 10**6 + k))
        values.append(res.exact.as_fraction())
    c0 = Fraction(0)
    for i, (xi, v) in enumerate(zip(xs, values)):
        for j, xj in enumerate(xs):
            if j != i:
                v *= xj / (xj - xi)
        c0 += v
    boson = thermal_expect(THEOREM_STATE, boson_image(poly)).as_fraction()
    assert c0 == boson == limit

import decimal
import functools
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from spinboson import spin_core, xy
from spinboson.bridge import verify_theorem
from spinboson.cli import main
from spinboson.parsing import parse_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import (
    CROSSOVER_N,
    MINUS,
    PLUS,
    Z,
    ResourceLimitError,
    _sector_trace_poly,
    _word_diag_poly,
    dense_oracle_trace,
    letter_scale,
    monomial_rows,
    node,
    irrep_multiplicity,
    irrep_sectors,
    normalized_trace,
    rounded_radical,
    sector_moments,
    words,
)


def _sx(k=1):
    """Sx^k, Sx = (S+ + S-)/2."""
    return parse_polynomial(f"((1/2)*(S+ + S-))^{k}")


def _tree(terms):
    """The sum of c * word over a {word: c} map, as a tree."""
    return node("sum", node("constant", 0), *(
        node("product", node("constant", c), *(node("letter", ch) for ch in word))
        for word, c in terms.items()))


def test_multiplicity_examples():
    assert irrep_multiplicity(1, 1) == 1
    assert irrep_multiplicity(2, 0) == 1
    assert irrep_multiplicity(2, 2) == 1
    # derived by brute-force diagonalization of S^2, Sz on (C^2)^{x4}
    assert irrep_multiplicity(4, 0) == 2
    assert irrep_multiplicity(4, 2) == 3
    assert irrep_multiplicity(4, 4) == 1


@pytest.mark.parametrize("N", [1, 2, 3, 10, 33, 64])
def test_multiplicity_sum_rule(N):
    assert sum(s.multiplicity * s.dimension for s in irrep_sectors(N)) == 2**N


@pytest.mark.parametrize(
    "N, twice_j", [(2, 1), (2, 3), (2, -2), (0, 0), (3, 0)]
)
def test_multiplicity_domain_errors(N, twice_j):
    with pytest.raises(ValueError):
        irrep_multiplicity(N, twice_j)


def _comb_multiplicities(N, every=1):
    """d(N, j) = C(N, k) - C(N, k - 1) for k = N//2 down to 0, smallest j first.

    The binomials come from the ascending ratio C(N, k + 1) = C(N, k)(N - k)/(k + 1);
    every ``every``-th one and the last must equal ``math.comb(N, k)``
    (``math.comb`` at all 5001 k of N = 10 000 alone takes about 8 s).
    """
    row = [1]
    for k in range(N // 2):
        row.append(row[-1] * (N - k) // (k + 1))
    for k in [*range(0, len(row), every), len(row) - 1]:
        assert row[k] == math.comb(N, k)
    return [row[k] - (row[k - 1] if k else 0) for k in reversed(range(len(row)))]


def test_multiplicity_walk_matches_math_comb():
    for N in [*range(1, 121), 3001, 10_000]:
        expected = _comb_multiplicities(N, every=1 if N <= 3001 else 50)
        assert [s.multiplicity for s in irrep_sectors(N)] == expected, N


def test_multiplicity_out_of_walk_order():
    expected = {(N, tj): d for N in (40, 41, 42)
                for tj, d in zip(range(N % 2, N + 1, 2), _comb_multiplicities(N))}
    walk = {N: [(N, tj) for tj in range(0, N + 1, 2)] for N in (40, 42)}
    shuffled = list(expected)
    random.Random(7).shuffle(shuffled)
    orders = [
        walk[40][::-1],  # largest j first
        [(41, 3), (41, 3), (41, 5), (41, 5), (41, 7)],  # each call twice
        # two N interleaved, the second one step further down in k
        [c for pair in zip(walk[40], walk[42][1:]) for c in pair],
        shuffled,
    ]
    for calls in orders:
        assert [irrep_multiplicity(*c) for c in calls] == [expected[c] for c in calls]
    # a call that raises leaves the walk intact
    assert irrep_multiplicity(41, 1) == expected[41, 1]
    for bad in ((41, 2), (41, 43), (0, 0)):
        with pytest.raises(ValueError):
            irrep_multiplicity(*bad)
        assert irrep_multiplicity(41, 3) == expected[41, 3]
        assert irrep_multiplicity(41, 1) == expected[41, 1]


def test_trace_identity_and_empty():
    assert normalized_trace(7, parse_polynomial("1")).exact == 1
    res = normalized_trace(7, parse_polynomial("0"))
    assert res.exact == 0 and res.sqrt_n == 0


def test_trace_sx_squared_exact_quarter():
    for N in (2, 8, 33):
        assert normalized_trace(N, _sx(2)).exact == Fraction(1, 4)


def test_trace_single_ladder_letter_vanishes():
    assert normalized_trace(1, parse_polynomial("S+")).exact == 0


@pytest.mark.parametrize("alpha", ["x", "y", "z"])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_odd_moments_vanish(alpha, ell):
    op = {"x": _sx(), "y": _sy_tree(), "z": parse_polynomial("Sz")}[alpha]
    for N in (2, 5, 12):
        res = normalized_trace(N, node("power", op, 2 * ell + 1))
        assert res.exact == 0 and res.sqrt_n == 0


def _sector_matrices(twice_j):
    """S+, S-, Sz on the sector 2j in the standard gauge, basis m = -j..j."""
    j = twice_j / 2
    ms = [-j + i for i in range(twice_j + 1)]
    splus = np.zeros((twice_j + 1, twice_j + 1))
    for i, m in enumerate(ms[:-1]):
        splus[i + 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    return {PLUS: splus, MINUS: splus.T, Z: np.diag(ms)}


def test_word_diag_poly_cell_by_cell():
    """2^-L P(a, u) is the (m, m) element of the word in every cell."""
    sectors = {tj: _sector_matrices(tj) for tj in range(7)}
    for length in range(7):
        for word in itertools.product((PLUS, MINUS, Z), repeat=length):
            poly = _word_diag_poly(word)
            if word.count(PLUS) != word.count(MINUS):
                assert poly is None, word
                continue
            assert poly is not None, word
            for tj, ops in sectors.items():
                mat = np.eye(tj + 1)
                for ch in word:
                    mat = mat @ ops[ch]
                a = tj * (tj + 2)
                for i in range(tj + 1):
                    u = 2 * i - tj
                    value = sum(c * a**ka * u**ku
                                for (ka, ku), c in poly.items()) / 2**length
                    assert math.isclose(value, mat[i, i], rel_tol=1e-12,
                                        abs_tol=1e-12), (word, tj, u)


def _random_poly(rng, max_degree=6, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice((PLUS, MINUS, Z)) for _ in range(length))
        coeff = ComplexRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        )
        terms[word] = coeff
    return _tree(terms)


def test_oracle_equivalence_spot_checks():
    rng = random.Random(7)
    for _ in range(15):
        N = rng.randint(2, 8)
        poly = _random_poly(rng)
        engine = normalized_trace(N, poly)
        dense = dense_oracle_trace(N, poly)
        assert engine.exact == dense.exact
        assert engine.sqrt_n == dense.sqrt_n


def test_hermiticity_of_word_plus_adjoint():
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(
            rng.choice((PLUS, MINUS, Z)) for _ in range(rng.randint(1, 6))
        )
        swap = {PLUS: MINUS, MINUS: PLUS, Z: Z}
        adjoint = tuple(swap[ch] for ch in reversed(word))
        poly = node("sum", _tree({word: 1}), _tree({adjoint: 1}))
        res = normalized_trace(9, poly)
        assert res.exact.is_real and res.sqrt_n.is_real


def test_moment_convergence_bounded_by_c_over_n():
    from spinboson.moments import limit_moment

    for ell in (1, 2, 3):
        target = limit_moment(ell)
        errs = [
            abs(normalized_trace(N, _sx(2 * ell)).exact.re - target)
            for N in (64, 128, 256, 512, 1024)
        ]
        if all(e == 0 for e in errs):
            continue  # exact at every N (the ell = 1 case)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # error is O(1/N): N * err must stay bounded by its supremum C
        c = max(e * N for N, e in zip((64, 128, 256, 512, 1024), errs))
        assert c <= 2 * errs[0] * 64
        for N, e in zip((64, 128, 256, 512, 1024), errs):
            assert e <= c / N


def test_dense_oracle_cap():
    with pytest.raises(ResourceLimitError):
        dense_oracle_trace(15, parse_polynomial("1"))


def test_dense_oracle_work_budget_counts_words_before_they_cancel(monkeypatch):
    # both oracles take the engine's budget, which reads the tree: the 16
    # letters of Sz^16 count although they cancel and S+*S- is left; shift 0
    # only, 2 ... 16 letters, (16 // 2 + 1)(16 + 1) monomials, 2295 entries
    poly = parse_polynomial("Sz^16 - Sz^16 + S+*S-")
    params = xy.XYParams(Fraction(1), Fraction(4))
    monkeypatch.setattr(spin_core, "MAX_ALGEBRA_CELLS", 2295)
    assert dense_oracle_trace(12, poly).exact == normalized_trace(12, poly).exact
    assert xy.spin_thermal_dense_oracle(params, 12, poly) == pytest.approx(
        xy.spin_thermal_expectation(params, 12, poly), rel=1e-12)
    monkeypatch.setattr(spin_core, "MAX_ALGEBRA_CELLS", 2294)
    for oracle in (dense_oracle_trace, functools.partial(xy.spin_thermal_dense_oracle, params)):
        with pytest.raises(ResourceLimitError, match="predicted 2295 operator entries"):
            oracle(12, poly)


def _plain_oracle(N, poly):
    """The trace of ``poly`` from dense matrices multiplied left to right."""
    site = {PLUS: [[0, 1], [0, 0]], MINUS: [[0, 0], [1, 0]],
            Z: [[1, 0], [0, -1]]}  # 2 Sz
    ops = {}
    for ch, op in site.items():
        op = np.array(op, np.int64)
        ops[ch] = sum(
            np.kron(np.kron(np.identity(2**k, np.int64), op),
                    np.identity(2 ** (N - k - 1), np.int64))
            for k in range(N)
        )
    parts = [ComplexRational(0), ComplexRational(0)]  # rational, sqrt(N)
    for word, coeff in words(poly).items():
        mat = np.identity(2**N, np.int64)
        for ch in word:
            mat = mat @ ops[ch]
        L = len(word)
        scale = 2 ** word.count(Z) * 2**N * N ** ((L + 1) // 2)
        parts[L % 2] += coeff * Fraction(int(np.trace(mat)), scale)
    return tuple(parts)


def test_dense_oracle_against_plain_product():
    rng = random.Random(17)
    lengths, odd_sz, complex_coeffs = set(), False, False
    for N in range(1, 9):
        for _ in range(3):
            poly = _random_poly(rng, max_degree=7, max_terms=4)
            res = dense_oracle_trace(N, poly)
            assert (res.exact, res.sqrt_n) == _plain_oracle(N, poly), (N, poly)
            terms = words(poly)
            lengths |= {len(w) for w in terms}
            odd_sz |= any(Z in w and len(w) % 2 for w in terms)
            complex_coeffs |= any(not c.is_real for c in terms.values())
    assert lengths == set(range(8)) and odd_sz and complex_coeffs
    fixed = ["(S+*S- + S-*S+)^3",  # classes share a first half; Q^T = P
             "(S+ + S-)^4",  # unbalanced words, whose traces are 0
             "S+*Sz*S-"]  # odd length: a sqrt(N) part
    for N in range(1, 9):
        for expr in fixed:
            poly = parse_polynomial(expr)
            res = dense_oracle_trace(N, poly)
            assert (res.exact, res.sqrt_n) == _plain_oracle(N, poly), (N, expr)
    assert res.sqrt_n != 0


def test_dense_oracle_letter_applications_per_shell(monkeypatch):
    # the tree is walked as written, never expanded into words: h^3 applies
    # its base's four letters three times in each of the N + 1 shells, where
    # its 8 words of 6 letters would take 48
    calls = []
    original = spin_core._letter
    monkeypatch.setattr(spin_core, "_letter",
                        lambda *args: calls.append(args[2]) or original(*args))
    poly = parse_polynomial("(S+*S- + S-*S+)^3")
    assert len(words(poly)) == 8
    res = dense_oracle_trace(6, poly)
    assert calls == list("-++-") * 3 * 7  # each product right to left
    assert (res.exact, res.sqrt_n) == _plain_oracle(6, poly)
    # a power of a sum of letters: one letter per term and factor
    calls.clear()
    poly = parse_polynomial("(S+ + S- + Sz)^4 + Sz*S-")
    res = dense_oracle_trace(6, poly)
    assert len(calls) == (3 * 4 + 2) * 7
    assert (res.exact, res.sqrt_n) == _plain_oracle(6, poly)


def _kron_letters(N):
    """S+, S-, 2Sz on the 2^N space as sums of Kronecker products; bit i of
    a basis index is 1 when site N - 1 - i is down."""
    site = {PLUS: [[0, 1], [0, 0]], MINUS: [[0, 0], [1, 0]], Z: [[1, 0], [0, -1]]}
    return {ch: sum(np.kron(np.kron(np.identity(2**k, np.int64), np.array(op, np.int64)),
                            np.identity(2 ** (N - k - 1), np.int64))
                    for k in range(N))
            for ch, op in site.items()}


def test_word_diagonals_are_constant_on_hamming_shells():
    # the premise of the dense oracle: every diagonal element of a word at a
    # basis state depends only on how many of its sites are down
    for N in range(1, 7):
        ops = _kron_letters(N)
        weight = np.array([bin(i).count("1") for i in range(2**N)])
        shell_start = (1 << weight) - 1  # e_k: k sites down
        products = {(): np.identity(2**N, np.int64)}
        for L in range(1, 6):  # each word's product from its tail's
            for word in itertools.product((PLUS, MINUS, Z), repeat=L):
                products[word] = ops[word[0]] @ products[word[1:]]
        for word, product in products.items():
            diagonal = product.diagonal()
            assert (diagonal == diagonal[shell_start]).all(), (N, word)


def test_dense_oracle_walk_is_the_word_on_the_basis_state():
    # the reduction of the dense oracle: W e_k, as a 2^N vector, is the
    # expansion of the walk of the word's tree, sum over (a, b) of its
    # coefficient times every basis state with a down sites among the k of
    # e_k and b among the others
    for N in range(1, 7):
        ops = _kron_letters(N)
        index = np.arange(2**N)
        for k in range(N + 1):
            mask = (1 << k) - 1  # e_k: the k sites of the lowest bits down
            a = np.array([bin(i & mask).count("1") for i in index])
            b = np.array([bin(i >> k).count("1") for i in index])
            vectors = {(): (index == mask).astype(np.int64)}
            for L in range(1, 6):
                for word in itertools.product((PLUS, MINUS, Z), repeat=L):
                    vectors[word] = ops[word[0]] @ vectors[word[1:]]
                    tree = node("product", *(node("letter", ch) for ch in word))
                    table = np.zeros((k + 1, N - k + 1), np.int64)
                    walked = spin_core._shell_apply(N, k, tree, {(0, 0, k, 0): 1})
                    for (length, imaginary, *ab), c in walked.items():
                        assert (length, imaginary) == (L, 0)
                        table[tuple(ab)] = c
                    scale = 2 ** (L - word.count(Z))  # the walk doubles S+ and S-
                    assert (scale * vectors[word] == table[a, b]).all(), (N, k, word)


def test_dense_oracle_long_words_and_the_work_budget(monkeypatch):
    # integer walks do not wrap: words of up to 64 letters at N = 14, far past
    # 2^N * N^L >= 2^63
    for expr in ("Sz^64", "(S+*Sz*S-)^21", "(S+*S-)^32", "S-^8*Sz^3*S+^8"):
        poly = parse_polynomial(expr)
        dense, engine = dense_oracle_trace(14, poly), normalized_trace(14, poly)
        assert (dense.exact, dense.sqrt_n) == (engine.exact, engine.sqrt_n), expr
    # 3^12 words of 12 letters, but the walk applies only 36 letters per shell
    poly = parse_polynomial("(S+ + S- + Sz)^12")
    start = time.perf_counter()
    dense = dense_oracle_trace(14, poly)
    assert time.perf_counter() - start < 1.0
    engine = normalized_trace(14, poly)
    assert (dense.exact, dense.sqrt_n) == (engine.exact, engine.sqrt_n)

    def no_work(*args):
        raise AssertionError("word expansion or walk began")

    # the oracle's work is bounded by the engine's budget, checked first
    monkeypatch.setattr(spin_core, "words", no_work)
    monkeypatch.setattr(spin_core, "_shell_apply", no_work)
    with pytest.raises(ResourceLimitError, match="exceed the budget of"):
        dense_oracle_trace(14, parse_polynomial("(S+ + S- + Sz + 1)^64"))


@pytest.mark.parametrize("N", [13, 14])
@pytest.mark.parametrize(
    "expr", ["(S+*S- + S-*S+)^2", "(S+ + S-)^4", "S+*Sz^2*S-", "(S+*S- + S-*S+)^3",
             "(S+*S- + S-*S+)^4", "(S+ + S- + Sz)^6"])
def test_engine_equals_oracle_up_to_fourteen_sites(N, expr):
    poly = parse_polynomial(expr)
    engine, dense = normalized_trace(N, poly), dense_oracle_trace(N, poly)
    assert (engine.exact, engine.sqrt_n) == (dense.exact, dense.sqrt_n)


def test_engine_equals_oracle_on_random_draws_at_thirteen_and_fourteen_sites():
    # criterion 5's draws stop at N = 12; the walk costs about as much at the cap
    rng = random.Random(2024)
    for _ in range(40):
        N = rng.randint(13, spin_core.DENSE_ORACLE_CAP)
        poly = _random_poly(rng)
        engine, dense = normalized_trace(N, poly), dense_oracle_trace(N, poly)
        assert (engine.exact, engine.sqrt_n) == (dense.exact, dense.sqrt_n), (N, poly)


@pytest.mark.parametrize("N", [CROSSOVER_N + 1, 500, 1000])
def test_engine_equals_the_uncapped_walk_at_large_n(monkeypatch, N):
    # the walk has no 2^N object: without its cap it checks the engine's
    # fitted polynomials in N, where no sector sum is taken
    monkeypatch.setattr(spin_core, "DENSE_ORACLE_CAP", N)
    rng = random.Random(N)
    polys = [_random_poly(rng, max_degree=8, max_terms=4) for _ in range(20)]
    polys += map(parse_polynomial, ("(S+*S- + S-*S+)^5", "(S+ + S- + Sz)^6"))
    lengths, complex_coeffs = set(), False
    for poly in polys:
        engine, dense = normalized_trace(N, poly), dense_oracle_trace(N, poly)
        assert (engine.exact, engine.sqrt_n) == (dense.exact, dense.sqrt_n), poly
        terms = words(poly)
        lengths |= {len(w) for w in terms}
        complex_coeffs |= any(not c.is_real for c in terms.values())
    assert any(L % 2 for L in lengths) and max(lengths) >= 7 and complex_coeffs


def test_trace_budget():
    # above the crossover no sector sum grows with N, so no cell budget applies
    assert normalized_trace(10**8, _sx(2)).exact == Fraction(1, 4)


def test_power_budget_rejects_before_expanding():
    # (S+ + S-)^40 would have 2^40 words; none of them is built
    with pytest.raises(ResourceLimitError, match="more than 100000 terms"):
        words(parse_polynomial("(S+ + S-)^40"))
    # (S+ + S- + Sz)^10, 59049 words, is the largest power of three letters admitted
    three = words(parse_polynomial("S+ + S- + Sz"))
    assert (spin_core._terms_estimate([three] * 10) <= spin_core.MAX_POWER_TERMS
            < spin_core._terms_estimate([three] * 11))
    # t^k is large, but one letter bounds the result to 31 words
    assert len(words(parse_polynomial("(1 + Sz)^30"))) == 31


@pytest.mark.parametrize("expr", [
    "(S+ + S- + Sz)^8",
    "(S+ + S- + Sz)^4*(S+ + S- + Sz)^4",
    "(S+ + S- + Sz)^2*(S+ + S- + Sz)^2*(S+ + S- + Sz)^2*(S+ + S- + Sz)*(S+ + S- + Sz)",
])
def test_product_budget_rejects_like_a_power(monkeypatch, expr):
    # 3^8 = 6561 words, whether written as a power or as a product
    monkeypatch.setattr(spin_core, "MAX_POWER_TERMS", 100)
    with pytest.raises(ResourceLimitError, match="more than 100 terms"):
        words(parse_polynomial(expr))
    assert len(words(parse_polynomial("(S+ + S- + Sz)^2*(S+ + S- + Sz)^2"))) == 81


def test_float_path_is_labeled_and_close():
    poly = _sx(4)
    exact = normalized_trace(200, poly)
    approx = normalized_trace(200, poly, use_float=True)
    assert approx.float_path and "(float)" in approx.decimal
    assert float(approx.exact.re) == pytest.approx(float(exact.exact.re), rel=1e-12)


CLOSED_FORMS = [
    # (S+ + S-)^4 = (2 Sx)^4 has the moments of a sum of N signs: 3N^2 - 2N
    ("(S+ + S-)^4", lambda N: 3 - Fraction(2, N)),
    ("Sz^4", lambda N: Fraction(3, 16) - Fraction(1, 8 * N)),
]


@pytest.mark.parametrize("N", [10_000, 10_001])
@pytest.mark.parametrize("expr, closed_form", CLOSED_FORMS)
def test_exact_closed_forms_at_large_n(expr, closed_form, N):
    assert normalized_trace(N, parse_polynomial(expr)).exact == closed_form(N)


@pytest.mark.parametrize("expr, closed_form", CLOSED_FORMS)
def test_float_path_against_closed_forms_at_large_n(expr, closed_form):
    N = 950_001
    approx = normalized_trace(N, parse_polynomial(expr), use_float=True)
    assert float(approx.exact.re) == pytest.approx(float(closed_form(N)), rel=1e-12)


def test_float_path_high_power_at_large_n_is_finite():
    # u^64 overflows binary64 in the outer sectors, whose weights are 0.0
    approx = normalized_trace(950_000, parse_polynomial("Sz^64"), use_float=True)
    gaussian = math.prod(range(1, 64, 2)) / 2**64  # E[X^64], X ~ N(0, 1/4)
    assert math.isfinite(float(approx.exact.re))
    assert float(approx.exact.re) == pytest.approx(gaussian, rel=1e-3)


def test_decimal_rendering_faithful():
    res = normalized_trace(8, _sx(2), digits=5)
    assert res.decimal == "0.25"
    res = normalized_trace(2000, _sx(4), digits=6)
    # exact value 2999/16000 = 0.1874375, round-half-even to six figures
    assert res.exact.re == Fraction(2999, 16000)
    assert res.decimal == "0.187438"


def test_decimal_rendering_at_any_precision():
    # 19/112 and -sqrt(2)/8 (the radical part) to 40 digits, not 28
    assert normalized_trace(7, parse_polynomial("Sz^4"), digits=40).decimal == (
        "0.1696428571428571428571428571428571428571")
    assert normalized_trace(2, parse_polynomial("S+*Sz*S-"), digits=40).decimal == (
        "-0.1767766952966368811002110905262122598212")
    i_sz4 = node("product", node("constant", ComplexRational(0, 1)),
                 parse_polynomial("Sz^4"))
    assert normalized_trace(7, i_sz4, digits=40).decimal == (
        "0+0.1696428571428571428571428571428571428571i")


def test_decimal_rendering_ignores_the_callers_context():
    h5 = parse_polynomial("(S+*S- + S-*S+)^5")
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        assert normalized_trace(2000, h5, digits=12).decimal == "119.670383544"


def test_rounded_radical_is_correctly_rounded():
    rng = random.Random(11)
    squares = [Fraction(0), Fraction(2), Fraction(1, 9), Fraction(10**40 + 1, 3),
               Fraction(1, 7 * 10**30), Fraction(0.1) ** 2, Fraction(2.0**-600)]
    squares += [Fraction(rng.randint(1, 10**rng.randint(1, 40)),
                         rng.randint(1, 10**rng.randint(1, 40))) for _ in range(300)]
    with decimal.localcontext(decimal.Context(prec=80)):
        for q in squares:
            want = (decimal.Decimal(q.numerator) / q.denominator).sqrt()
            assert float(rounded_radical(Fraction(0), Fraction(1), q, 53, 2)) == float(want), q
            for digits in (17, 30):
                ctx = decimal.Context(prec=digits)
                got = rounded_radical(Fraction(0), Fraction(1), q, digits, 10)
                assert ctx.divide(got.numerator, got.denominator) == ctx.plus(want), q


@pytest.mark.parametrize("expr", ["Sz^2 + S+*Sz*S-", "S+*Sz*S- + 1/3",
                                  "Sz^3*S+*S- + Sz^2", "S+*Sz*S-"])
def test_radical_traces_round_the_exact_value(expr):
    # a + b sqrt(N) at non-square and square N, against an 80-digit reference
    poly = parse_polynomial(expr)
    for N in range(2, 395, 7):
        res = normalized_trace(N, poly, digits=30)
        with decimal.localcontext(decimal.Context(prec=80)):
            a, b = res.exact.re, res.sqrt_n.re
            want = (decimal.Decimal(a.numerator) / a.denominator
                    + decimal.Decimal(b.numerator) / b.denominator
                    * decimal.Decimal(N).sqrt())
        floats = normalized_trace(N, poly, use_float=True)
        assert float(floats.exact.re) == float(want) == res.approx().real, (N, expr)
        for digits in (6, 12, 30):
            got = normalized_trace(N, poly, digits=digits).decimal
            assert decimal.Decimal(got) == decimal.Context(prec=digits).plus(want)


def test_real_refuses_an_exact_imaginary_part():
    sz2 = parse_polynomial("Sz^2")
    tiny = node("product", node("constant", ComplexRational(0, Fraction(1, 10**20))), sz2)
    res = normalized_trace(8, node("sum", sz2, tiny))
    assert res.approx() == complex(0.25, 2.5e-21)
    with pytest.raises(ValueError, match="not real"):
        res.real()


def test_imaginary_radical_renders_in_its_own_context():
    i_odd = node("product", node("constant", ComplexRational(0, -1)),
                 parse_polynomial("S+*Sz*S-"))
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        assert normalized_trace(2, i_odd, digits=12).decimal == "0+0.176776695297i"


def test_odd_word_sqrt_part_against_oracle():
    # tr(Sz S+ S-) is nonzero; the scaling leaves a 1/sqrt(N) radical
    poly = parse_polynomial("Sz*S+*S-")
    for N in (2, 4, 6):
        engine = normalized_trace(N, poly)
        dense = dense_oracle_trace(N, poly)
        assert engine.exact == dense.exact == ComplexRational(0)
        assert engine.sqrt_n == dense.sqrt_n
        assert engine.sqrt_n != 0


def _direct_trace(N, poly):
    """(exact, sqrt_n) from one sector_moments pass over all N + 1 sectors."""
    diagonal = _sector_trace_poly(poly)
    keys, rows = monomial_rows(list(diagonal.values()))
    sums = sector_moments(N, keys, (s.multiplicity for s in irrep_sectors(N)),
                          [1] * (N // 2 + 1))
    parts = [[0, 0], [0, 0]]
    for (L, imaginary), row in zip(diagonal, rows):
        divisor, radical = letter_scale(N, L)
        parts[radical][imaginary] += Fraction(
            sum(c * s for c, s in zip(row, sums)),
            sums[0] * divisor * 2**L * poly.den)
    return tuple(ComplexRational(*p) for p in parts)


def _random_product(rng, max_letters=7):
    """A product of Sx, Sy, Sz, S+, S- letters with a complex coefficient."""
    letters = (_sx(), _sy_tree(), *map(parse_polynomial, ("Sz", "S+", "S-")))
    factors = [rng.choice(letters) for _ in range(rng.randint(1, max_letters))]
    c = ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return node("product", node("constant", c), *factors)


def test_interpolated_trace_against_direct_sum():
    rng = random.Random(11)
    Ns = [CROSSOVER_N + 1, CROSSOVER_N + 2, 3000, 3001]
    Ns += [rng.randint(CROSSOVER_N + 1, 3001) for _ in range(8)]
    odd_radical = False
    for N in Ns:
        poly = node("sum", _random_poly(rng, max_degree=7), _random_product(rng))
        res = normalized_trace(N, poly)
        assert (res.exact, res.sqrt_n) == _direct_trace(N, poly), (N, poly)
        odd_radical |= res.sqrt_n != 0
    assert odd_radical  # some odd-length word left a sqrt(N) part


def test_interpolated_trace_against_dense_oracle(monkeypatch):
    monkeypatch.setattr(spin_core, "CROSSOVER_N", 0)  # interpolate at every N
    rng = random.Random(5)
    for N in range(1, 13):
        poly = node("sum", _random_poly(rng), _random_product(rng, max_letters=5))
        engine = normalized_trace(N, poly)
        dense = dense_oracle_trace(N, poly)
        assert (engine.exact, engine.sqrt_n) == (dense.exact, dense.sqrt_n), N


@pytest.mark.parametrize("node", [1, 2, 3])
def test_corrupted_node_raises(monkeypatch, capsys, node):
    monkeypatch.setattr(spin_core, "_fits", {})
    original = spin_core.sector_moments

    def corrupted(n, keys, weights, rhos):
        sums = original(n, keys, weights, rhos)
        return [s + 1 for s in sums] if n == node else sums

    monkeypatch.setattr(spin_core, "sector_moments", corrupted)
    with pytest.raises(ArithmeticError, match="check node"):
        normalized_trace(1000, parse_polynomial("Sz^2"))
    assert main(["trace", "--expr", "Sz^2", "--n", "1000"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # the failed fits stored nothing, so the next call fits again, exactly
    assert spin_core._fits == {}
    monkeypatch.setattr(spin_core, "sector_moments", original)
    assert normalized_trace(1000, parse_polynomial("Sz^2")).exact == Fraction(1, 4)


@pytest.mark.parametrize("fill", ["ascending", "descending", "superset"])
def test_fitted_monomials_equal_direct_sums(monkeypatch, fill):
    monkeypatch.setattr(spin_core, "_fits", {})
    keys = [(i, k) for i in range(9) for k in range(9 - i)]  # i + k <= 8, sorted

    def monomial(i, k):
        return {(k, 2 * i): 1}

    if fill == "superset":
        spin_core._diagonal_values(129, [monomial(i, k) for i in range(11)
                                         for k in range(11 - i)])
    for key in keys[::-1] if fill == "descending" else keys:
        spin_core._diagonal_values(129, [monomial(*key)])
    for N in (129, 1000, 3001):
        direct = sector_moments(N, keys, (s.multiplicity for s in irrep_sectors(N)),
                                itertools.repeat(1))
        fitted = spin_core._diagonal_values(N, [monomial(*key) for key in keys])
        assert fitted == [Fraction(s, 2**N) for s in direct], (fill, N)


def test_monomial_rows_drop_odd_powers_of_u():
    keys, rows = monomial_rows([{(1, 0): 3, (0, 1): 5, (0, 2): -1},
                                {(0, 3): 2, (2, 0): 1}])
    assert keys == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert rows == [[0, 3, 0, -1], [0, 0, 1, 0]]


def _cell_sums(N, keys, weights, rhos):
    """sum_j w_j sum_{|u| <= 2j} rho(|u|) u^(2i) a^k per key (i, k), cell by cell."""
    rho = dict(zip(range(N % 2, N + 1, 2), rhos))
    sums = [0] * len(keys)
    for tj, w in zip(range(N % 2, N + 1, 2), weights):
        a = tj * (tj + 2)
        for u in range(-tj, tj + 1, 2):
            for t, (i, k) in enumerate(keys):
                sums[t] += w * rho[abs(u)] * u ** (2 * i) * a**k
    return sums


@pytest.mark.parametrize("text", ["(S+*S- + S-*S+)^3", "Sz^4", "S+*Sz^2*S-",
                                  "S+*S- + Sz^4*S+*S-"])
def test_sector_moments_equal_cell_sums(text):
    diagonal = _sector_trace_poly(parse_polynomial(text))
    keys, _ = monomial_rows(list(diagonal.values()))
    assert keys[0] == (0, 0) and len(keys) > 1
    for N in [*range(1, 10), 40, 41]:
        multiplicities = [s.multiplicity for s in irrep_sectors(N)]
        ones = [1] * len(multiplicities)
        assert (sector_moments(N, keys, multiplicities, ones)
                == _cell_sums(N, keys, multiplicities, ones))
        for g in (Fraction(1, 4), Fraction(-4, 5)):
            with decimal.localcontext(decimal.Context(prec=50)):
                weights, rhos = xy._boltzmann_factors(g, N)
                got = sector_moments(N, keys, weights, rhos)
            # the exact cell sums of the same decimal factors; every term is
            # positive, so each sum keeps about 50 digits
            want = _cell_sums(N, keys, map(Fraction, weights), map(Fraction, rhos))
            for x, y in zip(got, want):
                assert abs(Fraction(x) - y) <= y / 10**45, (N, g)


def test_multiplicity_calls_do_not_grow_with_n(monkeypatch):
    calls = []
    original = spin_core.irrep_multiplicity
    monkeypatch.setattr(spin_core, "irrep_multiplicity",
                        lambda N, tj: calls.append(N) or original(N, tj))
    monkeypatch.setattr(spin_core, "_fits", {})
    poly = parse_polynomial("(S+*S- + S-*S+)^5")
    normalized_trace(10**4, poly)  # fits every monomial of poly, at small n only
    assert max(calls) == poly.degree // 2 + 2
    calls.clear()
    normalized_trace(10**6, poly)
    assert calls == []


@pytest.mark.parametrize("expr, closed_form", CLOSED_FORMS)
def test_exact_closed_forms_at_ten_million(expr, closed_form):
    N = 10**7 + 1
    assert normalized_trace(N, parse_polynomial(expr)).exact == closed_form(N)


def _random_expr(rng, budget):
    """A random expression string with at most ``budget`` letters per term:
    nested powers, unary minus, integer and rational constants."""
    roll = rng.random()
    if budget <= 1:
        if budget and rng.random() < 0.8:
            return rng.choice(["S+", "S-", "Sz"])
        return rng.choice([str(rng.randint(0, 3)), f"{rng.randint(1, 5)}/{rng.randint(2, 4)}"])
    if roll < 0.15:
        return "-" + _random_expr(rng, budget) if rng.random() < 0.5 else (
            f"-({_random_expr(rng, budget)})")
    if roll < 0.35:
        k = rng.randint(0, 3)
        return f"({_random_expr(rng, budget // max(k, 1))})^{k}"
    if roll < 0.55:
        op = rng.choice([" + ", " - "])
        return f"{_random_expr(rng, budget)}{op}{_random_expr(rng, budget)}"
    split = rng.randint(1, budget - 1)
    return f"({_random_expr(rng, split)})*({_random_expr(rng, budget - split)})"


def _sy_tree():
    """Sy = (S+ - S-)/(2i) as a tree with imaginary coefficients."""
    half_i = ComplexRational(0, Fraction(1, 2))
    return node("sum", node("product", node("constant", -half_i), node("letter", PLUS)),
                node("product", node("constant", half_i), node("letter", MINUS)))


def _diagonals(tree):
    """{(L, imaginary): {(ka, ku): c}} of ``tree`` itself, den divided out."""
    return {key: {k: Fraction(c, tree.den) for k, c in poly.items()}
            for key, poly in _sector_trace_poly(tree).items()}


def test_tree_tables_equal_word_tables():
    """The diagonal of every letter count from a parsed tree is that from its
    words, coefficient for coefficient."""
    rng = random.Random(13)
    seen = set()
    for i in range(120):
        text = _random_expr(rng, rng.randint(2, 10))
        tree = parse_polynomial(text)
        diagonals = _diagonals(tree)
        assert diagonals == _diagonals(_tree(words(tree))), text
        seen |= {(L % 2, imaginary) for L, imaginary in diagonals}
    sx = parse_polynomial("(1/2)*S+ + (1/2)*S-")
    sz = parse_polynomial("Sz")
    for i in range(40):
        factors = [rng.choice([sx, _sy_tree(), sz]) for _ in range(rng.randint(1, 5))]
        tree = node("power", node("product", *factors), rng.randint(1, 2))
        tree = node("sum", tree, node("constant", ComplexRational(
            Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 3))))
        diagonals = _diagonals(tree)
        assert diagonals == _diagonals(_tree(words(tree))), tree
        seen |= {(L % 2, imaginary) for L, imaginary in diagonals}
    # odd lengths leave a sqrt(N) part, Sy products an imaginary one
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _twice_letters(N):
    """2 S+, 2 S- and 2 Sz on the 2^N space as arrays of Python ints; bit b of
    a basis index is 1 when site b is down."""
    dim = 2**N
    mats = {ch: np.zeros((dim, dim), dtype=object) for ch in (PLUS, MINUS, Z)}
    for i in range(dim):
        mats[Z][i][i] = N - 2 * bin(i).count("1")
        for b in range(N):
            # S+ clears a set bit, S- sets a clear one
            mats[PLUS if i >> b & 1 else MINUS][i ^ (1 << b)][i] = 2
    return mats


def _twice_triple_letter(N):
    """2 (S+ + S- + Sz) on the 2^N space as an array of Python ints."""
    mats = _twice_letters(N)
    return mats[PLUS] + mats[MINUS] + mats[Z]


def test_triple_power_of_sixteen_against_exact_dense_power():
    expr = parse_polynomial("(S+ + S- + Sz)^16")
    for N in range(2, 7):
        half = _twice_triple_letter(N)
        for _ in range(3):  # (2M)^8
            half = half @ half
        trace = sum(half[i][j] * half[j][i] for i in range(2**N) for j in range(2**N))
        want = Fraction(trace, 2**16 * 2**N * N**8)
        res = normalized_trace(N, expr)
        assert (res.exact, res.sqrt_n) == (ComplexRational(want), 0), N
    # 16 letters, inside the 64-letter limit; near its Gaussian limit at 10^6
    assert expr.degree == 16
    big = normalized_trace(10**6, expr).exact.re
    assert big == pytest.approx(math.prod(range(1, 16, 2)) * Fraction(5, 4) ** 8, rel=1e-4)


def test_words_of_64_letters_trace_with_every_letter():
    # one word has one shift and one letter count, so the budget admits it
    expr = parse_polynomial("Sz^2*(S+*S-)^31")
    assert expr.degree == 64
    for N in (1, 2, 3):
        mats = _twice_letters(N)
        prod = mats[Z] @ mats[Z]
        for _ in range(31):
            prod = prod @ mats[PLUS] @ mats[MINUS]
        want = Fraction(sum(prod[i][i] for i in range(2**N)), 2**64 * 2**N * N**32)
        assert normalized_trace(N, expr).exact == want, N
    for text in ("Sz^2*(S+*S-)^31", "(S+*Sz*S-)^21*Sz", "(S+*S-)^32 + Sz"):
        assert normalized_trace(10**6, parse_polynomial(text)).exact.re > 0, text


@pytest.mark.parametrize("expr", ["Sz^400", "(S+ + S- + Sz + 1)^64"])
def test_algebra_budget_refuses_before_evaluating(monkeypatch, expr):
    def evaluated(*args):
        raise AssertionError("the algebra ran")

    monkeypatch.setattr(spin_core, "_operator", evaluated)
    with pytest.raises(ResourceLimitError):
        normalized_trace(10**6, parse_polynomial(expr))


def test_digits_budget_is_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("sector or matrix work began")

    walk, letter = spin_core._shell_apply, spin_core._letter
    monkeypatch.setattr(spin_core, "sector_moments", no_work)
    monkeypatch.setattr(spin_core, "_letter", no_work)
    sz = parse_polynomial("Sz^2")

    def verify(n, poly, digits):
        return verify_theorem(poly, [n], digits=digits)

    for trace in (normalized_trace, dense_oracle_trace, verify):
        with pytest.raises(ResourceLimitError, match="digits"):
            trace(4, sz, digits=spin_core.MAX_DIGITS + 1)
        for digits in (0, -5):
            with pytest.raises(ValueError, match="digits must be >= 1"):
                trace(4, sz, digits=digits)

    # every refusal of either dense oracle also comes before any walk, and
    # before numpy is imported; neither oracle expands words at all
    monkeypatch.setattr(spin_core, "words", no_work)
    monkeypatch.setattr(spin_core, "_shell_apply", no_work)
    monkeypatch.setitem(sys.modules, "numpy", None)
    params = xy.XYParams(Fraction(1), Fraction(4))
    oracles = ((dense_oracle_trace, spin_core.DENSE_ORACLE_CAP),
               (functools.partial(xy.spin_thermal_dense_oracle, params),
                xy.DENSE_ORACLE_CAP))
    too_long = parse_polynomial("(S+ + S- + Sz + 1)^64")
    for oracle, cap in oracles:
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be >= 1"):
                oracle(N, sz)
        with pytest.raises(ResourceLimitError, match=f"N <= {cap}; got N={cap + 1}"):
            oracle(cap + 1, sz)
        with pytest.raises(ResourceLimitError, match="exceed the budget of"):
            oracle(cap, too_long)
    # the walk refuses an imaginary entry on the level of e_k, still before numpy
    monkeypatch.setattr(spin_core, "_shell_apply", walk)
    monkeypatch.setattr(spin_core, "_letter", letter)
    i_number = node("product", node("constant", ComplexRational(0, 1)),
                    node("letter", PLUS), node("letter", MINUS))
    with pytest.raises(ValueError, match="requires real coefficients"):
        xy.spin_thermal_dense_oracle(params, 4, i_number)

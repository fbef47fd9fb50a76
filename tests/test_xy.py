import decimal
import math
from fractions import Fraction

import mpmath
import pytest

from spinboson import spin_core
from spinboson.boson import NormalForm
from spinboson.bridge import boson_image
from spinboson.parsing import parse_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import ResourceLimitError
from spinboson.thermal import THEOREM_STATE, thermal_expect_weighted
from spinboson.xy import (
    WORKING_DIGITS,
    ValidityError,
    XYParams,
    boson_thermal_expectation,
    effective_temperature,
    partition_function,
    spin_thermal_dense_oracle,
    spin_thermal_expectation,
    validity_check,
)


def _number_op():
    return parse_polynomial("S+*S- + S-*S+")


def test_params_validation():
    with pytest.raises(ValueError):
        XYParams(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        XYParams(Fraction(1), Fraction(-2))
    p = XYParams(Fraction(1, 2), Fraction(2))
    assert p.g == Fraction(1, 4)
    # floats are not silently turned into 55-bit rationals
    with pytest.raises(TypeError, match="Fraction"):
        XYParams(0.1, Fraction(1))
    with pytest.raises(TypeError, match="Fraction"):
        XYParams(Fraction(1), 1 + 0j)


def test_validity_bounds_flip_at_edges():
    # antiferromagnetic bound: 2 gamma/kT < 1
    assert validity_check(XYParams(Fraction(49, 100), Fraction(1))).passed
    assert not validity_check(XYParams(Fraction(1, 2), Fraction(1))).passed
    assert not validity_check(XYParams(Fraction(3, 4), Fraction(1))).passed
    # ferromagnetic bound: -gamma/kT < 1, i.e. kT > |gamma|
    assert validity_check(XYParams(Fraction(-99, 100), Fraction(1))).passed
    report = validity_check(XYParams(Fraction(-1), Fraction(1)))
    assert not report.passed
    assert "-gamma/kT < 1" in report.failed_bounds()
    assert "violated" in report.temperature_bound


def test_partition_function_values():
    # gamma = 0: Z collapses to the free value sqrt(3)/2
    assert partition_function(XYParams(Fraction(0), Fraction(1))) == (
        pytest.approx(math.sqrt(3) / 2)
    )
    # g = 1/3: r = 9, Z = (1/3) / (8/9) = 3/8
    z = partition_function(XYParams(Fraction(1), Fraction(3)))
    assert z == pytest.approx(3 / 8)
    with pytest.raises(ValidityError):
        partition_function(XYParams(Fraction(2), Fraction(1)))


@pytest.mark.parametrize(
    "gamma, kT", [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(3)),
                  (Fraction(-1), Fraction(2))]
)
def test_partition_function_against_series(gamma, kT):
    params = XYParams(gamma, kT)
    g = float(params.g)
    # Z = sum_n r^{-(n + 1/2)} with r = 3 / (1 - 2g); the half-quantum
    # offset carries the same effective Boltzmann ratio
    r = 3 / (1 - 2 * g)
    series = sum(r ** -(n + 0.5) for n in range(200))
    assert partition_function(params) == pytest.approx(series, rel=1e-12)


def test_effective_temperature_values():
    # kT -> infinity: T_eff -> 2|gamma| / ln 3
    t = effective_temperature(XYParams(Fraction(1), Fraction(10**9)))
    assert t == pytest.approx(2 / math.log(3), rel=1e-6)
    # the ferromagnetic example gamma = -1, kT = 2: ln(3/(1+1)) = ln(3/2)
    t = effective_temperature(XYParams(Fraction(-1), Fraction(2)))
    assert t == pytest.approx(2 / math.log(1.5), rel=1e-12)
    with pytest.raises(ValueError):
        effective_temperature(XYParams(Fraction(0), Fraction(1)))


def test_closed_forms_round_their_exact_values():
    # every valid g = p/q, q = 50..100, against 80-digit references; at
    # p = 1 - q, r - 1 = 2/(3q - 2), where binary64 forms of Z and ln r cancel
    for q in range(50, 101):
        for p in range(1 - q, (q + 1) // 2):
            params = XYParams(Fraction(p), Fraction(q))
            with decimal.localcontext(decimal.Context(prec=80)):
                r = decimal.Decimal(3 * q) / (q - 2 * p)
                z = (1 / r).sqrt() * r / (r - 1)
                t_eff = 2 * abs(p) / r.ln()
            assert partition_function(params) == float(z), (p, q)
            if p:
                t = effective_temperature(params)
                assert abs(decimal.Decimal(t) - t_eff) <= 2 * math.ulp(t), (p, q)


def test_boson_expectation_orderings():
    # g = 1/4, B = 1/2: the joint ordering gives x/(1-Bx) = 2/5
    params = XYParams(Fraction(1), Fraction(4))
    form = NormalForm({(1, 1): 1})
    assert boson_thermal_expectation(params, form) == Fraction(2, 5)
    with pytest.raises(ValidityError):
        boson_thermal_expectation(XYParams(Fraction(1), Fraction(1)), form)


def test_gamma_zero_collapses_to_unweighted_state():
    # at gamma = 0 the weight is trivial and <a+ a> = nbar = 1/2
    params = XYParams(Fraction(0), Fraction(1))
    for m in range(4):
        form = NormalForm({(m, m): 1})
        val = boson_thermal_expectation(params, form)
        assert val == math.factorial(m) * Fraction(1, 2) ** m


def test_spin_converges_to_joint_boson_value():
    params = XYParams(Fraction(1), Fraction(4))
    poly = _number_op()
    target = float(boson_thermal_expectation(params, boson_image(poly)))
    assert target == pytest.approx(0.8)  # 2 * <a+ a> = 2 * 2/5
    errs = [
        abs(spin_thermal_expectation(params, N, poly) - target)
        for N in (64, 128, 256, 512)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 2e-3


def test_spin_thermal_against_dense_oracle():
    params = XYParams(Fraction(1), Fraction(4))
    poly = _number_op()
    # both dense oracles stop at the one cap, N = 14
    for N in (4, 7, 10, 11, 12, 13, 14):
        fast = spin_thermal_expectation(params, N, poly)
        dense = spin_thermal_dense_oracle(params, N, poly)
        assert fast == pytest.approx(dense, rel=1e-10)
    with pytest.raises(ResourceLimitError, match="N <= 14; got N=15"):
        spin_thermal_dense_oracle(params, 15, poly)


def test_spin_thermal_dense_oracle_refuses_words_beyond_the_work_budget(monkeypatch):
    # the oracle's work is bounded by the engine's budget, checked before any walk
    params = XYParams(Fraction(1), Fraction(4))

    def no_walk(*args):
        raise AssertionError("the walk began")

    with monkeypatch.context() as patched:
        patched.setattr(spin_core, "_shell_apply", no_walk)
        with pytest.raises(ResourceLimitError, match="exceed the budget of"):
            spin_thermal_dense_oracle(params, 12, parse_polynomial("(S+ + S- + Sz + 1)^64"))
    # within it, 3^12 words of 12 letters are 36 letter applications per shell,
    # and long words are cheap: 2^12 * 12^16 >= 2^63 does not matter to the walk
    for expr in ("(S+ + S- + Sz)^12", "Sz^16 - Sz^16 + S+*S-", "Sz^16", "S-^6*Sz^4*S+^6"):
        poly = parse_polynomial(expr)
        assert spin_thermal_dense_oracle(params, 12, poly) == pytest.approx(
            spin_thermal_expectation(params, 12, poly), rel=1e-12), expr


def test_spin_thermal_dense_oracle_constants_and_imaginary_words():
    params = XYParams(Fraction(1), Fraction(4))
    # the zero polynomial has no words, and its mean is 0.0 on both sides
    zero = parse_polynomial("0")
    assert spin_thermal_dense_oracle(params, 6, zero) == 0.0
    assert spin_thermal_expectation(params, 6, zero) == 0.0
    # a constant term is the identity's share of the mean
    poly = parse_polynomial("3 + S+*S-")
    assert spin_thermal_dense_oracle(params, 6, poly) == pytest.approx(
        spin_thermal_expectation(params, 6, poly), rel=1e-12)
    # i S+S- has an imaginary diagonal, and both sides refuse it; i S+ has
    # none, and leaves the level of every e_k, so its mean is 0 on both sides
    i = spin_core.node("constant", ComplexRational(0, 1))
    plus, minus = (spin_core.node("letter", ch) for ch in "+-")
    i_number, i_plus = (spin_core.node("product", i, *letters)
                        for letters in ((plus, minus), (plus,)))
    for expectation in (spin_thermal_expectation, spin_thermal_dense_oracle):
        with pytest.raises(ValueError, match="requires real coefficients"):
            expectation(params, 6, i_number)
    assert spin_thermal_expectation(params, 6, i_plus) == 0.0
    assert spin_thermal_dense_oracle(params, 6, i_plus) == 0.0


@pytest.mark.parametrize("gamma, kT", [(1, 4), (-1, 3)])
def test_spin_thermal_mixed_word_lengths_against_dense_oracle(gamma, kT):
    # lengths 1 to 4, odd ones included, each with its own N^{-L/2} scale
    params = XYParams(Fraction(gamma), Fraction(kT))
    poly = parse_polynomial("S+*S- + Sz*S+*S- + 2*S-*S-*S+*S+ + (1/3)*Sz")
    for N in (4, 7, 10):
        fast = spin_thermal_expectation(params, N, poly)
        dense = spin_thermal_dense_oracle(params, N, poly)
        assert fast == pytest.approx(dense, rel=1e-12)


def _cell_diagonal(word, tj, tm):
    """<j, m| word |j, m> with 2j = tj, 2m = tm, letters applied right to left."""
    jj = tj * (tj + 2) / 4  # j(j + 1)
    m = tm / 2
    amp = 1.0
    for ch in reversed(word):
        if ch == "z":
            amp *= m
        elif ch == "+":
            amp *= math.sqrt(max(jj - m * (m + 1), 0))
            m += 1
        else:
            amp *= math.sqrt(max(jj - m * (m - 1), 0))
            m -= 1
    return amp if 2 * m == tm else 0.0


@pytest.mark.parametrize("gamma, kT, N", [
    (4, 9, 300), (-4, 5, 301),
    (49, 100, 1), (-9, 10, 1), (49, 100, 2), (-9, 10, 2), (-9, 10, 7),
    (49, 100, 8)])
def test_spin_thermal_against_per_cell_sum(gamma, kT, N):
    # every (j, m) cell with its own Boltzmann weight exp(-E / kT),
    # E = (2 gamma / N)(j(j + 1) - m^2), and its own diagonal element; the
    # three-letter word leaves a sqrt(N) table
    words = {("+", "-"): 1, ("-", "+"): 1, ("-", "-", "+", "+"): 2,
             ("z", "+", "-"): Fraction(1, 3)}
    poly = parse_polynomial("S+*S- + S-*S+ + 2*S-*S-*S+*S+ + (1/3)*Sz*S+*S-")
    num = den = mpmath.mpf(0)
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma) / kT
        for tj in range(N % 2, N + 1, 2):
            k = (N - tj) // 2
            d = math.comb(N, k) - (math.comb(N, k - 1) if k else 0)
            for tm in range(-tj, tj + 1, 2):
                w = d * mpmath.exp(-2 * g * (tj * (tj + 2) - tm * tm) / (4 * N))
                den += w
                num += w * sum(float(c) * _cell_diagonal(word, tj, tm) / N ** (len(word) / 2)
                               for word, c in words.items())
        want = float(num / den)
    got = spin_thermal_expectation(XYParams(Fraction(gamma), Fraction(kT)), N, poly)
    assert got == pytest.approx(want, rel=1e-12)


def test_spin_first_correction_at_large_n():
    # N (<h>_N - 4/5) tends to c1(1/4) = 67/500, and reads 0.1340024 at 10^4
    value = spin_thermal_expectation(XYParams(Fraction(1), Fraction(4)), 10**4,
                                     _number_op())
    assert 10**4 * (value - 0.8) == pytest.approx(0.1340024, rel=1e-6)


def _kernel_precisions(monkeypatch, params, N, poly):
    """The value of one call and the decimal precision of each sector sum
    it makes."""
    precisions = []
    kernel = spin_core.sector_moments

    def counted(*args):
        precisions.append(decimal.getcontext().prec)
        return kernel(*args)

    monkeypatch.setattr(spin_core, "sector_moments", counted)
    return spin_thermal_expectation(params, N, poly), precisions


def test_sum_reruns_only_when_its_terms_cancel(monkeypatch):
    inside = XYParams(Fraction(49, 100), Fraction(1))
    for N in (1, 64, 1000):
        _, precisions = _kernel_precisions(monkeypatch, inside, N, _number_op())
        assert precisions == [WORKING_DIGITS]
    # far outside the bounds the terms cancel by well over 50 digits
    s8 = parse_polynomial("S-^8*S+^8")
    far = XYParams(Fraction(1000), Fraction(1))
    value, precisions = _kernel_precisions(monkeypatch, far, 16, s8)
    assert 0 < value < 1e-200
    assert precisions[0] == WORKING_DIGITS and len(precisions) > 1
    assert all(2 * p <= q for p, q in zip(precisions, precisions[1:]))
    # S+^8 annihilates every sector of 5 sites; rounding leaves a residue at
    # every precision, until it falls below the smallest binary64 number
    value, precisions = _kernel_precisions(monkeypatch, far, 5, s8)
    assert value == 0.0 and len(precisions) <= 5


def test_sz_observable_tends_to_its_boson_image():
    # H has no Sz, so <eta^2> = 1/4 factors out of the thermal value 4/5
    params = XYParams(Fraction(1), Fraction(4))
    poly = parse_polynomial("Sz*Sz*(S+*S- + S-*S+)")
    target = boson_thermal_expectation(params, boson_image(poly))
    assert target == Fraction(1, 5)
    gaps = [abs(spin_thermal_expectation(params, N, poly) - float(target))
            for N in (300, 1000, 3000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_spin_thermal_resource_budget():
    params = XYParams(Fraction(1), Fraction(4))
    with pytest.raises(ResourceLimitError):
        spin_thermal_expectation(params, 10**8, _number_op())


def test_boson_expectation_against_weighted_thermal_sum():
    # the weight base B = 1 - 2 g on the x = 1/3 state, with each a+^m a^m
    # divided by B^m, is a second route to the closed form; B > 1 at g < 0
    form = NormalForm({(1, 1): 3, (2, 2): Fraction(1, 2), (0, 0): 1})
    for gamma in (Fraction(1), Fraction(-2), Fraction(-16, 5)):
        params = XYParams(gamma, Fraction(4))
        base = 1 - 2 * params.g
        mapped = NormalForm({(m, n): ComplexRational.coerce(c) / base**m
                             for (m, n), c in form.terms.items()})
        num = thermal_expect_weighted(THEOREM_STATE, base, mapped)
        den = thermal_expect_weighted(THEOREM_STATE, base, NormalForm({(0, 0): 1}))
        assert (num / den).as_fraction() == boson_thermal_expectation(params, form)


def test_boundary_divergence():
    # as 2g -> 1 the geometric base B x -> 1/3 stays fine, but r -> infinity
    # is approached smoothly; exactly at the bound everything raises
    params_near = XYParams(Fraction(4999, 10000), Fraction(1))
    assert partition_function(params_near) > 0
    with pytest.raises(ValidityError):
        partition_function(XYParams(Fraction(1, 2), Fraction(1)))

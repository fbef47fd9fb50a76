"""Acceptance gate: eleven end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from spinboson.boson import (
    ANNIHILATE,
    CREATE,
    NormalForm,
    number_polynomial,
    stirling_row,
    wick_reorder,
)
from spinboson.bridge import boson_image, verify_theorem
from spinboson.moments import complex_gaussian_expectation, limit_moment
from spinboson.parsing import parse_polynomial
from spinboson.rationals import ComplexRational
from spinboson.spin_core import (
    MINUS,
    PLUS,
    Z,
    dense_oracle_trace,
    node,
    normalized_trace,
)
from spinboson.thermal import (
    THEOREM_STATE,
    density_diagonal,
    partition_normalization_squared,
    polylog_negative,
    thermal_expect,
)
from spinboson.xy import (
    XYParams,
    boson_thermal_expectation,
    effective_temperature,
    partition_function,
    spin_thermal_expectation,
    validity_check,
)


def _verdict(number, label):
    """Decorator printing one [PASS]/[FAIL] line per criterion."""

    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@_verdict(1, "flagship trace at N=2000 rounds to 119.670 within 0.001, under 60 s")
def test_criterion_01_flagship_trace():
    poly = parse_polynomial("(S+*S- + S-*S+)^5")
    start = time.monotonic()
    res = normalized_trace(2000, poly, digits=6)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert abs(float(res.exact.re) - 119.670) < 1e-3
    assert res.decimal == "119.670"


@_verdict(2, "thermal expectation of 32 ad^5 a^5 at x=1/3 equals 120 exactly")
def test_criterion_02_thermal_flagship():
    val = thermal_expect(THEOREM_STATE, NormalForm({(5, 5): 32}))
    assert val == ComplexRational(120)


@_verdict(3, "theorem state: p_n = 2/3^{n+1}, <n> = 1/2, Z^2 = 3/4, all exact")
def test_criterion_03_theorem_state():
    for n in range(21):
        assert density_diagonal(THEOREM_STATE, n) == Fraction(2, 3 ** (n + 1))
    assert THEOREM_STATE.mean_occupation == Fraction(1, 2)
    assert partition_normalization_squared(THEOREM_STATE) == Fraction(3, 4)


@_verdict(4, "transverse moments converge at rate O(1/N) to (2l)!/(2^{3l} l!)")
def test_criterion_04_moment_convergence():
    sx = parse_polynomial("(1/2)*(S+ + S-)")
    ns = (64, 128, 256, 512, 1024)
    for ell in (1, 2, 3):
        target = limit_moment(ell)
        errs = [
            abs(normalized_trace(N, node("power", sx, 2 * ell)).exact.re - target)
            for N in ns
        ]
        if all(e == 0 for e in errs):
            continue  # already exact at finite N (the l = 1 case)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        c = max(e * N for N, e in zip(ns, errs))
        for N, e in zip(ns, errs):
            assert e <= c / N


@_verdict(5, "irrep engine equals the dense 2^N oracle on 100 random polynomials")
def test_criterion_05_oracle_agreement():
    rng = random.Random(2024)
    for _ in range(100):
        N = rng.randint(2, 12)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(
                rng.choice((PLUS, MINUS, Z)) for _ in range(rng.randint(0, 6))
            )
            terms[word] = ComplexRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )
        poly = node("sum", *(node("product", node("constant", c),
                                  *(node("letter", ch) for ch in word))
                             for word, c in terms.items()))
        engine = normalized_trace(N, poly)
        dense = dense_oracle_trace(N, poly)
        assert engine.exact == dense.exact
        assert engine.sqrt_n == dense.sqrt_n


@_verdict(6, "mixed moment Sx^2 Sy^2 equals 1/16 with non-increasing error")
def test_criterion_06_mixed_moment():
    sy = node("sum", *(node("product", node("constant", ComplexRational(0, c)), node("letter", ch))
                       for ch, c in ((PLUS, Fraction(-1, 2)), (MINUS, Fraction(1, 2)))))
    poly = node("product", parse_polynomial("((1/2)*(S+ + S-))^2"), node("power", sy, 2))
    errs = []
    for N in (128, 256, 512):
        res = normalized_trace(N, poly)
        errs.append(abs(res.exact.re - Fraction(1, 16)))
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0  # in fact exact at every N


@_verdict(7, "Stirling coefficients reproduce Wick reordering up to n=8")
def test_criterion_07_stirling_wick():
    for n in range(1, 9):
        lhs = NormalForm({(n, n): 1})
        rhs = NormalForm({})
        for ell, coeff in enumerate(stirling_row(n)):
            if coeff:
                rhs = rhs + wick_reorder((CREATE, ANNIHILATE) * ell).scale(coeff)
        assert lhs == rhs
    assert number_polynomial(5) == (0, 768, -1600, 1120, -320, 32)


@_verdict(8, "negative-order polylog identity holds to 1e-12 for k <= 6")
def test_criterion_08_polylog_identity():
    x = Fraction(1, 3)
    for k in range(7):
        closed = Fraction(2, 3) * polylog_negative(k, x)
        series = (2 / math.sqrt(3)) * sum(
            math.exp(-math.log(3) * (n + 0.5)) * n**k for n in range(1, 500)
        )
        assert abs(float(closed) - series) < 1e-12


@_verdict(9, "random symbols: Gaussian equals thermal exactly, spin rate ~ 1/N")
def test_criterion_09_random_symbols():
    rng = random.Random(404)
    for _ in range(20):
        m = rng.randint(1, 5)
        coeff = ComplexRational(
            Fraction(rng.randint(1, 6), rng.randint(1, 4))
        )
        form = NormalForm({(m, m): coeff})
        gauss = complex_gaussian_expectation({(m, m): coeff})
        assert thermal_expect(THEOREM_STATE, form) == gauss
    for m in (2, 3, 4, 5):
        poly = parse_polynomial(f"S+^{m}*S-^{m}")
        report = verify_theorem(poly, [64, 128, 256, 512])
        assert report.boson_value == pytest.approx(
            math.factorial(m) * 0.5**m
        )
        assert 0.7 <= report.fitted_rate <= 1.3


@_verdict(10, "XY application: Z, validity bounds, T_eff, spin-boson convergence")
def test_criterion_10_xy_application():
    assert partition_function(XYParams(Fraction(0), Fraction(1))) == (
        pytest.approx(math.sqrt(3) / 2)
    )
    assert validity_check(XYParams(Fraction(49, 100), Fraction(1))).passed
    assert not validity_check(XYParams(Fraction(1, 2), Fraction(1))).passed
    assert validity_check(XYParams(Fraction(-99, 100), Fraction(1))).passed
    assert not validity_check(XYParams(Fraction(-1), Fraction(1))).passed
    t_eff = effective_temperature(XYParams(Fraction(-1), Fraction(2)))
    assert abs(t_eff - 2 / math.log(1.5)) < 1e-9
    params = XYParams(Fraction(1), Fraction(4))
    poly = parse_polynomial("S+*S- + S-*S+")
    target = float(boson_thermal_expectation(params, boson_image(poly)))
    gaps = [
        abs(spin_thermal_expectation(params, N, poly) - target)
        for N in (64, 128, 256, 512)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@_verdict(11, "longitudinal moments match the ground-oscillator Gaussian law")
def test_criterion_11_longitudinal_moments():
    sz = parse_polynomial("Sz")
    assert normalized_trace(64, node("power", sz, 2)).exact.re == Fraction(1, 4)
    for ell in (2, 3):
        target = limit_moment(ell)
        errs = [
            abs(normalized_trace(N, node("power", sz, 2 * ell)).exact.re - target)
            for N in (128, 256, 512, 1024)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2

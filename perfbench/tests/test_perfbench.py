"""Tests of the benchmark itself: generator, references, checks, tracer, report.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from spinboson import parse_polynomial, spin_core, xy  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PROGRAM = run.import_program()


def _signature(requests):
    return [(r.slot, r.expr, r.n, r.argv) for r in requests]


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_generator_is_deterministic_for_a_seed(workload):
    first, again, other = (workloads.Stream(workload, s) for s in (7, 7, 8))
    for _ in range(2):
        rounds = first.next_round(), again.next_round(), other.next_round()
        assert _signature(rounds[0]) == _signature(rounds[1])
        assert _signature(rounds[0]) != _signature(rounds[2])
        assert len(rounds[0]) == len(rounds[2])


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.ROUNDS)


def test_high_degree_never_repeats_an_expression():
    stream = workloads.Stream("high-degree", 3)
    exprs = [r.expr for _ in range(3) for r in stream.next_round()]
    assert len(exprs) == len(set(exprs))


@pytest.mark.parametrize("expr", [
    *workloads.LARGE_N_POOL, *workloads.FLOAT_POOL, *workloads.ORACLE_POOL,
    "(S+ + S- + Sz)^3*S+*Sz*S-*S-*S+", "2*S+*S-*Sz*Sz - 3*S-*Sz*S+*Sz + (1/2)",
])
def test_trace_polynomial_matches_dense_oracle(expr):
    poly = ref.TracePolynomial.of(expr)
    program_poly = parse_polynomial(expr)
    for n in (2, 5, 9):
        dense = spin_core.dense_oracle_trace(n, program_poly)
        assert dense.sqrt_n == 0
        assert dense.exact.re == poly.value(n)


@pytest.mark.parametrize("expr", sorted(workloads.BINOMIAL))
def test_binomial_sum_matches_trace_polynomial(expr):
    k, scale = workloads.BINOMIAL[expr]
    for n in (1, 6, 301):
        assert scale * ref.binomial_sz_moment(n, k) == ref.TracePolynomial.of(expr).value(n)


def test_xy_reference_matches_dense_xy_oracle():
    dense_oracle = getattr(xy, "spin_thermal_dense_oracle", None)
    if dense_oracle is None:
        pytest.skip("the program no longer has a dense XY oracle")
    words = [(2, ["S+", "S-"]), (1, ["S-", "S+", "S-", "S+"]), (3, ["S+", "S+"])]
    expr = " + ".join(f"{c}*{'*'.join(w)}" for c, w in words)
    for gamma, kt, n in ((Fraction(1), Fraction(4), 5), (Fraction(-3, 2), Fraction(5, 2), 8)):
        want = dense_oracle(xy.XYParams(gamma, kt), n, parse_polynomial(expr))
        got = ref.xy_spin_expectation(float(gamma / kt), n, words)
        assert got == pytest.approx(want, rel=1e-10)


def test_ordering_spread_matches_program():
    from spinboson import bridge

    word = ["S+", "S-", "Sz", "Sz", "S+", "S-"]
    want = bridge.ordering_sensitivity(parse_polynomial("*".join(word)), 40)
    assert ref.ordering_spread(word, 40) == pytest.approx(want, rel=1e-12)


def _small_requests(refs):
    return [
        workloads.trace(refs, workloads.LARGE_N_POOL[0], 120),
        workloads.verify(refs, workloads.VERIFY_POOL[2], [50, 70, 90]),
        workloads.float_trace(refs, workloads.FLOAT_POOL[0], 20_000),
        workloads.oracle(refs, workloads.ORACLE_POOL[2], 6),
        workloads.xy_request(Fraction(-1), Fraction(3), 20, [(2, ["S+", "S-"])]),
        workloads.ordering(["S+", "S-", "Sz", "Sz"], 32),
    ]


def test_correct_answers_pass_their_checks():
    for request in _small_requests(workloads.References()):
        assert run.checked(request, *run.send(request, *PROGRAM)[1:]) == []


class WrongReferences(workloads.References):
    def exact(self, expr, n):
        return super().exact(expr, n) * Fraction(1001, 1000)


def test_a_wrong_reference_is_counted_as_an_error():
    refs = WrongReferences()
    requests = [workloads.trace(refs, workloads.LARGE_N_POOL[1], 300),
                workloads.float_trace(refs, workloads.FLOAT_POOL[1], 20_000)]
    stream = workloads.Stream("large-n", 1)
    bench = run.Run(PROGRAM, stream, requests, seconds=0)
    bench.go()
    assert bench.attempted == 2 and bench.failed == 2
    result, info = run.report(bench, SPEC, [(1.0, 1.0)])
    assert result["correct"] is False and result["failed"] == 2
    assert info["error_rate"] == 1.0


def test_a_failing_call_is_counted_as_an_error():
    request = workloads.trace(workloads.References(), "S+ +* S-", 10)
    latency, result, error = run.send(request, *PROGRAM)
    assert result is None and error.startswith("exit 1")
    assert run.checked(request, result, error)


def _wrapped_attributes():
    import importlib

    out = {}
    for module_name, attr, _ in tracing.BOUNDARIES:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr, None)
    import mpmath
    out[("mpmath", "exp")] = mpmath.exp
    return out


def _current(keys):
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a, None) for m, a in keys}


def test_tracer_restores_every_wrapped_attribute():
    before = _wrapped_attributes()
    tracer = tracing.Tracer()
    with tracer:
        during = _current(before)
        assert all(during[k] is not before[k] for k in before if before[k] is not None)
    assert _current(before) == before
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert _current(before) == before


def test_tracer_marks_a_missing_boundary_absent():
    boundaries = tuple(b for b in tracing.BOUNDARIES if b[2] != "spin_core.words") + (
        ("spinboson.spin_core", "_no_such_helper", "spin_core.words"),)
    tracer = tracing.Tracer(boundaries)
    with tracer:
        spin_core.normalized_trace(10, parse_polynomial("S+*S-"))
    values = tracer.metrics(1, ["spin_core.words.busy_s", "spin_core.words.distinct_ratio",
                                "spin_core.sectors.calls"])
    assert values["spin_core.words.busy_s"] is None
    assert values["spin_core.words.distinct_ratio"] is None
    assert values["spin_core.sectors.calls"] == 6


@pytest.mark.parametrize("traced", [False, True])
def test_every_printed_metric_is_in_benchmark_json(traced):
    refs = workloads.References()
    bench = run.Run(PROGRAM, workloads.Stream("large-n", 1), _small_requests(refs),
                    seconds=0, tracer=tracing.Tracer() if traced else None)
    bench.go()
    result, info = run.report(bench, SPEC, [(1.0, 1.0), (1.1, 1.1), (1.2, 1.2)])
    section = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and info["absent"] == []
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if traced:
        assert result["metrics"]["xy.cells"]["value"] == tracing.xy_cells(20) / 6
        assert result["metrics"]["bridge.trace_calls"]["value"] > 0


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])

"""Seeded request streams for the four workloads, with their correctness checks.

A workload is an endless stream of rounds.  Every round has the same fixed
mix of request slots (so every round costs about the same); the seed picks
the values inside each slot.  Each request carries a ``check`` that compares
the program's answer with a reference from ``reference.py`` and returns the
list of mismatches (empty when correct).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import reference as ref

EXACT_DIGITS = 18
#: |float path - exact| <= FLOAT_RTOL * |exact|.  Worst seen at N = 10^6 is
#: 6.1e-10 (the log-gamma weights lose about N * 6e-16).
FLOAT_RTOL = 1e-8
#: XY spin side: 22-digit mpmath against the binary64 reference (about 1e-15).
XY_RTOL = 1e-9
#: closed forms (boson limits, Z, T_eff) computed in binary64 on both sides.
CLOSED_FORM_RTOL = 1e-12

H = "(S+*S- + S-*S+)"
LARGE_N_POOL = (f"{H}^5", f"{H}^2", "Sz^4", "S+*Sz^2*S-", "(S+ + S-)^4")
VERIFY_POOL = (f"{H}^5", f"{H}^2", "(S+ + S-)^4")
FLOAT_POOL = (f"{H}^3", "Sz^4", "(S+ + S-)^6", "S+*Sz^2*S-",
              "Sz^2 + (1/2)*S+*S-")
ORACLE_POOL = (f"{H}^2", f"{H}^3", "Sz^2 + (1/2)*S+*S-", "(S+ + S-)^4",
               "S+*Sz^2*S-", "Sz^4")
#: pool members whose trace has a binomial-sum reference: expr -> (k, 2^-k
#: scale).  (S+ + S-)^k = (2 Sx)^k has the spectrum of (2 Sz)^k.
BINOMIAL = {"Sz^4": (4, Fraction(1, 16)), "(S+ + S-)^4": (4, Fraction(1)),
            "(S+ + S-)^6": (6, Fraction(1))}
#: above this N the O(N)-term bigint binomial sum is slower than the request
BINOMIAL_MAX_N = 10_000

RECORDED = json.loads(
    (Path(__file__).with_name("recorded.json")).read_text())


@dataclass
class Request:
    """One call: CLI argv (JSON output is added by the runner) or, when
    ``argv`` is None, ``bridge.ordering_sensitivity(expr, n)``."""

    slot: str
    expr: str
    n: int
    argv: Optional[List[str]]
    check: Callable[[object], List[str]] = field(repr=False)


class References:
    """Exact references, computed once per expression and kept for the run."""

    def __init__(self):
        self._polys: Dict[str, ref.TracePolynomial] = {}

    def poly(self, expr: str) -> ref.TracePolynomial:
        if expr not in self._polys:
            self._polys[expr] = ref.TracePolynomial.of(expr)
        return self._polys[expr]

    def exact(self, expr: str, n: int) -> Fraction:
        if expr in BINOMIAL and n <= BINOMIAL_MAX_N:
            k, scale = BINOMIAL[expr]
            return scale * ref.binomial_sz_moment(n, k)
        return self.poly(expr).value(n)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(got, want: float, rtol: float) -> bool:
    return got is not None and abs(got - want) <= rtol * abs(want)


def _exact_rows(refs: References, expr: str, digits: int):
    def check(results) -> List[str]:
        errors = []
        for row in results:
            want = ref.round_sig(refs.exact(expr, row["N"]), digits)
            if row["float_path"] or Decimal(row["value"]) != want:
                errors.append(f"{expr} N={row['N']}: {row['value']} != {want}")
        return errors
    return check


def _readme_row(refs: References):
    row = RECORDED["readme_h5_n2000"]
    exact = _exact_rows(refs, row["expr"], row["digits"])

    def check(results) -> List[str]:
        errors = exact(results)
        if results[0]["value"] != row["value"]:
            errors.append(f"README row: {results[0]['value']} != {row['value']}")
        return errors
    return check


def _verify(refs: References, expr: str):
    def check(results) -> List[str]:
        errors = []
        for n, dec in zip(results["N_values"], results["spin_decimals"]):
            want = ref.round_sig(refs.exact(expr, n), EXACT_DIGITS)
            if Decimal(dec) != want:
                errors.append(f"verify {expr} N={n}: {dec} != {want}")
        limit = float(refs.poly(expr).limit())
        if not _close(results["boson_value"], limit, CLOSED_FORM_RTOL):
            errors.append(f"verify {expr}: boson {results['boson_value']} != {limit}")
        return errors
    return check


def _float_rows(refs: References, expr: str):
    def check(results) -> List[str]:
        errors = []
        for row in results:
            got = float(row["value"].split()[0])
            want = float(refs.exact(expr, row["N"]))
            if not row["float_path"] or not _close(got, want, FLOAT_RTOL):
                errors.append(f"float {expr} N={row['N']}: {got} != {want}")
        return errors
    return check


def _oracle_rows(refs: References, expr: str):
    def check(results) -> List[str]:
        errors = []
        for row in results:
            want = ref.round_sig(refs.exact(expr, row["N"]), EXACT_DIGITS)
            for side in ("engine", "dense"):
                if Decimal(row[side]) != want:
                    errors.append(f"oracle {expr} N={row['N']} {side}: "
                                  f"{row[side]} != {want}")
            if row["match"] is not True:
                errors.append(f"oracle {expr} N={row['N']}: no match")
        return errors
    return check


def _xy(gamma: Fraction, kt: Fraction, n: int, words):
    g = gamma / kt

    def check(results) -> List[str]:
        row = results[0]
        wants = {
            "expectation_spin": (ref.xy_spin_expectation(float(g), n, words),
                                 XY_RTOL),
            "expectation_boson": (ref.xy_boson_expectation(g, words),
                                  CLOSED_FORM_RTOL),
            "Z": (ref.xy_partition_function(g), CLOSED_FORM_RTOL),
            "T_eff": (ref.xy_effective_temperature(gamma, g), CLOSED_FORM_RTOL),
        }
        errors = [f"xy N={n} {key}: {row.get(key)} != {want}"
                  for key, (want, rtol) in wants.items()
                  if not _close(row.get(key), want, rtol)]
        if row.get("valid") is not True:
            errors.append(f"xy N={n}: parameters reported invalid")
        return errors
    return check


def _ordering(word: Sequence[str], n: int):
    def check(result) -> List[str]:
        want = ref.ordering_spread(word, n)
        if not _close(result, want, XY_RTOL):
            return [f"ordering {'*'.join(word)} N={n}: {result} != {want}"]
        return []
    return check


# ---------------------------------------------------------------------------
# request builders
# ---------------------------------------------------------------------------


def trace(refs, expr: str, n: int, slot: str = "trace") -> Request:
    argv = ["trace", "--expr", expr, "--n", str(n), "--digits", str(EXACT_DIGITS)]
    return Request(slot, expr, n, argv, _exact_rows(refs, expr, EXACT_DIGITS))


def readme_row(refs) -> Request:
    row = RECORDED["readme_h5_n2000"]
    argv = ["trace", "--expr", row["expr"], "--n", str(row["N"]),
            "--digits", str(row["digits"])]
    return Request("readme", row["expr"], row["N"], argv, _readme_row(refs))


def verify(refs, expr: str, ns: Sequence[int]) -> Request:
    argv = ["verify", "--expr", expr, "--n-list", ",".join(map(str, ns)),
            "--digits", str(EXACT_DIGITS)]
    return Request("verify", expr, ns[-1], argv, _verify(refs, expr))


def float_trace(refs, expr: str, n: int, slot: str = "float") -> Request:
    argv = ["trace", "--float", "--expr", expr, "--n", str(n), "--digits", "15"]
    return Request(slot, expr, n, argv, _float_rows(refs, expr))


def oracle(refs, expr: str, n: int) -> Request:
    argv = ["oracle", "--expr", expr, "--n", str(n), "--digits",
            str(EXACT_DIGITS)]
    return Request("oracle", expr, n, argv, _oracle_rows(refs, expr))


def xy_request(gamma: Fraction, kt: Fraction, n: int,
               words: Sequence[Tuple[int, Sequence[str]]],
               slot: str = "xy") -> Request:
    expr = " + ".join(f"{c}*{'*'.join(w)}" for c, w in words)
    argv = ["xy", f"--gamma={gamma}", f"--kt={kt}", "--expr", expr, "--n", str(n)]
    return Request(slot, expr, n, argv, _xy(gamma, kt, n, words))


def ordering(word: Sequence[str], n: int) -> Request:
    return Request("ordering", "*".join(word), n, None, _ordering(word, n))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _near(rng: random.Random, n: int, rel: float = 0.015) -> int:
    """A size within +-rel of n.  Every round uses the same grid of sizes, so
    the cost of a round hardly depends on the seed; the seed moves each size
    a little and picks everything else."""
    return max(1, round(n * (1 + rel * (2 * rng.random() - 1))))


def _fresh_n(rng, n: int, expr: str, seen: set) -> int:
    """A size near n not yet used with this expression, when one is left."""
    for _ in range(100):
        size = _near(rng, n)
        if (expr, size) not in seen:
            break
    seen.add((expr, size))
    return size


def _fresh(make, seen: set) -> str:
    while True:
        expr = make()
        if expr not in seen:
            seen.add(expr)
            return expr


def large_n_round(rng: random.Random, refs: References, seen: set) -> List[Request]:
    reqs = [readme_row(refs)]
    for expr in LARGE_N_POOL:
        # two at N ~ 3000, so the tail percentile falls inside that group
        for n in (1050, 1300, 1600, 2000, 2500, 3000, 3000, 3800):
            reqs.append(trace(refs, expr, _fresh_n(rng, n, expr, seen)))
    for expr in VERIFY_POOL:
        reqs.append(verify(refs, expr, [_near(rng, n) for n in (1100, 1500, 1900)]))
    rng.shuffle(reqs)
    return reqs


def _balanced_word(rng, length: int, n_z: int) -> List[str]:
    half = (length - n_z) // 2
    word = ["S+"] * half + ["S-"] * half + ["Sz"] * n_z
    rng.shuffle(word)
    return word


def _coeff(rng) -> str:
    c = rng.choice([1, 2, 3, 4, 5, -1, -2, -3])
    return f"({c})" if c < 0 else str(c)


def high_degree_round(rng: random.Random, refs: References, seen: set) -> List[Request]:
    def number_power(k):
        a = rng.randint(k - 3, k - 1)
        c1, c2 = rng.sample(range(1, 6), 2)
        return f"{H}^{a}*({c1}*S+*S- + {c2}*S-*S+)^{k - a}"

    def word_sum(i):
        length, n_z = (12, 14, 16)[i % 3], (0, 2, 4)[i // 3 % 3]
        return " + ".join(_coeff(rng) + "*" + "*".join(_balanced_word(rng, length, n_z))
                          for _ in range(3 + i % 4))

    def triple_power(i):
        k, length = (3, 4)[i % 2], (12, 14, 16)[i % 3]
        tail = [rng.choice(["S+", "S-", "Sz"]) for _ in range(length - k)]
        return f"(S+ + S- + Sz)^{k}*" + "*".join(tail)

    makes = ([lambda i: number_power(8)] + [lambda i: number_power(7)] * 2
             + [lambda i: number_power(6)] * 4 + [word_sum] * 48 + [triple_power] * 10)
    reqs = [trace(refs, _fresh(lambda: make(i), seen), rng.randint(32, 512))
            for i, make in enumerate(makes)]
    for pairs, n_z in ((2, 2), (3, 0), (1, 4)) * 2:
        word = _fresh(lambda: "*".join(_balanced_word(rng, 2 * pairs + n_z, n_z)), seen)
        reqs.append(ordering(word.split("*"), rng.randint(32, 128)))
    rng.shuffle(reqs)
    return reqs


def _xy_params(rng) -> Tuple[Fraction, Fraction]:
    """gamma of either sign with 2 gamma/kT < 1 and -gamma/kT < 1."""
    gamma = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    if rng.random() < 0.5:
        return gamma, gamma * Fraction(rng.randint(9, 24), 4)  # g in [1/6, 4/9]
    return -gamma, gamma * Fraction(rng.randint(5, 16), 4)     # g in [-4/5, -1/4]


def _shapes(degree: int) -> List[Tuple[str, ...]]:
    """All balanced raising/lowering words of a degree, in a fixed order."""
    return ref.distinct_orderings(["S+", "S-"] * (degree // 2))


def _xy_words(rng, slot: int, degree: int, extra: int) -> List[Tuple[int, List[str]]]:
    """A balanced word of the given degree and ``extra`` shorter words; the
    third extra word has no diagonal part (its trace is zero).  Word shapes
    follow the slot, so a round's cost does not depend on the seed."""
    shapes = _shapes(degree)
    words = [(rng.randint(1, 4), list(shapes[slot % len(shapes)]))]
    for j in range(extra):
        length = 2 + 2 * (j % (degree // 2))
        word = ["S+"] * length if j == 2 else list(_shapes(length)[slot % 2])
        words.append((rng.randint(1, 4), word))
    return words


def xy_round(rng: random.Random, refs: References, seen: set) -> List[Request]:
    slots = [(310, 2, 1)] + [(n, 2 + 2 * (i % 2), 1)
                             for i, n in enumerate((130, 145, 160, 175, 190))]
    slots += [(64 + 16 * i // 52, (2, 4, 6)[i % 3], i // 3 % 3) for i in range(52)]
    reqs = []
    for i, (n, degree, extra) in enumerate(slots):
        gamma, kt = _xy_params(rng)
        reqs.append(xy_request(gamma, kt, max(64, _near(rng, n, 0.02)),
                               _xy_words(rng, i, degree, extra)))
    rng.shuffle(reqs)
    return reqs


def float_oracle_round(rng: random.Random, refs: References, seen: set) -> List[Request]:
    sizes = [950_000] * 5 + [120_000, 145_000, 170_000, 195_000, 220_000,
                             245_000, 270_000, 295_000]
    sizes += [round(10_200 * 5 ** (i / 23)) for i in range(24)]  # 10^4 .. 5 10^4
    reqs = []
    for i, n in enumerate(sizes):
        expr = FLOAT_POOL[i % len(FLOAT_POOL)]
        reqs.append(float_trace(refs, expr, _fresh_n(rng, n, expr, seen)))
    for i, n in enumerate([12, 12] + [10, 11, 10] + [8, 9] * 5):
        reqs.append(oracle(refs, ORACLE_POOL[i % len(ORACLE_POOL)], n))
    rng.shuffle(reqs)
    return reqs


#: weight of the object-array kernel in the clock calibration (run.calibrate):
#: large-n and float-oracle spend their time in bigint and binary64
#: arithmetic, xy-thermal and high-degree in dict, Fraction and mpmath work.
OBJECT_SHARE = {"large-n": 0.0, "high-degree": 0.5, "xy-thermal": 0.5,
                "float-oracle": 0.0}

ROUNDS = {
    "large-n": large_n_round,
    "high-degree": high_degree_round,
    "xy-thermal": xy_round,
    "float-oracle": float_oracle_round,
}


def warmup(workload: str, refs: References) -> Request:
    """A small request of the workload's kind, sent once during set-up."""
    if workload == "large-n":
        return trace(refs, f"{H}^2", 100, "warmup")
    if workload == "high-degree":
        return trace(refs, "S+*S-*Sz*Sz*S-*S+", 32, "warmup")
    if workload == "xy-thermal":
        return xy_request(Fraction(1), Fraction(4), 8, [(1, ["S+", "S-"])], "warmup")
    return float_trace(refs, "Sz^2", 1000, "warmup")


class Stream:
    """The seeded request stream of one workload, round by round."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.object_share = OBJECT_SHARE[workload]
        self.rng = random.Random(f"{workload}/{seed}")
        self.refs = References()
        self.seen: set = set()
        self._make = ROUNDS[workload]

    def next_round(self) -> List[Request]:
        return self._make(self.rng, self.refs, self.seen)

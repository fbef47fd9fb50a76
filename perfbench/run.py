"""Run one spinboson benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 20 --trace 0

One client in one process sends the workload's seeded requests in a closed
loop: the next request goes out when the previous one has returned and been
checked.  Requests go through ``spinboson.cli.main`` with ``--format json``,
or through ``bridge.ordering_sensitivity`` where no CLI command exists.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; see perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in set-up probes

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
#: median times of the arithmetic and object-array kernels of ``calibrate``
#: on the reference machine (2 vCPU Xeon VM, Python 3.11); times are
#: reported on that machine's clock
CALIBRATION_NOMINAL_S = (0.0070, 0.00793)
sys.path.insert(0, str(HERE))

import reference  # noqa: E402  (benchmark code beside this file)
from workloads import OBJECT_SHARE  # noqa: E402


def import_program():
    """Import spinboson from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import spinboson
    from spinboson import bridge, cli, parsing

    if Path(spinboson.__file__).resolve().parent != SRC / "spinboson":
        raise SystemExit(f"error: imported spinboson from {spinboson.__file__}")
    return cli, bridge, parsing


def send(request, cli, bridge, parsing):
    """Send one request.  Returns (latency_s, result or None, error or None)."""
    if request.argv is None:
        start = time.perf_counter()
        try:
            result = bridge.ordering_sensitivity(
                parsing.parse_polynomial(request.expr), request.n)
        except Exception as exc:  # a failed request is counted, not fatal
            return time.perf_counter() - start, None, repr(exc)
        return time.perf_counter() - start, result, None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(request.argv + ["--format", "json"])
        except (Exception, SystemExit) as exc:
            code = exc
        latency = time.perf_counter() - start
    if code != 0:
        return latency, None, f"exit {code!r}: {err.getvalue().strip()}"
    return latency, json.loads(out.getvalue())["results"], None


def checked(request, result, error):
    """Mismatch messages for one response (empty when it is correct)."""
    if error is not None:
        return [f"{request.slot} {request.expr} N={request.n}: {error}"]
    try:
        return request.check(result)
    except Exception:  # malformed output counts as a wrong answer
        return [f"{request.slot} {request.expr}: unreadable result "
                f"{traceback.format_exc(limit=1)}"]


def set_up(workload: str, seed: int):
    """Everything before the first request: import, inputs, references,
    one warm-up call."""
    program = import_program()
    from workloads import Stream, warmup

    stream = Stream(workload, seed)
    first = stream.next_round()
    warm = warmup(workload, stream.refs)
    errors = checked(warm, *send(warm, *program)[1:])
    return program, stream, first, errors


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from starting a fresh process to its first request being
    ready, measured and on the reference clock (scaled by the calibration
    kernel timed in that process right after its set-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        kernel = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return elapsed, elapsed * nominal(OBJECT_SHARE[workload]) / float(kernel)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _arithmetic() -> None:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i * i + 1)
    big = 3**30000
    (big * big) % (7**12000)


def _object_arrays() -> None:
    for _ in range(3):
        reference.TracePolynomial.of("(S+*S- + S-*S+)^4*Sz^2")


def calibrate(object_share: float) -> float:
    """Time of a fixed calibration kernel, in seconds on the host clock.

    The host's speed changes by 10-40 % between runs, and not alike for all
    code: bigint and binary64 arithmetic follow one pace, dict, Fraction and
    object-array work another.  The kernel times one piece of each and
    returns their weighted geometric mean, with the workload's
    ``object_share`` on the second; times are then scaled by the nominal
    value of the same mix over its median in the same process."""
    arithmetic = _timed(_arithmetic)
    objects = _timed(_object_arrays) if object_share else 1.0
    return arithmetic ** (1 - object_share) * objects ** object_share


def nominal(object_share: float) -> float:
    return (CALIBRATION_NOMINAL_S[0] ** (1 - object_share)
            * CALIBRATION_NOMINAL_S[1] ** object_share)


def context() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail_share(round_size: int) -> float:
    """Highest share of one round's requests that leaves ten beyond it."""
    return max(round_size - 10, 1) / round_size


def tail(latencies, round_size: int) -> float:
    """Latency at ``tail_share``; with more rounds the same percentile has
    more than ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(tail_share(round_size) * len(ordered)) - 1, 0)]


class Run:
    """Closed-loop measurement of whole rounds for about ``seconds``."""

    def __init__(self, program, stream, first, seconds: float, tracer=None):
        self.program = program
        self.stream = stream
        self.seconds = seconds
        self.tracer = tracer
        self.round_size = len(first)
        self.latencies = []        # untraced calls
        self.traced_latencies = []
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.exprs_seen = set()
        self.calibrations = []
        self.repeats = 0
        self.rounds = 0
        self._first = first

    def execute(self, request, traced: bool) -> float:
        if traced:
            self.tracer.begin_request()
            with self.tracer:
                latency, result, error = send(request, *self.program)
        else:
            latency, result, error = send(request, *self.program)
        self.count(checked(request, result, error))
        return latency

    def count(self, errors) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures += errors

    def go(self) -> None:
        start = time.perf_counter()
        requests = self._first
        while True:
            round_start = time.perf_counter()
            for i, request in enumerate(requests):
                self.repeats += request.expr in self.exprs_seen
                self.exprs_seen.add(request.expr)
                self.calibrations.append(calibrate(self.stream.object_share))
                if self.tracer is None:
                    self.latencies.append(self.execute(request, False))
                    continue
                # alternate the order so warm caches favour neither side
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    latency = self.execute(request, traced)
                    (self.traced_latencies if traced else self.latencies).append(latency)
            self.rounds += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > self.seconds:
                return
            requests = self.stream.next_round()

    def end_to_end(self) -> dict:
        """End-to-end metrics on the reference clock; the measured values
        and the scale factor go to ``self.detail``."""
        scale = (nominal(self.stream.object_share)
                 / statistics.median(self.calibrations))
        lats = self.latencies
        measured = {"calls_per_s": len(lats) / sum(lats),
                    "call_p50_s": statistics.median(lats),
                    "call_tail_s": tail(lats, self.round_size)}
        self.detail = {
            "measured": measured,
            "clock_scale": scale,
            "call_p50_s": {"samples": len(lats)},
            "call_tail_s": {"percentile": round(100 * tail_share(self.round_size), 2),
                            "samples": len(lats)},
        }
        return {
            "calls_per_s": measured["calls_per_s"] / scale,
            "call_p50_s": measured["call_p50_s"] * scale,
            "call_tail_s": measured["call_tail_s"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def report(run: Run, spec: dict, setup):
    """The result line and its details.  A traced run (``run.tracer`` set)
    reports the per-layer metrics, an untraced one the end-to-end metrics;
    a metric whose boundary is gone from the program is listed as absent."""
    e2e = run.end_to_end()
    if run.tracer is not None:
        section = spec["per_layer"]
        values = run.tracer.metrics(len(run.traced_latencies),
                                    [m["name"] for m in section])
        values["trace.overhead_ratio"] = (sum(run.traced_latencies)
                                          / sum(run.latencies))
    else:
        section = spec["end_to_end"]
        values = dict(e2e, setup_s=statistics.median(s for _, s in setup))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section if values.get(m["name"]) is not None}
    info = {
        "workload": run.stream.workload, "trace": int(run.tracer is not None),
        "rounds": run.rounds, "round_size": run.round_size,
        "requests": len(run.latencies), "error_rate": run.failed / run.attempted,
        "repeated_expression_share": run.repeats / (run.rounds * run.round_size),
        "setup_samples_s": setup,
        "absent": [m["name"] for m in section if values.get(m["name"]) is None],
        **run.detail,
    }
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        share = OBJECT_SHARE[args.workload]
        print(statistics.median(calibrate(share) for _ in range(5)), flush=True)
        return 0

    if not (SRC / "spinboson" / "__init__.py").is_file():
        print(f"error: no spinboson sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    setup = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    program, stream, first, warm_errors = set_up(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    run = Run(program, stream, first, args.seconds, tracer)
    run.count(warm_errors)
    run.go()

    result, info = report(run, spec, setup)
    for failure in run.failures:
        print(f"mismatch: {failure}", file=sys.stderr)
    print("# " + json.dumps(dict(info, seed=args.seed, context=context())))
    for name, metric in result["metrics"].items():
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"# {'error_rate':34s} {info['error_rate']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

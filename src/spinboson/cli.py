"""Command-line front end for batch computations.

Exit codes: 0 success, 1 domain or usage error, 2 resource error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

from . import bridge, moments, spin_core, xy
from .parsing import parse_polynomial, render_polynomial
from .spin_core import ResourceLimitError


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as ValueError,
    so they exit 1 with one ``error:`` line like every other bad value."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a token that starts with one "-", such as "-1/2" or "-Sz^2", is a value
        self._negative_number_matcher = re.compile("-[^-]")

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    """The argument parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="spinboson",
        description="Exact collective-spin traces and their bosonic limits.",
    )
    parser.add_argument("--config", help="key=value file; flags take precedence")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, expr=True, n=True, digits=True):
        if expr:
            p.add_argument("--expr", help="polynomial over S+, S-, Sz")
        if n:  # two spellings of one list: the later flag wins
            p.add_argument("--n", "--n-list", type=_sizes, metavar="N[,N...]",
                           help="number of spin-1/2 sites, or comma-separated counts")
        if digits:
            p.add_argument("--digits", type=int, default=12,
                           help="rendered decimal precision (default 12)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("trace", help="normalized trace of a polynomial")
    common(p)
    p.add_argument("--float", action="store_true", dest="float_path",
                   help="print the binary64 rounding of the exact value "
                        "(labeled in output)")
    p = sub.add_parser("moments", help="table of limit moments")
    common(p, expr=False, n=False, digits=False)
    p.add_argument("--max-l", type=int, default=5, dest="max_l")
    p = sub.add_parser("verify", help="theorem convergence report")
    common(p)
    p = sub.add_parser("xy", help="Heisenberg XY application")
    common(p, digits=False)
    p.add_argument("--gamma", help="coupling (units of hbar), required")
    p.add_argument("--kt", help="temperature (k_B absorbed), required")
    p = sub.add_parser("normal-order", help="bosonic image of a polynomial")
    common(p, n=False, digits=False)
    p = sub.add_parser("oracle", help="irrep engine against the dense oracle")
    common(p)
    return parser, sub.choices


def _apply_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of a command's flags.

    Keys are long option names; values are converted with the flag's own
    type, so the command line still wins when the arguments are reparsed.
    """
    options = command._option_string_actions
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            action = options.get("--" + key.replace("_", "-"))
            if action is None or action.default == argparse.SUPPRESS:  # --help
                raise ValueError(f"unknown config key {key!r}")
            try:
                if action.nargs == 0:  # an on/off flag such as --float
                    value = {"true": True, "false": False}[value.lower()]
                elif action.type is not None:
                    value = action.type(value)
            except (KeyError, ValueError, argparse.ArgumentTypeError):
                raise ValueError(
                    f"config key {key!r}: invalid value {value!r}"
                ) from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(
                    f"config key {key!r} must be one of {list(action.choices)}"
                )
            defaults[action.dest] = value
    command.set_defaults(**defaults)


def _sizes(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid site counts {text!r}") from None


def _emit(args, inputs: dict, results, lines, rows) -> None:
    """Write one command's output in ``args.format`` to stdout or ``--out``:
    the JSON ``inputs`` and ``results``, the text ``lines`` or the CSV
    ``rows``."""
    if args.format == "json":
        out = json.dumps({"command": args.command, "inputs": inputs,
                          "results": results}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _per_n(args, admit, step, **inputs):
    """A command's output from ``step(n)`` -> (text line, row) for each
    requested N, once ``--digits`` and ``admit(n)`` have passed for every N;
    ``inputs`` follow the expression and the N values."""
    n_values = _require(args, "n")
    spin_core.check_digits(args.digits)
    for n in n_values:
        admit(n)
    lines, rows = zip(*map(step, n_values))
    return {"expr": args.expr, "N": n_values, **inputs}, rows, lines, rows


def _cmd_trace(args):
    expr = parse_polynomial(_require(args, "expr"))

    def step(n):
        res = spin_core.normalized_trace(
            n, expr, digits=args.digits, use_float=args.float_path
        )
        tag = " [float path]" if res.float_path else ""
        return (f"N={n}: {res.decimal}{tag}",
                {"N": n, "value": res.decimal, "float_path": res.float_path})

    return _per_n(args, lambda n: spin_core.check_trace_budget(n, expr), step,
                  digits=args.digits, float=args.float_path)


def _cmd_moments(args):
    # the largest l whose moment fits in binary64; moment l + 1 is (2l + 1)/4
    # times moment l
    top, moment = 0, Fraction(1)
    while (moment := moment * (2 * top + 1) / 4) <= sys.float_info.max:
        top += 1
    if not 0 <= args.max_l <= top:
        raise ValueError(f"--max-l must be from 0 to {top}; larger moments "
                         "overflow a binary64 float")
    rows = []
    lines = ["l  moment (2l)!/(2^{3l} l!)"]
    for ell in range(args.max_l + 1):
        m = moments.limit_moment(ell)
        rows.append({"l": ell, "moment": str(m), "decimal": float(m)})
        lines.append(f"{ell}  {m} = {float(m):.10g}")
    return {"max_l": args.max_l}, rows, lines, rows


def _cmd_verify(args):
    expr = parse_polynomial(_require(args, "expr"))
    report = bridge.verify_theorem(expr, _require(args, "n"), digits=args.digits)
    lines = []
    for n, dec, err in zip(report.n_values, report.spin_decimals,
                           report.abs_errors):
        lines.append(f"N={n}: spin {dec}  |error| {err:.6g}")
    lines.append(f"boson value: {report.boson_value:.10g}")
    if report.fitted_rate is not None:
        lines.append(f"fitted decay rate: {report.fitted_rate:.3f}")
    rows = [
        {"N": n, "spin_value": v, "boson_value": report.boson_value,
         "abs_error": e}
        for n, v, e in zip(report.n_values, report.spin_values,
                           report.abs_errors)
    ]
    results = {"N_values": report.n_values,
               "spin_values": report.spin_values,
               "spin_decimals": report.spin_decimals,
               "boson_value": report.boson_value,
               "abs_errors": report.abs_errors,
               "fitted_rate": report.fitted_rate}
    return {"expr": args.expr, "N": report.n_values}, results, lines, rows


def _cmd_xy(args):
    params = xy.XYParams(Fraction(_require(args, "gamma")),
                         Fraction(_require(args, "kt")))
    expr = n = None
    if args.expr is not None or args.n is not None:  # <f> needs both
        expr = parse_polynomial(_require(args, "expr"))
        n, *rest = _require(args, "n")
        if rest:
            raise ValueError("xy takes one N; give --n or a one-value --n-list")
    report = xy.validity_check(params)
    lines = [f"gamma={args.gamma} kT={args.kt} g={params.g}"]
    for name, ok in report.bounds:
        lines.append(f"bound {name}: {'pass' if ok else 'FAIL'}")
    if report.temperature_bound:
        lines.append(f"ferromagnetic bound: {report.temperature_bound}")
    row = {
        "gamma": float(params.gamma), "kT": float(params.kT),
        "g": float(params.g), "valid": report.passed,
        "Z": None, "T_eff": None,
        "expectation_spin": None, "expectation_boson": None,
    }
    if report.passed:
        row["Z"] = xy.partition_function(params)
        lines.append(f"Z = {row['Z']:.10g}")
        if params.gamma != 0:
            row["T_eff"] = xy.effective_temperature(params)
            lines.append(f"T_eff = {row['T_eff']:.6g}")
    if expr is not None:
        row["expectation_spin"] = xy.spin_thermal_expectation(params, n, expr)
        lines.append(f"<f>_spin(N={n}) = {row['expectation_spin']:.10g}")
        if report.passed:
            row["expectation_boson"] = float(xy.boson_thermal_expectation(
                params, bridge.boson_image(expr)))
            lines.append(f"<f>_boson = {row['expectation_boson']:.10g}")
    inputs = {"gamma": args.gamma, "kt": args.kt, "expr": args.expr, "n": n}
    return inputs, [row], lines, [row]


def _cmd_normal_order(args):
    expr = parse_polynomial(_require(args, "expr"))
    form = bridge.boson_image(expr)
    text = form.render()
    return ({"expr": args.expr},
            [{"normal_form": json.loads(form.to_json()), "rendered": text}],
            [f"{render_polynomial(expr)}  ->  {text}"],
            [{"expr": args.expr, "normal_form": text}])


def _cmd_oracle(args):
    expr = parse_polynomial(_require(args, "expr"))

    def step(n):
        engine = spin_core.normalized_trace(n, expr, digits=args.digits)
        dense = spin_core.dense_oracle_trace(n, expr, digits=args.digits)
        if engine.exact != dense.exact or engine.sqrt_n != dense.sqrt_n:
            raise ValueError(f"oracle mismatch at N={n}")
        return (f"N={n}: engine {engine.decimal}  dense {dense.decimal}  MATCH",
                {"N": n, "engine": engine.decimal, "dense": dense.decimal,
                 "match": True})

    return _per_n(args, lambda n: spin_core.check_dense_budget(
        n, expr, spin_core.DENSE_ORACLE_CAP), step)


def _require(args, name):
    value = getattr(args, name, None)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required")
    return value


_COMMANDS = {
    "trace": _cmd_trace,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    "xy": _cmd_xy,
    "normal-order": _cmd_normal_order,
    "oracle": _cmd_oracle,
}


#: built once per process; a --config call edits a fresh parser's defaults
_cached_parser = functools.lru_cache(maxsize=1)(_build_parser)


def main(argv=None) -> int:
    parser, _ = _cached_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            parser, commands = _build_parser()
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        _emit(args, *_COMMANDS[args.command](args))
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

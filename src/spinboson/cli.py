"""Command-line front end for batch computations.

Exit codes: 0 success, 1 domain or usage error, 2 resource-budget error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import bridge, moments, spin_core, xy
from .parsing import parse_polynomial, render_polynomial
from .spin_core import ResourceLimitError


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as ValueError,
    so they exit 1 with one ``error:`` line like every other bad value."""

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
        if n:
            p.add_argument("--n", type=int, help="number of spin-1/2 sites")
            p.add_argument("--n-list", help="comma-separated site counts")
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
    p.add_argument("--oracle-cap", type=int, dest="oracle_cap",
                   default=spin_core.DEFAULT_ORACLE_CAP,
                   help="largest N the dense oracle builds (default %(default)s)")
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
            except (KeyError, ValueError):
                raise ValueError(
                    f"config key {key!r}: invalid value {value!r}"
                ) from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(
                    f"config key {key!r} must be one of {list(action.choices)}"
                )
            defaults[action.dest] = value
    command.set_defaults(**defaults)


def _n_values(args) -> list:
    if getattr(args, "n_list", None):
        return [int(v) for v in args.n_list.split(",")]
    if getattr(args, "n", None) is not None:
        return [args.n]
    raise ValueError("provide --n or --n-list")


def _emit(args, payload: dict, text: str, csv_rows=None) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        rows = csv_rows or []
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
    else:
        print(out)


def _per_n_command(args, command: str, inputs: dict, step) -> None:
    """Emit ``step(n)`` -> (text line, row) for each requested N."""
    lines, rows = [], []
    for n in _n_values(args):
        line, row = step(n)
        lines.append(line)
        rows.append(row)
    _emit(
        args,
        {"command": command,
         "inputs": {"expr": args.expr, "N": _n_values(args), **inputs},
         "results": rows},
        "\n".join(lines),
        rows,
    )


def _cmd_trace(args) -> None:
    expr = parse_polynomial(_require(args, "expr"))

    def step(n):
        res = spin_core.normalized_trace(
            n, expr, digits=args.digits, use_float=args.float_path
        )
        tag = " [float path]" if res.float_path else ""
        return (f"N={n}: {res.decimal}{tag}",
                {"N": n, "value": res.decimal, "float_path": res.float_path})

    inputs = {"digits": args.digits, "float": args.float_path}
    _per_n_command(args, "trace", inputs, step)


def _cmd_moments(args) -> None:
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
    _emit(
        args,
        {"command": "moments", "inputs": {"max_l": args.max_l},
         "results": rows},
        "\n".join(lines),
        rows,
    )


def _cmd_verify(args) -> None:
    expr = parse_polynomial(_require(args, "expr"))
    report = bridge.verify_theorem(expr, _n_values(args), digits=args.digits)
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
    _emit(
        args,
        {"command": "verify",
         "inputs": {"expr": args.expr, "N": report.n_values},
         "results": {"N_values": report.n_values,
                     "spin_values": report.spin_values,
                     "spin_decimals": report.spin_decimals,
                     "boson_value": report.boson_value,
                     "abs_errors": report.abs_errors,
                     "fitted_rate": report.fitted_rate}},
        "\n".join(lines),
        rows,
    )


def _cmd_xy(args) -> None:
    params = xy.XYParams(Fraction(_require(args, "gamma")),
                         Fraction(_require(args, "kt")))
    n = None
    if args.n is not None or args.n_list:
        n, *rest = _n_values(args)
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
    if args.expr and n is not None:
        expr = parse_polynomial(args.expr)
        row["expectation_spin"] = xy.spin_thermal_expectation(params, n, expr)
        lines.append(f"<f>_spin(N={n}) = {row['expectation_spin']:.10g}")
        if report.passed:
            row["expectation_boson"] = float(xy.boson_thermal_expectation(
                params, bridge.boson_image(expr)))
            lines.append(f"<f>_boson = {row['expectation_boson']:.10g}")
    _emit(
        args,
        {"command": "xy",
         "inputs": {"gamma": args.gamma, "kt": args.kt, "expr": args.expr,
                    "n": n},
         "results": [row]},
        "\n".join(lines),
        [row],
    )


def _cmd_normal_order(args) -> None:
    expr = parse_polynomial(_require(args, "expr"))
    echo = render_polynomial(expr)
    form = bridge.boson_image(expr)
    text = form.render()
    _emit(
        args,
        {"command": "normal-order", "inputs": {"expr": args.expr},
         "results": [{"normal_form": json.loads(form.to_json()),
                      "rendered": text}]},
        f"{echo}  ->  {text}",
        [{"expr": args.expr, "normal_form": text}],
    )


def _cmd_oracle(args) -> None:
    expr = parse_polynomial(_require(args, "expr"))

    def step(n):
        engine = spin_core.normalized_trace(n, expr, digits=args.digits)
        dense = spin_core.dense_oracle_trace(
            n, expr, digits=args.digits, cap=args.oracle_cap
        )
        if engine.exact != dense.exact or engine.sqrt_n != dense.sqrt_n:
            raise ValueError(f"oracle mismatch at N={n}")
        return (f"N={n}: engine {engine.decimal}  dense {dense.decimal}  MATCH",
                {"N": n, "engine": engine.decimal, "dense": dense.decimal,
                 "match": True})

    _per_n_command(args, "oracle", {"oracle_cap": args.oracle_cap}, step)


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
        if getattr(args, "digits", 1) < 1:
            raise ValueError("--digits must be >= 1")
        _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import spinboson
from spinboson import spin_core
from spinboson.cli import _COMMANDS, main
from spinboson.moments import limit_moment
from spinboson.parsing import parse_polynomial
from spinboson.spin_core import check_trace_budget


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "--expr", "Sz^2", "--n", "8")
    assert code == 0
    assert out.strip() == "N=8: 0.25"


def test_trace_flagship_value(capsys):
    code, out, _ = run(
        capsys, "trace", "--expr", "(S+*S- + S-*S+)^5", "--n", "2000",
        "--digits", "6",
    )
    assert code == 0
    assert "119.670" in out


def test_trace_json_schema_and_determinism(capsys):
    argv = ("trace", "--expr", "Sz^2", "--n-list", "4,8", "--format", "json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    data = json.loads(out1)
    assert data["command"] == "trace"
    assert data["inputs"]["N"] == [4, 8]
    assert [r["N"] for r in data["results"]] == [4, 8]
    assert all(r["value"] == "0.25" for r in data["results"])


def test_trace_csv_and_out_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "trace", "--expr", "Sz^2", "--n", "4", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,value,float_path"
    assert lines[1].startswith("4,0.25")


def test_trace_rounds_a_cancelling_radical_exactly(capsys):
    # the rational part 1/4 and the sqrt(5) part cancel to 3.1e-32
    root5 = "2236067977499789696409173668731/1000000000000000000000000000000"
    expr = f"Sz^2 + {root5}*S+*Sz*S-"
    code, out, _ = run(capsys, "trace", "--expr", expr, "--n", "5")
    assert code == 0 and out == "N=5: 3.08840611509E-32\n"
    code, out, _ = run(capsys, "trace", "--expr", expr, "--n", "5", "--float")
    assert code == 0 and out == "N=5: 3.08840611509E-32 (float) [float path]\n"


def test_trace_float_path_labeled(capsys):
    code, out, _ = run(
        capsys, "trace", "--expr", "Sz^2", "--n", "64", "--float"
    )
    assert code == 0 and "[float path]" in out


def test_sqrt_part_at_perfect_square_n_renders_like_a_rational(capsys):
    # at a perfect square N the sqrt(N) part joins the rational part exactly
    code, out, _ = run(capsys, "trace", "--expr", "Sz*S+*S-",
                       "--n-list", "100,400", "--digits", "6")
    assert code == 0 and out == "N=100: 0.025\nN=400: 0.0125\n"
    code, out, _ = run(capsys, "trace", "--expr", "(1/40)", "--n", "100")
    assert code == 0 and out == "N=100: 0.025\n"
    code, out, _ = run(capsys, "oracle", "--expr", "Sz*S+*S-", "--n", "4")
    assert code == 0 and out == "N=4: engine 0.125  dense 0.125  MATCH\n"
    code, out, _ = run(capsys, "trace", "--expr", "Sz*S+*S-", "--n", "4",
                       "--float")
    assert code == 0 and out == "N=4: 0.125 (float) [float path]\n"
    # a non-square N still rounds the irrational value to --digits figures
    code, out, _ = run(capsys, "trace", "--expr", "Sz*S+*S-", "--n", "101",
                       "--digits", "6")
    assert code == 0 and out == "N=101: 0.0248759\n"


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--max-l", "3")
    assert code == 0
    assert "1/4" in out and "3/16" in out and "15/64" in out


def test_verify_flagship(capsys):
    code, out, _ = run(
        capsys, "verify", "--expr", "(S+*S- + S-*S+)^5",
        "--n-list", "500,1000,2000", "--digits", "6",
    )
    assert code == 0
    assert "119.670" in out
    assert "boson value: 120" in out
    assert "fitted decay rate" in out


def test_verify_rounds_each_exact_gap_once(capsys):
    # binary64 spin values 120 - 6.6e-15 and 120 differ by 0 or by one ulp
    code, out, _ = run(capsys, "verify", "--expr", "(S+*S- + S-*S+)^5",
                       "--n-list", "1000000000000,100000000000000000")
    assert code == 0
    assert out.splitlines()[:2] == [
        "N=1000000000000: spin 119.999999999  |error| 6.6e-10",
        "N=100000000000000000: spin 120.000000000  |error| 6.6e-15"]
    assert "fitted decay rate: " in out
    code, out, _ = run(capsys, "verify", "--expr", "(S+*S- + S-*S+)^5",
                       "--n-list", "500,1000,2000", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["abs_errors"] == [
        1.313873189504, 0.658466649344, 0.329616456209]


def test_xy_report(capsys):
    code, out, _ = run(
        capsys, "xy", "--gamma", "1", "--kt", "4",
        "--expr", "S+*S- + S-*S+", "--n", "64",
    )
    assert code == 0
    assert "bound 2*gamma/kT < 1: pass" in out
    assert "T_eff" in out and "<f>_boson = 0.8" in out


def test_xy_invalid_params_reported_not_fatal(capsys):
    code, out, _ = run(capsys, "xy", "--gamma", "1", "--kt", "1")
    assert code == 0
    assert "bound 2*gamma/kT < 1: FAIL" in out


def test_normal_order(capsys):
    code, out, _ = run(capsys, "normal-order", "--expr", "S+*S- + S-*S+")
    assert code == 0
    assert "->" in out and "ad a" in out


def test_normal_order_sz_words(capsys):
    # <eta^2> = 1/4 for the even Sz word; the odd word Sz has image 0
    code, out, _ = run(capsys, "normal-order", "--expr", "Sz*Sz*S+*S- + Sz")
    assert code == 0
    assert out.strip().endswith("->  (1/4) ad a")


def test_oracle_match(capsys):
    code, out, _ = run(
        capsys, "oracle", "--expr", "Sz^2 + (1/2)*S+*S-", "--n-list", "3,6"
    )
    assert code == 0
    assert out.count("MATCH") == 2


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "trace", "--expr", "Sz^^", "--n", "4")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "trace", "--expr", "Sz")
    assert code == 1  # missing --n


def test_exit_code_resource_error(capsys):
    code, _, err = run(capsys, "oracle", "--expr", "Sz", "--n", "20")
    assert code == 2 and "resource error" in err


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nexpr = Sz^2\nn = 8\ndigits = 4\n")
    code, out, _ = run(capsys, "--config", str(cfg), "trace")
    assert code == 0 and out.strip() == "N=8: 0.25"
    # explicit flags win over the config value
    code, out, _ = run(
        capsys, "--config", str(cfg), "trace", "--expr", "S+*S-", "--n", "4"
    )
    assert code == 0 and out.strip() == "N=4: 0.5"


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 4\n")
    h2 = ("trace", "--expr", "(S+*S- + S-*S+)^2", "--n", "7")
    code, out, _ = run(capsys, "--config", str(cfg), *h2)
    assert code == 0 and out.strip() == "N=7: 1.857"
    # the next call without --config prints the default 12 digits again
    code, out, _ = run(capsys, *h2)
    assert code == 0 and out.strip() == "N=7: 1.85714285714"


def test_oracle_refuses_words_beyond_the_work_budget(capsys):
    # the oracle's work is bounded by the engine's budget, refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--expr", "(S+ + S- + Sz + 1)^64", "--n", "14")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("resource error: a predicted 17985825 operator entries "
                   "exceed the budget of 2000000\n")
    # 3^12 words of 12 letters: the walk never expands them
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", "--expr", "(S+ + S- + Sz)^12", "--n", "14")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.rstrip().endswith("MATCH")
    # a long word is cheap, and integer walks do not wrap
    code, out, _ = run(capsys, "oracle", "--expr", "(S+*S-)^16", "--n", "8")
    assert code == 0 and out.rstrip().endswith("MATCH")


def test_every_n_is_admitted_before_the_first_is_computed(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("sector or walk work began")

    monkeypatch.setattr(spin_core, "sector_moments", no_work)
    monkeypatch.setattr(spin_core, "_shell_apply", no_work)
    code, out, err = run(capsys, "trace", "--expr", "Sz^2", "--n", "4,0")
    assert code == 1 and out == "" and err == "error: N must be >= 1\n"
    code, out, err = run(capsys, "oracle", "--expr", "Sz^2", "--n", "4,15")
    assert code == 2 and out == ""
    assert err == "resource error: dense oracle supports N <= 14; got N=15\n"


def test_oracle_cap_is_fixed(tmp_path, capsys):
    code, out, err = run(capsys, "oracle", "--expr", "Sz", "--n", "4",
                         "--oracle-cap", "14")
    assert code == 1 and out == "" and err.startswith("error: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle_cap=14\n")
    code, out, err = run(capsys, "--config", str(cfg), "oracle", "--expr",
                         "Sz", "--n", "4")
    assert code == 1 and out == ""
    assert err == "error: unknown config key 'oracle_cap'\n"


def test_digits_above_the_budget_exit_2_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("sector or matrix work began")

    monkeypatch.setattr(spin_core, "sector_moments", no_work)
    monkeypatch.setattr(spin_core, "_letter", no_work)
    for command in ("trace", "verify", "oracle"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--expr", "Sz^2", "--n", "4",
                             "--digits", str(spin_core.MAX_DIGITS + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "", command
        assert err.startswith("resource error: ") and err.count("\n") == 1
    monkeypatch.undo()
    code, out, _ = run(capsys, "trace", "--expr", "Sz^2", "--n", "4",
                       "--digits", str(spin_core.MAX_DIGITS))
    assert code == 0 and out == "N=4: 0.25\n"


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    code, _, err = run(capsys, "--config", str(cfg), "trace", "--expr", "Sz")
    assert code == 1 and "malformed" in err


def test_config_values_are_typed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits=20\n")
    code, out, _ = run(
        capsys, "--config", str(cfg), "trace", "--expr", "Sz^4", "--n", "7"
    )
    assert code == 0 and out.strip() == "N=7: 0.16964285714285714286"
    # the flag still wins over the file
    code, out, _ = run(
        capsys, "--config", str(cfg), "trace", "--expr", "Sz^4", "--n", "7",
        "--digits", "4",
    )
    assert code == 0 and out.strip() == "N=7: 0.1696"
    cfg.write_text("max_l=2\n")
    code, out, _ = run(capsys, "--config", str(cfg), "moments")
    assert code == 0 and out.splitlines()[-1] == "2  3/16 = 0.1875"


def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text in ("bogus_key=hello\n", "digits=many\n", "format=xml\n",
                 "float=maybe\n", "max-l=2\n", "help=true\n", "n_list=3,,4\n"):
        cfg.write_text(text)
        code, _, err = run(
            capsys, "--config", str(cfg), "trace", "--expr", "Sz", "--n", "4"
        )
        assert code == 1 and "config key" in err


def test_power_budget_exits_before_expanding(capsys):
    # normal-order lists the 2^40 words, so the word expansion refuses them
    code, _, err = run(capsys, "normal-order", "--expr", "(S+ + S-)^40")
    assert code == 2 and "resource error" in err
    # so are three terms of at most 3^10 words each, 177147 in all
    three = "(S+ + S- + Sz)"
    code, out, err = run(capsys, "normal-order", "--expr",
                         f"{three}^10 + {three}^10*S+ + {three}^10*S-")
    assert code == 2 and out == "" and "more than 100000 terms" in err
    # trace evaluates the tree: (2 Sx)^40 at N = 4 is a binomial moment
    code, out, _ = run(capsys, "trace", "--expr", "(S+ + S-)^40", "--n", "4",
                       "--digits", "20")
    moment = Fraction(sum(math.comb(4, k) * (4 - 2 * k) ** 40 for k in range(5)),
                      2**4 * 4**20)
    assert code == 0 and Fraction(out.strip().split(": ")[1]) == moment
    code, out, _ = run(capsys, "trace", "--expr", "(1 + Sz)^30", "--n", "4")
    assert code == 0


def test_word_length_budget_exits_before_expanding(capsys):
    # refused while parsing, before a coefficient such as 3^(10^9) is built;
    # each factor of a power counts as at least one letter, constants too
    for expr in ("Sz^400", "Sz^20000", "(1/3*Sz)^1000000000",
                 "(1/2*S+ + 1/2*S-)^1000000000", "(1/3)^1000000000", "2^65*Sz"):
        for argv in (("trace", "--n", "10"), ("normal-order",)):
            start = time.perf_counter()
            code, _, err = run(capsys, *argv, "--expr", expr)
            assert code == 2 and "exceed the limit of 64" in err, (argv, expr)
            assert time.perf_counter() - start < 1.0
    # 64 letters is the limit itself: parsed and within the trace budget
    poly = parse_polynomial("(S+*S-)^32")
    assert poly.degree == 64
    check_trace_budget(10, poly)
    code, out, _ = run(capsys, "trace", "--expr", "2^64*Sz^2", "--n", "4", "--digits", "30")
    assert code == 0 and Fraction(out.strip().split(": ")[1]) == Fraction(2**64, 4)


def test_algebra_budget_refuses_or_finishes(capsys):
    # every letter count 0 ... 64 at every shift: refused from the tree's bounds,
    # before the algebra runs
    start = time.perf_counter()
    code, _, err = run(capsys, "trace", "--expr", "(S+ + S- + Sz + 1)^64",
                       "--n", "1000000")
    assert code == 2 and "exceed the budget" in err
    assert time.perf_counter() - start < 1.0
    # within the budget: computed within 5 s, or refused
    for expr in ("(S+ + S- + Sz)^21", "(S+ + S- + Sz)^22", "(S+ + S-)^64",
                 "(S+ + S- + Sz + 1)^36"):
        start = time.perf_counter()
        code, out, err = run(capsys, "trace", "--expr", expr, "--n", "1000000")
        assert (code == 0 and time.perf_counter() - start < 5.0) or code == 2, expr


def test_float_overflow_exits_1(capsys):
    # the coefficient 10^360 / N has no binary64 value
    code, out, err = run(capsys, "trace", "--float", "--expr",
                         "1000000^60*Sz^2", "--n", "1000")
    assert code == 1 and out == "" and err.startswith("error:")


def test_xy_sz_observable_reports_spin_side(capsys):
    # the odd Sz word tends to 0; S+*S- gives 1/(2(1 + g)) = 2/5 at g = 1/4
    argv = ("xy", "--gamma", "1", "--kt", "4",
            "--expr", "Sz*S+*S- + S+*S-", "--n", "200")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "<f>_spin(N=200) = " in out and "<f>_boson = 0.4\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    (row,) = json.loads(out)["results"]
    assert code == 0 and row["valid"] is True
    assert math.isfinite(row["expectation_spin"])
    assert row["expectation_boson"] == pytest.approx(0.4)


@pytest.mark.parametrize("command", [
    ("xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-", "--n", "10"),
    ("moments", "--max-l", "3"),
    ("normal-order", "--expr", "S+*S-"),
], ids=["xy", "moments", "normal-order"])
def test_digits_refused_where_output_ignores_it(tmp_path, capsys, command):
    # these commands print fixed formats, so --digits is not one of their flags
    code, out, err = run(capsys, *command, "--digits", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--digits" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 3\n")
    code, out, err = run(capsys, "--config", str(cfg), *command)
    assert code == 1 and out == ""
    assert err == "error: unknown config key 'digits'\n"
    code, out, _ = run(capsys, *command)
    assert code == 0 and out


def test_usage_errors_exit_1_with_one_error_line(capsys):
    for argv in (("trace", "--expr", "Sz", "--n", "4", "--bogus"),
                 ("trace", "-x", "--expr", "Sz", "--n", "4"),
                 ("trace", "--expr", "Sz", "--n", "4", "--digits", "x"),
                 ("oracle", "--expr", "Sz", "--n", "4", "--oracle-cap", "x"),
                 ("trace", "--expr", "Sz", "--n", "4", "--format", "xml"),
                 ("no-such-command",),
                 ()):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--help"])
    assert exc.value.code == 0
    assert "--digits" in capsys.readouterr().out


def _s8_per_cell_sum(gamma, kT, N, dps):
    """<S-^8 S+^8> at N sites, summed cell by cell at ``dps`` digits.

    S-^8 S+^8 in cell (j, m) is prod_i (j(j+1) - m_i(m_i+1)), m_i = m + i;
    with 2j = tj and 2m_i = t this is prod (tj(tj+2) - t(t+2)) / 4^8.  The
    cell weight exp(-g (tj(tj+2) - tm^2) / 2N) is the product of one
    mpmath.exp per sector and one per |tm|.
    """
    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma) / kT
        by_m = {tm: mpmath.exp(g * tm * tm / (2 * N))
                for tm in range(N % 2, N + 1, 2)}
        num = den = mpmath.mpf(0)
        for tj in range(N % 2, N + 1, 2):
            k = (N - tj) // 2
            d = math.comb(N, k) - (math.comb(N, k - 1) if k else 0)
            by_j = d * mpmath.exp(-g * tj * (tj + 2) / (2 * N))
            for tm in range(-tj, tj + 1, 2):
                w = by_j * by_m[abs(tm)]
                diag = math.prod(tj * (tj + 2) - t * (t + 2)
                                 for t in range(tm, tm + 16, 2))
                den += w
                num += w * diag
        return float(num / den / (4**8 * mpmath.mpf(N) ** 8))


def _xy_s8_row(capsys, gamma, kT, N):
    code, out, _ = run(capsys, "xy", "--gamma", str(gamma), "--kt", str(kT),
                       "--expr", "S-^8*S+^8", "--n", str(N), "--format", "json")
    (row,) = json.loads(out)["results"]
    assert code == 0 and row["valid"] is False
    return row


def test_xy_far_outside_bounds_against_per_cell_sum(capsys):
    want = _s8_per_cell_sum(300, 1, 64, dps=60)
    row = _xy_s8_row(capsys, 300, 1, 64)
    assert row["expectation_spin"] == pytest.approx(want, rel=1e-13, abs=0)


def test_xy_precision_lost_farther_outside_bounds(capsys):
    # the signed sector terms cancel by about 220 digits at g = 1000, N = 16,
    # where the result is 2.376e-218; the sum is rerun with more digits
    for gamma, kT, N in ((1000, 1, 16), (5000, 1, 300)):
        want = _s8_per_cell_sum(gamma, kT, N, dps=200)
        row = _xy_s8_row(capsys, gamma, kT, N)
        assert row["expectation_spin"] == pytest.approx(want, rel=1e-12, abs=0)


def test_moments_max_l_bounded_by_binary64(capsys):
    assert float(limit_moment(197)) < math.inf
    with pytest.raises(OverflowError):
        float(limit_moment(198))
    code, out, _ = run(capsys, "moments", "--max-l", "197")
    assert code == 0 and out.splitlines()[-1].startswith("197  ")
    for max_l in ("198", str(10**9)):
        start = time.perf_counter()
        code, out, err = run(capsys, "moments", "--max-l", max_l)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "197" in err


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this spinboson."""
    src = str(Path(spinboson.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _modules_after(argvs, package):
    """Top-level ``package`` modules loaded by ``cli.main`` on each argv, in
    a fresh interpreter: other tests have already imported them here."""
    proc = _fresh_python(
        "import sys\n"
        "from spinboson import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_commands_do_not_import_scipy():
    argvs = [["trace", "--expr", "(S+*S- + S-*S+)^2", "--n", "50"],
             ["verify", "--expr", "S+*S-", "--n-list", "50,100"],
             ["xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-", "--n", "20"],
             ["oracle", "--expr", "Sz^2", "--n", "4"]]
    assert _modules_after(argvs, "scipy") == "[]"


def test_exact_commands_do_not_import_numpy():
    argvs = [["trace", "--expr", "(S+*S- + S-*S+)^2", "--n", "50"],
             ["verify", "--expr", "S+*S-", "--n-list", "50,100"],
             ["xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-", "--n", "20"],
             ["normal-order", "--expr", "Sz*Sz*S+*S-"],
             ["moments", "--max-l", "5"],
             ["oracle", "--expr", "Sz^2", "--n", "4"]]
    assert _modules_after(argvs, "numpy") == "[]"


def test_oracle_runs_without_numpy():
    # an install without the oracle extra
    proc = _fresh_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from spinboson import cli\n"
        "sys.exit(cli.main(['oracle', '--expr', '(S+*S- + S-*S+)^3', '--n', '12']))\n"
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "N=12: engine 5.27777777778  dense 5.27777777778  MATCH\n"


def test_xy_does_not_import_mpmath():
    # inside the bounds and far outside them, where the sum is rerun
    argvs = [["xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-", "--n", "20"],
             ["xy", "--gamma", "1000", "--kt", "1", "--expr", "S-^8*S+^8",
              "--n", "16"]]
    assert _modules_after(argvs, "mpmath") == "[]"


def test_xy_gamma_and_kt_from_config(tmp_path, capsys):
    cfg = tmp_path / "xy.cfg"
    cfg.write_text("gamma = 1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "xy", "--kt", "4")
    assert code == 0 and out.startswith("gamma=1 kT=4 g=1/4\n")
    code, _, err = run(capsys, "xy", "--kt", "4")
    assert code == 1 and "--gamma is required" in err


def test_missing_config_and_unwritable_out_exit_1(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    code, _, err = run(capsys, "--config", str(missing), "trace", "--expr",
                       "Sz", "--n", "4")
    assert code == 1 and err.startswith("error:") and "absent.cfg" in err
    out = tmp_path / "no_such_dir" / "out.txt"
    code, _, err = run(capsys, "trace", "--expr", "Sz", "--n", "4",
                       "--out", str(out))
    assert code == 1 and err.startswith("error:") and "out.txt" in err


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--expr", "S+*S-", "--n-list", "8,16",
        "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert list(results) == ["N_values", "spin_values", "spin_decimals",
                             "boson_value", "abs_errors", "fitted_rate"]
    assert results["N_values"] == [8, 16]
    assert results["boson_value"] == pytest.approx(0.5)


def test_xy_json_row(capsys):
    code, out, _ = run(
        capsys, "xy", "--gamma", "1", "--kt", "4",
        "--expr", "S+*S- + S-*S+", "--n", "64", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"] == {"gamma": "1", "kt": "4",
                                 "expr": "S+*S- + S-*S+", "n": 64}
    (row,) = payload["results"]
    assert row["valid"] is True
    assert row["Z"] == pytest.approx(6 ** -0.5 / (1 - 1 / 6))  # r = 6
    assert row["T_eff"] == pytest.approx(2 / math.log(6))
    assert row["expectation_boson"] == pytest.approx(0.8)
    assert row["expectation_spin"] == pytest.approx(0.8, abs=0.02)
    code, out, _ = run(
        capsys, "xy", "--gamma", "1", "--kt", "1",
        "--expr", "S+*S- + S-*S+", "--n", "16", "--format", "json",
    )
    (row,) = json.loads(out)["results"]
    assert code == 0 and row["valid"] is False and row["Z"] is None


def test_digits_below_1_rejected(tmp_path, capsys):
    for argv in (("verify", "--expr", "S+*S-", "--n", "10", "--digits", "-20"),
                 ("trace", "--expr", "Sz^2", "--n", "4", "--digits", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: digits must be >= 1; got {argv[-1]}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 0\n")
    code, out, err = run(capsys, "--config", str(cfg), "trace", "--expr",
                         "Sz^2", "--n", "4")
    assert code == 1 and out == "" and err == "error: digits must be >= 1; got 0\n"


@pytest.mark.parametrize("command", [
    ("trace", "--expr", "S+*S-"),
    ("xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-"),
])
def test_n_zero_is_out_of_range_not_absent(capsys, command):
    code, out, err = run(capsys, *command, "--n", "0")
    assert code == 1 and out == "" and err == "error: N must be >= 1\n"


def test_xy_takes_one_n(capsys):
    xy_argv = ("xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S- + S-*S+")
    code, out, err = run(capsys, *xy_argv, "--n-list", "16,64")
    assert code == 1 and out == ""
    assert err == "error: xy takes one N; give --n or a one-value --n-list\n"
    code, out, _ = run(capsys, *xy_argv, "--n-list", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["n"] == 16
    assert payload["results"][0]["expectation_spin"] is not None


def test_negative_values_follow_their_flag(capsys):
    xy_argv = ("xy", "--kt", "3", "--expr", "S+*S- + S-*S+", "--n", "64")
    code, joined, _ = run(capsys, *xy_argv, "--gamma=-1/2")
    assert code == 0 and "ferromagnetic bound" in joined
    assert run(capsys, *xy_argv, "--gamma", "-1/2") == (0, joined, "")
    assert run(capsys, "trace", "--expr", "-Sz^2", "--n", "4") == (0, "N=4: -0.25\n", "")
    assert run(capsys, "xy", "--gamma", "1", "--kt", "-3") == (1, "", "error: kT must be positive\n")


def test_xy_expectation_needs_both_expr_and_n(capsys):
    xy_argv = ("xy", "--gamma", "1", "--kt", "4")
    assert run(capsys, *xy_argv, "--expr", "S+*S-") == (1, "", "error: --n is required\n")
    assert run(capsys, *xy_argv, "--n", "64") == (1, "", "error: --expr is required\n")
    code, out, _ = run(capsys, *xy_argv)
    assert code == 0 and "Z = " in out and "<f>" not in out


def test_verify_at_one_n_fits_no_rate(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--expr", "S+*S+*S-*S-", "--n-list", "100,100")
    assert code == 0 and err == ""
    assert out.count("N=100: spin 0.495") == 2 and "fitted decay rate" not in out


def test_command_line_n_wins_over_the_config_n_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("n_list", "n-list", "n"):
        cfg.write_text(f"{key} = 4,6\n")
        code, out, _ = run(capsys, "--config", str(cfg), "trace", "--expr", "Sz^2")
        assert code == 0 and out == "N=4: 0.25\nN=6: 0.25\n"
        code, out, _ = run(capsys, "--config", str(cfg), "trace", "--expr", "Sz^2",
                           "--n", "5")
        assert code == 0 and out == "N=5: 0.25\n"


def test_later_of_n_and_n_list_wins(capsys):
    code, out, _ = run(capsys, "trace", "--expr", "Sz^2", "--n", "5", "--n-list", "7,9")
    assert code == 0 and out == "N=7: 0.25\nN=9: 0.25\n"
    code, out, _ = run(capsys, "trace", "--expr", "Sz^2", "--n-list", "7,9", "--n", "5")
    assert code == 0 and out == "N=5: 0.25\n"


def test_bad_n_list_entry_names_the_flag(capsys):
    code, out, err = run(capsys, "trace", "--expr", "Sz^2", "--n-list", "3,,4")
    assert code == 1 and out == ""
    assert err == "error: argument --n/--n-list: invalid site counts '3,,4'\n"


def test_digits_above_28_render_in_full(capsys):
    sz4 = "0.1696428571428571428571428571428571428571"  # 19/112
    code, out, _ = run(capsys, "trace", "--expr", "Sz^4", "--n", "7", "--digits", "40")
    assert code == 0 and out == f"N=7: {sz4}\n"
    code, out, _ = run(capsys, "oracle", "--expr", "Sz^4", "--n", "7", "--digits", "40")
    assert code == 0 and out == f"N=7: engine {sz4}  dense {sz4}  MATCH\n"
    # -sqrt(2)/8, the radical part
    code, out, _ = run(capsys, "trace", "--expr", "S+*Sz*S-", "--n", "2", "--digits", "40")
    assert code == 0 and out == "N=2: -0.1767766952966368811002110905262122598212\n"


@pytest.mark.parametrize("argv", [("normal-order",), ("oracle", "--n", "2")])
def test_product_budget_exits_before_expanding(capsys, argv):
    # 3^14 = 4.8e6 words: each factor is within the budget, their product not;
    # the oracle never expands words, and matches the engine
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--expr", "(S+ + S- + Sz)^7*(S+ + S- + Sz)^7")
    if argv[0] == "oracle":
        assert code == 0 and out == "N=2: engine 305.17578125  dense 305.17578125  MATCH\n"
    else:
        assert code == 2 and out == "" and "more than 100000 terms" in err
    assert time.perf_counter() - start < 1.0


ONE_OF_EACH_COMMAND = [
    ("trace", "--expr", "Sz^2", "--n-list", "4,8"),
    ("moments", "--max-l", "2"),
    ("verify", "--expr", "S+*S-", "--n-list", "8,16"),
    ("xy", "--gamma", "1", "--kt", "4", "--expr", "S+*S-", "--n", "16"),
    ("normal-order", "--expr", "Sz*Sz*S+*S-"),
    ("oracle", "--expr", "Sz^2", "--n-list", "2,4"),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", ONE_OF_EACH_COMMAND, ids=lambda argv: argv[0])
def test_every_command_writes_one_output(tmp_path, capsys, argv, fmt):
    assert {a[0] for a in ONE_OF_EACH_COMMAND} == set(_COMMANDS)
    code, printed, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and printed.endswith("\n")
    path = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(path))
    assert code == 0 and out == ""
    with open(path, newline="") as fh:
        assert fh.read() == printed
    if fmt == "json":
        payload = json.loads(printed)
        assert list(payload) == ["command", "inputs", "results"]
        assert payload["command"] == argv[0]

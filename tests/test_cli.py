"""CLI verbs, exit codes, and JSON report shapes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vira
from vira import cli
from vira.cli import main
from vira.exprparse import MAX_GROUP_DEPTH

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import sl2_problems  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, stdout=subprocess.PIPE, timeout=None, **env):
    """``python -m vira *argv`` in a child that imports the same package
    as this test run, installed or not; ``env`` adds to its environment.
    A child still running after ``timeout`` seconds is killed and the
    test fails with ``subprocess.TimeoutExpired``, so a hang costs
    seconds, not the whole job."""
    src = os.path.dirname(os.path.dirname(vira.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)
    return subprocess.run(
        [sys.executable, "-m", "vira", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=env, timeout=timeout,
    )


class TestStraighten:
    def test_normal_form_output(self, capsys):
        code, out, _ = run(capsys, "straighten", "d2*d-2")
        assert code == 0
        assert out.strip() == "d-2*d2 - 4*d0 + (1/2)*z"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "straighten", "--json", "d2*d-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["text"] == "d-2*d2 - 4*d0 + (1/2)*z"
        assert {"z": 1, "word": [], "coeff": "1/2"} in payload["terms"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "straighten", "d")
        assert code == 2
        assert "offset 1" in err

    def test_w_rejected(self, capsys):
        code, _, _ = run(capsys, "straighten", "d1*w")
        assert code == 2

    @pytest.mark.parametrize("expr, offset", [("d\u00b2", 1), ("\u00b2", 0)])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, expr, offset):
        code, out, err = run(capsys, "straighten", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")
        assert f" at offset {offset}" in err
        assert len(err.splitlines()) == 1


class TestAct:
    def test_module_action(self, capsys):
        code, out, _ = run(
            capsys, "act", "--module", "L:xi=0", "--psi1", "1", "--psi2", "1",
            "d2", "d-2*w",
        )
        assert code == 0
        assert out.strip() == "d-2*w - 4*d0*w"

    def test_domain_error_on_zero_psi(self, capsys):
        code, _, err = run(capsys, "act", "--psi1", "0", "d1", "w")
        assert code == 3
        assert "psi" in err

    def test_negative_rational_flag_values(self, capsys):
        code, out, _ = run(
            capsys, "act", "--module", "L:xi=5/7", "--psi1", "2",
            "--psi2", "-3/2", "d2", "d-2*w",
        )
        assert code == 0
        assert out.strip() == "-(3/2)*d-2*w - 4*d0*w + (5/14)*w"
        code, _, _ = run(capsys, "series", "--xi", "-1/2", "--a", "2")
        assert code == 0

    def test_long_coefficient_within_the_print_bound(self, capsys):
        # psi1^2 of a 2000-digit psi1 has 4000 digits
        psi1 = "7" * 2000
        code, out, _ = run(capsys, "act", "--psi1", psi1, "d1^2", "w")
        assert code == 0
        assert out == f"{int(psi1) ** 2}*w\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_coefficient_past_the_print_bound_is_domain_error(self, capsys, json_flag):
        # psi1^2 has 6000 digits; this printed Python's own limit message,
        # which names sys.set_int_max_str_digits
        code, out, err = run(capsys, "act", "--psi1", "7" * 3000, *json_flag, "d1^2", "w")
        assert code == 3
        assert out == ""
        assert err == "domain error: a coefficient has more than 4300 digits to print\n"

    @pytest.mark.parametrize("argv", [
        ["series", "--xi", "1/0", "--a", "2"],
        ["act", "--psi1", "1/0", "d1", "w"],
        ["act", "--module", "L:xi=1/0", "d1", "w"],
    ])
    def test_zero_denominator_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "domain error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("argv, text", [
        (["act", "--psi1", "1e1000000000", "d1", "w"], "1e1000000000"),
        (["act", "--psi1", "1e-1000000000", "d1", "w"], "1e-1000000000"),
        (["act", "--psi2", "1e10000000", "d1", "w"], "1e10000000"),
        (["act", "--module", "L:xi=1e1000000000", "d1", "w"], "1e1000000000"),
        (["series", "--xi", "1e1000000000", "--a", "1"], "1e1000000000"),
    ], ids=["psi1", "psi1-negative-exponent", "psi2", "L-xi", "series-xi"])
    def test_exponent_notation_is_domain_error(self, argv, text):
        # these ran past 30 s (1e10000000 took 9 s to fail): Fraction
        # expands the exponent into digits
        proc = run_process(*argv, timeout=20)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"domain error: not an exact rational: {text!r}\n"

    @pytest.mark.parametrize("argv", [
        ["act", "--psi1", "7" * 5000, "d1", "w"],
        ["act", "--module", "L:xi=" + "7" * 5000, "d1", "w"],
        ["decompose", "--p", "z-" + "7" * 5000],
        ["straighten", "7" * 5000 + "*d1"],
        ["straighten", "d-" + "7" * 5000],
    ], ids=["psi1", "L-xi", "decompose-p", "straighten-number", "straighten-index"])
    def test_number_past_the_digit_bound_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "domain error: a number in the input has more than 4300 digits\n"

    def test_number_at_the_digit_bound(self, capsys):
        sevens = "7" * 4300
        assert run(capsys, "act", "--psi1", sevens, "d1", "w") == (0, f"{sevens}*w\n", "")
        assert run(capsys, "straighten", f"{sevens}*d1") == (0, f"{sevens}*d1\n", "")


class TestSolve:
    def test_central_quotient_line(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--module", "L:xi=0", "--psi1", "1", "--psi2", "1",
            "--maxdeg", "5", "--zerocap", "3",
        )
        assert code == 0
        assert "dimension: 1" in out
        assert "w" in out

    def test_expect_dim_failure(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--module", "L:xi=0", "--expect-dim", "2",
        )
        assert code == 1

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--module", "M", "--zcap", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "solve"
        assert payload["pass"] is True
        assert payload["witness"]["dimension"] == 3
        assert payload["witness"]["basis"] == ["w", "z*w", "z^2*w"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--module", "M", "--psi1", "1", "--psi2", "1",
         "--maxdeg", "1", "--zerocap", "1", "--zcap", "100000000"],
        ["solve", "--module", "M", "--psi1", "1", "--psi2", "1",
         "--maxdeg", "80", "--zerocap", "0", "--zcap", "0"],
        ["series", "--xi", "1", "--a", "2", "--maxdeg", "80"],
        ["solve", "--maxdeg", "1000000000", "--zerocap", "1000000000"],
    ])
    def test_oversized_window_is_domain_error(self, capsys, argv):
        # these once ran out of memory or past a 30 s timeout
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err == "domain error: truncation window has more than 5000 unknowns\n"


class TestVerify:
    def test_leading_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "leading", "--k", "1", "--a", "2")
        assert code == 0
        assert out.startswith("PASS")

    def test_degree_with_lam_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "degree", "--m", "3", "--lam", "(1,2)",
        )
        assert code == 0

    def test_dotspan(self, capsys):
        code, _, _ = run(
            capsys, "verify", "dotspan", "--n", "2", "--i", "0", "--lam", "(2)",
        )
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("degree", "--m", "2", "--lam", "(1^-1,2)"),
        ("dotspan", "--n", "1", "--i", "0", "--lam", "(2^-3)"),
    ])
    def test_negative_multiplicity_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("domain error: negative multiplicity")

    def test_overlong_lam_is_domain_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "dotspan", "--n", "1", "--i", "0", "--lam", "(1^100000000)",
        )
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert err == "domain error: pseudopartition has more than 1000 parts\n"

    @pytest.mark.parametrize("argv", [
        ("dotspan", "--n", "1", "--i", "0", "--lam", "(1^1000)"),
        ("degree", "--m", "3", "--lam", "(1^1000)"),
        ("degree", "--m", "2", "--lam", "(0^300)"),
        # the integer flags at their caps
        ("leading", "--k", "1", "--a", "1000"),
        ("dotspan", "--n", "1", "--i", "10000", "--lam", "(1)"),
    ])
    def test_long_lam_within_the_cap_runs(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 0
        assert out.startswith("PASS")
        assert err == ""

    def test_lam_one_over_the_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, "verify", "degree", "--m", "3", "--lam", "(1^1001)")
        assert code == 3
        assert out == ""
        assert err == "domain error: pseudopartition has more than 1000 parts\n"

    @pytest.mark.parametrize("argv, message", [
        (("leading", "--k", "1", "--a", "100000"), "verify_leading_term takes a <= 1000, not 100000"),
        (("leading", "--k", "1", "--a", "1001"), "verify_leading_term takes a <= 1000, not 1001"),
        (("dotspan", "--n", "1", "--i", "10000000000", "--lam", "(1)"),
         "verify_dot_span takes i <= 10000, not 10000000000"),
        (("dotspan", "--n", "1", "--i", "10001", "--lam", "(1)"),
         "verify_dot_span takes i <= 10000, not 10001"),
    ])
    def test_hostile_integer_flag_is_domain_error(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert err == f"domain error: {message}\n"

    def test_vector_failure_is_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "vector", "d-1*w", "--module", "M")
        assert code == 1
        assert out.startswith("FAIL")

    def test_vector_success(self, capsys):
        code, _, _ = run(capsys, "verify", "vector", "z^2*w", "--module", "M")
        assert code == 0

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "leading", "--k", "0", "--a", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"check", "params", "pass", "witness"}
        assert payload["pass"] is True


class TestDecompose:
    def test_bezout_certificate(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--psi1", "1", "--psi2", "1",
            "--p", "(z-1)^2*(z+3)", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        components = payload["witness"]["components"]
        assert len(components) == 2
        assert payload["witness"]["bezout_identity"] is True

    def test_not_split_is_domain_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "z^2+1")
        assert code == 3
        assert "split" in err

    def test_large_constant_term(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "decompose", "--p", "z - 10^24", "--json")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert len(json.loads(out)["witness"]["components"]) == 1
        code, out, _ = run(capsys, "decompose", "--p", "z - 10000000000037", "--json")
        assert code == 0
        components = json.loads(out)["witness"]["components"]
        assert [c["xi"] for c in components] == ["10000000000037"]
        code, out, _ = run(capsys, "decompose", "--p", f"z - {1000003 * 1000033}", "--json")
        assert code == 0
        components = json.loads(out)["witness"]["components"]
        assert [c["xi"] for c in components] == [str(1000003 * 1000033)]


class TestSeries:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "series", "--xi", "0", "--a", "2")
        assert code == 0
        assert out.startswith("PASS")

    @pytest.mark.parametrize("a", ["71", "300", "3000"])
    def test_series_beyond_a_times_window_is_domain_error(self, capsys, a):
        # a x a over 5000 is refused whatever the window, before
        # (z - 1)^a is built: --a 3000 once spent 14 s building it
        start = time.perf_counter()
        code, out, err = run(capsys, "series", "--xi", "1", "--a", a)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: ")
        assert "more than 5000" in err
        assert len(err.splitlines()) == 1

    def test_series_within_a_times_window_passes(self, capsys):
        # --a 30 was refused while the cap bounded a x window (30 x 1080)
        for a in ("11", "30"):
            code, out, _ = run(capsys, "series", "--xi", "1", "--a", a)
            assert code == 0
            assert out.startswith("PASS")

    @pytest.mark.parametrize("argv", [
        ["--a", "70", "--maxdeg", "0", "--zerocap", "0"],
        ["--a", "70"],
    ], ids=["smallest-window", "default-window"])
    def test_series_at_the_cap_runs_in_seconds(self, argv):
        # the smallest window took 25 s while each level eliminated its
        # a x a rows; a gcd and a remainder in Q[z] decide it now
        proc = run_process("series", "--xi", "1", *argv, timeout=20)
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS")

    def test_long_xi_within_the_digit_bound_passes(self):
        # a x (digits of xi) = 2 x 2001 is under Python's int-to-text limit
        proc = run_process("series", "--xi", "7" * 2000, "--a", "2", timeout=20)
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS")

    @pytest.mark.parametrize("digits, a", [(2000, "3"), (100, "70")])
    def test_long_xi_beyond_the_digit_bound_is_domain_error(self, digits, a):
        # (z - xi)^a has coefficients with about a times xi's digits: a
        # 100-digit xi at a = 70 ran 3.9 s, then failed to print them
        start = time.perf_counter()
        proc = run_process("series", "--xi", "7" * digits, "--a", a,
                           "--maxdeg", "0", "--zerocap", "0", timeout=20)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("domain error: composition series has a x (digits of xi) "
                               "more than 4300\n")


class TestAnnihilate:
    def test_positive_mode(self, capsys):
        code, out, _ = run(
            capsys, "annihilate", "--p", "z-1", "d1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["annihilates_w"] is False
        assert payload["residual"]["text"] == "1"

    def test_shifted_mode_annihilates(self, capsys):
        code, out, _ = run(capsys, "annihilate", "--p", "z-1", "d1 - 1")
        assert code == 0
        assert "annihilates w mod p: yes" in out


class TestReduce:
    def test_extraction(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--module", "L:xi=0", "d-1*w",
        )
        assert code == 0
        assert "trace: [3]" in out
        assert "result: -4*w" in out

    def test_wrong_context_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "reduce", "--module", "M", "d-1*w")
        assert code == 3


class TestOrbit:
    def test_dimension(self, capsys):
        code, out, _ = run(capsys, "orbit", "--module", "M", "d-1*w")
        assert code == 0
        assert "dimension: 3" in out

    def test_orbit_beyond_cap_is_domain_error(self, capsys):
        # d-1^30*w ran past 20 s; the cap stops it at 150 spanning vectors
        start = time.perf_counter()
        code, out, err = run(capsys, "orbit", "--module", "M", "d-1^30*w")
        assert time.perf_counter() - start < 15
        assert code == 3
        assert out == ""
        assert err == "domain error: orbit spans more than 150 vectors\n"
        # d-1000*w took 5 s and d-100000*w ran past 60 s while every image
        # was computed before the cap was checked
        for expr in ("d-1000*w", "d-100000*w"):
            proc = run_process("orbit", "--module", "M", expr, timeout=20)
            assert proc.returncode == 3
            assert proc.stdout == ""
            assert proc.stderr == "domain error: orbit spans more than 150 vectors\n"


class TestWitt:
    def test_projection_only(self, capsys):
        code, out, _ = run(capsys, "witt", "d2*d-2")
        assert code == 0
        assert out.strip() == "projection: d-2*d2 - 4*d0"

    def test_projection_with_action(self, capsys):
        code, out, _ = run(capsys, "witt", "d2", "d-2*w")
        assert code == 0
        assert "action: d-2*w - 4*d0*w" in out


class TestFlags:
    """Each verb accepts only the flags it reads."""

    def test_straighten_rejects_psi(self, capsys):
        code, out, err = run(capsys, "straighten", "--psi1", "2", "d1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --psi1" in err

    def test_witt_rejects_module(self, capsys):
        code, out, err = run(capsys, "witt", "--module", "L:xi=1", "d2", "d-2*w")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --module" in err

    def test_verify_all_rejects_psi(self, capsys):
        code, _, err = run(capsys, "verify", "all", "--psi1", "2")
        assert code == 2
        assert "unrecognized arguments: --psi1" in err

    def test_series_rejects_zcap(self, capsys):
        code, _, err = run(capsys, "series", "--xi", "0", "--a", "2", "--zcap", "1")
        assert code == 2
        assert "unrecognized arguments: --zcap" in err


class TestVersion:
    def test_version_names_package_and_kernel(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"vira {vira.__version__} (kernel: python)"


class TestCrash:
    def test_unexpected_exception_is_one_line_exit_70(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "cmd_straighten", boom)
        code, out, err = run(capsys, "straighten", "d1")
        assert code == 70
        assert out == ""
        assert err == "internal error: RuntimeError: first line second line\n"

    def test_patched_handler_runs_after_an_earlier_call(self, capsys, monkeypatch):
        # The parser is built once; dispatch must still find the handler
        # bound in the module at call time.
        assert run(capsys, "straighten", "d1")[0] == 0

        def boom(args):
            raise RuntimeError("patched")

        monkeypatch.setattr(cli, "cmd_straighten", boom)
        code, out, err = run(capsys, "straighten", "d1")
        assert code == 70
        assert err == "internal error: RuntimeError: patched\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_process("straighten", "d1*d-1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "d-1*d1 - 2*d0"

    def test_usage_error_exit_code(self):
        proc = run_process("no-such-verb")
        assert proc.returncode == 2

    def test_hostile_word_straightens_without_recursion(self):
        # d1^45*d-1^45 once exhausted the recursion limit of the
        # straightening kernel; its normal form is checked in sl2.
        proc = run_process("straighten", "d1^45*d-1^45")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert sl2_problems(45, proc.stdout.strip()) == []

    @pytest.mark.parametrize("argv, unbuffered", [
        (["straighten", "d2*d-2"], ""), (["straighten", "d2*d-2"], "1"),
        (["straighten", "d1^12*d-1^12"], ""), (["straighten", "d1^12*d-1^12"], "1"),
        # argparse drops its own write errors, so only a buffered --version
        # meets the closed pipe, at the flush
        (["--version"], ""),
    ], ids=["short-buffered", "short-unbuffered", "long-buffered", "long-unbuffered", "version"])
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        # the reader is gone before the child writes a byte
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_process(*argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == ""

    @pytest.mark.parametrize("expr", ["((d1^1000)^1000)^1000", "3^100000"])
    def test_huge_exponent_is_a_parse_error(self, expr):
        start = time.perf_counter()
        proc = run_process("straighten", expr)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("parse error: exponent")
        assert len(proc.stderr.splitlines()) == 1

    def test_deep_parentheses_are_a_parse_error(self):
        depth = 10 * MAX_GROUP_DEPTH
        proc = run_process("straighten", "(" * depth + "d1" + ")" * depth)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"parse error: parentheses nested deeper than {MAX_GROUP_DEPTH}"
            f" at offset {MAX_GROUP_DEPTH}\n"
        )

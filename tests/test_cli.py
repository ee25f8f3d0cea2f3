"""CLI verbs, exit codes, and JSON report shapes."""

import json
import os
import subprocess
import sys
import time

import pytest

import vira
from vira import cli
from vira.cli import main
from vira.exprparse import MAX_GROUP_DEPTH

pytestmark = pytest.mark.usefixtures("plain_output")


@pytest.fixture
def plain_output(monkeypatch):
    monkeypatch.setenv("VIRA_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """``python -m vira *argv`` in a child that imports the same package
    as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(vira.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "vira", *argv], capture_output=True, text=True, env=env,
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
        assert err == "domain error: pseudopartition has more than 10000 parts\n"

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
        code, out, err = run(capsys, "decompose", "--p", f"z - {1000003 * 1000033}")
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: rational-root search")
        assert len(err.splitlines()) == 1


class TestSeries:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "series", "--xi", "0", "--a", "2")
        assert code == 0
        assert out.startswith("PASS")


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

    def test_crash_is_exit_70_without_traceback(self):
        # d1^45*d-1^45 exhausts the recursion limit of the straightening
        # kernel; the crash must be one stderr line, not exit 1.
        proc = run_process("straighten", "d1^45*d-1^45")
        assert proc.returncode == 70
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("internal error: RecursionError")
        assert "Traceback" not in proc.stderr

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

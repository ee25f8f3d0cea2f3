"""Every short CLI query of the benchmark's pool gives its reference output.

``perfbench/reference.json`` holds the digest of exit code and stdout for
each query the query-stream workload can draw; the short ones run in
about a second and the deep words ``d1^k*d-1^k`` (k = 8..12) in
milliseconds, so any change to what a verb prints shows up here.  The
three solve-window windows at one psi take about two seconds.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import vira.cli  # noqa: E402,F401  (workloads looks the module up by name)
from workloads import PSI_CHOICES, SOLVE_WINDOWS, SolveWindow, cli_digest, run_cli  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def test_short_queries_match_reference():
    short = [q for q in REFERENCE["query-stream"] if q["kind"] == "short"]
    assert len(short) == 406
    differ = []
    for query in short:
        code, stdout, _stderr = run_cli(query["argv"])
        if cli_digest(code, stdout) != query["digest"]:
            differ.append(query["argv"])
    assert not differ, f"{len(differ)} queries differ, first {differ[0]}"


def test_deep_words_match_reference():
    deep = [q for q in REFERENCE["query-stream"] if q["kind"] == "deep"]
    assert [q["argv"][1] for q in deep] == [f"d1^{k}*d-1^{k}" for k in range(8, 13)]
    for query in deep:
        code, stdout, _stderr = run_cli(query["argv"])
        assert cli_digest(code, stdout) == query["digest"], query["argv"]


def test_solve_windows_match_reference():
    workload = SolveWindow()
    inputs = workload.setup(1, REFERENCE)
    assert [case["psi"] for case in inputs["cases"]] == [tuple(map(Fraction, PSI_CHOICES[1]))] * 3
    ops = workload.ops(inputs)
    assert len(ops) == len(SOLVE_WINDOWS)
    for label, op, case in ops:
        kind, problems = workload.judge(case, op())
        assert kind is None, (label, problems)

"""Acceptance gate: the full exit checklist, one test per criterion.

Every check is exact (tolerance zero): rational equalities, exact
dimensions, exact vanishing.  Criteria 1-12 run the deterministic grids
from ``vira.suite``; criterion 13 drives the CLI and round-trips every
element string the earlier criteria emitted.  Each test prints one
PASS/FAIL line (visible with ``pytest -s`` or in the failure output).
"""

import json
import sys
import time
from pathlib import Path

from vira import suite
from vira.cli import main
from vira.errors import ExpressionError
from vira.exprparse import parse_module, parse_uea
from vira.whittaker import ModuleContext, WhittakerHomomorphism

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import report_digest  # noqa: E402

SEED = 0

#: Digest of each check's JSON report for suite seed SEED, as recorded in
#: the benchmark's reference data: a report may not change silently.
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["verify-grid"][str(SEED)]

_reports = {}


def _run(number, name, fn, *args):
    start = time.time()
    report = fn(*args)
    elapsed = time.time() - start
    _reports[number] = report
    verdict = "PASS" if report.passed else "FAIL"
    print(f"criterion {number:2d} ({name}): {verdict}  [{elapsed:.2f}s]")
    if not report.passed:
        print(json.dumps(report.json_dict(), indent=2))
    assert report_digest(report) == REFERENCE[report.check], f"{report.check} report changed"
    return report


def test_criterion_01_cocycle_soundness():
    # Jacobi on [-6,6]^3 and antisymmetry on [-8,8]^2, exact equality
    report = _run(1, "cocycle soundness", suite.check_cocycle)
    assert report.passed
    assert report.witness["jacobi_triples"] == 13 ** 3
    assert report.witness["antisymmetry_pairs"] == 17 ** 2


def test_criterion_02_action_coherence():
    # 200 seeded triples, both context kinds, psi in {(1,1),(2,-3/2)},
    # xi in {0, 5/7}
    report = _run(2, "PBW/action coherence", suite.check_action_coherence, SEED)
    assert report.passed
    assert report.witness["checked"] == 200 * 6


def test_criterion_03_leading_term_grid():
    # k in 0..4, a in 1..4, both psi samples
    report = _run(3, "leading-term grid", suite.check_leading_term_grid)
    assert report.passed
    assert report.witness["cells"] == 5 * 4 * 2


def test_criterion_04_degree_bound_grid():
    # |lam| <= 6, lam(0) <= 2, m in 1..8; leading form checked at m = k+2
    report = _run(4, "degree-bound grid", suite.check_degree_bound_grid)
    assert report.passed
    expected_lams = sum(
        3 * n_count
        for n_count in (1, 1, 2, 3, 5, 7, 11)
    ) - 1  # pseudopartitions with |lam| <= 6, lam(0) <= 2, minus the empty one
    assert report.witness["cells"] == expected_lams * 8 * 2


def test_criterion_05_whittaker_dimensions():
    # T+1 in the universal module, 1 in central quotients, deg p in
    # polynomial quotients; truncations N in {3,4,5}, Z in {1,2}
    report = _run(5, "Whittaker dimensions", suite.check_whittaker_dimensions)
    assert report.passed


def test_criterion_06_local_nilpotency():
    # |lam| <= 4, lam(0) <= 2, n in 1..4: index <= ceil((|lam|+2#lam)/n)+1
    # and the power image is exactly zero
    report = _run(6, "local nilpotency", suite.check_local_nilpotency)
    assert report.passed


def test_criterion_07_vanishing_bound():
    # dot action vanishes for n > |lam| + 2, |lam| <= 4, i <= 2
    report = _run(7, "vanishing bound", suite.check_vanishing_bound)
    assert report.passed


def test_criterion_08_constructive_simplicity():
    # 100 seeded nonzero elements of central quotients reduce to a nonzero
    # multiple of the cyclic vector with a strictly decreasing measure
    report = _run(
        8, "constructive simplicity", suite.check_constructive_simplicity, SEED
    )
    assert report.passed


def test_criterion_09_decomposition():
    # (z-1)^2 (z+3): Bezout identity, cross-annihilation, idempotence,
    # truncated dimension additivity
    report = _run(9, "decomposition", suite.check_decomposition)
    assert report.passed
    assert report.witness["bezout_identity"] is True
    assert report.witness["cross_annihilation"] is True
    assert report.witness["projection_idempotence"] is True
    assert report.witness["truncated_dimension_sum_ok"] is True


def test_criterion_10_composition_series():
    # (xi, a) in {(0,2), (1,3)}: strict chains with simple layers
    report = _run(10, "composition series", suite.check_composition_series)
    assert report.passed


def test_criterion_11_annihilator():
    # 50 seeded elements, p in {z - xi, (z-1)(z-2)}: exact re-expansion and
    # residual = 0 iff the element annihilates w
    report = _run(11, "annihilator", suite.check_annihilator, SEED)
    assert report.passed


def test_criterion_12_witt():
    # projection kills the center on [-6,6]^2 and the two action paths agree
    report = _run(12, "Witt quotient", suite.check_witt, SEED)
    assert report.passed


def _round_trips(text: str) -> bool:
    ctx = ModuleContext.universal(WhittakerHomomorphism(1, 1))
    try:
        elem = parse_uea(text)
    except ExpressionError:
        elem = parse_module(text, ctx)
    return str(elem) == text


def test_criterion_13_cli_round_trip_and_exit_codes(capsys):
    ok = True
    # round-trip every element string emitted by criteria 1-12
    emitted = set()
    for number in sorted(_reports):
        emitted.update(_reports[number].witness.get("elements", []))
    assert emitted, "criteria 1-12 must run before criterion 13"
    for text in sorted(emitted):
        if not _round_trips(text):
            ok = False
            print(f"round-trip failed: {text!r}")
    # exit-code conformance
    cases = [
        (["straighten", "d2*d-2"], 0),
        (["verify", "leading", "--k", "1", "--a", "2"], 0),
        (["verify", "vector", "d-1*w", "--module", "M"], 1),  # failing verify
        (["solve", "--module", "L:xi=0", "--expect-dim", "1"], 0),
        (["solve", "--module", "L:xi=0", "--expect-dim", "2"], 1),
        (["decompose", "--p", "z^2+1"], 3),  # does not split over Q
        (["straighten", "d"], 2),  # syntax error
        (["act", "--psi1", "0", "d1", "w"], 3),  # singular psi
        (["reduce", "--module", "M", "d-1*w"], 3),  # wrong context
    ]
    for argv, expected in cases:
        code = main(argv)
        capsys.readouterr()
        if code != expected:
            ok = False
            print(f"exit code mismatch for {argv}: {code} != {expected}")
    # JSON and text agree on the verdict
    code = main(["verify", "leading", "--k", "0", "--a", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and payload["pass"] is True
    ok = ok and set(payload) == {"check", "params", "pass", "witness"}
    print(f"criterion 13 (CLI round-trip and exit codes): {'PASS' if ok else 'FAIL'}"
          f"  [{len(emitted)} strings round-tripped]")
    assert ok

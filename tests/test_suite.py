"""Failing cells of the verification grids: the verdict, the listed
failures and their caps, the counts and the shown elements."""

import re

from vira import suite
from vira.analysis import Report
from vira.cli import main
from vira.errors import ReductionError
from vira.virasoro import UEAElement


def test_grid_lists_ten_failures_and_counts_every_cell(monkeypatch):
    def failing(k, a, psi):
        return Report("leading", {}, False, {"lhs": f"d-{a}", "remainder": "0"})

    monkeypatch.setattr(suite, "verify_leading_term", failing)
    report = suite.check_leading_term_grid()
    assert report.passed is False
    assert list(report.witness) == ["cells", "failures", "elements"]
    assert report.witness["cells"] == 40
    labels = [f"k={k} a={a} psi=(1,1)" for k in range(5) for a in range(1, 5)]
    assert report.witness["failures"] == labels[:10]
    assert report.witness["elements"] == ["d-1", "0", "d-2", "d-3", "d-4"]


def test_cocycle_keeps_both_counts(monkeypatch):
    monkeypatch.setattr(suite, "bracket", lambda i, j: UEAElement.zero())
    report = suite.check_cocycle()
    assert report.passed is False
    assert report.witness["antisymmetry_pairs"] == 17 ** 2
    assert report.witness["jacobi_triples"] == 13 ** 3
    assert "cells" not in report.witness
    assert report.witness["failures"][:2] == ["antisymmetry (-8,-7)", "antisymmetry (-8,-6)"]
    assert len(report.witness["failures"]) == 10


def test_seeded_check_lists_five_failures(monkeypatch):
    real = suite.witt_act
    monkeypatch.setattr(suite, "witt_act", lambda u, v: real(u, v) + v)
    report = suite.check_witt(0)
    assert report.passed is False
    assert list(report.witness) == ["failures", "elements"]
    assert len(report.witness["failures"]) == 5
    assert all(label.startswith("sample ") for label in report.witness["failures"])
    assert report.params == {"bracket_span": 6, "seed": 0, "samples": suite.WITT_SAMPLES}


def test_composition_series_lists_every_failure(monkeypatch):
    def failing(psi, xi, a):
        return Report(f"series xi={xi} a={a}", {}, False, {"elements": ["w", f"{a}*w"]})

    monkeypatch.setattr(suite, "composition_series", failing)
    report = suite.check_composition_series()
    assert report.passed is False
    assert report.witness["failures"] == [
        "FAIL  series xi=0 a=2", "FAIL  series xi=1 a=3", "FAIL  series xi=0 a=2",
    ]
    assert report.witness["elements"] == ["w", "2*w", "3*w"]


def test_labels_are_made_only_for_failing_cells():
    made = []

    def label(text):
        def make():
            made.append(text)
            return text
        return make

    tally = suite._Tally()
    tally.cell(True, label("passes"))
    tally.cell(False, label("fails"))
    tally.cell(False, "plain")
    assert made == ["fails"]
    assert tally.failures == ["fails", "plain"]


def test_coherence_failures_name_the_cell(monkeypatch):
    real = suite.act
    monkeypatch.setattr(suite, "act", lambda u, v: real(u, v) + v)
    report = suite.check_action_coherence(0)
    assert report.passed is False
    assert len(report.witness["failures"]) == 5
    for text in report.witness["failures"]:
        assert re.fullmatch(r"u=.+ v=.+ m=.+ ctx=(M|L:xi=.+)", text)


def test_decomposition_cell_sees_a_solver_that_drops_a_vector(monkeypatch):
    # the whole quotient's Whittaker dimension (3) against the sum over
    # the report's components (2 + 1): dropping a vector breaks it
    real = suite.whittaker_solve
    monkeypatch.setattr(suite, "whittaker_solve", lambda ctx, trunc: real(ctx, trunc)[1:])
    report = suite.check_decomposition()
    assert report.passed is False
    assert report.witness["truncated_dimension_sum_ok"] is False
    assert report.witness["bezout_identity"] is True


def test_nilpotency_bound_one_too_small_fails_verify_all(monkeypatch, capsys):
    # the engine's loop with its bound lowered by one: it raises once the
    # true index passes the lowered bound
    real = suite.nilpotency_index

    def lowered(n, lam, psi):
        index, bound = real(n, lam, psi)
        if index > bound - 1:
            raise ReductionError(f"dot action of d_{n} not nilpotent within the bound {bound - 1}")
        return index, bound - 1

    monkeypatch.setattr(suite, "nilpotency_index", lowered)
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  local_nilpotency" in out
    assert out.count("FAIL  ") == 1
    report = suite.check_local_nilpotency()
    assert report.passed is False
    assert report.witness["failures"][0].startswith("n=1 lam=(): dot action of d_1 not nilpotent")


def test_descent_error_is_a_failing_cell(monkeypatch):
    def broken(v):
        raise ReductionError("descent measure failed to decrease")

    monkeypatch.setattr(suite, "whittaker_reduce", broken)
    report = suite.check_constructive_simplicity(0)
    assert report.passed is False
    assert len(report.witness["failures"]) == 5
    assert all(re.fullmatch(r"sample \d+: v=.+: descent measure failed to decrease", text)
               for text in report.witness["failures"])

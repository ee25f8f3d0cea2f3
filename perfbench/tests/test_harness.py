"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
from layers import TARGETS  # noqa: E402
from tracer import COUNT_SPAN, Target, Tracer, leftover_wrappers  # noqa: E402
from workloads import WRONG, QueryStream, cli_digest, run_cli  # noqa: E402

run.import_engine()


def vira(name):
    return sys.modules["vira." + name]


def bindings():
    """Every attribute of every loaded vira module and class, by identity."""
    out = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "vira" or mod_name.startswith("vira."):
            for attr, value in vars(module).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        out[(mod_name, attr, cattr)] = cvalue
    return out


def test_self_time_on_synthetic_nested_trace():
    t = Tracer()
    # root A [0,100] > B [10,40] > C [15,25];  A > B [50,90] > A [60,70]
    a = t.record("A", -1, 0, 0, 100)
    b1 = t.record("B", a, 0, 10, 40)
    t.record("C", b1, 0, 15, 25)
    b2 = t.record("B", a, 0, 50, 90)
    t.record("A", b2, 0, 60, 70)
    s = t.summary()
    ns = 1e-9
    assert s["A"]["calls"] == 2
    assert s["A"]["self_s"] == pytest.approx((100 - 30 - 40 + 10) * ns)
    assert s["A"]["busy_s"] == pytest.approx(100 * ns)  # the nested A is inside the outer one
    assert s["B"]["self_s"] == pytest.approx((30 - 10 + 40 - 10) * ns)
    assert s["B"]["busy_s"] == pytest.approx(70 * ns)
    assert s["C"] == {"calls": 1, "busy_s": pytest.approx(10 * ns), "self_s": pytest.approx(10 * ns)}


def test_recursion_is_one_span_per_entry():
    kernel = vira("kernel")
    kernel.cache_clear()
    t = Tracer()
    t.install(TARGETS)
    try:
        kernel.straighten_word((2, 2, 1, -1, -2, -2))
        kernel.cache_clear()
        kernel.multiply_terms({(0, (2, 1)): 1}, {(0, (-1, -2)): 1})
    finally:
        t.restore()
    s = t.summary()
    # one outside entry, plus one per straighten call made by multiply_terms
    assert s["kernel.straighten_word"]["calls"] == 2
    assert s["kernel.multiply_terms"]["calls"] == 1


def test_counting_is_no_part_of_self_time(monkeypatch):
    now = [0]
    mod = types.ModuleType("fakepkg")

    def inner():
        now[0] += 10

    def outer():
        mod.inner()
        now[0] += 5

    def count(counters, args, result):
        now[0] += 1000
        counters["inner.count"] += 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg", mod)
    t = Tracer(clock=lambda: now[0])
    t.install([Target("inner", "fakepkg:inner", count=count),
               Target("outer", "fakepkg:outer")], package="fakepkg")
    try:
        mod.outer()
    finally:
        t.restore()
    s = t.summary()
    ns = 1e-9
    assert s["inner"]["self_s"] == pytest.approx(10 * ns)
    assert s["outer"]["self_s"] == pytest.approx(5 * ns)
    assert s[COUNT_SPAN]["busy_s"] == pytest.approx(1000 * ns)
    assert t.counters["inner.count"] == 1


class TinyWorkload:
    name = "tiny"

    def setup(self, seed, reference):
        return {}

    def ops(self, inputs):
        def reduce():
            ctx = vira("whittaker").ModuleContext.central_quotient((1, 1), 0)
            return vira("whittaker").whittaker_reduce(ctx.basis_vector(0, (1, 2)))

        def crash():
            raise RecursionError("maximum recursion depth exceeded")

        return [("reduce", reduce, None), ("crash", crash, None)]

    def judge(self, meta, result):
        return None, []


def test_tracer_restores_every_binding():
    before = bindings()
    t = Tracer()
    t.install(TARGETS)
    try:
        assert "vira.analysis._echelon_insert" in leftover_wrappers()
        assert "vira.virasoro.UEAElement.__mul__" in leftover_wrappers()
        vira("suite").check_decomposition()
    finally:
        t.restore()
    assert t.summary()["suite.decomposition"]["calls"] == 1
    assert leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_missing_traced_function_fails_the_run(monkeypatch):
    gone = Target("analysis.gone", "vira.analysis:_no_such_function")
    monkeypatch.setattr(run, "TARGETS", run.TARGETS + [gone])
    with pytest.raises(run.BenchError, match="_no_such_function"):
        run.measure(TinyWorkload(), 0, {}, seconds=0, trace=True)
    assert leftover_wrappers() == []


def test_every_metric_has_a_source():
    from layers import SOURCES

    assert set(run.metric_units("per_layer")) <= set(SOURCES)
    _, records = run.run_pass(TinyWorkload(), {})
    run.judge(TinyWorkload(), records)
    values = run.end_to_end([(1.0, records)], 0.1)
    assert set(run.metric_units("end_to_end")) <= set(values)


def test_traced_run_alternates_and_leaves_no_wrapper():
    untraced, traced, setup_times = run.measure(TinyWorkload(), 0, {}, seconds=0, trace=True)
    assert len(untraced) == 1 and len(traced) == 1
    assert len(setup_times) == 2 * run.SETUP_REPEATS
    summary = traced[0][2].summary()
    assert summary["whittaker.reduce"]["calls"] == 1
    assert summary["kernel.act_terms"]["calls"] > 0
    assert leftover_wrappers() == []


def test_exceptions_are_recorded_per_op_and_do_not_abort():
    _, records = run.run_pass(TinyWorkload(), {})
    run.judge(TinyWorkload(), records)
    assert [r["kind"] for r in records] == [None, "RecursionError"]
    attempted, failed, correct, kinds = run.tally([(1.0, records)])
    assert (attempted, failed, correct) == (2, 1, True)
    assert kinds["RecursionError"]["count"] == 1


def test_altered_output_counts_as_failed():
    argv = ["reduce", "--module", "L:xi=0", "d-1*w"]
    vira("kernel").cache_clear()
    code, stdout, stderr = run_cli(argv)
    entry = {"argv": argv, "digest": cli_digest(code, stdout)}
    stream = QueryStream()
    assert stream.judge(entry, (code, stdout, stderr)) == (None, [])
    kind, problems = stream.judge(entry, (code, stdout + "x", stderr))
    assert kind == WRONG and problems
    records = [{"label": "q", "latency": 0.0, "memo": 0, "kind": kind, "detail": problems}]
    attempted, failed, correct, _ = run.tally([(1.0, records)])
    assert (attempted, failed, correct) == (1, 1, False)


def test_reduce_result_must_be_a_multiple_of_w():
    from workloads import algebraic_problems

    argv = ["reduce", "--module", "L:xi=0", "d-1*w"]
    assert algebraic_problems(argv, "trace: [3]\nresult: (1/2)*w\n") == []
    assert algebraic_problems(argv, "trace: [3]\nresult: d-1*w\n")
    assert algebraic_problems(argv, "trace: [3]\nresult: 0\n")


def test_p99_needs_ten_samples_beyond():
    value, beyond = run.percentile(list(range(1000)), 99)
    assert (value, beyond) == (989, 10)


def test_kernel_parity_reports_a_mismatch():
    import types

    import kernel_parity

    pure = vira("_kernel_py")
    assert kernel_parity.compare(pure, pure) == (900, None)
    twin = types.SimpleNamespace(**{name: getattr(pure, name) for name in (
        "cache_clear", "straighten_word", "multiply_terms")})
    twin.act_terms = lambda u, v, p1, p2: {**pure.act_terms(u, v, p1, p2), (9, ()): 1}
    checked, mismatch = kernel_parity.compare(pure, twin)
    assert mismatch is not None and mismatch[0] == "act_terms"


def test_deep_word_normal_form_is_checked_in_sl2():
    from workloads import sl2_problems

    vira("kernel").cache_clear()
    code, stdout, _ = run_cli(["straighten", "d1^4*d-1^4"])
    text = stdout.strip()
    assert code == 0 and sl2_problems(4, text) == []
    assert sl2_problems(4, text.replace(" - ", " + ", 1))
    assert sl2_problems(4, text + " + z")

"""What the traced run wraps, and the per-layer metrics it derives.

Each engine layer is traced at the functions that enter it.  The kernel
is wrapped where ``vira.kernel`` exports it; ``straighten_word`` is also
entered from inside ``multiply_terms`` and ``act_terms``, and those
entries are spans too, while its own recursion is not (``flat``).
"""

from __future__ import annotations

from tracer import Target

SUITE_CHECKS = [
    "cocycle", "action_coherence", "leading_term_grid", "degree_bound_grid",
    "whittaker_dimensions", "local_nilpotency", "vanishing_bound",
    "constructive_simplicity", "decomposition", "composition_series",
    "annihilator", "witt",
]


def _count_steps(counters, args, result):
    counters["whittaker.reduce.steps"] += len(result[0])


def _count_echelon(counters, args, result):
    if result is not None:
        counters["analysis.echelon.pivots"] += 1
        counters["analysis.echelon.fill"] += len(args[0][result])


def _count_unknowns(counters, args, result):
    ctx, trunc = args
    counters["analysis.solve.unknowns"] += len(trunc.basis_keys(ctx))


TARGETS = [
    Target("kernel.straighten_word", "vira.kernel:straighten_word", flat=True),
    Target("kernel.multiply_terms", "vira.kernel:multiply_terms"),
    Target("kernel.act_terms", "vira.kernel:act_terms"),
    Target("virasoro.mul", "vira.virasoro:UEAElement.__mul__"),
    Target("whittaker.act", "vira.whittaker:act"),
    Target("whittaker.dot_act", "vira.whittaker:dot_act"),
    Target("whittaker.reduce_raw", "vira.whittaker:ModuleContext.reduce_raw"),
    Target("whittaker.reduce", "vira.whittaker:whittaker_reduce", count=_count_steps),
    Target("analysis.echelon", "vira.analysis:_echelon_insert", count=_count_echelon),
    Target("analysis.solve", "vira.analysis:whittaker_solve", count=_count_unknowns),
    Target("exprparse.parse", "vira.exprparse:parse_expression"),
    Target("cli.main", "vira.cli:main"),
    Target("scalar.poly_divmod", "vira.scalar:poly_divmod"),
] + [Target(f"suite.{name}", f"vira.suite:check_{name}") for name in SUITE_CHECKS]

#: Where each per-layer metric of BENCHMARK.json comes from: a
#: ``(span, field)`` of the span summary, else a counter or one of the
#: harness's own figures by name.
SOURCES = {
    "kernel.straighten_word.calls": ("kernel.straighten_word", "calls"),
    "kernel.straighten_word.busy_s": ("kernel.straighten_word", "busy_s"),
    "kernel.multiply_terms.calls": ("kernel.multiply_terms", "calls"),
    "kernel.multiply_terms.busy_s": ("kernel.multiply_terms", "busy_s"),
    "kernel.multiply_terms.self_s": ("kernel.multiply_terms", "self_s"),
    "kernel.act_terms.calls": ("kernel.act_terms", "calls"),
    "kernel.act_terms.busy_s": ("kernel.act_terms", "busy_s"),
    "kernel.act_terms.self_s": ("kernel.act_terms", "self_s"),
    "kernel.memo_words": "memo_words",
    "virasoro.mul.calls": ("virasoro.mul", "calls"),
    "virasoro.mul.self_s": ("virasoro.mul", "self_s"),
    "whittaker.act.calls": ("whittaker.act", "calls"),
    "whittaker.act.self_s": ("whittaker.act", "self_s"),
    "whittaker.dot_act.calls": ("whittaker.dot_act", "calls"),
    "whittaker.reduce_raw.calls": ("whittaker.reduce_raw", "calls"),
    "whittaker.reduce_raw.busy_s": ("whittaker.reduce_raw", "busy_s"),
    "whittaker.reduce.calls": ("whittaker.reduce", "calls"),
    "whittaker.reduce.steps": "whittaker.reduce.steps",
    "whittaker.reduce.self_s": ("whittaker.reduce", "self_s"),
    "analysis.echelon.calls": ("analysis.echelon", "calls"),
    "analysis.echelon.busy_s": ("analysis.echelon", "busy_s"),
    "analysis.echelon.pivots": "analysis.echelon.pivots",
    "analysis.echelon.fill": "analysis.echelon.fill",
    "analysis.echelon.useful_ratio": "useful_ratio",
    "analysis.solve.self_s": ("analysis.solve", "self_s"),
    "analysis.solve.unknowns": "analysis.solve.unknowns",
    **{f"suite.{name}.s": (f"suite.{name}", "busy_s") for name in SUITE_CHECKS},
    "exprparse.parse.busy_s": ("exprparse.parse", "busy_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "scalar.poly_divmod.calls": ("scalar.poly_divmod", "calls"),
    "scalar.poly_divmod.busy_s": ("scalar.poly_divmod", "busy_s"),
    "trace.pass_s": "trace.pass_s",
    "trace.untraced_pass_s": "trace.untraced_pass_s",
    "trace.overhead_ratio": "trace.overhead_ratio",
    "fail_ratio": "fail_ratio",
}


def layer_values(names, summary, counters, extra):
    """Values of the per-layer metrics ``names`` for one traced pass.

    ``summary`` is ``Tracer.summary()``, ``counters`` the tracer's counters
    and ``extra`` the harness's own figures (memo size, pass times, ...).
    A metric without a source raises KeyError.
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    inserts = summary.get("analysis.echelon", empty)["calls"]
    pivots = counters.get("analysis.echelon.pivots", 0)
    extra = {**extra, "useful_ratio": pivots / inserts if inserts else 0.0}
    values = {}
    for metric in names:
        source = SOURCES[metric]
        if isinstance(source, tuple):
            span, field = source
            values[metric] = summary.get(span, empty)[field]
        elif source in extra:
            values[metric] = extra[source]
        else:
            values[metric] = counters.get(source, 0)
    return values

"""Command-line front end.

Every engine operation is reachable through a verb; psi and the module
context always come from flags, never from the expression itself, so
expressions stay context-free.  Exit codes: 0 success, 1 a verify/solve
assertion failed, 2 expression or usage parse error, 3 domain error (zero
psi, a rational flag that is not an integer, fraction or decimal, a number
in a flag or an expression with more than 4300 digits, a bad or oversized
``--lam``, ``verify leading --a`` above 1000 or ``verify dotspan --i``
above 10^4, a non-splitting polynomial, a solve, series or orbit past its
size cap, a series whose a x (digits of xi) is past 4300, an output
coefficient with more than 4300 digits, wrong context), 70 internal
engine error or any other crash (one line on stderr, no traceback), 141
stdout closed before the output was written (nothing is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__, kernel, suite
from .analysis import (
    Report,
    TruncationSpec,
    annihilator_normal_form,
    composition_series,
    decompose,
    dot_orbit_dimension,
    jsonify,
    verify_degree_bounds,
    verify_dot_span,
    verify_leading_term,
    whittaker_solve,
)
from .errors import DomainError, ExpressionError, ViraError
from .exprparse import parse_module, parse_poly, parse_uea
from .partitions import Pseudopartition
from .scalar import rational_text, to_rational
from .whittaker import (
    ModuleContext,
    act,
    dot_act,
    is_whittaker_vector,
    whittaker_reduce,
)
from .witt import project, witt_act

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_INTERNAL_ERROR = 70
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _emit_json(payload):
    print(json.dumps(payload, indent=2))


def _psi(args):
    return (to_rational(args.psi1), to_rational(args.psi2))


def _context(args) -> ModuleContext:
    return ModuleContext.parse_descriptor(args.module, _psi(args))


def _uea_json(elem) -> dict:
    return {
        "terms": [
            {"z": t, "word": list(word), "coeff": rational_text(c)}
            for (t, word), c in elem.sorted_terms()
        ],
        "text": str(elem),
    }


def _module_json(elem) -> dict:
    return {"terms": elem.json_terms(), "text": str(elem)}


def _print_report(report: Report, json_mode: bool):
    if json_mode:
        _emit_json(report.json_dict())
        return
    print(report.headline())
    for key, value in report.witness.items():
        if key == "elements":
            continue
        rendered = jsonify(value)
        if isinstance(rendered, (dict, list)):
            rendered = json.dumps(rendered)
        print(f"  {key}: {rendered}")


def cmd_straighten(args) -> int:
    elem = parse_uea(args.expr)
    if args.json:
        _emit_json(_uea_json(elem))
    else:
        print(elem)
    return EXIT_OK


def cmd_act(args) -> int:
    ctx = _context(args)
    u = parse_uea(args.operator)
    v = parse_module(args.element, ctx)
    result = act(u, v)
    if args.json:
        _emit_json(_module_json(result))
    else:
        print(result)
    return EXIT_OK


def cmd_solve(args) -> int:
    ctx = _context(args)
    basis = whittaker_solve(ctx, TruncationSpec(args.maxdeg, args.zerocap, args.zcap))
    passed = args.expect_dim is None or len(basis) == args.expect_dim
    report = Report(
        check="solve",
        params={
            "module": ctx.descriptor(),
            "psi1": ctx.psi.psi1,
            "psi2": ctx.psi.psi2,
            "maxdeg": args.maxdeg,
            "zerocap": args.zerocap,
            "zcap": args.zcap,
        },
        passed=passed,
        witness={
            "dimension": len(basis),
            "basis": [str(b) for b in basis],
            "elements": [str(b) for b in basis],
        },
    )
    if args.json:
        _emit_json(report.json_dict())
    else:
        print(f"dimension: {len(basis)}")
        if basis:
            print("basis:")
            for b in basis:
                print(f"  {b}")
        if args.expect_dim is not None:
            print(f"{'PASS' if passed else 'FAIL'}  expected dimension {args.expect_dim}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    if args.checker == "leading":
        report = verify_leading_term(args.k, args.a, _psi(args))
    elif args.checker == "degree":
        report = verify_degree_bounds(args.m, Pseudopartition.parse(args.lam), _psi(args))
    elif args.checker == "dotspan":
        report = verify_dot_span(args.n, args.i, Pseudopartition.parse(args.lam), _psi(args))
    elif args.checker == "vector":
        ctx = _context(args)
        v = parse_module(args.expr, ctx)
        report = Report(
            check="whittaker_vector",
            params={"module": ctx.descriptor(), "element": str(v)},
            passed=is_whittaker_vector(v),
            witness={
                "d1_dot": str(dot_act(1, v)),
                "d2_dot": str(dot_act(2, v)),
                "elements": [str(v)],
            },
        )
    elif args.checker == "all":
        return _verify_all(args)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown checker {args.checker!r}")
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _verify_all(args) -> int:
    reports = suite.run_all(args.seed)
    if args.json:
        _emit_json([r.json_dict() for r in reports])
    else:
        width = max(len(r.check) for r in reports)
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.check.ljust(width)}  "
                  + " ".join(f"{k}={jsonify(v)}" for k, v in r.params.items()))
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} checks passed (kernel: {kernel.IMPL})")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_decompose(args) -> int:
    p = parse_poly(args.p)
    report = decompose(_psi(args), p)
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_series(args) -> int:
    report = composition_series(
        _psi(args), to_rational(args.xi), args.a,
        TruncationSpec(args.maxdeg, args.zerocap),
    )
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_annihilate(args) -> int:
    p = parse_poly(args.p)
    u = parse_uea(args.expr)
    u0, tail, residual = annihilator_normal_form(u, _psi(args), p)
    payload = {
        "u0": _uea_json(u0),
        "tail": [{"i": i, "u_i": _uea_json(ui)} for i, ui in tail],
        "residual": _uea_json(residual),
        "annihilates_w": residual.is_zero(),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"u0: {u0}")
        for i, ui in tail:
            print(f"tail d{i} - psi_{i}: {ui}")
        print(f"residual: {residual}")
        print(f"annihilates w mod p: {'yes' if residual.is_zero() else 'no'}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    ctx = _context(args)
    v = parse_module(args.expr, ctx)
    if v.is_zero():
        raise DomainError("cannot reduce the zero element")
    trace, result = whittaker_reduce(v)
    if args.json:
        _emit_json({
            "trace": trace,
            "steps": len(trace),
            "result": _module_json(result),
        })
    else:
        print(f"trace: {trace}")
        print(f"result: {result}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    ctx = _context(args)
    v = parse_module(args.expr, ctx)
    if v.is_zero():
        raise DomainError("the orbit of the zero element is trivial")
    dim, spanning = dot_orbit_dimension(v)
    if args.json:
        _emit_json({
            "dimension": dim,
            "spanning": [_module_json(s) for s in spanning],
        })
    else:
        print(f"dimension: {dim}")
        print("spanning:")
        for s in spanning:
            print(f"  {s}")
    return EXIT_OK


def cmd_witt(args) -> int:
    u = parse_uea(args.expr)
    pu = project(u)
    payload = {"projection": _uea_json(pu.lift())}
    if args.element is not None:
        ctx = ModuleContext.witt(_psi(args))
        v = parse_module(args.element, ctx)
        result = witt_act(pu, v)
        payload["action"] = _module_json(result)
    if args.json:
        _emit_json(payload)
    else:
        print(f"projection: {pu}")
        if args.element is not None:
            print(f"action: {payload['action']['text']}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    # Accept negative rationals (-3/2) as option values; stock argparse
    # only special-cases plain negative numbers, and it installs the
    # matcher as an instance attribute.  Subparsers inherit this class.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _flag_group(*flags) -> argparse.ArgumentParser:
    """A parent parser holding ``(flag, add_argument keywords)`` pairs."""
    group = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in flags:
        group.add_argument(flag, **kwargs)
    return group


# Flag groups; each verb takes only the groups it reads.  They are built
# once: a parent only lends its actions to the verbs' parsers.
_PSI = _flag_group(
    ("--psi1", dict(default="1", help="value of psi(d_1), nonzero rational")),
    ("--psi2", dict(default="1", help="value of psi(d_2), nonzero rational")),
)
_MODULE = _flag_group(
    ("--module", dict(default="M",
                      help="module context: M, L:xi=<rational>, Q:p=<poly>, or W")),
)
_DEPTH = _flag_group(
    ("--maxdeg", dict(type=int, default=4, help="truncation cap on |lam|")),
    ("--zerocap", dict(type=int, default=2, help="truncation cap on lam(0)")),
)
_ZCAP = _flag_group(("--zcap", dict(type=int, default=2, help="truncation cap on z-powers")))
_JSON = _flag_group(("--json", dict(action="store_true", help="emit JSON reports")))
_SEED = _flag_group(("--seed", dict(type=int, default=0, help="seed for randomized sweeps")))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once.  Each verb's ``func`` default is
    its name; ``main`` looks up ``cmd_<name>`` when it dispatches, so the
    cached parser never holds a handler."""
    parser = _ArgumentParser(
        prog="vira",
        description="Exact computations in Whittaker modules over the Virasoro algebra.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"vira {__version__} (kernel: {kernel.IMPL})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("straighten", parents=[_JSON],
                       help="rewrite an algebra expression into PBW normal form")
    p.add_argument("expr")
    p.set_defaults(func="straighten")

    p = sub.add_parser("act", parents=[_PSI, _MODULE, _JSON],
                       help="act by an algebra element on a module element")
    p.add_argument("operator")
    p.add_argument("element")
    p.set_defaults(func="act")

    p = sub.add_parser("solve", parents=[_PSI, _MODULE, _DEPTH, _ZCAP, _JSON],
                       help="basis of Whittaker vectors in the truncated span")
    p.add_argument("--expect-dim", type=int, default=None,
                   help="fail (exit 1) unless the dimension matches")
    p.set_defaults(func="solve")

    # No flags on the intermediate parser: they would shadow the leaf
    # options under argparse prefix matching.
    p = sub.add_parser("verify", help="run a verification check")
    vsub = p.add_subparsers(dest="checker", required=True)
    v = vsub.add_parser("leading", parents=[_PSI, _JSON],
                        help="leading-term identity for powers of one negative mode")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--a", type=int, required=True)
    v.set_defaults(func="verify", checker="leading")
    v = vsub.add_parser("degree", parents=[_PSI, _JSON],
                        help="degree bound and leading form of [d_m, d_{-lam}] w")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--lam", required=True, help="pseudopartition, e.g. '(0^2,1,3)'")
    v.set_defaults(func="verify", checker="degree")
    v = vsub.add_parser("dotspan", parents=[_PSI, _JSON],
                        help="span and vanishing bounds of one dot action")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--i", type=int, required=True)
    v.add_argument("--lam", required=True)
    v.set_defaults(func="verify", checker="dotspan")
    v = vsub.add_parser("vector", parents=[_PSI, _MODULE, _JSON],
                        help="check whether an element is a Whittaker vector")
    v.add_argument("expr")
    v.set_defaults(func="verify", checker="vector")
    v = vsub.add_parser("all", parents=[_SEED, _JSON],
                        help="run the full verification grid")
    v.set_defaults(func="verify", checker="all")

    p = sub.add_parser("decompose", parents=[_PSI, _JSON],
                       help="split a polynomial quotient along the roots of p")
    p.add_argument("--p", required=True, help="monic polynomial in z, e.g. '(z-1)^2*(z+3)'")
    p.set_defaults(func="decompose")

    p = sub.add_parser("series", parents=[_PSI, _DEPTH, _JSON],
                       help="composition chain of the quotient by (z-xi)^a")
    p.add_argument("--xi", required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func="series")

    p = sub.add_parser("annihilate", parents=[_PSI, _JSON],
                       help="normal form against p(z) and the shifted positive modes")
    p.add_argument("--p", required=True)
    p.add_argument("expr")
    p.set_defaults(func="annihilate")

    p = sub.add_parser("reduce", parents=[_PSI, _MODULE, _JSON],
                       help="extract a Whittaker vector from a quotient-module element")
    p.add_argument("expr")
    p.set_defaults(func="reduce")

    p = sub.add_parser("orbit", parents=[_PSI, _MODULE, _JSON],
                       help="dimension of the dot-action orbit closure")
    p.add_argument("expr")
    p.set_defaults(func="orbit")

    p = sub.add_parser("witt", parents=[_PSI, _JSON],
                       help="project to the centerless quotient and optionally act")
    p.add_argument("expr")
    p.add_argument("element", nargs="?", default=None)
    p.set_defaults(func="witt")

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # usage errors, --help and --version
            code = int(exc.code or 0)
        else:
            code = globals()[f"cmd_{args.func}"](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: no crash; what stays buffered goes to the
        # null device when the interpreter flushes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except ViraError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception as exc:  # a crash is reported, never a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

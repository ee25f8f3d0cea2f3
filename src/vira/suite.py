"""Deterministic verification grids over the whole engine.

Each check sweeps one family of identities at desk scale and returns a
Report; ``run_all`` is the reproduction entry point behind the CLI verb
``verify all``.  Randomized sweeps are seeded and exact -- every
comparison is an equality of rational values, so there are no
tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .analysis import (
    Report,
    TruncationSpec,
    composition_series_report,
    decompose_report,
    annihilator_normal_form,
    verify_degree_bounds,
    verify_leading_term,
    whittaker_solve,
)
from .partitions import pseudopartitions_upto
from .scalar import Poly
from .virasoro import UEAElement, bracket, commutator, straighten
from .whittaker import (
    ModuleContext,
    WhittakerHomomorphism,
    act,
    dot_act,
    nilpotency_index,
    whittaker_reduce,
)
from .witt import project, witt_act, witt_bracket

PSI_SAMPLES = (
    WhittakerHomomorphism(1, 1),
    WhittakerHomomorphism(2, Fraction(-3, 2)),
)
XI_SAMPLES = (Fraction(0), Fraction(5, 7))


def _random_uea(rng, max_terms=2, max_len=4, max_index=3, max_z=1) -> UEAElement:
    out = UEAElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.randint(-max_index, max_index) for _ in range(rng.randint(0, max_len))]
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + straighten(word, z_power=rng.randint(0, max_z), coeff=coeff)
    return out


def _random_module_element(rng, ctx, lams, max_terms=3, max_z=2):
    out = ctx.element()
    zmax = ctx.z_dimension()
    zmax = max_z if zmax is None else zmax - 1
    for _ in range(rng.randint(1, max_terms)):
        lam = rng.choice(lams)
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + ctx.basis_vector(rng.randint(0, zmax), lam) * coeff
    return out


def _keep(elements: list, item, cap: int = 25):
    if len(elements) < cap:
        text = str(item)
        if text not in elements:
            elements.append(text)


def check_cocycle(span: int = 6, pair_span: int = 8) -> Report:
    """Antisymmetry of straightened products against the bracket, and the
    Jacobi identity for all index triples in a box (this pins down the
    central cocycle coefficient exactly)."""
    failures = []
    elements: list = []
    pairs = 0
    for i in range(-pair_span, pair_span + 1):
        di = UEAElement.generator(i)
        for j in range(-pair_span, pair_span + 1):
            dj = UEAElement.generator(j)
            pairs += 1
            if di * dj - dj * di != bracket(i, j):
                failures.append(f"antisymmetry ({i},{j})")
            _keep(elements, di * dj)
    triples = 0
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            bij = bracket(i, j)
            for k in range(-span, span + 1):
                triples += 1
                dk = UEAElement.generator(k)
                total = (
                    commutator(bij, dk)
                    + commutator(bracket(j, k), UEAElement.generator(i))
                    + commutator(bracket(k, i), UEAElement.generator(j))
                )
                if not total.is_zero():
                    failures.append(f"jacobi ({i},{j},{k})")
    return Report(
        check="cocycle",
        params={"jacobi_span": span, "antisymmetry_span": pair_span},
        passed=not failures,
        witness={
            "antisymmetry_pairs": pairs,
            "jacobi_triples": triples,
            "failures": failures[:10],
            "elements": elements,
        },
    )


def check_action_coherence(seed: int = 0, samples: int = 200) -> Report:
    """Associativity of the action: acting by a product equals acting twice,
    across random elements, both context kinds, and several psi/xi values."""
    rng = random.Random(seed)
    lams = pseudopartitions_upto(3, 2)
    failures = []
    elements: list = []
    checked = 0
    for _ in range(samples):
        u = _random_uea(rng)
        v = _random_uea(rng)
        lam = rng.choice(lams)
        t = rng.randint(0, 2)
        uv = u * v
        contexts = [ModuleContext.universal(psi) for psi in PSI_SAMPLES]
        contexts += [
            ModuleContext.central_quotient(psi, xi)
            for psi in PSI_SAMPLES
            for xi in XI_SAMPLES
        ]
        for ctx in contexts:
            m = ctx.basis_vector(min(t, (ctx.z_dimension() or 3) - 1), lam)
            left = act(uv, m)
            right = act(u, act(v, m))
            checked += 1
            if left != right:
                failures.append(f"u={u} v={v} m={m} ctx={ctx.descriptor()}")
            _keep(elements, left)
    return Report(
        check="action_coherence",
        params={"seed": seed, "samples": samples},
        passed=not failures,
        witness={"checked": checked, "failures": failures[:5], "elements": elements},
    )


def check_leading_term_grid() -> Report:
    """Leading-term identity for powers of a single negative mode."""
    failures = []
    elements: list = []
    cells = 0
    for psi in PSI_SAMPLES:
        for k in range(0, 5):
            for a in range(1, 5):
                report = verify_leading_term(k, a, psi)
                cells += 1
                if not report.passed:
                    failures.append(f"k={k} a={a} psi=({psi.psi1},{psi.psi2})")
                _keep(elements, report.witness["lhs"])
                _keep(elements, report.witness["remainder"])
    return Report(
        check="leading_term_grid",
        params={"k": "0..4", "a": "1..4", "psi_samples": len(PSI_SAMPLES)},
        passed=not failures,
        witness={"cells": cells, "failures": failures[:10], "elements": elements},
    )


def check_degree_bound_grid() -> Report:
    """Degree bound and leading-term form of commutators against d_{-lam}."""
    failures = []
    elements: list = []
    cells = 0
    lams = [lam for lam in pseudopartitions_upto(6, 2) if not lam.is_empty]
    for psi in PSI_SAMPLES:
        for lam in lams:
            for m in range(1, 9):
                report = verify_degree_bounds(m, lam, psi)
                cells += 1
                if not report.passed:
                    failures.append(f"m={m} lam={lam} psi=({psi.psi1},{psi.psi2})")
                _keep(elements, report.witness["commutator_on_w"])
    return Report(
        check="degree_bounds_grid",
        params={"max_size": 6, "max_zeros": 2, "m": "1..8",
                "psi_samples": len(PSI_SAMPLES)},
        passed=not failures,
        witness={"cells": cells, "failures": failures[:10], "elements": elements},
    )


def check_whittaker_dimensions() -> Report:
    """Solver dimensions: T+1 in the universal module, 1 in a central
    quotient, deg p in a polynomial quotient; independent of the
    pseudopartition truncation."""
    failures = []
    elements: list = []
    cells = 0
    polys = [
        Poly.z_minus(1) ** 2,
        Poly.z_minus(1) * Poly.z_minus(2),
        (Poly.z_minus(1) ** 2) * Poly.z_minus(-3),
    ]
    for psi in PSI_SAMPLES:
        for n_cap in (3, 4, 5):
            for z_cap in (1, 2):
                for t_cap in range(0, 4):
                    trunc = TruncationSpec(n_cap, z_cap, t_cap)
                    ctx = ModuleContext.universal(psi)
                    basis = whittaker_solve(ctx, trunc)
                    cells += 1
                    if len(basis) != t_cap + 1:
                        failures.append(f"universal T={t_cap} N={n_cap} Z={z_cap}")
                    for b in basis:
                        _keep(elements, b)
                trunc = TruncationSpec(n_cap, z_cap, 2)
                for xi in XI_SAMPLES:
                    ctx = ModuleContext.central_quotient(psi, xi)
                    basis = whittaker_solve(ctx, trunc)
                    cells += 1
                    if len(basis) != 1:
                        failures.append(f"central xi={xi} N={n_cap} Z={z_cap}")
                    for b in basis:
                        _keep(elements, b)
                for p in polys:
                    ctx = ModuleContext.quotient(psi, p)
                    basis = whittaker_solve(ctx, trunc)
                    cells += 1
                    if len(basis) != p.degree:
                        failures.append(f"quotient p={p} N={n_cap} Z={z_cap}")
                    for b in basis:
                        _keep(elements, b)
    return Report(
        check="whittaker_dimensions",
        params={"N": "3..5", "Z": "1..2", "T": "0..3",
                "psi_samples": len(PSI_SAMPLES)},
        passed=not failures,
        witness={"cells": cells, "failures": failures[:10], "elements": elements},
    )


def check_local_nilpotency() -> Report:
    """Measured nilpotency of the dot action against the a-priori bound."""
    failures = []
    elements: list = []
    cells = 0
    lams = pseudopartitions_upto(4, 2)
    for psi in PSI_SAMPLES:
        ctx = ModuleContext.universal(psi)
        for lam in lams:
            s = lam.size + 2 * lam.count
            for n in range(1, 5):
                index, bound = nilpotency_index(n, lam, psi)
                stated = -(-s // n) + 1  # ceil(s/n) + 1
                cells += 1
                v = ctx.basis_vector(0, lam)
                for _ in range(index):
                    v = dot_act(n, v)
                if index > bound or bound > stated or not v.is_zero():
                    failures.append(f"n={n} lam={lam}")
                _keep(elements, ctx.basis_vector(0, lam))
    return Report(
        check="local_nilpotency",
        params={"max_size": 4, "max_zeros": 2, "n": "1..4",
                "psi_samples": len(PSI_SAMPLES)},
        passed=not failures,
        witness={"cells": cells, "failures": failures[:10], "elements": elements},
    )


def check_vanishing_bound() -> Report:
    """The dot action of d_n kills z^i d_{-lam} w once n > |lam| + 2."""
    failures = []
    elements: list = []
    cells = 0
    lams = pseudopartitions_upto(4, 2)
    for psi in PSI_SAMPLES:
        ctx = ModuleContext.universal(psi)
        for lam in lams:
            for i in range(0, 3):
                for n in range(lam.size + 3, lam.size + 6):
                    cells += 1
                    img = dot_act(n, ctx.basis_vector(i, lam))
                    if not img.is_zero():
                        failures.append(f"n={n} i={i} lam={lam}")
                    _keep(elements, ctx.basis_vector(i, lam))
    return Report(
        check="vanishing_bound",
        params={"max_size": 4, "max_zeros": 2, "i": "0..2",
                "psi_samples": len(PSI_SAMPLES)},
        passed=not failures,
        witness={"cells": cells, "failures": failures[:10], "elements": elements},
    )


def _measure(v):
    raw = v.raw_terms()
    top = max(sum(parts) for (_, parts) in raw)
    d0 = 0
    for (_, parts) in raw:
        if sum(parts) == top:
            zeros = sum(1 for k in parts if k == 0)
            d0 = max(d0, zeros)
    return (top, d0)


def check_constructive_simplicity(seed: int = 0, samples: int = 100) -> Report:
    """Whittaker-vector extraction in a central quotient always lands on a
    nonzero multiple of the cyclic vector, and its descent measure strictly
    decreases at every recorded step (replayed independently here)."""
    rng = random.Random(seed)
    lams = pseudopartitions_upto(4, 2)
    failures = []
    elements: list = []
    for idx in range(samples):
        psi = PSI_SAMPLES[idx % len(PSI_SAMPLES)]
        xi = XI_SAMPLES[(idx // 2) % len(XI_SAMPLES)]
        ctx = ModuleContext.central_quotient(psi, xi)
        v = _random_module_element(rng, ctx, lams, max_terms=4)
        if v.is_zero():
            v = ctx.w()
        trace, result = whittaker_reduce(v)
        ok = not result.is_zero()
        poly = result.poly_part()
        ok = ok and poly is not None and poly.degree <= 0
        cur = v
        measure = _measure(cur)
        for mode in trace:
            cur = dot_act(mode, cur)
            nxt = _measure(cur)
            if not nxt < measure:
                ok = False
                break
            measure = nxt
        ok = ok and cur == result
        if not ok:
            failures.append(f"sample {idx}: v={v}")
        _keep(elements, result)
        _keep(elements, v)
    return Report(
        check="constructive_simplicity",
        params={"seed": seed, "samples": samples},
        passed=not failures,
        witness={"failures": failures[:5], "elements": elements},
    )


def check_decomposition() -> Report:
    """Component decomposition along the roots of (z-1)^2 (z+3), plus the
    additivity of truncated dimensions."""
    p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
    report = decompose_report(PSI_SAMPLES[0], p)
    trunc = TruncationSpec(3, 2, 2)
    whole = len(trunc.basis_keys(ModuleContext.quotient(PSI_SAMPLES[0], p)))
    parts_total = 0
    for root, mult in [(Fraction(1), 2), (Fraction(-3), 1)]:
        ctx = ModuleContext.quotient(PSI_SAMPLES[0], Poly.z_minus(root) ** mult)
        parts_total += len(trunc.basis_keys(ctx))
    dims_ok = whole == parts_total
    report.passed = report.passed and dims_ok
    report.witness["truncated_dimension_sum_ok"] = dims_ok
    return report


def check_composition_series() -> Report:
    """Chains generated by powers of (z - xi): strict, with simple layers."""
    failures = []
    elements: list = []
    reports = [
        composition_series_report(PSI_SAMPLES[0], 0, 2),
        composition_series_report(PSI_SAMPLES[0], 1, 3),
        composition_series_report(PSI_SAMPLES[1], 0, 2),
    ]
    for rep in reports:
        if not rep.passed:
            failures.append(rep.headline())
        for text in rep.witness["elements"]:
            _keep(elements, text)
    return Report(
        check="composition_series",
        params={"cases": "(xi=0,a=2), (xi=1,a=3)"},
        passed=not failures,
        witness={"failures": failures, "elements": elements},
    )


def check_annihilator(seed: int = 0, samples: int = 50) -> Report:
    """Normal form against p(z) and the shifted positive modes: re-expands
    to the input exactly, and the residual vanishes exactly when the input
    annihilates the cyclic vector of the quotient."""
    rng = random.Random(seed)
    failures = []
    elements: list = []
    polys = [Poly.z_minus(Fraction(5, 7)), Poly.z_minus(1) * Poly.z_minus(2)]
    for idx in range(samples):
        psi = PSI_SAMPLES[idx % len(PSI_SAMPLES)]
        p = polys[idx % len(polys)]
        ctx = ModuleContext.quotient(psi, p)
        u = _random_uea(rng, max_terms=2, max_len=3, max_index=2, max_z=2)
        u0, tail, residual = annihilator_normal_form(u, psi, p)
        p_elem = UEAElement.from_poly(p)
        rebuilt = u0 * p_elem + residual
        for j, uj in tail:
            shifted = UEAElement.generator(j) - UEAElement.one() * psi.value(j)
            rebuilt = rebuilt + uj * shifted
        ok = rebuilt == u
        annihilates = act(u, ctx.w()).is_zero()
        ok = ok and (residual.is_zero() == annihilates)
        # constructed annihilator: must have zero residual
        r1 = _random_uea(rng, max_terms=1, max_len=2, max_index=2)
        r2 = _random_uea(rng, max_terms=1, max_len=2, max_index=2)
        built = r1 * p_elem + r2 * (
            UEAElement.generator(2) - UEAElement.one() * psi.psi2
        )
        _, _, built_residual = annihilator_normal_form(built, psi, p)
        ok = ok and built_residual.is_zero() and act(built, ctx.w()).is_zero()
        if not ok:
            failures.append(f"sample {idx}: u={u} p={p}")
        _keep(elements, act(u, ctx.w()))
    return Report(
        check="annihilator",
        params={"seed": seed, "samples": samples},
        passed=not failures,
        witness={"failures": failures[:5], "elements": elements},
    )


def check_witt(seed: int = 0, samples: int = 50) -> Report:
    """The projection to the centerless quotient is a bracket homomorphism
    (every central term dies), and its action agrees with acting by any
    preimage where z acts by zero."""
    rng = random.Random(seed)
    failures = []
    elements: list = []
    for i in range(-6, 7):
        for j in range(-6, 7):
            if project(bracket(i, j)) != witt_bracket(i, j):
                failures.append(f"bracket ({i},{j})")
            central = commutator(
                UEAElement.generator(i), UEAElement.generator(j)
            )
            if any(t for (t, _word) in project(central).lift()._terms):
                failures.append(f"z survived projection ({i},{j})")
    lams = pseudopartitions_upto(3, 2)
    for idx in range(samples):
        psi = PSI_SAMPLES[idx % len(PSI_SAMPLES)]
        ctx = ModuleContext.witt(psi)
        u = _random_uea(rng, max_terms=2, max_len=3, max_index=3, max_z=1)
        v = _random_module_element(rng, ctx, lams)
        left = witt_act(project(u), v)
        right = act(u, v)
        if left != right:
            failures.append(f"sample {idx}")
        _keep(elements, left)
    return Report(
        check="witt",
        params={"bracket_span": 6, "seed": seed, "samples": samples},
        passed=not failures,
        witness={"failures": failures[:5], "elements": elements},
    )


def run_all(seed: int = 0) -> list[Report]:
    """The full verification grid, in a fixed order."""
    return [
        check_cocycle(),
        check_action_coherence(seed),
        check_leading_term_grid(),
        check_degree_bound_grid(),
        check_whittaker_dimensions(),
        check_local_nilpotency(),
        check_vanishing_bound(),
        check_constructive_simplicity(seed),
        check_decomposition(),
        check_composition_series(),
        check_annihilator(seed),
        check_witt(seed),
    ]

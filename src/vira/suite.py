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
    annihilator_normal_form,
    composition_series,
    decompose,
    verify_degree_bounds,
    verify_leading_term,
    whittaker_solve,
)
from .errors import ReductionError
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

#: Grid sizes; each report carries its own in ``params``.
JACOBI_SPAN = 6
PAIR_SPAN = 8
COHERENCE_SAMPLES = 200
SIMPLICITY_SAMPLES = 100
ANNIHILATOR_SAMPLES = 50
WITT_SAMPLES = 50


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


class _Tally:
    """Bookkeeping of one check: its cells, the labels of the failing
    ones, and up to 25 distinct element strings it showed (criterion 13
    of the acceptance suite round-trips them through the parser)."""

    def __init__(self):
        self.cells = 0
        self.failures: list[str] = []
        self.elements: list[str] = []

    def cell(self, ok: bool, label, *shown) -> None:
        """Count one cell.  ``label`` is the failure's text, or a function
        that makes it, called only when the cell fails."""
        self.cells += 1
        if not ok:
            self.failures.append(label() if callable(label) else label)
        for item in shown:
            if len(self.elements) < 25:
                text = str(item)
                if text not in self.elements:
                    self.elements.append(text)

    def report(self, check: str, params: dict, count="cells", cap=10, **counts) -> Report:
        """The check's Report.  ``count`` names the witness key of the cell
        count (None for none), ``counts`` adds other counts before the
        failures, and ``cap`` bounds the failures listed (None: all)."""
        witness = {count: self.cells} if count else {}
        witness.update(counts)
        witness["failures"] = self.failures[:cap]
        witness["elements"] = self.elements
        return Report(check=check, params=params, passed=not self.failures, witness=witness)


def check_cocycle() -> Report:
    """Antisymmetry of straightened products against the bracket, and the
    Jacobi identity for all index triples in a box (this pins down the
    central cocycle coefficient exactly)."""
    tally = _Tally()
    for i in range(-PAIR_SPAN, PAIR_SPAN + 1):
        di = UEAElement.generator(i)
        for j in range(-PAIR_SPAN, PAIR_SPAN + 1):
            dj = UEAElement.generator(j)
            tally.cell(di * dj - dj * di == bracket(i, j), f"antisymmetry ({i},{j})", di * dj)
    pairs = tally.cells
    for i in range(-JACOBI_SPAN, JACOBI_SPAN + 1):
        for j in range(-JACOBI_SPAN, JACOBI_SPAN + 1):
            bij = bracket(i, j)
            for k in range(-JACOBI_SPAN, JACOBI_SPAN + 1):
                dk = UEAElement.generator(k)
                total = (
                    commutator(bij, dk)
                    + commutator(bracket(j, k), UEAElement.generator(i))
                    + commutator(bracket(k, i), UEAElement.generator(j))
                )
                tally.cell(total.is_zero(), f"jacobi ({i},{j},{k})")
    return tally.report(
        "cocycle",
        {"jacobi_span": JACOBI_SPAN, "antisymmetry_span": PAIR_SPAN},
        count=None,
        antisymmetry_pairs=pairs,
        jacobi_triples=tally.cells - pairs,
    )


def check_action_coherence(seed: int = 0) -> Report:
    """Associativity of the action: acting by a product equals acting twice,
    across random elements, both context kinds, and several psi/xi values."""
    rng = random.Random(seed)
    lams = pseudopartitions_upto(3, 2)
    contexts = [ModuleContext.universal(psi) for psi in PSI_SAMPLES]
    contexts += [ModuleContext.central_quotient(psi, xi)
                 for psi in PSI_SAMPLES for xi in XI_SAMPLES]
    tally = _Tally()
    for _ in range(COHERENCE_SAMPLES):
        u = _random_uea(rng)
        v = _random_uea(rng)
        lam = rng.choice(lams)
        t = rng.randint(0, 2)
        uv = u * v
        for ctx in contexts:
            m = ctx.basis_vector(min(t, (ctx.z_dimension() or 3) - 1), lam)
            left = act(uv, m)
            tally.cell(left == act(u, act(v, m)),
                       lambda: f"u={u} v={v} m={m} ctx={ctx.descriptor()}", left)
    return tally.report("action_coherence", {"seed": seed, "samples": COHERENCE_SAMPLES},
                        count="checked", cap=5)


def check_leading_term_grid() -> Report:
    """Leading-term identity for powers of a single negative mode."""
    tally = _Tally()
    for psi in PSI_SAMPLES:
        for k in range(0, 5):
            for a in range(1, 5):
                report = verify_leading_term(k, a, psi)
                tally.cell(report.passed, f"k={k} a={a} psi=({psi.psi1},{psi.psi2})",
                           report.witness["lhs"], report.witness["remainder"])
    return tally.report(
        "leading_term_grid",
        {"k": "0..4", "a": "1..4", "psi_samples": len(PSI_SAMPLES)},
    )


def check_degree_bound_grid() -> Report:
    """Degree bound and leading-term form of commutators against d_{-lam}."""
    tally = _Tally()
    lams = [lam for lam in pseudopartitions_upto(6, 2) if not lam.is_empty]
    for psi in PSI_SAMPLES:
        for lam in lams:
            for m in range(1, 9):
                report = verify_degree_bounds(m, lam, psi)
                tally.cell(report.passed, f"m={m} lam={lam} psi=({psi.psi1},{psi.psi2})",
                           report.witness["commutator_on_w"])
    return tally.report(
        "degree_bounds_grid",
        {"max_size": 6, "max_zeros": 2, "m": "1..8", "psi_samples": len(PSI_SAMPLES)},
    )


def check_whittaker_dimensions() -> Report:
    """Solver dimensions: T+1 in the universal module, 1 in a central
    quotient, deg p in a polynomial quotient; independent of the
    pseudopartition truncation."""
    tally = _Tally()
    polys = [
        Poly.z_minus(1) ** 2,
        Poly.z_minus(1) * Poly.z_minus(2),
        (Poly.z_minus(1) ** 2) * Poly.z_minus(-3),
    ]
    for psi in PSI_SAMPLES:
        # (context, max z-power T, expected dimension, label)
        cases = [(ModuleContext.universal(psi), t, t + 1, f"universal T={t}") for t in range(4)]
        cases += [(ModuleContext.central_quotient(psi, xi), 2, 1, f"central xi={xi}")
                  for xi in XI_SAMPLES]
        cases += [(ModuleContext.quotient(psi, p), 2, p.degree, f"quotient p={p}") for p in polys]
        for n_cap in (3, 4, 5):
            for z_cap in (1, 2):
                for ctx, t_cap, dim, label in cases:
                    basis = whittaker_solve(ctx, TruncationSpec(n_cap, z_cap, t_cap))
                    tally.cell(len(basis) == dim, f"{label} N={n_cap} Z={z_cap}", *basis)
    return tally.report(
        "whittaker_dimensions",
        {"N": "3..5", "Z": "1..2", "T": "0..3", "psi_samples": len(PSI_SAMPLES)},
    )


def check_local_nilpotency() -> Report:
    """Measured nilpotency of the dot action against the a-priori bound."""
    tally = _Tally()
    lams = pseudopartitions_upto(4, 2)
    for psi in PSI_SAMPLES:
        ctx = ModuleContext.universal(psi)
        for lam in lams:
            s = lam.size + 2 * lam.count
            for n in range(1, 5):
                try:
                    index, bound = nilpotency_index(n, lam, psi)
                except ReductionError as exc:
                    tally.cell(False, f"n={n} lam={lam}: {exc}", ctx.basis_vector(0, lam))
                    continue
                stated = -(-s // n) + 1  # ceil(s/n) + 1
                v = ctx.basis_vector(0, lam)
                for _ in range(index):
                    v = dot_act(n, v)
                tally.cell(index <= bound <= stated and v.is_zero(), f"n={n} lam={lam}",
                           ctx.basis_vector(0, lam))
    return tally.report(
        "local_nilpotency",
        {"max_size": 4, "max_zeros": 2, "n": "1..4", "psi_samples": len(PSI_SAMPLES)},
    )


def check_vanishing_bound() -> Report:
    """The dot action of d_n kills z^i d_{-lam} w once n > |lam| + 2."""
    tally = _Tally()
    lams = pseudopartitions_upto(4, 2)
    for psi in PSI_SAMPLES:
        ctx = ModuleContext.universal(psi)
        for lam in lams:
            for i in range(0, 3):
                for n in range(lam.size + 3, lam.size + 6):
                    v = ctx.basis_vector(i, lam)
                    tally.cell(dot_act(n, v).is_zero(), f"n={n} i={i} lam={lam}", v)
    return tally.report(
        "vanishing_bound",
        {"max_size": 4, "max_zeros": 2, "i": "0..2", "psi_samples": len(PSI_SAMPLES)},
    )


def _measure(v):
    """(top degree, most zero parts among the top-degree terms)."""
    return max((sum(parts), parts.count(0)) for (_, parts) in v.raw_terms())


def check_constructive_simplicity(seed: int = 0) -> Report:
    """Whittaker-vector extraction in a central quotient always lands on a
    nonzero multiple of the cyclic vector, and its descent measure strictly
    decreases at every recorded step (replayed independently here)."""
    rng = random.Random(seed)
    lams = pseudopartitions_upto(4, 2)
    tally = _Tally()
    for idx in range(SIMPLICITY_SAMPLES):
        psi = PSI_SAMPLES[idx % len(PSI_SAMPLES)]
        xi = XI_SAMPLES[(idx // 2) % len(XI_SAMPLES)]
        ctx = ModuleContext.central_quotient(psi, xi)
        v = _random_module_element(rng, ctx, lams, max_terms=4)
        if v.is_zero():
            v = ctx.w()
        try:
            trace, result = whittaker_reduce(v)
        except ReductionError as exc:
            tally.cell(False, f"sample {idx}: v={v}: {exc}", v)
            continue
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
        tally.cell(ok, lambda: f"sample {idx}: v={v}", result, v)
    return tally.report("constructive_simplicity",
                        {"seed": seed, "samples": SIMPLICITY_SAMPLES}, count=None, cap=5)


def check_decomposition() -> Report:
    """The split of the quotient by (z-1)^2 (z+3) along its roots, plus
    the additivity of Whittaker dimensions: the solver's dimension in the
    quotient by p is the sum of its dimensions in the quotients by the
    report's own components (z - xi_j)^(a_j)."""
    psi = PSI_SAMPLES[0]
    p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
    report = decompose(psi, p)

    def dimension(q):
        return len(whittaker_solve(ModuleContext.quotient(psi, q), TruncationSpec(3, 2, 2)))

    dims_ok = dimension(p) == sum(dimension(Poly.z_minus(row["xi"]) ** row["multiplicity"])
                                  for row in report.witness["components"])
    report.passed = report.passed and dims_ok
    report.witness["truncated_dimension_sum_ok"] = dims_ok
    return report


def check_composition_series() -> Report:
    """Chains generated by powers of (z - xi): strict, with simple layers."""
    tally = _Tally()
    for psi, xi, a in ((PSI_SAMPLES[0], 0, 2), (PSI_SAMPLES[0], 1, 3), (PSI_SAMPLES[1], 0, 2)):
        rep = composition_series(psi, xi, a)
        tally.cell(rep.passed, rep.headline(), *rep.witness["elements"])
    return tally.report("composition_series", {"cases": "(xi=0,a=2), (xi=1,a=3)"},
                        count=None, cap=None)


def check_annihilator(seed: int = 0) -> Report:
    """Normal form against p(z) and the shifted positive modes: re-expands
    to the input exactly, and the residual vanishes exactly when the input
    annihilates the cyclic vector of the quotient."""
    rng = random.Random(seed)
    tally = _Tally()
    polys = [Poly.z_minus(Fraction(5, 7)), Poly.z_minus(1) * Poly.z_minus(2)]
    for idx in range(ANNIHILATOR_SAMPLES):
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
        image = act(u, ctx.w())
        ok = rebuilt == u and residual.is_zero() == image.is_zero()
        # constructed annihilator: must have zero residual
        r1 = _random_uea(rng, max_terms=1, max_len=2, max_index=2)
        r2 = _random_uea(rng, max_terms=1, max_len=2, max_index=2)
        built = r1 * p_elem + r2 * (
            UEAElement.generator(2) - UEAElement.one() * psi.psi2
        )
        _, _, built_residual = annihilator_normal_form(built, psi, p)
        ok = ok and built_residual.is_zero() and act(built, ctx.w()).is_zero()
        tally.cell(ok, lambda: f"sample {idx}: u={u} p={p}", image)
    return tally.report("annihilator", {"seed": seed, "samples": ANNIHILATOR_SAMPLES},
                        count=None, cap=5)


def check_witt(seed: int = 0) -> Report:
    """The projection to the centerless quotient is a bracket homomorphism
    (every central term dies), and its action agrees with acting by any
    preimage where z acts by zero."""
    rng = random.Random(seed)
    tally = _Tally()
    for i in range(-6, 7):
        for j in range(-6, 7):
            tally.cell(project(bracket(i, j)) == witt_bracket(i, j), f"bracket ({i},{j})")
            central = commutator(
                UEAElement.generator(i), UEAElement.generator(j)
            )
            tally.cell(not any(t for (t, _word) in project(central).lift()._terms),
                       f"z survived projection ({i},{j})")
    lams = pseudopartitions_upto(3, 2)
    for idx in range(WITT_SAMPLES):
        psi = PSI_SAMPLES[idx % len(PSI_SAMPLES)]
        ctx = ModuleContext.witt(psi)
        u = _random_uea(rng, max_terms=2, max_len=3, max_index=3, max_z=1)
        v = _random_module_element(rng, ctx, lams)
        left = witt_act(project(u), v)
        tally.cell(left == act(u, v), f"sample {idx}", left)
    return tally.report("witt", {"bracket_span": 6, "seed": seed, "samples": WITT_SAMPLES},
                        count=None, cap=5)


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

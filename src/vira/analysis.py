"""Exact linear algebra and the structure-level procedures.

Everything here reduces to exact rational computation: the Whittaker
solver builds its constraint system from exact dot-action images (the
truncation only restricts the search space, never the equations), the
verifiers compute both sides of an identity and compare, and all span
and rank checks run a deterministic sparse echelon reduction over Q.

Results meant for display are wrapped in ``Report`` records that render
either as aligned text or as the stable JSON shape
``{"check", "params", "pass", "witness"}``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .partitions import Pseudopartition, pseudopartitions_upto
from .scalar import NEG_INF, Poly, poly_divmod, poly_ext_gcd, poly_linear_factorization, to_rational
from .virasoro import UEAElement, commutator, merge_terms, poly_terms
from .whittaker import (
    ModuleContext,
    ModuleElement,
    _as_psi,
    act,
    dot_act,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact linear algebra

def _echelon_insert(pivots: dict, row: dict):
    """Reduce ``row`` against the pivot rows and install it.

    Columns may be any mutually comparable keys.  ``pivots`` maps a pivot
    column to its normalized row (pivot entry 1).  Returns the new pivot
    column, or None when the row reduces to zero.  The pivot of a row is
    always its smallest remaining column, which makes the resulting
    pivot-column set independent of insertion order.
    """
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            lead = row.pop(c)
            normalized = {c: _ONE}
            for j, v in row.items():
                normalized[j] = v / lead
            pivots[c] = normalized
            return c
        f = row.pop(c)
        for j, v in piv.items():
            if j == c:
                continue
            nv = row.get(j, _ZERO) - f * v
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
    return None


def _nullspace_from_pivots(pivots: dict, ncols: int) -> list[tuple]:
    """Canonical nullspace basis: one vector per free column, equal to 1
    there and solved through the pivot rows everywhere else."""
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        x = {free_col: _ONE}
        for c in sorted(pivots, reverse=True):
            s = _ZERO
            for j, v in pivots[c].items():
                if j != c:
                    xj = x.get(j)
                    if xj is not None:
                        s += v * xj
            if s:
                x[c] = -s
        basis.append(tuple(x.get(j, _ZERO) for j in range(ncols)))
    return basis


def _row_pivots(rows) -> tuple[dict, int]:
    """Echelon pivots of a dense matrix given as a list of rows, and its
    column count.  Entries go through ``to_rational``; ragged rows raise
    ValueError."""
    pivots: dict = {}
    ncols = None
    for row in rows:
        row = [to_rational(v) for v in row]
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("matrix rows must have equal length")
        _echelon_insert(pivots, {j: v for j, v in enumerate(row) if v})
    return pivots, ncols or 0


def nullspace(rows) -> list[tuple]:
    """Exact nullspace basis of a rational matrix, in canonical form
    (identity on the free columns, deterministic pivot order)."""
    return _nullspace_from_pivots(*_row_pivots(rows))


def rank(rows) -> int:
    return len(_row_pivots(rows)[0])


# ---------------------------------------------------------------------------
# truncation windows

@dataclass(frozen=True)
class TruncationSpec:
    """Finite window of the module basis used by solvers and span checks.

    max_degree caps |lam|, max_zero_count caps lam(0), and max_z_power
    caps the stored z-power (ignored in quotient contexts, where stored
    z-powers are already bounded by deg p).
    """

    max_degree: int = 4
    max_zero_count: int = 2
    max_z_power: int = 2

    def __post_init__(self):
        if min(self.max_degree, self.max_zero_count, self.max_z_power) < 0:
            raise ValueError("truncation caps must be non-negative")

    def basis_keys(self, ctx: ModuleContext) -> list[tuple[int, tuple]]:
        zdim = ctx.z_dimension()
        zcount = self.max_z_power + 1 if zdim is None else zdim
        return [
            (t, lam.parts)
            for lam in pseudopartitions_upto(self.max_degree, self.max_zero_count)
            for t in range(zcount)
        ]


# ---------------------------------------------------------------------------
# reports

def jsonify(obj):
    """Convert engine values into JSON-serializable data."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return "-inf" if obj == NEG_INF else obj
    if isinstance(obj, (Poly, UEAElement, ModuleElement, Pseudopartition)):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


@dataclass
class Report:
    """Outcome of one named check, with enough witness data to audit it."""

    check: str
    params: dict
    passed: bool
    witness: dict = field(default_factory=dict)

    def json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": jsonify(self.params),
            "pass": self.passed,
            "witness": jsonify(self.witness),
        }

    def headline(self) -> str:
        params = " ".join(f"{k}={jsonify(v)}" for k, v in self.params.items())
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check}" + (f"  [{params}]" if params else "")


# ---------------------------------------------------------------------------
# the Whittaker-vector solver

def whittaker_solve(ctx: ModuleContext, trunc: TruncationSpec) -> list[ModuleElement]:
    """Basis of the Whittaker vectors inside the truncated span.

    The unknown vector ranges over the truncated basis; the conditions
    (d_1 and d_2 dot-annihilate it) are imposed on the full exact images,
    which may leave the truncated span -- so no spurious solutions arise
    from discarded terms.
    """
    keys = trunc.basis_keys(ctx)
    equations: dict = {}
    for i, (t, parts) in enumerate(keys):
        b = ctx.basis_vector(t, parts)
        for n in (1, 2):
            for key2, c in dot_act(n, b)._terms.items():
                equations.setdefault((n,) + key2, {})[i] = c
    pivots: dict = {}
    for eqkey in sorted(equations):
        # the echelon consumes the row; popping it frees its fill-in
        _echelon_insert(pivots, equations.pop(eqkey))
    out = []
    for vec in _nullspace_from_pivots(pivots, len(keys)):
        terms = {keys[i]: c for i, c in enumerate(vec) if c}
        out.append(ModuleElement._raw(ctx, terms))
    return out


# ---------------------------------------------------------------------------
# identity verifiers

def verify_leading_term(k: int, a: int, psi) -> Report:
    """Check the commutator of d_{k+2} against the a-th power of d_{-k}
    applied to w: the coefficient of d_{-k}^{a-1} w is -a(2k+2) psi_2 and
    the remainder is small (degree below k(a-1) for k > 0, d_0-power
    below a-1 for k = 0)."""
    if k < 0 or a < 1:
        raise ValueError("verify_leading_term requires k >= 0 and a >= 1")
    psi = _as_psi(psi)
    ctx = ModuleContext.universal(psi)
    lhs = act(
        commutator(UEAElement.generator(k + 2), UEAElement.generator(-k) ** a),
        ctx.w(),
    )
    lead_coeff = -a * (2 * k + 2) * psi.psi2
    lead = ctx.basis_vector(0, (k,) * (a - 1)) * lead_coeff
    v = lhs - lead
    if k > 0:
        bound_name, bound = "maxdeg", k * (a - 1)
        observed = v.maxdeg()
    else:
        bound_name, bound = "max_d0", a - 1
        observed = v.max_d0()
    passed = observed < bound
    return Report(
        check="leading_term",
        params={"k": k, "a": a, "psi1": psi.psi1, "psi2": psi.psi2},
        passed=passed,
        witness={
            "lhs": str(lhs),
            "leading": str(lead),
            "remainder": str(v),
            "bound": f"{bound_name} < {bound}",
            "observed": observed,
            "elements": [str(lhs), str(lead), str(v)],
        },
    )


def verify_degree_bounds(m: int, lam, psi) -> Report:
    """Check the degree bound maxdeg([d_m, d_{-lam}] w) <= |lam| - m + 2,
    and, when m = k+2 for the smallest k with lam(k) != 0, the leading-term
    form with its remainder bounds."""
    if m < 1:
        raise ValueError("verify_degree_bounds requires m >= 1")
    if not isinstance(lam, Pseudopartition):
        lam = Pseudopartition(lam)
    if lam.is_empty:
        raise ValueError("verify_degree_bounds requires a nonzero pseudopartition")
    psi = _as_psi(psi)
    ctx = ModuleContext.universal(psi)
    dlam = UEAElement.monomial(0, lam.neg_word())
    full = act(commutator(UEAElement.generator(m), dlam), ctx.w())
    bound_i = lam.size - m + 2
    ok_i = full.maxdeg() <= bound_i
    witness = {
        "commutator_on_w": str(full),
        "maxdeg": full.maxdeg(),
        "degree_bound": bound_i,
        "elements": [str(full)],
    }
    passed = ok_i
    k = lam.min_index()
    if m == k + 2:
        lead_coeff = -lam.mult(k) * psi.psi2 * (2 * k + 2)
        lead = ctx.basis_vector(0, lam.remove(k)) * lead_coeff
        v = full - lead
        if k > 0:
            ok_ii = v.maxdeg() < lam.size - k
            witness["leading_bound"] = f"maxdeg < {lam.size - k}"
            witness["leading_observed"] = v.maxdeg()
        else:
            # Split the remainder: terms of full degree must have small
            # d_0-power, everything else has strictly smaller degree.
            top_d0 = NEG_INF
            for (_, parts), _c in v._terms.items():
                if sum(parts) == lam.size:
                    zeros = bisect_right(parts, 0)
                    if zeros > top_d0:
                        top_d0 = zeros
            ok_ii = top_d0 < lam.mult(0) - 1
            witness["leading_bound"] = f"max_d0 of top-degree part < {lam.mult(0) - 1}"
            witness["leading_observed"] = top_d0
        witness["leading"] = str(lead)
        witness["remainder"] = str(v)
        witness["elements"].extend([str(lead), str(v)])
        passed = ok_i and ok_ii
    return Report(
        check="degree_bounds",
        params={"m": m, "lam": str(lam), "psi1": psi.psi1, "psi2": psi.psi2},
        passed=passed,
        witness=witness,
    )


def verify_dot_span(n: int, i: int, lam, psi) -> Report:
    """Check that the dot action of d_n on z^i d_{-lam} w stays inside the
    span of z^j d_{-mu} w with |mu| + mu(0) <= |lam| + lam(0) and
    j in {i, i+1}, and that it vanishes outright once n > |lam| + 2."""
    if n < 1 or i < 0:
        raise ValueError("verify_dot_span requires n >= 1 and i >= 0")
    if not isinstance(lam, Pseudopartition):
        lam = Pseudopartition(lam)
    psi = _as_psi(psi)
    ctx = ModuleContext.universal(psi)
    r = dot_act(n, ctx.basis_vector(i, lam))
    bound = lam.size + lam.zero_count()
    ok_span = True
    for (t, parts) in r._terms:
        if sum(parts) + bisect_right(parts, 0) > bound or t not in (i, i + 1):
            ok_span = False
            break
    must_vanish = n > lam.size + 2
    ok_vanish = r.is_zero() if must_vanish else True
    return Report(
        check="dot_span",
        params={"n": n, "i": i, "lam": str(lam), "psi1": psi.psi1, "psi2": psi.psi2},
        passed=ok_span and ok_vanish,
        witness={
            "image": str(r),
            "span_bound": bound,
            "must_vanish": must_vanish,
            "elements": [str(r)],
        },
    )


# ---------------------------------------------------------------------------
# orbit closure

def dot_orbit_dimension(v: ModuleElement) -> tuple[int, list[ModuleElement]]:
    """Exact dimension (and a spanning set) of the closure of v under the
    dot action of the positive modes.

    Modes above maxdeg + 2 act as zero on every term, so the closure uses
    only finitely many modes per element and stabilizes at finite
    dimension.
    """
    if v.is_zero():
        raise ValueError("dot_orbit_dimension requires a nonzero element")
    pivots: dict = {}
    spanning: list[ModuleElement] = []
    queue = [v]
    while queue:
        cur = queue.pop(0)
        if _echelon_insert(pivots, dict(cur._terms)) is None:
            continue
        spanning.append(cur)
        cutoff = int(cur.maxdeg()) + 2
        for n in range(1, cutoff + 1):
            img = dot_act(n, cur)
            if img:
                queue.append(img)
    return len(spanning), spanning


# ---------------------------------------------------------------------------
# decomposition by central support

@dataclass
class Component:
    root: Fraction
    multiplicity: int
    complement: Poly        # product of the other linear-power factors
    bezout: Poly            # q_j with sum_j q_j * complement_j = 1
    generator: ModuleElement  # complement(z) w inside the full quotient


@dataclass
class Decomposition:
    context: ModuleContext
    polynomial: Poly
    components: list[Component]
    identity_ok: bool       # sum q_j p_j == 1 exactly
    cross_ok: bool          # p_j applied to w_i vanishes for i != j
    projection_ok: bool     # q_i p_i w_i == w_i

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.cross_ok and self.projection_ok


def decompose(psi, p: Poly) -> Decomposition:
    """Split the quotient by p(z) into components along the roots of p.

    For p = prod (z - xi_i)^{a_i} the component generators are
    w_j = p_j(z) w with p_j the product of the other factors; the Bezout
    certificate q_j (inverse of p_j modulo its own factor) satisfies
    sum q_j p_j = 1 exactly, which drives the projection identities
    checked here.  The composition length of component j is a_j.
    """
    psi = _as_psi(psi)
    if not isinstance(p, Poly):
        p = Poly(p)
    if p.degree < 1:
        raise DomainError("decompose requires a polynomial of degree >= 1")
    p = p.monic()
    factors = poly_linear_factorization(p)
    ctx = ModuleContext.quotient(psi, p)
    components = []
    for root, mult in factors:
        f = Poly.z_minus(root) ** mult
        comp_poly, rem = poly_divmod(p, f)
        assert rem.is_zero()
        _, s, _ = poly_ext_gcd(comp_poly, f)
        _, q = poly_divmod(s, f)
        components.append(
            Component(root, mult, comp_poly, q, ctx.poly_vector(comp_poly))
        )
    total = Poly.zero()
    for comp in components:
        total = total + comp.bezout * comp.complement
    identity_ok = total == Poly.one()
    cross_ok = True
    for i, ci in enumerate(components):
        for j, cj in enumerate(components):
            if i != j and not act(UEAElement.from_poly(cj.complement), ci.generator).is_zero():
                cross_ok = False
    projection_ok = all(
        act(UEAElement.from_poly(c.bezout * c.complement), c.generator) == c.generator
        for c in components
    )
    return Decomposition(ctx, p, components, identity_ok, cross_ok, projection_ok)


def decompose_report(psi, p: Poly) -> Report:
    dec = decompose(psi, p)
    return Report(
        check="decompose",
        params={"p": str(dec.polynomial), "psi1": dec.context.psi.psi1,
                "psi2": dec.context.psi.psi2},
        passed=dec.passed,
        witness={
            "components": [
                {
                    "xi": c.root,
                    "multiplicity": c.multiplicity,
                    "p_j": str(c.complement),
                    "q_j": str(c.bezout),
                    "w_j": str(c.generator),
                }
                for c in dec.components
            ],
            "bezout_identity": dec.identity_ok,
            "cross_annihilation": dec.cross_ok,
            "projection_idempotence": dec.projection_ok,
            "elements": [str(c.generator) for c in dec.components],
        },
    )


# ---------------------------------------------------------------------------
# composition series

@dataclass
class SeriesLevel:
    index: int
    generator: ModuleElement
    nonzero_ok: bool            # generator != 0 below the top, == 0 at the top
    proper_inclusion: bool      # generator outside the truncated next level
    quotient_whittaker_dim: int | None


@dataclass
class CompositionSeries:
    context: ModuleContext
    xi: Fraction
    length: int
    levels: list[SeriesLevel]

    @property
    def passed(self) -> bool:
        return all(
            lv.nonzero_ok
            and lv.proper_inclusion
            and (lv.quotient_whittaker_dim in (None, 1))
            for lv in self.levels
        )


def composition_series(psi, xi, a: int, trunc: TruncationSpec | None = None) -> CompositionSeries:
    """The chain generated by (z - xi)^i w, i = 0..a, in the quotient by
    (z - xi)^a.

    Verifies that each generator below the top is nonzero and lies outside
    the (truncated) span of the next level, that the top generator is
    zero, and that each successive quotient has a one-dimensional space of
    Whittaker vectors.  Each successive quotient is canonically the
    central quotient at xi, which is where the solver runs.
    """
    if a < 1:
        raise ValueError("composition_series requires a >= 1")
    psi = _as_psi(psi)
    xi = to_rational(xi)
    if trunc is None:
        trunc = TruncationSpec(max_degree=4, max_zero_count=2, max_z_power=2)
    ctx = ModuleContext.quotient(psi, Poly.z_minus(xi) ** a)
    quotient_dim = len(whittaker_solve(ModuleContext.central_quotient(psi, xi), trunc))
    levels = []
    generators = [ctx.poly_vector(Poly.z_minus(xi) ** i) for i in range(a + 1)]
    for i in range(a + 1):
        gen = generators[i]
        nonzero_ok = gen.is_zero() if i == a else not gen.is_zero()
        if i == a:
            proper = True
        else:
            pivots: dict = {}
            nxt = generators[i + 1]
            if not nxt.is_zero():
                for (t, parts) in trunc.basis_keys(ctx):
                    img = act(UEAElement.monomial(t, Pseudopartition(parts).neg_word()), nxt)
                    if img:
                        _echelon_insert(pivots, dict(img._terms))
            residue = _echelon_insert(pivots, dict(gen._terms))
            proper = residue is not None
        levels.append(
            SeriesLevel(
                index=i,
                generator=gen,
                nonzero_ok=nonzero_ok,
                proper_inclusion=proper,
                quotient_whittaker_dim=quotient_dim if i < a else None,
            )
        )
    return CompositionSeries(ctx, xi, a, levels)


def composition_series_report(psi, xi, a: int, trunc: TruncationSpec | None = None) -> Report:
    series = composition_series(psi, xi, a, trunc)
    return Report(
        check="composition_series",
        params={"xi": series.xi, "a": a, "psi1": series.context.psi.psi1,
                "psi2": series.context.psi.psi2},
        passed=series.passed,
        witness={
            "levels": [
                {
                    "i": lv.index,
                    "generator": str(lv.generator),
                    "nonzero_ok": lv.nonzero_ok,
                    "proper_inclusion": lv.proper_inclusion,
                    "quotient_whittaker_dim": lv.quotient_whittaker_dim,
                }
                for lv in series.levels
            ],
            "elements": [str(lv.generator) for lv in series.levels],
        },
    )


# ---------------------------------------------------------------------------
# annihilator normal form

class AnnihilatorParts(NamedTuple):
    u0: UEAElement
    tail: list[tuple[int, UEAElement]]
    residual: UEAElement


def annihilator_normal_form(u: UEAElement, psi, p: Poly) -> AnnihilatorParts:
    """Rewrite u as u0 p(z) + sum_i u_i (d_i - psi_i) + residual with the
    residual in the span of z^t d_{-lam}, t < deg p.

    The rightmost positive mode d_j of each monomial is peeled off as
    (d_j - psi_j) + psi_j; what remains is supported on non-positive modes
    and its z-powers are divided by p.  By freeness of the basis, u
    annihilates the cyclic vector of the quotient by p exactly when the
    residual is zero.
    """
    psi = _as_psi(psi)
    if not isinstance(p, Poly):
        p = Poly(p)
    if p.degree < 1:
        raise DomainError("annihilator normal form requires deg p >= 1")
    p = p.monic()
    tail_items: dict[int, list] = {}
    lower_items: list = []
    work = list(u._terms.items())
    while work:
        (t, word), c = work.pop()
        cut = bisect_right(word, 0)
        if cut == len(word):
            lower_items.append(((t, word), c))
            continue
        j = word[-1]
        prefix = (t, word[:-1])
        tail_items.setdefault(j, []).append((prefix, c))
        pj = psi.value(j)
        if pj:
            work.append((prefix, c * pj))
    by_word: dict[tuple, dict[int, Fraction]] = {}
    for (t, word), c in merge_terms({}, lower_items).items():
        by_word.setdefault(word, {})[t] = c
    u0_terms: dict = {}
    residual_terms: dict = {}
    for word, powers in by_word.items():
        q, r = poly_divmod(Poly.from_powers(powers), p)
        u0_terms.update(poly_terms(q, word))
        residual_terms.update(poly_terms(r, word))
    tail = []
    for j in sorted(tail_items):
        terms = merge_terms({}, tail_items[j])
        if terms:
            tail.append((j, UEAElement._raw(terms)))
    return AnnihilatorParts(
        UEAElement._raw(u0_terms),
        tail,
        UEAElement._raw(residual_terms),
    )


# ---------------------------------------------------------------------------
# freeness of submodules of the universal module

def verify_submodule_free(psi, q: Poly, trunc: TruncationSpec) -> Report:
    """Check that the basis-shaped images z^t d_{-lam} (q(z) w) inside the
    universal module are linearly independent across the whole truncation
    window, so the submodule generated by q(z) w is free of the same shape."""
    psi = _as_psi(psi)
    if not isinstance(q, Poly):
        q = Poly(q)
    if q.is_zero():
        raise ValueError("verify_submodule_free requires q != 0")
    ctx = ModuleContext.universal(psi)
    target = ctx.poly_vector(q)
    pivots: dict = {}
    independent = 0
    keys = trunc.basis_keys(ctx)
    for (t, parts) in keys:
        img = act(UEAElement.monomial(t, Pseudopartition(parts).neg_word()), target)
        if _echelon_insert(pivots, dict(img._terms)) is not None:
            independent += 1
    passed = independent == len(keys)
    return Report(
        check="submodule_free",
        params={"q": str(q), "psi1": psi.psi1, "psi2": psi.psi2,
                "trunc": (trunc.max_degree, trunc.max_zero_count, trunc.max_z_power)},
        passed=passed,
        witness={
            "basis_count": len(keys),
            "independent_images": independent,
            "elements": [str(target)],
        },
    )

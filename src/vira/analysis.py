"""Exact linear algebra and the structure-level procedures.

Everything here reduces to exact rational computation: the Whittaker
solver builds its constraint system from exact dot-action images (the
truncation only restricts the search space, never the equations), and
the verifiers compute both sides of an identity and compare.  The solver
acts once per partition lam and mode n, on d_{-lam} w in the universal
module, and takes the column of each key z^t d_{-lam} w as z^t times
that image, reduced into the context.  That is exact: z is central, so
d_n - psi_n commutes with z^t, and the quotient by p(z) w is a module
map, so reducing commutes with the action.  There is one sparse
echelon, fraction-free over int rows, each row pivoting on its smallest
column and stored primitive with a positive pivot.  The solver builds
its rows as ints, every equation of a window times one scale S (see
``whittaker_solve``), which leaves the nullspace unchanged; callers
holding rationals scale each row to ints once, by the lcm of its
denominators (``_int_row``).  ``Fraction``s are made only when
``whittaker_solve`` and ``nullspace()`` return.  Orbits run the echelon
in the columns' own order.

The composition series spans each level by the z-shifts of one
polynomial.  Its generators (z - xi)^i w have only lam = () terms, and
the image of a window key z^t d_{-lam} under (z - xi)^{i+1} w is
z^t (z - xi)^{i+1} d_{-lam} w, supported on lam alone (z is central,
d_{-lam} w a basis vector).  The echelon combines a row only with the
pivot row at its smallest column, so rows of different lam never mix,
and a generator meets only the lam = () rows: z^t (z - xi)^{i+1} w,
t < a.  Those rows alone decide each proper inclusion, and the window
enters the series only through its central-quotient solve.  They are
multiplication in Q[z]/(p), p = (z - xi)^a, a quotient of a principal
ideal domain: every class has a representative of degree below a, so
the rows span {q g mod p : q in Q[z]} = ((g) + (p))/(p) = (d)/(p) with
g = (z - xi)^{i+1} and d = gcd(g, p).  (z - xi)^i has degree i < a, so
it is its own reduction, and it lies in (d)/(p) exactly when its
remainder by d is zero.  One exact gcd and one exact remainder over Q
decide each level, with no elimination and no (z - xi)-adic valuation
assumed.

The solver and ``nullspace()`` eliminate top-down, in
``_top_down_nullspace``: it numbers the unknowns from the last one down,
so that each row pivots on its highest unknown, and inserts the rows in
increasing order of their largest column in that numbering, which keeps
the fill small.  The nullspace found is then reduced, through the same
echelon, to the canonical basis: 1 at each vector's largest unknown, 0
at the other vectors' largest unknowns, in ascending order of it.  In
the top-down numbering a vector's smallest column is its largest
unknown, so the echelon's pivot is the canonical one, and
back-substitution clears the rest.  The canonical basis is unique, so no
elimination order changes it.  Why: for a nonzero v in the nullspace N
with largest nonzero unknown m, m is free in the echelon in the
unknowns' own order (were m a pivot, its pivot row r, with entries at
unknowns >= m and r_m = 1, would give r.v = v_m != 0), and the vector of
each free unknown f solved through that echelon is 1 at f and 0 past f.
So the largest unknowns of N are exactly those free unknowns F, a vector
of N that vanishes on F is 0, and N has one basis that is the identity
on F.

Results meant for display are wrapped in ``Report`` records that render
either as aligned text or as the stable JSON shape
``{"check", "params", "pass", "witness"}``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import kernel
from .exprparse import MAX_EXPONENT
from .partitions import MAX_PARTS, Pseudopartition, pseudopartition_parts
from .scalar import (
    NEG_INF,
    Poly,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    poly_linear_factorization,
    rational_text,
    to_rational,
)
from .virasoro import UEAElement, commutator, merge_terms, poly_terms
from .whittaker import ModuleContext, ModuleElement, act, dot_act

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# linear algebra: one fraction-free echelon over int rows

def _int_row(row: dict) -> dict:
    """A sparse rational row times the lcm of its denominators: the same
    equation, or the same span, as int entries."""
    m = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (m // c.denominator) for j, c in row.items()}


def _echelon_insert(pivots: dict, row: dict):
    """Reduce the int ``row`` against the pivot rows and install it.

    Columns may be any mutually comparable keys, entries are ints.
    ``pivots`` maps a pivot column to its row, stored primitive (content
    1) with a positive entry at the pivot.  Elimination is fraction-free:
    a row with entry f at a pivot column c whose pivot row has entry p
    there becomes (p row - f piv) / gcd(p, f), a nonzero multiple of
    what dividing by p would give, so no row changes its support or its
    span.  Returns the new pivot column, or None when the row reduces to
    zero.  The pivot of a row is always its smallest remaining column,
    which makes the resulting pivot-column set independent of insertion
    order.  The row is consumed.
    """
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            g = gcd(*row.values())
            if row[c] < 0:
                g = -g
            if g != 1:
                row = {j: v // g for j, v in row.items()}
            pivots[c] = row
            return c
        f = row.pop(c)
        g = gcd(piv[c], f)
        p, f = piv[c] // g, f // g
        if p != 1:
            for j in row:
                row[j] *= p
        for j, v in piv.items():
            if j == c:
                continue
            nv = row.get(j, 0) - f * v
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
    return None


def _nullspace_from_pivots(pivots: dict, ncols: int) -> list[dict]:
    """Nullspace basis as sparse int vectors: one per free column, positive
    there and solved through the pivot rows everywhere else.  Solving the
    pivot row at c for x_c would divide by its pivot entry; the vector is
    scaled up instead, so it stays a positive multiple of the vector that
    is 1 at the free column."""
    order = sorted(pivots, reverse=True)
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        x = {free_col: 1}
        for c in order:
            row = pivots[c]
            s = 0
            for j, v in row.items():
                if j != c:
                    xj = x.get(j)
                    if xj is not None:
                        s += v * xj
            if s:
                g = gcd(row[c], s)
                p = row[c] // g
                if p != 1:
                    for j in x:
                        x[j] *= p
                x[c] = -s // g
        basis.append(x)
    return basis


def _top_down_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Canonical nullspace basis (see the module docstring) of sparse int
    rows over the unknowns 0 .. ncols - 1.

    Each row is renumbered as it goes in, so that unknown j sits in column
    ncols - 1 - j.  It then pivots on its smallest column there, its
    highest unknown, and the rows go in by increasing largest column
    (decreasing smallest unknown).  The rows are not modified.  The
    nullspace vectors go through the same echelon, each pivoting on its
    largest unknown, last free column first: in ascending order, the
    vectors of one dense row each walk a chain through every vector
    installed before them.  Back-substitution from the largest column
    down then clears every pivot column from the other vectors, by the
    same cross-multiplication as the echelon.  All of that is over ints;
    each vector is divided by its entry at its largest unknown only here,
    as it is returned.  Returns sparse ``Fraction`` vectors over the
    unknowns, in ascending order of their largest unknown.
    """
    last = ncols - 1
    pivots: dict = {}
    for row in sorted((row for row in rows if row), key=min, reverse=True):
        _echelon_insert(pivots, {last - j: v for j, v in row.items()})
    basis: dict = {}
    for vec in reversed(_nullspace_from_pivots(pivots, ncols)):
        _echelon_insert(basis, vec)
    order = sorted(basis, reverse=True)
    for c in order:
        vec = basis[c]
        for j in [j for j in vec if j != c and j in basis]:
            piv = basis[j]
            f, p = vec.pop(j), piv[j]
            g = gcd(p, f)
            vec = {k: v * (p // g) for k, v in vec.items()}
            merge_terms(vec, ((k, -(f // g) * v) for k, v in piv.items() if k != j))
        basis[c] = vec
    return [{last - j: Fraction(v, basis[c][c]) for j, v in basis[c].items()} for c in order]


def nullspace(rows) -> list[tuple]:
    """Exact nullspace basis of a rational matrix, in canonical form
    (1 at each vector's last nonzero column and 0 at the others' last
    nonzero columns, in ascending order of that column).  Entries go
    through ``to_rational``, and each row is scaled to ints before it
    is eliminated; ragged rows raise ValueError."""
    sparse = []
    ncols = None
    for row in rows:
        row = [to_rational(v) for v in row]
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("matrix rows must have equal length")
        sparse.append(_int_row({j: v for j, v in enumerate(row) if v}))
    ncols = ncols or 0
    return [tuple(vec.get(j, _ZERO) for j in range(ncols))
            for vec in _top_down_nullspace(sparse, ncols)]


# ---------------------------------------------------------------------------
# truncation windows

#: Most unknowns a solver or span window may have (L:xi=0 at N=14, Z=3
#: has 2032); a larger window is refused before the key past the cap is
#: built.
MAX_UNKNOWNS = 5000


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
        """The window's basis keys (z-power, parts) in graded-lexicographic
        order of the parts: the sizes in turn, each partition over the
        stored z-powers.  A window of more than ``MAX_UNKNOWNS`` keys raises
        ValueError before the key past the cap is built."""
        zdim = ctx.z_dimension()
        zcount = self.max_z_power + 1 if zdim is None else zdim
        keys = []
        for size in range(self.max_degree + 1):
            for parts in pseudopartition_parts(size, self.max_zero_count):
                if len(keys) + zcount > MAX_UNKNOWNS:
                    raise ValueError(f"truncation window has more than {MAX_UNKNOWNS} unknowns")
                keys.extend((t, parts) for t in range(zcount))
        return keys


# ---------------------------------------------------------------------------
# reports

def jsonify(obj):
    """Convert engine values into JSON-serializable data.  Numbers go
    through ``rational_text``, so one too long to print is refused."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        rational_text(obj)
        return obj
    if isinstance(obj, Fraction):
        return rational_text(obj)
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
    from discarded terms.  Unknown i is the coefficient of the i-th basis
    key z^t d_{-lam} w.  Its column for mode n is z^t times the image
    d_n . d_{-lam} w in the universal module, reduced into the context,
    so each image is built once per partition and mode, not once per
    key.  That is exact: z is central, so the dot action commutes with
    multiplication by z^t, and the map from the universal module onto
    its quotient by p(z) w is a module map, so reducing the shifted
    universal image gives the image of the reduced key.

    The image is read from the kernel as the psi-free evaluation of the
    word (n, -lam reversed) at w, ``kernel.evaluated_word``, and the
    equations are built over ints.  With psi_i = p_i/q_i and R the lcm of
    the denominators of z^(deg p) reduced mod p (R = 1 in the universal
    module), every entry times S = 2 q1 q2 R is an int.  Why S is enough:
    the word has one positive letter, and brackets of non-positive modes
    stay non-positive, so each term of the evaluation has at most one
    trailing d_1 or d_2 (one factor psi_1 or psi_2) and at most one
    central factor z/2, which appears only where the positive letter
    meets its negative and uses it up; so a stored z-power t + dz is at
    most deg p and is reduced at most once, by z^(deg p).  The
    -psi_n d_{-lam} w term needs the same q_n.  Every equation is
    multiplied by the same constant S, which leaves the nullspace
    unchanged.

    The equations are solved top-down in the fraction-free echelon: each
    row pivots on its highest unknown, and the rows go in by their lowest
    unknown, from the last down.  The nullspace is reduced to the basis
    that is 1 at each vector's largest unknown and 0 at the others', and
    only then made of ``Fraction``s.  Those largest unknowns are the free
    unknowns of the echelon in the keys' own order, and a nullspace
    vector that vanishes at all of them is 0, so that basis is unique
    and no elimination order changes it (see the module docstring).
    """
    keys = trunc.basis_keys(ctx)
    (p1, q1), (p2, q2) = ctx.psi.psi1.as_integer_ratio(), ctx.psi.psi2.as_integer_ratio()
    # S / R times psi1^e1 psi2^e2, then over 2^dz for each (dz, e1, e2) a
    # term can carry; any other raises KeyError rather than round an entry
    psi_ints = {(0, 0): 2 * q1 * q2, (1, 0): 2 * p1 * q2, (0, 1): 2 * q1 * p2}
    scale = {(dz,) + e: v >> dz for e, v in psi_ints.items() for dz in (0, 1)}
    minus = {1: -psi_ints[1, 0], 2: -psi_ints[0, 1]}
    # the z-power k as ((stored power, R times its coefficient), ...)
    deg = ctx.z_dimension()
    if deg is None:
        reps = [((k, 1),) for k in range(keys[-1][0] + 2)]
    else:
        top = ctx._z_rep(deg)
        r = lcm(*(c.denominator for _, c in top))
        reps = [((k, r),) if k < deg else
                tuple((power, c.numerator * (r // c.denominator)) for power, c in top)
                for k in range(deg + 1)]
    equations: dict = {}
    last = images = None
    for i, (t, parts) in enumerate(keys):
        if parts != last:  # the keys are partition-major
            neg = tuple(-k for k in reversed(parts))
            images = []
            for n in (1, 2):
                image = merge_terms({}, (((dz, lam), num * scale[dz, e1, e2]) for dz, lam, e1, e2, num
                                         in kernel.evaluated_word((n,) + neg)))
                images.append((n, merge_terms(image, [((0, parts), minus[n])])))
            last = parts
        for n, image in images:
            column = merge_terms({}, (((n, power, lam), c * zc) for (dz, lam), c in image.items()
                                      for power, zc in reps[t + dz]))
            for key, c in column.items():
                equations.setdefault(key, {})[i] = c
    return [ModuleElement._raw(ctx, {keys[i]: c for i, c in vec.items()})
            for vec in _top_down_nullspace(list(equations.values()), len(keys))]


# ---------------------------------------------------------------------------
# identity verifiers

def verify_leading_term(k: int, a: int, psi) -> Report:
    """Check the commutator of d_{k+2} against the a-th power of d_{-k}
    applied to w: the coefficient of d_{-k}^{a-1} w is -a(2k+2) psi_2 and
    the remainder is small (degree below k(a-1) for k > 0, d_0-power
    below a-1 for k = 0).  d_{-k}^a is a word of a letters, so a is
    capped at ``MAX_PARTS``, as ``--lam`` is."""
    if k < 0 or a < 1:
        raise ValueError("verify_leading_term requires k >= 0 and a >= 1")
    if a > MAX_PARTS:
        raise ValueError(f"verify_leading_term takes a <= {MAX_PARTS}, not {a}")
    ctx = ModuleContext.universal(psi)
    psi = ctx.psi
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
    ctx = ModuleContext.universal(psi)
    psi = ctx.psi
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
    j in {i, i+1}, and that it vanishes outright once n > |lam| + 2.
    The z-power i is capped at ``MAX_EXPONENT``, as ``z^i`` is in the
    expression language."""
    if n < 1 or i < 0:
        raise ValueError("verify_dot_span requires n >= 1 and i >= 0")
    if i > MAX_EXPONENT:
        raise ValueError(f"verify_dot_span takes i <= {MAX_EXPONENT}, not {i}")
    if not isinstance(lam, Pseudopartition):
        lam = Pseudopartition(lam)
    ctx = ModuleContext.universal(psi)
    psi = ctx.psi
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

#: Most vectors an orbit's spanning set may hold (``d-1^15*w`` needs
#: 136); the set is checked as each vector is found, so a larger orbit
#: stops early.
MAX_ORBIT = 150


def dot_orbit_dimension(v: ModuleElement) -> tuple[int, list[ModuleElement]]:
    """Exact dimension (and a spanning set) of the closure of v under the
    dot action of the positive modes.

    Modes above maxdeg + 2 act as zero on every term, so the closure uses
    only finitely many modes per element and stabilizes at finite
    dimension.  Each image goes into the echelon as soon as it is
    computed, and only an independent one is kept and acted on in turn,
    breadth first.  A spanning set that grows past ``MAX_ORBIT`` vectors
    raises ValueError.
    """
    if v.is_zero():
        raise ValueError("dot_orbit_dimension requires a nonzero element")
    pivots: dict = {}
    spanning = [v]
    _echelon_insert(pivots, _int_row(v._terms))
    for cur in spanning:  # grows as the walk goes
        for n in range(1, int(cur.maxdeg()) + 3):
            img = dot_act(n, cur)
            if _echelon_insert(pivots, _int_row(img._terms)) is None:
                continue
            spanning.append(img)
            if len(spanning) > MAX_ORBIT:
                raise ValueError(f"orbit spans more than {MAX_ORBIT} vectors")
    return len(spanning), spanning


# ---------------------------------------------------------------------------
# decomposition by central support

def decompose(psi, p: Poly) -> Report:
    """Split the quotient by p(z) into components along the roots of p.

    For p = prod (z - xi_i)^{a_i} the component generators are
    w_j = p_j(z) w with p_j the product of the other factors; the Bezout
    certificate q_j (inverse of p_j modulo its own factor) satisfies
    sum q_j p_j = 1 exactly, which drives the projection identities
    checked here.  The composition length of component j is a_j.
    """
    ctx = ModuleContext.quotient(psi, p)
    components = []  # (xi, a_j, p_j, q_j, w_j)
    for root, mult in poly_linear_factorization(ctx.p):
        f = Poly.z_minus(root) ** mult
        p_j, rem = poly_divmod(ctx.p, f)
        assert rem.is_zero()
        _, s, _ = poly_ext_gcd(p_j, f)
        _, q_j = poly_divmod(s, f)
        components.append((root, mult, p_j, q_j, ctx.poly_vector(p_j)))
    identity_ok = sum((q_j * p_j for _, _, p_j, q_j, _ in components), Poly.zero()) == Poly.one()
    # p_j annihilates w_i for i != j, and q_i p_i fixes w_i
    cross_ok = all(
        act(UEAElement.from_poly(p_j), w_i).is_zero()
        for i, (*_, w_i) in enumerate(components)
        for j, (_, _, p_j, _, _) in enumerate(components)
        if i != j
    )
    projection_ok = all(
        act(UEAElement.from_poly(q_j * p_j), w_j) == w_j
        for _, _, p_j, q_j, w_j in components
    )
    rows = [
        {"xi": root, "multiplicity": mult, "p_j": str(p_j), "q_j": str(q_j), "w_j": str(w_j)}
        for root, mult, p_j, q_j, w_j in components
    ]
    return Report(
        check="decompose",
        params={"p": str(ctx.p), "psi1": ctx.psi.psi1, "psi2": ctx.psi.psi2},
        passed=identity_ok and cross_ok and projection_ok,
        witness={
            "components": rows,
            "bezout_identity": identity_ok,
            "cross_annihilation": cross_ok,
            "projection_idempotence": projection_ok,
            "elements": [row["w_j"] for row in rows],
        },
    )


# ---------------------------------------------------------------------------
# composition series

#: Most digits a x (digits of xi's numerator + digits of its denominator)
#: may reach: Python's int-to-text limit, so no coefficient
#: C(a, i) xi^(a - i) of (z - xi)^a is too long to print.
MAX_SERIES_DIGITS = 4300

def composition_series(psi, xi, a: int, trunc: TruncationSpec | None = None) -> Report:
    """The chain generated by (z - xi)^i w, i = 0..a, in the quotient by
    (z - xi)^a.

    Verifies that each generator below the top is nonzero and lies outside
    the span of the next level, that the top generator is zero, and that
    each successive quotient has a one-dimensional space of Whittaker
    vectors.  Each successive quotient is canonically the central quotient
    at xi, which is where the solver runs; that solve is the only place
    the window enters.

    With g_j = (z - xi)^j and p = g_a, gen_i = g_i w meets only the
    lam = () rows of the next level, z^t g_{i+1} mod p, t < a (the block
    argument is in the module docstring).  Those rows are multiplication
    in Q[z]/(p).  Every class there has a representative of degree below
    a = deg p, so they span {q g_{i+1} mod p : q in Q[z]} =
    ((g_{i+1}) + (p))/(p) = (d)/(p), with d = gcd(g_{i+1}, p).  g_i has
    degree i < a, so it is its own reduction, and it lies in (d)/(p)
    exactly when d divides it: the inclusion is proper exactly when
    g_i mod d is nonzero.  The gcd and the remainder are exact over Q,
    and the verdict is an exact equality; no (z - xi)-adic valuation is
    assumed.  That is O(a^3) work whatever the window, and a x a over
    ``MAX_UNKNOWNS`` (a > 70) or a x (digits of xi) over
    ``MAX_SERIES_DIGITS`` is refused before any polynomial is built.
    """
    if a < 1:
        raise ValueError("composition_series requires a >= 1")
    psi = ModuleContext.universal(psi).psi  # psi errors come before xi errors
    xi = to_rational(xi)
    if a * a > MAX_UNKNOWNS:
        raise ValueError(f"composition series has a x a = {a} x {a}, "
                         f"more than {MAX_UNKNOWNS}")
    num, den = abs(xi.numerator), xi.denominator
    if (max(num, den) >= 10 ** MAX_SERIES_DIGITS
            or a * (len(str(num)) + len(str(den))) > MAX_SERIES_DIGITS):
        raise ValueError(f"composition series has a x (digits of xi) more than "
                         f"{MAX_SERIES_DIGITS}")
    g = [Poly.z_minus(xi) ** i for i in range(a + 1)]
    p = g[a]
    ctx = ModuleContext.quotient(psi, p)
    quotient_dim = len(whittaker_solve(ModuleContext.central_quotient(psi, xi),
                                       trunc or TruncationSpec()))
    levels = []
    for i, g_i in enumerate(g):
        gen = ctx.poly_vector(g_i)
        if i == a:
            nonzero_ok, proper, dim = gen.is_zero(), True, None
        else:
            proper = bool(g_i % poly_gcd(g[i + 1], p))
            nonzero_ok, dim = not gen.is_zero(), quotient_dim
        levels.append({"i": i, "generator": str(gen), "nonzero_ok": nonzero_ok,
                       "proper_inclusion": proper, "quotient_whittaker_dim": dim})
    return Report(
        check="composition_series",
        params={"xi": xi, "a": a, "psi1": psi.psi1, "psi2": psi.psi2},
        passed=all(lv["nonzero_ok"] and lv["proper_inclusion"]
                   and lv["quotient_whittaker_dim"] in (None, 1) for lv in levels),
        witness={"levels": levels, "elements": [lv["generator"] for lv in levels]},
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
    ctx = ModuleContext.quotient(psi, p)
    psi, p = ctx.psi, ctx.p
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

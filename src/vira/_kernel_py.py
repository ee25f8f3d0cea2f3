"""Straightening and module-action kernel over Python ints.

Callers import it through ``vira.kernel``.

Data model (plain builtins, shared with the element layer):

* a UEA term map is ``{(z_power, word): Fraction}`` where ``word`` is a
  tuple of generator indices, non-decreasing in normal form;
* a module term map is ``{(z_power, parts): Fraction}`` where ``parts``
  is the non-decreasing tuple of non-negative integers lam such that the
  basis vector is z^z_power d_{-lam} w.

Integer coefficients.  The bracket is d_a d_b = d_b d_a + (b - a) d_{a+b}
[+ (a^3 - a)/12 z when b = -a].  Inside the kernel the central element
is c = z/2, and since 6 divides a^3 - a every coefficient is an integer:
the central part is ((a^3 - a)/6) c.  Straightening works on int normal
forms ``{(c_power, word): n}``, each term standing for
n / 2**c_power z^c_power word; ``straighten_word`` returns them.

Insertion.  ``_insertion(a, w)`` builds the normal form of d_a w for a
normal word w = (b, *rest) with a > b from
d_a d_b rest = d_b (d_a rest) + (b - a) d_{a+b} rest [+ k c rest].
A word is straightened by inserting its letters, from the right, into its
longest normal suffix.  Insertions are generators that yield the
insertions they need and are driven on an explicit stack by ``_drive``,
so no input reaches the recursion limit; every request is strictly
shorter than the insertion that makes it, so the stack never cycles.

Head stripping.  An insertion d_a w is memoized on the word
``(a,) + w[:i]``, where i is the first index with w[i] >= M_i = a + (sum
of the positive letters of w[:i]); the tail w[i:] is appended to every
result word.  This is exact: brackets add indices, so every letter of
d_a w[:i] in normal form is the sum of a disjoint subset of {a} and
w[:i], which is at most M_i (when a <= 0, w[:i] holds only letters below
a), and M_i <= w[i] <= every tail letter, so nothing ever moves into the
tail.

Memos: ``_normal_forms`` maps a word to its int normal form, and the
insertion d_a head is stored under the word ``(a,) + head``: it is that
word's normal form, so a straightened word and an insertion share one
entry.  ``_evaluated_cache`` maps each word the action straightens to
its normal form evaluated at w, free of psi.  Returned dicts are shared
and must not be mutated by callers.

The action is the product evaluated at w: the universal module is
U(Vir) tensored over the positive half with the character psi, so
u . d_{-lam} w is the normal form of u d_{-lam} with its trailing
positive modes replaced by their psi values.  ``act_terms`` joins each
word of u to each lifted d_{-lam}, takes the joined word's evaluation
from ``evaluated_word``, whose entries carry the counts (e1, e2) of
trailing d_1 and d_2 in place of psi, and accumulates int numerators.
psi is folded in once per output key from those (e1, e2), the only
place psi enters the kernel.  The Whittaker solver reads the same
evaluations through ``evaluated_word`` and folds psi in itself.
"""

from bisect import bisect_right
from fractions import Fraction
from math import lcm

IMPL = "python"

_normal_forms = {}
_evaluated_cache = {}


def cache_clear():
    _normal_forms.clear()
    _evaluated_cache.clear()


def cache_size():
    """Number of memoized words: normal forms (words straightened and
    insertions) plus the words the action evaluated at w."""
    return len(_normal_forms) + len(_evaluated_cache)


def central_coefficient(k):
    """Coefficient of z in the bracket of d_k with d_{-k}: (k^3 - k)/12."""
    return Fraction(k * k * k - k, 12)


def _times(x, terms, out):
    """Add d_x times each normal word of ``terms`` into ``out``, yielding
    ``(x, word)`` for each insertion that is not a plain prepend."""
    for (t, u), n in terms.items():
        if not u or x <= u[0]:
            key = (t, (x,) + u)
            out[key] = out.get(key, 0) + n
        else:
            for (s, v), m in (yield x, u).items():
                key = (t + s, v)
                out[key] = out.get(key, 0) + n * m


def _insertion(a, w):
    """Normal form of d_a w for a normal word w with a > w[0]."""
    b, rest = w[0], w[1:]
    out = {}
    yield from _times(b, (yield a, rest), out)
    scale = b - a
    for key, n in (yield a + b, rest).items():
        out[key] = out.get(key, 0) + scale * n
    if a + b == 0:
        k = (a * a * a - a) // 6
        if k:
            key = (1, rest)
            out[key] = out.get(key, 0) + k
    return {key: n for key, n in out.items() if n}


def _straightening(word):
    """Normal form of d_{word[0]} ... d_{word[-1]}: its letters are
    inserted, from the right, into its longest normal suffix."""
    j = max(len(word) - 1, 0)
    while j and word[j - 1] <= word[j]:
        j -= 1
    terms = {(0, word[j:]): 1}
    for x in reversed(word[:j]):
        out = {}
        yield from _times(x, terms, out)
        terms = {key: n for key, n in out.items() if n}
    return terms


def _drive(root):
    """Run a straightening or insertion generator on an explicit stack.

    Each request ``(a, w)`` is split into head and tail, answered from
    ``_normal_forms`` under the word ``(a,) + head`` or by a new insertion
    frame, and sent back with the tail appended to every word.
    """
    stack = [(None, (), root)]
    value = None
    while True:
        key, tail, frame = stack[-1]
        try:
            a, w = frame.send(value)
        except StopIteration as done:
            value = done.value
            stack.pop()
            if key is None:
                return value
            _normal_forms[key] = value
        else:
            bound = a
            i = 0
            for x in w:
                if x >= bound:
                    break
                if x > 0:
                    bound += x
                i += 1
            if not i:
                value = {(0, (a,) + w): 1}
                continue
            key, tail = (a,) + w[:i], w[i:]
            value = _normal_forms.get(key)
            if value is None:
                stack.append((key, tail, _insertion(a, w[:i])))
                continue
        if tail:
            value = {(t, u + tail): n for (t, u), n in value.items()}


def straighten_word(word):
    """Int normal form ``{(c_power, sorted_word): n}`` of the product
    d_{word[0]} ... d_{word[-1]}, each term standing for
    n / 2**c_power z^c_power sorted_word.  The dict is the memo's own."""
    terms = _normal_forms.get(word)
    if terms is None:
        terms = _normal_forms[word] = _drive(_straightening(word))
    return terms


def multiply_terms(a, b):
    """Product of two UEA term maps (normal words), straightened into
    normal form.

    Each operand is scaled to the lcm of its denominators; a key of
    z-power T accumulates an int numerator over ``da * db * 2**T`` and
    becomes one ``Fraction`` at the end.
    """
    da = lcm(*(c.denominator for c in a.values()))
    db = lcm(*(c.denominator for c in b.values()))
    b_ints = [(tb, wb, c.numerator * (db // c.denominator)) for (tb, wb), c in b.items()]
    out = {}
    for (ta, wa), ca in a.items():
        na = ca.numerator * (da // ca.denominator)
        for tb, wb, nb in b_ints:
            n0 = na * nb
            t0 = ta + tb
            if not wa or not wb or wa[-1] <= wb[0]:
                # two normal words whose concatenation is already normal
                key = (t0, wa + wb)
                out[key] = out.get(key, 0) + (n0 << t0)
                continue
            for (dz, w), n in straighten_word(wa + wb).items():
                # n / 2**dz over da * db * 2**(t0 + dz)
                key = (t0 + dz, w)
                out[key] = out.get(key, 0) + ((n0 * n) << t0)
    d = da * db
    return {(t, w): Fraction(n, d << t) for (t, w), n in out.items() if n}


def evaluated_word(word):
    """The product d_{word[0]} ... d_{word[-1]} applied to w, free of psi:
    a tuple of ``(dz, parts, e1, e2, n)``, each standing for
    n / 2**dz z^dz psi1^e1 psi2^e2 d_{-parts} w, where e1 and e2 count
    the trailing d_1 and d_2 of a normal word of the product.  A normal
    word with a trailing d_n, n >= 3, vanishes and is dropped.  The word
    is straightened and evaluated once, into ``_evaluated_cache``; the
    tuple is the memo's own."""
    terms = _evaluated_cache.get(word)
    if terms is None:
        out = []
        for (dz, w), n in _drive(_straightening(word)).items():
            cut = bisect_right(w, 0)
            ones = bisect_right(w, 1, cut)
            twos = bisect_right(w, 2, ones)
            if twos == len(w):
                out.append((dz, tuple(-i for i in reversed(w[:cut])), ones - cut, twos - ones, n))
        terms = _evaluated_cache[word] = tuple(out)
    return terms


def act_terms(u_terms, v_terms, psi1, psi2):
    """Action of a UEA term map on a module term map, in the universal
    module (no z-power reduction).

    Each basis vector z^t d_{-lam} w is lifted to the word d_{-lam}; each
    joined word is straightened and evaluated at w once, into
    ``_evaluated_cache``, which holds no psi and so serves every psi and
    context.  Int numerators accumulate over ``da * db * 2**t`` keyed by
    ``(t, parts, e1, e2)``, and psi is folded in once per key: with E1, E2
    the largest exponents present, psi_i = p_i / q_i contributes
    p_i**e_i * q_i**(E_i - e_i) over a shared q_i**E_i.  That makes one
    ``Fraction`` per output key.
    """
    da = lcm(*(c.denominator for c in u_terms.values()))
    db = lcm(*(c.denominator for c in v_terms.values()))
    lifted = [
        (t, tuple(-k for k in reversed(lam)), lam, c.numerator * (db // c.denominator))
        for (t, lam), c in v_terms.items()
    ]
    out = {}
    for (ta, wa), ca in u_terms.items():
        na = ca.numerator * (da // ca.denominator)
        neg = tuple(-i for i in reversed(wa))
        for tb, wb, lam, nb in lifted:
            n0 = na * nb
            t0 = ta + tb
            if wb and (not wa or wa[-1] <= wb[0]):
                # d_wa d_{-lam} is already normal, with no positive letter
                key = (t0, lam + neg, 0, 0)
                out[key] = out.get(key, 0) + (n0 << t0)
                continue
            terms = evaluated_word(wa + wb)
            for dz, parts, e1, e2, n in terms:
                # n / 2**dz over da * db * 2**(t0 + dz)
                key = (t0 + dz, parts, e1, e2)
                out[key] = out.get(key, 0) + ((n0 * n) << t0)
    top1 = max((e1 for _, _, e1, _ in out), default=0)
    top2 = max((e2 for _, _, _, e2 in out), default=0)
    p1, q1 = psi1.numerator, psi1.denominator
    p2, q2 = psi2.numerator, psi2.denominator
    scale1 = [p1 ** e * q1 ** (top1 - e) for e in range(top1 + 1)]
    scale2 = [p2 ** e * q2 ** (top2 - e) for e in range(top2 + 1)]
    folded = {}
    for (t, parts, e1, e2), n in out.items():
        if n:
            key = (t, parts)
            folded[key] = folded.get(key, 0) + n * scale1[e1] * scale2[e2]
    d = da * db * q1 ** top1 * q2 ** top2
    return {(t, parts): Fraction(n, d << t) for (t, parts), n in folded.items() if n}

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

Run words.  Inside the kernel a word is kept as its runs: the tuple
``(x_1, m_1, x_2, m_2, ...)`` stands for d_{x_1}^{m_1} d_{x_2}^{m_2} ...
with every count positive and adjacent letters distinct; a normal word
has strictly increasing letters.  A PBW monomial is a multiset of modes,
so a run d_b^m costs two slots in every memo key, join and hash, not m.
Letter tuples appear only where ``straighten_word`` and
``evaluated_word`` take words in and hand results out.

Insertion.  ``_insertion`` builds the normal form of d_a w for a normal
word w = d_b w' with a > b (w' is w with one copy of its first run's
letter removed) from d_a d_b w' = d_b (d_a w') + (b - a) d_{a+b} w'
[+ k c w'].  A word is straightened by inserting its letters, from the
right, into its longest normal suffix.  Insertions are generators that
yield the memo key of each insertion they need and do not find in the
memo, and are driven on an explicit stack by ``_drive``, so no input
reaches the recursion limit; every request is strictly shorter than the
insertion that makes it, so the stack never cycles.

Head stripping.  An insertion d_a w is memoized on the word
``(a,) + w[:i]``, where i is the first index with w[i] >= M_i = a + (sum
of the positive letters of w[:i]); the tail w[i:] is joined to every
result word.  This is exact: brackets add indices, so every letter of
d_a w[:i] in normal form is the sum of a disjoint subset of {a} and
w[:i], which is at most M_i (when a <= 0, w[:i] holds only letters below
a), and M_i <= w[i] <= every tail letter, so nothing ever moves into the
tail.  On run words two facts keep this exact:

* the head ends on a run boundary.  M only grows along the word, so if
  the first copy of a run lies below it, every copy does; the scan steps
  a run at a time, and the memo key ``(a, 1) + head`` is the same word
  as the letter-by-letter scan gives;
* joining a head result to the tail merges at most one run.  Every
  letter of a head result is at most M_i <= the first tail letter, so
  only a last run equal to that letter merges with it.

The memo is looked up where a request is made, and a head result is
added straight into the requester's accumulator with the tail joined
on, so the driver runs only on a miss.

Memos: ``_normal_forms`` maps a run word to its int normal form over
run words, and the insertion d_a head is stored under the run word of
``(a,) + head``: it is that word's normal form, so a straightened word
and an insertion share one entry.  ``_evaluated_cache`` maps each run
word the action straightens to its normal form evaluated at w, free of
psi.  ``_parts_cache`` maps each non-positive prefix of an evaluated
normal word to its parts tuple, so evaluated terms with one prefix share
one tuple.  Returned dicts and tuples must not be mutated by callers.

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

from fractions import Fraction
from math import lcm

IMPL = "python"

_normal_forms = {}
_evaluated_cache = {}
_parts_cache = {}


def cache_clear():
    _normal_forms.clear()
    _evaluated_cache.clear()
    _parts_cache.clear()


def cache_size():
    """Number of memoized words: normal forms (words straightened and
    insertions) plus the words the action evaluated at w."""
    return len(_normal_forms) + len(_evaluated_cache)


def central_coefficient(k):
    """Coefficient of z in the bracket of d_k with d_{-k}: (k^3 - k)/12."""
    return Fraction(k * k * k - k, 12)


def _runs(word):
    """The run word of a letter word."""
    out = []
    last = None
    for x in word:
        if x == last:
            out[-1] += 1
        else:
            out += (x, 1)
            last = x
    return tuple(out)


def _letters(u):
    """The letter word of a run word."""
    out = []
    for i in range(0, len(u), 2):
        out += [u[i]] * u[i + 1]
    return tuple(out)


def _head(x, u):
    """Memo key ``(x, 1) + head`` of the insertion of d_x into the normal
    run word u, x > u[0], and the length of the head."""
    size = len(u)
    if u[-2] < x:
        # every letter lies below x <= M: the whole word is the head
        return (x, 1) + u, size
    bound = x
    i = 0
    while i < size:
        y = u[i]
        if y >= bound:
            break
        if y > 0:
            bound += y * u[i + 1]
        i += 2
    return (x, 1) + u[:i], i


def _add(out, terms, t, n, tail):
    """Add n c^t times the normal form ``terms`` with the run word ``tail``
    joined to each word into ``out``."""
    if not tail:
        for (s, v), m in terms.items():
            key = (t + s, v)
            out[key] = out.get(key, 0) + n * m
        return
    y, count, rest = tail[0], tail[1], tail[2:]
    for (s, v), m in terms.items():
        if v and v[-2] == y:
            key = (t + s, v[:-1] + (v[-1] + count,) + rest)
        else:
            key = (t + s, v + tail)
        out[key] = out.get(key, 0) + n * m


def _times(x, terms, out):
    """Add d_x times the normal form ``terms`` into ``out``, yielding the
    key of each insertion that misses the memo."""
    for (t, u), n in terms.items():
        if not u or x < u[0]:
            key = (t, (x, 1) + u)
        elif x == u[0]:
            key = (t, (x, u[1] + 1) + u[2:])
        else:
            head, i = _head(x, u)
            value = _normal_forms.get(head)
            if value is None:
                value = yield head
            _add(out, value, t, n, u[i:])
            continue
        out[key] = out.get(key, 0) + n


def _insertion(key):
    """Normal form of the run word ``key`` = (a, 1) + w, w normal with
    a > w[0]."""
    a, b, m = key[0], key[2], key[3]
    rest = (b, m - 1) + key[4:] if m > 1 else key[4:]
    # d_b (d_a rest); d_a rest is the memo's own entry when its head is
    # all of rest
    if rest and a > rest[0]:
        head, i = _head(a, rest)
        inner = _normal_forms.get(head)
        if inner is None:
            inner = yield head
        if i < len(rest):
            joined = {}
            _add(joined, inner, 0, 1, rest[i:])
            inner = joined
    else:
        inner = {}
        yield from _times(a, {(0, rest): 1}, inner)
    out = {}
    yield from _times(b, inner, out)
    # (b - a) d_{a+b} rest
    c = a + b
    yield from _times(c, {(0, rest): b - a}, out)
    if c == 0:
        k = (a * a * a - a) // 6
        if k:
            key = (1, rest)
            out[key] = out.get(key, 0) + k
    return {key: n for key, n in out.items() if n}


def _straightening(word):
    """Normal form of the run word ``word``: its letters are inserted,
    from the right, into its longest normal suffix."""
    j = max(len(word) - 2, 0)
    while j and word[j - 2] < word[j]:
        j -= 2
    terms = {(0, word[j:]): 1}
    for i in range(j, 0, -2):
        x = word[i - 2]
        for _ in range(word[i - 1]):
            out = {}
            yield from _times(x, terms, out)
            terms = {key: n for key, n in out.items() if n}
    return terms


def _drive(root):
    """Run a straightening generator on an explicit stack: each key it
    yields gets a new insertion frame, whose result is memoized under
    the key and sent back."""
    stack = [(None, root)]
    value = None
    while True:
        key, frame = stack[-1]
        try:
            request = frame.send(value)
        except StopIteration as done:
            value = done.value
            stack.pop()
            if key is None:
                return value
            _normal_forms[key] = value
        else:
            stack.append((request, _insertion(request)))
            value = None


def straighten_word(word):
    """Int normal form ``{(c_power, sorted_word): n}`` of the product
    d_{word[0]} ... d_{word[-1]}, each term standing for
    n / 2**c_power z^c_power sorted_word."""
    runs = _runs(word)
    terms = _normal_forms.get(runs)
    if terms is None:
        terms = _normal_forms[runs] = _drive(_straightening(runs))
    return {(t, _letters(u)): n for (t, u), n in terms.items()}


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


def _evaluated(word):
    """``evaluated_word`` of the run word ``word``."""
    terms = _evaluated_cache.get(word)
    if terms is None:
        out = []
        for (dz, v), n in _drive(_straightening(word)).items():
            # strip the trailing runs of d_2 and d_1; letters increase, so
            # what is left is non-positive unless its last letter is not
            cut = len(v)
            e1 = e2 = 0
            if cut and v[cut - 2] == 2:
                e2 = v[cut - 1]
                cut -= 2
            if cut and v[cut - 2] == 1:
                e1 = v[cut - 1]
                cut -= 2
            if cut and v[cut - 2] > 0:
                continue
            prefix = v[:cut]
            parts = _parts_cache.get(prefix)
            if parts is None:
                parts = _parts_cache[prefix] = tuple(-x for x in reversed(_letters(prefix)))
            out.append((dz, parts, e1, e2, n))
        terms = _evaluated_cache[word] = tuple(out)
    return terms


def evaluated_word(word):
    """The product d_{word[0]} ... d_{word[-1]} applied to w, free of psi:
    a tuple of ``(dz, parts, e1, e2, n)``, each standing for
    n / 2**dz z^dz psi1^e1 psi2^e2 d_{-parts} w, where e1 and e2 count
    the trailing d_1 and d_2 of a normal word of the product.  A normal
    word with a trailing d_n, n >= 3, vanishes and is dropped.  The word
    is straightened and evaluated once, into ``_evaluated_cache``; the
    tuple is the memo's own."""
    return _evaluated(_runs(word))


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
    lifted = []
    for (t, lam), c in v_terms.items():
        wb = tuple(-k for k in reversed(lam))
        lifted.append((t, wb, _runs(wb), lam, c.numerator * (db // c.denominator)))
    out = {}
    for (ta, wa), ca in u_terms.items():
        na = ca.numerator * (da // ca.denominator)
        neg = tuple(-i for i in reversed(wa))
        ra = _runs(wa)
        for tb, wb, rb, lam, nb in lifted:
            n0 = na * nb
            t0 = ta + tb
            if wb and (not wa or wa[-1] <= wb[0]):
                # d_wa d_{-lam} is already normal, with no positive letter
                key = (t0, lam + neg, 0, 0)
                out[key] = out.get(key, 0) + (n0 << t0)
                continue
            # wa[-1] > wb[0] here, so the two run words join without a merge
            word = ra + rb
            terms = _evaluated_cache.get(word)
            if terms is None:
                terms = _evaluated(word)
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

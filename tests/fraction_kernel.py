"""Reference straightening kernel over ``Fraction``: the test oracle.

This is the engine's former kernel, kept unchanged so the integer
insertion kernel in ``vira._kernel_py`` can be checked against it.  It
recurses once per rewrite, so keep its inputs short.

Data model (plain builtins, shared with the element layer):

* a UEA term map is ``{(z_power, word): Fraction}`` where ``word`` is a
  tuple of generator indices, non-decreasing in normal form;
* a module term map is ``{(z_power, parts): Fraction}`` where ``parts``
  is the non-decreasing tuple of non-negative integers lam such that the
  basis vector is z^z_power d_{-lam} w.

Straightening rewrites the leftmost out-of-order adjacent pair
d_a d_b (a > b) as d_b d_a + (b - a) d_{a+b} [+ (a^3 - a)/12 z when
b = -a] and recurses; it terminates because each rewrite either shortens
the word or removes one inversion.  Results are memoized per word; the
returned dicts are shared and must not be mutated by callers.

The action is the product evaluated at w: the universal module is
U(Vir) tensored over the positive half with the character psi, so
u . d_{-lam} w is the normal form of u d_{-lam} with its trailing
positive modes replaced by their psi values.  ``act_terms`` is therefore
``multiply_terms`` followed by that evaluation, and the evaluation is the
only place psi enters the kernel.
"""

from bisect import bisect_right
from fractions import Fraction

_ONE = Fraction(1)

_straighten_cache = {}


def cache_clear():
    _straighten_cache.clear()


def cache_size():
    return len(_straighten_cache)


def central_coefficient(k):
    """Coefficient of z in the bracket of d_k with d_{-k}: (k^3 - k)/12."""
    return Fraction(k * k * k - k, 12)


def straighten_word(word):
    """Normal form of the product d_{word[0]} ... d_{word[-1]}.

    Returns ``{(extra_z_power, sorted_word): coefficient}``.
    """
    cached = _straighten_cache.get(word)
    if cached is not None:
        return cached
    inv = -1
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            inv = i
            break
    if inv < 0:
        result = {(0, word): _ONE}
        _straighten_cache[word] = result
        return result
    a = word[inv]
    b = word[inv + 1]
    head = word[:inv]
    tail = word[inv + 2:]
    acc = {}
    for key, c in straighten_word(head + (b, a) + tail).items():
        acc[key] = acc.get(key, 0) + c
    scale = Fraction(b - a)
    for key, c in straighten_word(head + (a + b,) + tail).items():
        acc[key] = acc.get(key, 0) + scale * c
    if b == -a:
        cc = central_coefficient(a)
        if cc:
            for (dz, w), c in straighten_word(head + tail).items():
                key = (dz + 1, w)
                acc[key] = acc.get(key, 0) + cc * c
    result = {key: c for key, c in acc.items() if c}
    _straighten_cache[word] = result
    return result


def multiply_terms(a, b):
    """Product of two UEA term maps (normal words), straightened into
    normal form."""
    out = {}
    for (ta, wa), ca in a.items():
        for (tb, wb), cb in b.items():
            c0 = ca * cb
            t0 = ta + tb
            if not wa or not wb or wa[-1] <= wb[0]:
                # two normal words whose concatenation is already normal
                key = (t0, wa + wb)
                out[key] = out.get(key, 0) + c0
                continue
            for (dz, w), c in straighten_word(wa + wb).items():
                key = (t0 + dz, w)
                cur = out.get(key)
                out[key] = c0 * c if cur is None else cur + c0 * c
    return {key: c for key, c in out.items() if c}


def act_terms(u_terms, v_terms, psi1, psi2):
    """Action of a UEA term map on a module term map, in the universal
    module (no z-power reduction).

    Each basis vector z^t d_{-lam} w is lifted to the word d_{-lam}, the
    product is straightened once, and every merged normal-form word is
    evaluated at w: its trailing positive modes act through psi,
    d_1 -> psi1, d_2 -> psi2, d_n -> 0 for n >= 3.
    """
    lifted = {
        (t, tuple(-k for k in reversed(parts))): c
        for (t, parts), c in v_terms.items()
    }
    out = {}
    for (t, w), c in multiply_terms(u_terms, lifted).items():
        cut = bisect_right(w, 0)
        for j in w[cut:]:
            if j == 1:
                c = c * psi1
            elif j == 2:
                c = c * psi2
            else:
                break  # d_n w = 0 for n >= 3: the word vanishes
        else:
            key = (t, tuple(-i for i in reversed(w[:cut])))
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return {key: c for key, c in out.items() if c}

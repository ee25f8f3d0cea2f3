"""Straightening and module-action kernel over ``Fraction``.

Callers import it through ``vira.kernel``.

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
"""

from bisect import bisect_right
from fractions import Fraction

IMPL = "python"

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
    """Product of two UEA term maps, straightened into normal form."""
    out = {}
    for (ta, wa), ca in a.items():
        for (tb, wb), cb in b.items():
            c0 = ca * cb
            t0 = ta + tb
            for (dz, w), c in straighten_word(wa + wb).items():
                key = (t0 + dz, w)
                cur = out.get(key)
                out[key] = c0 * c if cur is None else cur + c0 * c
    return {key: c for key, c in out.items() if c}


def act_terms(u_terms, v_terms, psi1, psi2):
    """Action of a UEA term map on a module term map, in the universal
    module (no z-power reduction).

    Trailing positive modes of each straightened word act on the cyclic
    vector through psi: d_1 -> psi1, d_2 -> psi2, d_n -> 0 for n >= 3.
    """
    out = {}
    for (tu, wu), cu in u_terms.items():
        for (tv, parts), cv in v_terms.items():
            c0 = cu * cv
            t0 = tu + tv
            nword = wu + tuple(-k for k in reversed(parts))
            for (dz, w), c in straighten_word(nword).items():
                cut = bisect_right(w, 0)
                coeff = c0 * c
                dead = False
                for j in w[cut:]:
                    if j == 1:
                        coeff = coeff * psi1
                    elif j == 2:
                        coeff = coeff * psi2
                    else:
                        dead = True
                        break
                if dead:
                    continue
                key = (t0 + dz, tuple(-i for i in reversed(w[:cut])))
                cur = out.get(key)
                out[key] = coeff if cur is None else cur + coeff
    return {key: c for key, c in out.items() if c}

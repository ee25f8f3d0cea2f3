"""Cross-check the compiled kernel against the pure-Python kernel.

    python3 perfbench/kernel_parity.py

Runs word straightening, products and module actions on the same fixed
random inputs through ``vira._kernel_py`` and ``vira._kernel_cy``, each on a
fresh memo, and compares every result exactly.  Exits 1 on the first
mismatch.  When the compiled twin is not built, it says the check was
skipped and exits 0.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction

import run

#: Seed of the random inputs.
SEED = 0


def inputs():
    rng = random.Random(SEED)

    def word(lo, hi, n):
        return tuple(rng.randint(lo, hi) for _ in range(n))

    def terms(lo, hi, n):
        return {(rng.randint(0, 2), tuple(sorted(word(lo, hi, rng.randint(0, n))))):
                Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                for _ in range(rng.randint(1, 3))}

    words = [word(-5, 5, rng.randint(2, 8)) for _ in range(300)]
    products = [(terms(-4, 4, 4), terms(-4, 4, 4)) for _ in range(300)]
    actions = [(terms(-3, 3, 4),
                {(rng.randint(0, 2), tuple(sorted(word(0, 3, rng.randint(0, 4))))): Fraction(1)})
               for _ in range(300)]
    return words, products, actions


def results(impl):
    words, products, actions = inputs()
    psi1, psi2 = Fraction(2), Fraction(-3, 2)
    impl.cache_clear()
    out = [("straighten_word", w, impl.straighten_word(w)) for w in words]
    impl.cache_clear()
    out += [("multiply_terms", ab, impl.multiply_terms(*ab)) for ab in products]
    impl.cache_clear()
    out += [("act_terms", uv, impl.act_terms(*uv, psi1, psi2)) for uv in actions]
    return out


def compare(pure, compiled):
    """``(results checked, first mismatch or None)``; a mismatch is
    ``(op, argument, pure result, compiled result)``."""
    checked = 0
    for (op, arg, want), (_, _, got) in zip(results(pure), results(compiled)):
        checked += 1
        if want != got:
            return checked, (op, arg, want, got)
    return checked, None


def main():
    run.import_engine()
    pure = importlib.import_module("vira._kernel_py")
    try:
        compiled = importlib.import_module("vira._kernel_cy")
    except ImportError:
        print("kernel parity: skipped, the compiled kernel vira._kernel_cy is not built")
        return 0
    checked, mismatch = compare(pure, compiled)
    if mismatch:
        op, arg, want, got = mismatch
        print(f"kernel parity: MISMATCH in {op}{arg}:\n  python: {want}\n  compiled: {got}")
        return 1
    print(f"kernel parity: {checked} results identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

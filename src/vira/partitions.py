"""Partitions and pseudopartitions in exponent notation.

A pseudopartition is a non-decreasing finite sequence of non-negative
integers; zero parts are allowed and meaningful (they count powers of
d_0 in module basis vectors).  ``lam.mult(k)`` gives the exponent of k,
``lam.size`` the sum of the parts and ``lam.count`` the number of parts.
Enumeration is bounded: weight-graded pieces are infinite-dimensional in
the zero direction, so the number of zero parts is always capped.
"""

from __future__ import annotations

from bisect import bisect_right

#: Most parts a parsed pseudopartition may have; longer input is refused
#: before its parts are built.
MAX_PARTS = 10_000


class Pseudopartition:
    """Immutable multiset of non-negative integer parts, kept sorted."""

    __slots__ = ("parts", "size", "count", "_mult")

    def __init__(self, parts=()):
        ps = tuple(sorted(int(k) for k in parts))
        if ps and ps[0] < 0:
            raise ValueError("pseudopartition parts must be non-negative")
        self.parts = ps
        self.size = sum(ps)
        self.count = len(ps)
        mult: dict[int, int] = {}
        for k in ps:
            mult[k] = mult.get(k, 0) + 1
        self._mult = mult

    @classmethod
    def parse(cls, text: str) -> "Pseudopartition":
        """Parse ``0^2 1 3``, ``(0^2,1,3)``, or ``()``."""
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        body = body.replace(",", " ")
        parts = []
        for token in body.split():
            base, caret, exp = token.partition("^")
            m = int(exp) if caret else 1
            if m < 0:
                raise ValueError(f"negative multiplicity in {token!r}")
            if len(parts) + m > MAX_PARTS:
                raise ValueError(f"pseudopartition has more than {MAX_PARTS} parts")
            parts.extend([int(base)] * m)
        return cls(parts)

    def mult(self, k: int) -> int:
        """Number of parts equal to k (the exponent lambda(k))."""
        return self._mult.get(k, 0)

    def exponents(self) -> list[tuple[int, int]]:
        """(part, multiplicity) pairs in increasing part order."""
        return sorted(self._mult.items())

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def min_index(self):
        """Smallest k with mult(k) > 0, or None for the empty pseudopartition."""
        return self.parts[0] if self.parts else None

    def zero_count(self) -> int:
        return bisect_right(self.parts, 0)

    def remove(self, k: int) -> "Pseudopartition":
        """Drop one copy of part k."""
        if k not in self._mult:
            raise ValueError(f"{self} has no part {k}")
        idx = self.parts.index(k)
        return Pseudopartition(self.parts[:idx] + self.parts[idx + 1:])

    def neg_word(self) -> tuple[int, ...]:
        """The PBW word of d_{-lam}: negated parts in non-decreasing order."""
        return tuple(-k for k in reversed(self.parts))

    def sort_key(self) -> tuple:
        """Graded-lexicographic key: size first, then the exponent vector."""
        if not self.parts:
            return (0, ())
        vec = tuple(self.mult(k) for k in range(self.parts[-1] + 1))
        return (self.size, vec)

    def __eq__(self, other):
        if not isinstance(other, Pseudopartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        if not self.parts:
            return "()"
        bits = []
        for k, m in self.exponents():
            bits.append(f"{k}^{m}" if m > 1 else str(k))
        return "(" + ",".join(bits) + ")"

    def __repr__(self):
        return f"Pseudopartition({self.parts!r})"


def _ascending_partitions(n: int, min_part: int = 1):
    """Non-decreasing tuples of integers >= min_part summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(min_part, n + 1):
        for rest in _ascending_partitions(n - first, first):
            yield (first, *rest)


def enumerate_pseudopartitions(size: int, max_zero_count: int) -> list[Pseudopartition]:
    """All pseudopartitions of the given size with at most max_zero_count
    zero parts, in graded-lexicographic order."""
    if size < 0 or max_zero_count < 0:
        raise ValueError("size and max_zero_count must be non-negative")
    out = []
    for positive in _ascending_partitions(size):
        for zeros in range(max_zero_count + 1):
            out.append(Pseudopartition((0,) * zeros + positive))
    out.sort(key=Pseudopartition.sort_key)
    return out


def pseudopartitions_upto(max_degree: int, max_zero_count: int) -> list[Pseudopartition]:
    """All pseudopartitions of size at most max_degree with at most
    max_zero_count zero parts: the sizes in turn, each in
    graded-lexicographic order, so the whole list is in that order too."""
    out = []
    for n in range(max_degree + 1):
        out.extend(enumerate_pseudopartitions(n, max_zero_count))
    return out

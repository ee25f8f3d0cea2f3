"""Pseudopartitions: exponent notation, size and count, bounded enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vira.partitions import (
    MAX_PARTS,
    Pseudopartition,
    enumerate_pseudopartitions,
    pseudopartitions_upto,
)

# Independent oracle: coin-change dp over part sizes, nothing shared with
# the enumeration code.  Frozen against the dp for n <= 12.
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def partition_count_oracle(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_oracle_matches_frozen_counts():
    assert [partition_count_oracle(n) for n in range(13)] == PARTITION_COUNTS


def test_enumeration_counts_match_oracle():
    for n in range(26):
        assert len(enumerate_pseudopartitions(n, 0)) == partition_count_oracle(n)


class TestPseudopartition:
    def test_stats_direct_sums(self):
        for parts, size, count in (((0, 0, 1, 3), 4, 4), ((), 0, 0), ((2, 2, 2), 6, 3)):
            lam = Pseudopartition(parts)
            assert (lam.size, lam.count) == (size, count)

    def test_exponent_lookup(self):
        lam = Pseudopartition((0, 0, 1, 3))
        assert lam.mult(0) == 2
        assert lam.mult(1) == 1
        assert lam.mult(2) == 0
        assert lam.zero_count() == 2
        assert lam.min_index() == 0
        assert Pseudopartition((2, 3)).min_index() == 2
        assert Pseudopartition().min_index() is None

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            Pseudopartition((-1,))

    def test_remove_add(self):
        lam = Pseudopartition((0, 1, 1, 2))
        assert lam.remove(1).parts == (0, 1, 2)
        with pytest.raises(ValueError):
            lam.remove(7)

    def test_neg_word_round_trip(self):
        lam = Pseudopartition((0, 0, 1, 3))
        assert lam.neg_word() == (-3, -1, 0, 0)
        assert Pseudopartition(-i for i in lam.neg_word()) == lam

    def test_text_forms(self):
        lam = Pseudopartition((0, 0, 1, 3))
        assert str(lam) == "(0^2,1,3)"
        assert Pseudopartition.parse("(0^2,1,3)") == lam
        assert Pseudopartition.parse("0^2 1 3") == lam
        assert str(Pseudopartition()) == "()"
        assert Pseudopartition.parse("()") == Pseudopartition()

    def test_parse_rejects_negative_multiplicity(self):
        assert Pseudopartition.parse("(1^0,2)") == Pseudopartition((2,))
        for text in ("(1^-1,2)", "(2^-3)", "0^-1 1"):
            with pytest.raises(ValueError, match="negative multiplicity"):
                Pseudopartition.parse(text)

    def test_parse_caps_the_part_count(self):
        assert MAX_PARTS == 1_000
        assert Pseudopartition.parse(f"(1^{MAX_PARTS})").count == MAX_PARTS
        assert Pseudopartition.parse(f"(0^{MAX_PARTS - 1},2)").count == MAX_PARTS
        for text in (f"(1^{MAX_PARTS + 1})", f"(0^{MAX_PARTS},2)", "(1^100000000)"):
            with pytest.raises(ValueError, match=f"more than {MAX_PARTS} parts"):
                Pseudopartition.parse(text)


class TestEnumerate:
    def test_partitions_of_two(self):
        # graded-lex on exponent vectors: (0,0,1) sorts before (0,2)
        assert [lam.parts for lam in enumerate_pseudopartitions(2, 0)] == [
            (2,),
            (1, 1),
        ]

    def test_only_zero_parts(self):
        assert [lam.parts for lam in enumerate_pseudopartitions(0, 1)] == [(), (0,)]

    def test_partitions_of_three(self):
        assert len(enumerate_pseudopartitions(3, 0)) == 3

    def test_counts_match_oracle(self):
        for n in range(13):
            assert len(enumerate_pseudopartitions(n, 0)) == PARTITION_COUNTS[n]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 3))
    def test_zero_cap_multiplies_counts(self, n, m):
        out = enumerate_pseudopartitions(n, m)
        assert len(out) == (m + 1) * PARTITION_COUNTS[n]
        assert len(set(out)) == len(out)
        assert all(lam.size == n and lam.zero_count() <= m for lam in out)
        assert out == sorted(out, key=Pseudopartition.sort_key)

    def test_window_is_sizes_in_turn(self):
        for n in range(8):
            for m in range(4):
                out = pseudopartitions_upto(n, m)
                assert out == [
                    lam for size in range(n + 1)
                    for lam in enumerate_pseudopartitions(size, m)
                ]
                assert out == sorted(out, key=Pseudopartition.sort_key)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 6), max_size=6),
        st.lists(st.integers(0, 6), max_size=6),
    )
    def test_stats_additive_under_union(self, a, b):
        lam, mu = Pseudopartition(a), Pseudopartition(b)
        merged = Pseudopartition(lam.parts + mu.parts)
        assert merged.size == lam.size + mu.size
        assert merged.count == lam.count + mu.count

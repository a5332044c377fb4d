"""Tests for the Capparelli partition-enumeration oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from qtrin.partitions import (FIRST, SECOND, VARIANTS, Partition,
                              _difference_column, _gap_ok, capparelli_chain,
                              congruence_side_count, difference_side_count,
                              difference_side_partitions,
                              doublesum_coefficients, product_coefficients)


def cubic_difference_column(n_max, v):
    """The gap-condition column as a cubic DP, kept as the reference for
    the prefix-sum one; ends[s][p] counts the partitions of s that obey
    the conditions and have largest part p."""
    ends = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for s in range(1, n_max + 1):
        for p in range(1, s + 1):
            if p != v.excluded_part:
                below = ends[s - p]
                ends[s][p] = (s == p) + sum(
                    below[q] for q in range(1, min(p - 1, s - p + 1))
                    if _gap_ok(q, p))
    return [1] + [sum(row) for row in ends[1:]]


class TestCongruenceSide:
    def test_empty_partition(self):
        assert congruence_side_count(0, FIRST) == 1
        assert congruence_side_count(0, SECOND) == 1

    def test_forbidden_small_parts(self):
        assert congruence_side_count(1, FIRST) == 0    # 1 = 1 mod 6
        assert congruence_side_count(2, SECOND) == 0   # 2 = 2 mod 6

    def test_six_first_variant(self):
        # {6}, {4,2}
        assert congruence_side_count(6, FIRST) == 2

    def test_negative_n(self):
        assert congruence_side_count(-3, FIRST) == 0


class TestDifferenceSide:
    def test_base_cases(self):
        assert difference_side_count(0, FIRST) == 1
        assert difference_side_count(0, SECOND) == 1
        assert difference_side_count(2, FIRST) == 1    # {2}
        assert difference_side_count(6, FIRST) == 2    # {6}, {4,2}
        assert difference_side_count(-1, SECOND) == 0

    def test_excluded_part(self):
        assert all(1 not in p.parts
                   for n in range(12)
                   for p in difference_side_partitions(n, FIRST))
        assert all(2 not in p.parts
                   for n in range(12)
                   for p in difference_side_partitions(n, SECOND))

    def test_count_matches_enumeration(self):
        for v in VARIANTS.values():
            for n in range(18):
                assert difference_side_count(n, v) == \
                    len(difference_side_partitions(n, v))

    @pytest.mark.parametrize("name", ["first", "second"])
    def test_column_matches_cubic_reference(self, name):
        v = VARIANTS[name]
        want = cubic_difference_column(150, v)
        for n_max in list(range(12)) + [49, 150]:
            assert _difference_column(n_max, v) == want[:n_max + 1]

    @given(st.integers(0, 24), st.sampled_from(["first", "second"]))
    @settings(max_examples=30, deadline=None)
    def test_hereditary(self, n, name):
        # removing the largest part of a valid partition leaves a valid one
        v = VARIANTS[name]
        valid = {p.parts for p in difference_side_partitions(n, v)}
        for parts in valid:
            if len(parts) > 1:
                rest = parts[1:]
                assert rest in {q.parts for q in
                                difference_side_partitions(sum(rest), v)}

    def test_gap_conditions(self):
        for p in difference_side_partitions(20, FIRST):
            parts = list(reversed(p.parts))    # ascending
            for lo, hi in zip(parts, parts[1:]):
                d = hi - lo
                assert d >= 2
                if d == 2:
                    assert lo % 3 == 2
                elif d == 3:
                    assert lo % 3 == 0


class TestPartitionType:
    def test_validation(self):
        assert Partition((5, 3, 3, 1)).weight == 12
        with pytest.raises(ValueError):
            Partition((1, 3))
        with pytest.raises(ValueError):
            Partition((3, 0))


class TestSeriesSides:
    def test_product_oracle_values(self):
        first = product_coefficients(FIRST, 6)
        assert first[0] == 1
        assert first[6] == 2
        second = product_coefficients(SECOND, 6)
        assert second[2] == 0

    def test_doublesum_oracle_values(self):
        kr1 = doublesum_coefficients("kr1", 6)
        assert kr1[0] == 1
        assert kr1[6] == 2
        # constant term of the third family is 2: (m,n) = (0,0) and (1,0)
        assert doublesum_coefficients("outlook2", 0)[0] == 2

    def test_unknown_double_sum(self):
        with pytest.raises(KeyError):
            doublesum_coefficients("unknown", 5)


class TestFourWayChain:
    @pytest.mark.parametrize("name", ["first", "second"])
    def test_chain_to_forty(self, name):
        for row in capparelli_chain(40, VARIANTS[name]):
            assert row["congruence"] == row["difference"] \
                == row["product"] == row["double_sum"], row

    def test_counts_nonnegative(self):
        for name, v in VARIANTS.items():
            for row in capparelli_chain(25, v):
                assert row["congruence"] >= 0

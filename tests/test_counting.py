"""Counting pipelines: Stirling numbers, closed formulas, series, distribution."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from bpartitions import (
    BivariateDistribution,
    RationalSeries,
    TooLargeError,
    distribution,
    for_each,
    singleton_free_egf,
    singleton_free_ie,
    statistics,
    stirling2,
    total_count,
)
from bpartitions.counting import _egf_exponent


def brute_stirling(k: int, j: int) -> int:
    """Surjection-counting oracle, independent of the recurrence."""
    if j == 0:
        return 1 if k == 0 else 0
    hits = sum(1 for a in product(range(j), repeat=k) if len(set(a)) == j)
    return hits // factorial(j)


def dist_from_terms(n, terms):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for s, a, c in terms:
        table[s][a] = c
    return BivariateDistribution(n, tuple(tuple(row) for row in table))


# x**2 + y**2 + 1
P2 = [(0, 0, 1), (0, 2, 1), (2, 0, 1)]
# (x**3 + y**3) + 3xy + 3(x + y)
P3 = [(0, 1, 3), (0, 3, 1), (1, 0, 3), (1, 1, 3), (3, 0, 1)]
# (x**4 + y**4) + 4(x**2 y + x y**2) + 8(x**2 + y**2) + 8xy + 4(x + y) + 7
P4 = [
    (0, 0, 7),
    (0, 1, 4),
    (0, 2, 8),
    (0, 4, 1),
    (1, 0, 4),
    (1, 1, 8),
    (1, 2, 4),
    (2, 0, 8),
    (2, 1, 4),
    (4, 0, 1),
]


class TestStirling:
    @pytest.mark.parametrize("k", range(7))
    def test_against_brute_force(self, k):
        for j in range(k + 2):
            assert stirling2(k, j) == brute_stirling(k, j)

    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert all(stirling2(k, k) == 1 for k in range(10))
        assert all(stirling2(k, 0) == 0 for k in range(1, 10))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestTotalCount:
    def test_small_values(self):
        assert [total_count(n) for n in range(5)] == [1, 1, 3, 11, 49]

    def test_matches_polynomial_coefficient_sums(self):
        assert total_count(3) == sum(c for _, _, c in P3)
        assert total_count(4) == sum(c for _, _, c in P4)

    def test_matches_enumeration(self):
        for n in range(8):
            assert total_count(n) == for_each(n, lambda p: None)


class TestSingletonFree:
    def test_inclusion_exclusion_anchors(self):
        # values forced by evaluating the P_n tables at (x, y) = (0, 1)
        assert singleton_free_ie(1) == 0
        assert singleton_free_ie(2) == sum(c for s, a, c in P2 if s == 0)
        assert singleton_free_ie(3) == sum(c for s, a, c in P3 if s == 0)
        assert singleton_free_ie(4) == sum(c for s, a, c in P4 if s == 0)
        assert (singleton_free_ie(2), singleton_free_ie(3), singleton_free_ie(4)) == (2, 4, 20)

    def test_egf_matches_inclusion_exclusion(self):
        values = singleton_free_egf(30)
        assert values[0] == 1
        for n in range(31):
            assert values[n] == singleton_free_ie(n)

    def test_exponent_series_sanity(self):
        # (e^(2x) - 1)/2 - x starts 0 + 0*x + x**2 + ...
        f = _egf_exponent(5)
        assert f.coefficient(0) == 0
        assert f.coefficient(1) == 0
        assert f.coefficient(2) == 1
        assert f.coefficient(3) == Fraction(2, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            singleton_free_egf(-1)
        with pytest.raises(ValueError):
            singleton_free_ie(-1)


class TestRationalSeries:
    def s(self, *values):
        return RationalSeries(tuple(Fraction(v) for v in values))

    def test_exp_inverse_pair(self):
        f = self.s(0, 1, Fraction(1, 2), Fraction(-1, 3), 2)
        neg = RationalSeries(tuple(-c for c in f.coeffs))
        a, b = f.exp().coeffs, neg.exp().coeffs
        product_ = RationalSeries(
            tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))
        )
        assert product_.coeffs == (Fraction(1),) + (Fraction(0),) * 4

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            self.s(1, 1).exp()


class TestDistribution:
    def test_known_joint_polynomials(self):
        assert distribution(2) == dist_from_terms(2, P2)
        assert distribution(3) == dist_from_terms(3, P3)
        assert distribution(4) == dist_from_terms(4, P4)

    def test_terms_and_evaluate(self):
        d = distribution(4)
        assert d.terms() == P4
        assert d.total == 49
        assert d.evaluate(0, 1) == d.evaluate(1, 0) == 20
        assert d.evaluate(1, 1) == 49

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetry_and_triple_agreement(self, n):
        d = distribution(n)
        assert d.is_symmetric()
        assert d.total == total_count(n)
        assert d.evaluate(0, 1) == d.evaluate(1, 0) == singleton_free_ie(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_tally_matches_statistics(self, n):
        # distribution tallies the walk's running counts; this route builds
        # every partition and recomputes its statistics from scratch
        table = [[0] * (n + 1) for _ in range(n + 1)]

        def visit(part):
            st = statistics(part)
            table[st.singletons][st.adjacencies] += 1

        for_each(n, visit)
        assert distribution(n).table == tuple(tuple(row) for row in table)

    def test_guard(self):
        with pytest.raises(TooLargeError):
            distribution(3, limit=2)
        with pytest.raises(ValueError):
            distribution(0)

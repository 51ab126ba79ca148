"""Counting pipelines: Stirling numbers, closed formulas, series, distribution."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from math import comb

import pytest

from bpartitions import (
    BivariateDistribution,
    TooLargeError,
    distribution,
    for_each,
    singleton_free_egf,
    singleton_free_ie,
    statistics,
    total_count,
)
from bpartitions.counting import _shift, markings, stirling_row
from bpartitions.enumeration import walk
from conftest import brute_stirling


def egf_convolution(upto: int) -> list[int]:
    """Oracle for the triangle: G' = (e^(2x) - 1) * G as a convolution,
    G_n = sum_{k=2..n} C(n-1, k-1) * 2**(k-1) * G_(n-k)."""
    out = [1]
    for n in range(1, upto + 1):
        out.append(sum((comb(n - 1, k - 1) << (k - 1)) * out[n - k] for k in range(2, n + 1)))
    return out


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
        assert stirling_row(k) == [brute_stirling(k, j) for j in range(k + 1)]

    def test_known_values(self):
        assert stirling_row(3)[2] == 3
        assert stirling_row(4) == [0, 1, 7, 6, 1]
        assert all(stirling_row(k)[k] == 1 for k in range(10))
        assert all(stirling_row(k)[0] == 0 for k in range(1, 10))
        assert stirling_row(0) == [1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            stirling_row(-1)
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            total_count(-1)


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
        values = singleton_free_egf(300)
        assert values[0] == 1
        assert values == egf_convolution(300)
        for n in range(301):
            assert values[n] == singleton_free_ie(n)

    def test_every_order_is_a_prefix_of_order_1000(self):
        # each order scales row n of its triangle by 2**(upto - n), a different
        # power of two, so a shift that drops a bit shows as a prefix mismatch
        full = singleton_free_egf(1000)
        for m in [*range(41), 300]:
            assert singleton_free_egf(m) == full[: m + 1], m

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            singleton_free_egf(-1)
        with pytest.raises(ValueError):
            singleton_free_ie(-1)


class TestDistribution:
    def test_known_joint_polynomials(self):
        assert distribution(2) == dist_from_terms(2, P2)
        assert distribution(3) == dist_from_terms(3, P3)
        assert distribution(4) == dist_from_terms(4, P4)

    def test_terms_and_evaluate(self):
        d = distribution(4)
        assert d.terms() == P4
        assert d.evaluate(0, 1) == d.evaluate(1, 0) == 20
        assert d.evaluate(1, 1) == 49

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetry_and_triple_agreement(self, n):
        d = distribution(n)
        assert d.is_symmetric()
        assert d.evaluate(1, 1) == total_count(n)
        assert d.evaluate(0, 1) == d.evaluate(1, 0) == singleton_free_ie(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_tally_matches_statistics(self, n):
        # three routes: the walk's running counts, statistics recomputed on
        # every built partition, and the closed form
        tally = [[0] * (n + 1) for _ in range(n + 1)]

        def leaf(blocks, s, a):
            tally[s][a] += 1

        walk(n, leaf)
        table = [[0] * (n + 1) for _ in range(n + 1)]

        def visit(part):
            st = statistics(part)
            table[st.singletons][st.adjacencies] += 1

        for_each(n, visit)
        assert tally == table
        assert distribution(n).table == tuple(tuple(row) for row in table)

    def test_closed_form_beyond_enumeration(self):
        # sizes no walk reaches: the table against the counting pipelines.  Row
        # s sums to C(n, s) times a singleton-free count, taken twice:
        # singleton_free_ie shares _stirling_rows and _total with distribution,
        # so one fault there could move both sides alike, while the series
        # shares no code with distribution at all
        series = singleton_free_egf(60)
        free = [singleton_free_ie(j) for j in range(61)]
        for n in range(1, 61):
            d = distribution(n)
            assert d.is_symmetric(), n
            assert d.evaluate(1, 1) == total_count(n), n
            for s, row in enumerate(d.table):
                assert sum(row) == comb(n, s) * free[n - s], (n, s)
                assert sum(row) == comb(n, s) * series[n - s], (n, s)
            assert d.evaluate(0, 1) == d.evaluate(1, 0) == series[n], n
        series = singleton_free_egf(200)
        for n in (100, 200):
            for s, row in enumerate(distribution(n).table):
                assert sum(row) == comb(n, s) * series[n - s], (n, s)

    def test_tables_are_pinned(self):
        # SHA-256 of repr(table), recorded with an earlier, Horner-rule shift;
        # n = 1..40 are hashed in order as one stream
        stream = hashlib.sha256()
        for n in range(1, 41):
            stream.update(repr(distribution(n).table).encode())
        assert stream.hexdigest() == (
            "b7e359642619828efada4cfc060d6fabbc037094c027c311d2b946560905a790"
        )
        assert hashlib.sha256(repr(distribution(250).table).encode()).hexdigest() == (
            "08d0753b1d65c2c8819190c0afee85ac905bb4bf86c5f3602df73b1f36fd4bbf"
        )

    def test_guard(self):
        with pytest.raises(TooLargeError):
            distribution(3, limit=2)
        with pytest.raises(ValueError):
            distribution(0)


class TestShift:
    @pytest.mark.parametrize("seed", range(3))
    def test_against_the_definition(self, seed):
        # sum_k c_k (z - 1)**k has z**s coefficient sum_k c_k C(k, s) (-1)**(k - s)
        rng = random.Random(seed)
        for length in range(81):
            coeffs = [rng.randrange(-(10**500), 10**500) for _ in range(length)]
            if length:
                coeffs[rng.randrange(length)] = rng.randrange(-9, 10)
            expected = [
                sum(coeffs[k] * comb(k, s) * (-1) ** (k - s) for k in range(s, length))
                for s in range(length)
            ]
            kept = list(coeffs)
            assert _shift(coeffs) == expected, length
            assert coeffs == kept


def brute_markings(n):
    """c_n(k, m) over all vertex and edge subsets; edge i joins i and i + 1 mod n."""
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    full = (1 << n) - 1
    for edges in range(1 << n):
        touched = edges | ((edges << 1) | (edges >> (n - 1))) & full
        for vertices in range(1 << n):
            if not vertices & touched:
                counts[bin(vertices).count("1")][bin(edges).count("1")] += 1
    return counts


def transfer_markings(upto):
    """c_n(k, m) for n = 1..upto from a walk over the cycle's vertex letters.

    Each vertex carries 0 (unmarked), V (marked) or E (its outgoing edge
    marked); E followed by V is forbidden, also from the last letter to the
    first.  A polynomial is a Counter over (k, m).
    """

    def step(p, q):
        # p, q: words ending in a letter other than E, and in E
        both = p + q
        grown = Counter({(k + 1, m): c for (k, m), c in p.items()})
        return both + grown, Counter({(k, m + 1): c for (k, m), c in both.items()})

    first_v = (Counter({(1, 0): 1}), Counter())
    first_other = (Counter({(0, 0): 1}), Counter({(0, 1): 1}))
    out = {1: first_v[0] + first_other[0] + first_other[1]}
    for n in range(2, upto + 1):
        first_v, first_other = step(*first_v), step(*first_other)
        # a word that starts with V may not end in E
        out[n] = first_v[0] + first_other[0] + first_other[1]
    return out


class TestMarkings:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_brute_force(self, n):
        counts = brute_markings(n)
        rows = markings(n)
        for k in range(n + 1):
            assert rows[k] == counts[k][: n - k + 1]
            assert not any(counts[k][n - k + 1 :])

    def test_symmetric_and_matches_transfer_walk(self):
        walked = transfer_markings(60)
        for n in range(1, 61):
            rows = markings(n)
            for k in range(n + 1):
                for m in range(n - k + 1):
                    assert rows[k][m] == rows[m][k] == walked[n][k, m], (n, k, m)

    def test_rejects_empty_cycle(self):
        with pytest.raises(ValueError):
            markings(0)

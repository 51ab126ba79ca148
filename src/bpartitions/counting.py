"""Exact counting pipelines for zero-block-free signed partitions.

Three independent routes to the same numbers, kept separate so they can
cross-check one another:

* ``total_count`` and ``singleton_free_ie``: closed formulas over Stirling
  numbers of the second kind (``2**(n-j) * S(n, j)`` counts the partitions
  with exactly 2j blocks; inclusion-exclusion over supports removes the ones
  with singleton pairs).
* ``singleton_free_egf``: coefficients of G = exp((e^(2x) - 1)/2 - x).  From
  G' = (e^(2x) - 1) * G, G_(n+1) = H_n - G_n with H = e^(2x) * G, and H_n is
  the last entry of row n of a triangle whose rows start at G_n.  Scaled by
  powers of two, each cell of it is one addition: no binomial, no product.
* ``distribution``: the full joint table of (singleton pairs, adjacency
  pairs) by inclusion-exclusion on the n-cycle, with no enumeration.  Marking
  k singleton elements and m adjacency positions that touch no marked
  element leaves a free V_(n-k-m) once each marked run is contracted, so
  P_n(x, y) = sum c_n(k, m) |V_(n-k-m)| (x-1)**k (y-1)**m, where
  ``markings`` gives c_n(k, m); c_n(k, m) = c_n(m, k) makes the symmetry
  theorem visible.  ``verification`` compares it with the enumerated table.

Everything is exact: every count, series coefficients included, is a plain
unbounded integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .core import PartitionError, _short

# Largest n that ``distribution`` tabulates unless asked for more.  The formula
# costs about n**3 / 3 big-integer subtractions: at n = 250 it takes 0.4 to
# 0.6 s, and a ``poly`` process with its 6 MB of output 0.55 to 0.75 s (shared
# 2-vCPU Xeon, Python 3.11).
DISTRIBUTION_LIMIT = 250

# Largest n, or order, that the ``count`` command computes.  At 1000,
# ``singleton_free_egf`` takes about 0.1 s (3.5 ms at the census order, 300)
# and ``count --n`` peaks near 17 MB (2-vCPU Xeon, Python 3.11).  |V_1801| is
# the first count with more than the 4,300 digits int-to-text conversion allows.
COUNT_LIMIT = 1000


class TooLargeError(PartitionError):
    """A size guard tripped: the table or count asked for is too large."""


def check_size(n: int, limit: int, what: str) -> None:
    """Raise :class:`TooLargeError` when ``n`` exceeds the size guard ``limit``.

    The message spells out only short numbers: n and the limit may come
    straight from command-line arguments with thousands of digits.
    """
    if n > limit:
        raise TooLargeError(f"n={_short(n)} exceeds the size guard {_short(limit)} of {what}")


def _stirling_rows(n: int) -> Iterator[list[int]]:
    """Rows S(m, 0..m) of Stirling numbers of the second kind for m = 0..n.

    Each row is built from the one before by the standard recurrence, and
    only the row last yielded is kept.
    """
    row = [1]
    yield row
    for m in range(1, n + 1):
        row = [0, *[row[i - 1] + i * row[i] for i in range(1, m)], row[m - 1]]
        yield row


def _total(row: list[int]) -> int:
    """|V_m| from Stirling row m: the sum over j of 2**(m-j) * S(m, j)."""
    m = len(row) - 1
    return sum(s << (m - j) for j, s in enumerate(row))


def stirling_row(n: int) -> list[int]:
    """S(n, 0..n): row n of the Stirling numbers of the second kind."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for row in _stirling_rows(n):
        pass
    return row


def total_count(n: int) -> int:
    """|V_n| = sum over block-pair counts j of 2**(n-j) * S(n, j)."""
    return _total(stirling_row(n))


def singleton_free_ie(n: int) -> int:
    """Count of singleton-pair-free partitions in V_n by inclusion-exclusion."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return sum(
        (-1) ** (n - k) * comb(n, k) * _total(row) for k, row in enumerate(_stirling_rows(n))
    )


def singleton_free_egf(upto: int) -> list[int]:
    """Singleton-pair-free counts for n = 0..upto from the generating function.

    G_n = n! * [x^n] G with G = exp((e^(2x) - 1)/2 - x).  G' = (e^(2x) - 1) * G
    gives G_(n+1) = H_n - G_n with H = e^(2x) * G, and H_n = T(n, n) in the
    triangle T(n, 0) = G_n, T(n, i) = T(n, i-1) + 2 * T(n-1, i-1), which is
    sum_k C(i, k) * 2**k * G_(n-k) by Pascal's rule (Flajolet-Sedgewick, ch. II).
    Row n is kept as U(n, i) = 2**(upto-n) * T(n, i): the recurrence's 2 is the
    extra factor row n - 1 carries, so U(n, i) = U(n, i-1) + U(n-1, i-1), one
    addition a cell (Aitken's array; Knuth, TAOCP 4A, 7.2.1.5).  As upto - n >= 1,
    halving U(n, n) - U(n, 0) = 2**(upto-n) * G_(n+1) is exact and gives
    U(n+1, 0), and one more shift drops its factor 2**(upto-n-1).  One row, in place.
    """
    if upto < 0:
        raise ValueError(f"upto must be nonnegative, got {upto}")
    out = [1]
    row = [1 << upto]  # row n of the triangle times 2**(upto - n), n = len(out) - 1
    for scale in range(upto - 1, -1, -1):  # scale = upto - n - 1
        t = (row[-1] - row[0]) >> 1
        out.append(t >> scale)
        # overwrite row n - 1 with row n: U(n-1, i) is read before it goes
        for i, prev in enumerate(row):
            row[i] = t
            t += prev
        row.append(t)
    return out


@dataclass(frozen=True, slots=True)
class BivariateDistribution:
    """Joint (singleton pairs, adjacency pairs) counts for one n.

    ``table[s][a]`` is the number of partitions in V_n with s singleton pairs
    and a adjacency pairs; both indices run 0..n.
    """

    n: int
    table: tuple[tuple[int, ...], ...]

    def evaluate(self, x, y):
        """Exact value of sum over (s, a) of count * x**s * y**a."""
        return sum(c * x**s * y**a for s, a, c in self.terms())

    def is_symmetric(self) -> bool:
        return all(
            self.table[s][a] == self.table[a][s]
            for s in range(self.n + 1)
            for a in range(s)
        )

    def terms(self) -> list[tuple[int, int, int]]:
        """Nonzero (s, a, count) triples in lexicographic order."""
        return [
            (s, a, c)
            for s, row in enumerate(self.table)
            for a, c in enumerate(row)
            if c
        ]


def markings(n: int) -> list[list[int]]:
    """c_n(k, m) for k + m <= n: marked vertex and edge sets of the n-cycle.

    Edge i joins vertices i and i + 1 (n and 1 for i = n), and no marked edge
    may touch a marked vertex.  Give vertex i one letter: unmarked, marked, or
    "edge i marked".  A word is a marking exactly when no edge letter is
    followed, cyclically, by a marked-vertex letter.  With r = n - k - m >= 1
    unmarked letters, every stretch that follows an unmarked letter reads
    marked vertices, then marked edges, so the words starting with an unmarked
    letter number C(k+r-1, k) * C(m+r-1, m); each word has r rotations of that
    kind among its n, which gives the factor n / r.  With r = 0 the word is all
    one letter.  Row k of the result has n - k + 1 entries.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rows = []
    for k in range(n + 1):
        row = []
        for m in range(n - k + 1):
            r = n - k - m
            if r:
                row.append(n * comb(k + r - 1, k) * comb(m + r - 1, m) // r)
            else:
                row.append(int(k == n or m == n))
        rows.append(row)
    return rows


def _shift(coeffs: list[int]) -> list[int]:
    """Coefficients in z of sum_k coeffs[k] * (z - 1)**k.

    The in-place Taylor shift: len(coeffs) - 1 rounds of synthetic division by
    z - 1 over one copy of the coefficients, with subtractions only (Knuth,
    TAOCP 2, 4.6.4; von zur Gathen and Gerhard, ISSAC 1997).
    """
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] -= c[j + 1]
    return c


def distribution(n: int, *, limit: int = DISTRIBUTION_LIMIT) -> BivariateDistribution:
    """The joint distribution of V_n from the inclusion-exclusion formula.

    Weights each marking count c_n(k, m) by |V_(n-k-m)|, then expands the
    powers of (y - 1), row by row, and of (x - 1), column by column, each by
    an in-place Taylor shift (``_shift``).  The one partition of V_1 has
    s = a = 1, since its element is both a singleton and its own cyclic
    neighbour, so the formula, which keeps marked edges off marked vertices,
    starts at n = 2.
    The work grows as n**3; ``limit`` is a size guard that a caller raises
    deliberately to go past it.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_size(n, limit, "the closed-form table")
    table = [[0] * (n + 1) for _ in range(n + 1)]
    if n == 1:
        table[1][1] = 1
    else:
        totals = [_total(row) for row in _stirling_rows(n)]
        # rows[k][a]: coefficient of (x-1)**k * y**a
        rows = [
            _shift([c * totals[n - k - m] for m, c in enumerate(row)])
            for k, row in enumerate(markings(n))
        ]
        for a in range(n + 1):
            column = _shift([rows[k][a] for k in range(n - a + 1)])
            for s, c in enumerate(column):
                table[s][a] = c
    return BivariateDistribution(n, tuple(tuple(row) for row in table))

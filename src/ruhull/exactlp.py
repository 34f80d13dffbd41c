"""Exact linear feasibility over the rationals.

Solves "find x >= 0 with A x = b" by a revised Phase-I simplex; when the
system is infeasible the final duals give a Farkas certificate y with
y A <= 0 componentwise and y b > 0. A is given by its nonzero entries, row
by row, or by an oracle for its best column, so no caller builds a dense
matrix.

Every row is first oriented so its right-hand side is nonnegative and scaled
to integers; listed structural columns are then stored sparsely, as their
nonzero entries. One artificial variable per row starts basic. The simplex
keeps only the m x (m + 1) block [B^-1 | beta] of the tableau (B the basis,
beta the basic values) together with the objective row restricted to those
columns; a structural column of the tableau is rebuilt on demand as
B^-1 a_j.

Each iteration asks for the best structural column against the duals w:
the objective entry of artificial i is its reduced cost 1 - w_i, so the
reduced cost of column j is -w . a_j and the column with the largest
w . a_j > 0 enters (ties to the lowest index). Listed rows price every
column; a ``ColumnOracle`` names that column without listing any (the
membership LP asks its type family for the best type), so both forms make
the same pivots. The leaving row is chosen by the lexicographic ratio test
on the rows of [beta | B^-1] divided by the entering column (Dantzig, Orden
& Wolfe, 1955). Those rows start lexicographically positive (beta >= 0,
B^-1 = I), stay so, and are pairwise distinct because B^-1 is nonsingular,
so the choice is unique and the objective row strictly increases
lexicographically: no basis repeats and the method terminates under any
entering rule. Artificial columns are never priced, so an artificial that
leaves the basis never returns; this does not change feasibility (a feasible
point uses no artificials).

The kept block is fraction-free: a pivot applies the two-term determinant
update

    row[k] <- (row[k] * pivot - d * pivot_row[k]) / divisor

to every other row and to the objective row, with d the row's entry in the
entering column (rebuilt, or priced for the objective row) and ``divisor``
the previous pivot (the pivot row itself stays put). Entries then equal the true rational
values times the current positive divisor; the division is exact because
they are minors of the scaled [A | I | b], and everything runs on plain
integers. The duals w, the rebuilt column and the priced values carry the
same factor, so every sign test and ratio comparison sees true values scaled
by one positive constant and the pivot rules are unaffected.

At the end the objective value is zero (a basic feasible point whose support
columns are linearly independent) or positive (the duals w / divisor, mapped
back through the row scaling, are the Farkas multipliers).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Hashable, Iterable, Protocol, Sequence, Union

from . import _kernels
from .errors import ValidationError

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class FeasiblePoint:
    """A solution x >= 0 of A x = b whose support columns are independent.

    ``x`` holds every column's value for listed rows, and maps the keys of
    the basic columns to their values for a ``ColumnOracle``.
    """

    x: tuple[Fraction, ...] | dict[Hashable, Fraction]


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers y with y A <= 0 and y b > 0: the system is infeasible."""

    y: tuple[Fraction, ...]


class ColumnOracle(Protocol):
    """An integer matrix A seen through its columns, none of them listed.

    ``len`` is A's row count. ``best(u)`` returns max over the columns a of
    u . a and the key of the first column attaining it, in a fixed column
    order; ``column(key)`` lists that column's nonzeros as (row, value)
    pairs.
    """

    def __len__(self) -> int: ...

    def best(self, u: Sequence[int]) -> tuple[int, Hashable]: ...

    def column(self, key: Hashable) -> Iterable[tuple[int, int]]: ...


def solve_equality_feasibility(
    rows: Sequence[Sequence[tuple[int, Rational]]] | ColumnOracle,
    rhs: Sequence[Rational],
    n_columns: int | None = None,
) -> FeasiblePoint | FarkasCertificate:
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists.

    A has ``n_columns`` columns and ``rows[i]`` lists the nonzeros of its
    row i as (column, value) pairs, each column at most once; the point's
    ``x`` is then dense. Or ``rows`` is a ``ColumnOracle`` (no
    ``n_columns``), which prices A's columns, and ``x`` maps the keys of the
    columns the point uses to their values.
    """
    m = len(rows)
    if m == 0:
        raise ValidationError("feasibility system needs at least one row")
    if len(rhs) != m:
        raise ValidationError("rhs length does not match row count")

    # Orient every row so its right-hand side is nonnegative, then clear its
    # denominators (an oracle's entries are integers). Positive row scalings
    # change neither feasibility nor any sign the pivot rules look at; the
    # Farkas multipliers are mapped back through them at the end.
    scales: list[int] = []
    b: list[int] = []
    for i in range(m):
        bi = Fraction(rhs[i])
        denom = bi.denominator
        if n_columns is not None:
            denom = math.lcm(denom, *{v.denominator for _, v in rows[i]})
        scale = -denom if bi < 0 else denom
        scales.append(scale)
        b.append((bi * scale).numerator)

    if n_columns is None:
        oracle = rows

        def price(w):
            return oracle.best([wi * s for wi, s in zip(w, scales)])

        def column(key):
            return [(i, v * scales[i]) for i, v in oracle.column(key)]

    else:
        price, column = _listed_columns(rows, scales, n_columns)

    point, duals = _phase_one(b, price, column)
    if point is None:
        return FarkasCertificate(tuple(v * s for v, s in zip(duals, scales)))
    if n_columns is None:
        return FeasiblePoint(dict(point))
    x = [Fraction(0)] * n_columns
    for j, v in point:
        x[j] = v
    return FeasiblePoint(tuple(x))


def _listed_columns(rows, scales: list[int], n_columns: int):
    """(price, column) callbacks over the columns of the scaled rows.

    A column is stored as the list of its nonzeros, each named by its index
    into ``entries``, the distinct (row, scaled value) pairs of the matrix.
    Pricing multiplies once per distinct pair rather than once per nonzero
    (a 0/1 matrix has about one pair per row).
    """
    entry_id: defaultdict[tuple[int, int], int] = defaultdict(count().__next__)
    columns: list[list[int]] = [[] for _ in range(n_columns)]
    for i, row in enumerate(rows):
        for j, v in row:
            if not 0 <= j < n_columns:
                raise ValidationError(f"row {i} has an entry in column {j}, out of range")
            if v:
                columns[j].append(entry_id[(i, (v * scales[i]).numerator)])
    entries = list(entry_id)

    def price(w):
        priced = [w[i] * v for i, v in entries]
        entering = -1
        best = 0
        for j, col in enumerate(columns):
            d = sum(map(priced.__getitem__, col))
            if d > best:
                best = d
                entering = j
        return best, entering

    def column(j):
        return [entries[k] for k in columns[j]]

    return price, column


def _phase_one(b: list[int], price, column):
    """The simplex loop on the scaled system, whose right-hand side b is >= 0.

    ``price(w)`` returns the largest w . a_j over the scaled columns a_j and
    the key of the first column attaining it; ``column(key)`` lists that
    column's scaled nonzeros. Returns (the basic columns' (key, value) pairs,
    None) when the system is feasible, and (None, the duals of the scaled
    rows) when it is not.
    """
    m = len(b)
    block = []  # row i: [scaled B^-1 row i | scaled beta_i]
    for i, bi in enumerate(b):
        unit = [0] * (m + 1)
        unit[i] = 1
        unit[m] = bi
        block.append(unit)

    # Objective row of "minimize the sum of artificials" on the kept columns:
    # artificial reduced costs start at 0 and the rhs cell is the negated
    # objective value (both times the divisor, which starts at 1).
    obj = [0] * m + [-sum(b)]
    basis: list[Hashable | None] = [None] * m  # structural column basic in each row; None: its artificial
    divisor = 1

    while True:
        w = [divisor - v for v in obj[:m]]
        best, entering = price(w)
        if best <= 0:
            break

        nonzeros = column(entering)
        col = [sum(r[i] * v for i, v in nonzeros) for r in block]
        leaving = -1
        for i in range(m):
            if col[i] > 0 and (leaving < 0 or _lex_less(block, col, i, leaving, m)):
                leaving = i
        if leaving < 0:
            # Cannot happen: the Phase-I objective is bounded below by zero.
            raise AssertionError("phase-I simplex reported an unbounded column")

        prow = block[leaving]
        pivot = col[leaving]
        for i in range(m):
            if i != leaving:
                _kernels.bareiss_row(block[i], prow, col[i], pivot, divisor)
        _kernels.bareiss_row(obj, prow, -best, pivot, divisor)
        divisor = pivot
        basis[leaving] = entering

    if obj[m] == 0:  # objective value is -obj[m] / divisor
        point = [(j, Fraction(r[m], divisor)) for j, r in zip(basis, block) if j is not None]
        return point, None
    return None, [Fraction(wi, divisor) for wi in w]


def _lex_less(block, col, a: int, b: int, m: int) -> bool:
    """Whether row a of [beta | B^-1] / col[a] is lexicographically below row b's."""
    ra, rb, ca, cb = block[a], block[b], col[a], col[b]
    for k in (m, *range(m)):
        lhs = ra[k] * cb
        rhs = rb[k] * ca
        if lhs != rhs:
            return lhs < rhs
    raise AssertionError("basis inverse has proportional rows")

"""Exact linear feasibility over the rationals.

Solves "find x >= 0 with A x = b" by a revised Phase-I simplex; when the
system is infeasible the final duals give a Farkas certificate y with
y A <= 0 componentwise and y b > 0. A has integer entries and is given by a
``ColumnOracle``, which names a column with positive price under given row
prices, if one exists, and lists one column's nonzeros on demand, so no
caller builds a matrix and the engine never scans one.

Every row is first oriented so its right-hand side is nonnegative and
scaled so that right-hand side is an integer. One artificial variable per
row starts basic. The simplex keeps only the m x (m + 1) block
[B^-1 | beta] of the tableau (B the basis, beta the basic values), as sparse
rows, together with the objective row restricted to those columns; a
structural column of the tableau is rebuilt on demand as B^-1 a_j.

Each iteration first checks the phase-I objective, the sum of the
artificials: at zero the basic point is feasible and the loop stops (any
further pivot would be degenerate and leave every basic value as it is).
Otherwise it asks the oracle for a structural column against the duals w:
the objective entry of artificial i is its reduced cost 1 - w_i, so the
reduced cost of column j is -w . a_j, and the oracle names a column with
w . a_j > 0 if any exists; when none does, the duals are a Farkas
certificate. The membership LP and the restricted LP both ask their type
family for the best type (``membership.TypeColumns``), so neither lists its
columns; the membership LP first offers the best type among those that
avoid the data's zeros. The leaving row is chosen by the lexicographic
ratio test on the rows of [beta | B^-1] divided by the entering column
(Dantzig, Orden & Wolfe, 1955). Those rows start lexicographically
positive (beta >= 0, B^-1 = I), stay so, and are pairwise distinct because
B^-1 is nonsingular, so the choice is unique and the objective row strictly
increases lexicographically: no basis repeats and the method terminates
under any entering rule. Artificial columns are never priced, so an artificial that
leaves the basis never returns; this does not change feasibility (a feasible
point uses no artificials).

The kept block is fraction-free and sparse. Row i of [B^-1 | beta] is a
``{column: nonzero}`` dict (beta under key m) with its own scale s_i: its
stored entries are its true rational values times s_i, the divisor in force
when the row was last updated. With D the current divisor (the previous
pivot, 1 at the start), a pivot on entering column a and leaving row r

* computes the entering entry d_i of every row (B^-1 a, row by row);
* brings the pivot row up to D, row_r <- row_r * D / s_r (skipped when
  s_r = D), which makes its entering entry the pivot p = d_r * D / s_r;
* updates every other row whose d_i is nonzero with the two-term
  determinant step

      row_i <- (row_i * p - d_i * row_r) / s_i,

  and the objective row, kept at scale D, with its priced entry;
* sets the scale of the updated rows and of the pivot row to p, and D to p.

A row whose d_i is zero is not touched: its true values do not change, so
it keeps its stored entries and its older scale, and a row that no column
ever touches (a coordinate no type picks) is never updated. Every division
is exact. A dense fraction-free update (Bareiss 1968) stores every cell as
its true value times the current divisor, a minor of the scaled [A | I | b]
and so an integer; the rescale yields the pivot row's dense cells at D, and
the update yields row i's dense cells at p, so both quotients are those
integers. The duals w and the priced values carry the factor D, and the
ratio test compares each row of [beta | B^-1] with its own entering entry
(both carry s_i), so every sign test and ratio comparison sees true values
times a positive constant: the pivots, bases, points and Farkas multipliers
are those of the dense update, and everything runs on plain integers.

At the end the objective value is zero (a basic feasible point whose support
columns are linearly independent) or positive with no column pricing
positive (the duals w / divisor, mapped back through the row scaling, are
the Farkas multipliers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Protocol, Sequence, Union

from . import _kernels
from .errors import ValidationError

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class FeasiblePoint:
    """A solution x >= 0 of A x = b whose support columns are independent.

    ``x`` maps the keys of the basic columns to their values (a basic value
    may be zero); every other column is zero.
    """

    x: dict[Hashable, Fraction]


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers y with y A <= 0 and y b > 0: the system is infeasible."""

    y: tuple[Fraction, ...]


class ColumnOracle(Protocol):
    """A matrix A of integers seen through its columns, none of them listed.

    ``len`` is A's row count. ``best(u)`` returns u . a and the key of one
    column a, with u . a > 0 whenever some column has a positive price (so
    a price <= 0 means no column has one). ``column(key)`` lists that
    column's nonzeros as (row, value) pairs, every value an integer. A
    caller with rational entries scales each row and its right-hand side to
    integers first.
    """

    def __len__(self) -> int: ...

    def best(self, u: Sequence[int]) -> tuple[int, Hashable]: ...

    def column(self, key: Hashable) -> Iterable[tuple[int, int]]: ...


def solve_equality_feasibility(
    columns: ColumnOracle, rhs: Sequence[Rational]
) -> FeasiblePoint | FarkasCertificate:
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists.

    ``columns`` prices A's columns; the point's ``x`` maps the keys of the
    basic columns to their values.
    """
    m = len(columns)
    if m == 0:
        raise ValidationError("feasibility system needs at least one row")
    if len(rhs) != m:
        raise ValidationError("rhs length does not match row count")

    # Orient every row so its right-hand side is nonnegative, then clear the
    # right-hand side's denominator (the entries are integers already).
    # Positive row scalings change neither feasibility nor any sign the pivot
    # rules look at; the Farkas multipliers are mapped back through them at
    # the end.
    scales: list[int] = []
    b: list[int] = []
    for bi in map(Fraction, rhs):
        scale = -bi.denominator if bi < 0 else bi.denominator
        scales.append(scale)
        b.append((bi * scale).numerator)

    def price(w):
        return columns.best([wi * s for wi, s in zip(w, scales)])

    def column(key):
        return [(i, v * scales[i]) for i, v in columns.column(key)]

    point, duals = _phase_one(b, price, column)
    if point is None:
        return FarkasCertificate(tuple(v * s for v, s in zip(duals, scales)))
    return FeasiblePoint(dict(point))


def _phase_one(b: list[int], price, column):
    """The simplex loop on the scaled system, whose right-hand side b is >= 0.

    ``price(w)`` returns w . a_j and the key of a scaled column a_j, one
    with w . a_j > 0 if any exists; ``column(key)`` lists that column's
    scaled nonzeros. The loop stops when the objective reaches zero or no
    column prices positive. Returns (the basic columns' (key, value) pairs,
    None) when the system is feasible, and (None, the duals of the scaled
    rows) when it is not.
    """
    m = len(b)
    # Row i: {column: nonzero} of [scaled B^-1 row i | scaled beta_i], beta
    # under key m, stored at scale[i] times its true values.
    block = [{i: 1, m: bi} if bi else {i: 1} for i, bi in enumerate(b)]
    scale = [1] * m

    # Objective row of "minimize the sum of artificials" on the kept columns,
    # stored at the current divisor: artificial reduced costs start at 0 and
    # the rhs cell is the negated objective value.
    obj = {m: -sum(b)} if any(b) else {}
    basis: list[Hashable | None] = [None] * m  # structural column basic in each row; None: its artificial
    divisor = 1

    while obj.get(m):  # the objective, -obj[m] / divisor, is still positive
        w = [divisor - obj.get(i, 0) for i in range(m)]
        best, entering = price(w)
        if best <= 0:
            break

        a: dict[int, int] = {}
        for i, v in column(entering):
            a[i] = a.get(i, 0) + v
        col = {}  # row -> nonzero entering entry, at that row's scale
        for k, row in enumerate(block):
            # row . a over the shorter of the two.
            small, large = (row, a) if len(row) < len(a) else (a, row)
            d = 0
            for i, v in small.items():
                e = large.get(i)
                if e:
                    d += e * v
            if d:
                col[k] = d
        leaving = _leaving_row(block, col, m)

        prow = block[leaving]
        pivot = col.pop(leaving)
        if scale[leaving] != divisor:
            _kernels.bareiss_row(prow, {}, 0, divisor, scale[leaving])
            pivot = pivot * divisor // scale[leaving]
        for k, d in col.items():
            _kernels.bareiss_row(block[k], prow, d, pivot, scale[k])
            scale[k] = pivot
        _kernels.bareiss_row(obj, prow, -best, pivot, divisor)
        scale[leaving] = pivot
        divisor = pivot
        basis[leaving] = entering

    if not obj.get(m):  # objective value is -obj[m] / divisor
        point = [
            (j, Fraction(row.get(m, 0), s))
            for j, row, s in zip(basis, block, scale)
            if j is not None
        ]
        return point, None
    return None, [Fraction(wi, divisor) for wi in w]


def _leaving_row(block, col: dict[int, int], m: int) -> int:
    """The lexicographic ratio test over the rows with a positive entering entry."""
    leaving = -1
    for k, c in col.items():
        if c > 0 and (leaving < 0 or _lex_less(block[k], c, block[leaving], col[leaving], m)):
            leaving = k
    if leaving < 0:
        # Cannot happen: the Phase-I objective is bounded below by zero.
        raise AssertionError("phase-I simplex reported an unbounded column")
    return leaving


def _lex_less(ra: dict, ca: int, rb: dict, cb: int, m: int) -> bool:
    """Whether [beta | B^-1] row ra / ca is lexicographically below rb / cb."""
    lhs = ra.get(m, 0) * cb
    rhs = rb.get(m, 0) * ca
    if lhs != rhs:
        return lhs < rhs
    for k in sorted(ra.keys() | rb.keys()):
        lhs = ra.get(k, 0) * cb
        rhs = rb.get(k, 0) * ca
        if lhs != rhs:
            return lhs < rhs
    raise AssertionError("basis inverse has proportional rows")

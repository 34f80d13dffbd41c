"""Exact membership of choice data in the convex hull of a type set.

``test_membership`` decides whether observed choice probabilities are a
mixture of admissible types. It either returns an explicit mixing
distribution reproducing the data coordinate for coordinate, or a separating
vector that strictly separates the data from every type. The decision is a
rational LP feasibility problem: find nonnegative weights, summing to one,
whose type combination equals the data; the Farkas multipliers of the
infeasible case are exactly a separating functional.

Every block of the data and of every type sums to 1, so the hull lies in an
affine subspace of dimension coords - problems and one coordinate row per
block is implied by the others and the convexity row. The LP keeps the rows
of every coordinate but the last of its block, plus the convexity row:
coords - problems + 1 rows. The Farkas multipliers are zero-padded back to
full length and each block is then shifted so its minimum is 0. A shift
constant on a block moves the data and every type by the same amount, so
the gap is unchanged; the separator is nonnegative, and so is already the
vector the certificate pipeline positivizes. A one-type set takes the same
LP when the data's mass lies on its picks: a single column decides it, and
its Farkas vector is shifted the same way.

The LP lists no columns. Each simplex iteration asks the type family for
its best type under the current row prices (``TypeColumns``, which prices
the restricted LP's types too; ``enumeration.OrderTypes`` answers by its
dynamic program, so no stage lists the n! orders), and the family's
canonical tie-break makes that the column a scan of the listed types would
enter: the pivots, mixtures and separators are the same either way.

Unpicked-mass presolve. If the data puts mass on a coordinate c that no
type picks (``pickable``, a set lookup: linear orders never pick the empty
set or a set of two or more on a lifted layout), the separator is the unit
vector at the first such c and no LP runs. The data scores pi_c on it and
every type 0, so the gap is pi_c. This is the axiom failing on the single
trial "the choice from B is S", where c is S in problem B. The gap is
computed with one ``best`` call, like every separator's, so a ``pickable``
that missed a picked coordinate would fail loudly, not refute wrongly.

Zero-probability presolve. Let Z be the coordinates where the data is 0.
Weights are positive and types are 0/1, so no type that picks a coordinate
in Z is in any mixture that reproduces the data. If every type picks one
(one ``best`` call with ``avoid`` = Z decides it), the separator is the
indicator of the data's support, shifted per block like a Farkas vector.
On it the data scores the number of blocks that meet Z, and every type at
least 1 less. This is the axiom failing on the trials "the choice from B
lies in the support of the data on B". Otherwise the LP prices the types
that avoid Z first: while one of them prices positive it enters, so a
feasible point is a mixture of them; once none does, the whole family is
priced for the rest of the solve, so an infeasible end still has no type
pricing positive and its Farkas vector separates the data from every type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Hashable, Mapping, Sequence

from .errors import LayoutMismatch
from .exactlp import FeasiblePoint, solve_equality_feasibility
# max_over_types is not called here but stays bound: perfbench/tracing.py
# wraps it in every module that imports it.
from .model import (
    ChoiceTypeVector,
    IndexLayout,
    StochasticChoiceVector,
    TypeFamily,
    inner,
    max_over_types,
    primitive_integers,
)


@dataclass(frozen=True)
class MixingDistribution:
    """Positive rational weights on types that reproduce the observed data.

    Weights are kept in the type set's canonical order and sum to exactly 1.
    """

    layout: IndexLayout
    weights: tuple[tuple[ChoiceTypeVector, Fraction], ...]

    @property
    def support_size(self) -> int:
        return len(self.weights)

    @cached_property
    def mixture(self) -> tuple[Fraction, ...]:
        """The combined vector sum(weight * type), computed exactly."""
        acc = [Fraction(0)] * self.layout.coordinate_count
        for t, w in self.weights:
            for i in t.chosen:
                acc[i] += w
        return tuple(acc)


@dataclass(frozen=True)
class SeparatingVector:
    """An integer functional valuing the data strictly above every type.

    ``gap`` is inner(direction, data) - max over types of
    inner(direction, type); it is strictly positive.
    """

    direction: tuple[int, ...]
    gap: Fraction


def test_membership(
    pi: StochasticChoiceVector, types: TypeFamily
) -> MixingDistribution | SeparatingVector:
    """Decide pi in co(types) exactly.

    Returns a MixingDistribution when the data is rationalizable, otherwise a
    SeparatingVector with strictly positive gap. Exactly one of the two is
    possible for valid inputs.
    """
    if pi.layout != types.layout:
        raise LayoutMismatch("choice data and type set use different layouts")
    layout = pi.layout
    n_coords = layout.coordinate_count
    blocks = [layout.block_range(j) for j in range(layout.problem_count)]

    pickable = types.pickable
    unpicked = next((i for i, v in enumerate(pi.values) if v and i not in pickable), None)
    zeros = frozenset(i for i, v in enumerate(pi.values) if not v)
    if unpicked is not None:
        # Mass on a coordinate no type picks: separate by its unit vector.
        y = [0] * n_coords
        y[unpicked] = 1
    elif zeros and types.best([0] * n_coords, zeros) is None:
        # No type avoids the zeros: separate by the support's indicator.
        y = [int(v > 0) for v in pi.values]
    else:
        # One row per coordinate but the last of its block, then the
        # convexity row.
        kept = [i for block in blocks for i in block[:-1]]
        rhs = [pi.values[i] for i in kept] + [Fraction(1)]
        oracle = TypeColumns(types, [(i,) for i in kept], avoid=zeros)
        result = solve_equality_feasibility(oracle, rhs)
        if isinstance(result, FeasiblePoint):
            return MixingDistribution(layout, type_weights(result.x))
        y = [Fraction(0)] * n_coords
        for i, v in zip(kept, result.y):
            y[i] = v
    for block in blocks:
        low = min(y[i] for i in block)
        for i in block:
            y[i] -= low
    direction = primitive_integers(y)
    gap = inner(direction, pi.values) - types.best(direction)[0]
    if gap <= 0:
        raise AssertionError("infeasible system produced a non-separating direction")
    return SeparatingVector(direction, gap)


class TypeColumns:
    """An LP's matrix as a column oracle over a type family.

    Row r of the first ``len(rows)`` counts a type's picks among the
    coordinates ``rows[r]``; the last row is the convexity row, 1 for every
    type. The family's best type for the row prices, summed onto their
    coordinates, is the best type column, and the family's canonical order
    is the column order. With ``surplus``, the integer key r is a column
    with -1 in row r alone, for each row but the last; these come first in
    the column order, so they win ties with the types. The membership LP
    keeps one coordinate per row; the restricted LP keeps one restricted
    query per row, with surplus columns.

    With ``avoid``, ``best`` returns the best type that picks no coordinate
    in ``avoid`` while that type prices positive; from the first call where
    it does not, ``best`` prices the whole family, for the rest of the
    solve. The membership LP passes the data's zeros. It runs only on data
    whose mass lies on coordinates some type picks, so a row of a
    coordinate no type picks has right-hand side 0 and no type column
    touches it.
    """

    def __init__(
        self,
        types: TypeFamily,
        rows: Sequence[Sequence[int]],
        surplus: bool = False,
        avoid: AbstractSet[int] = frozenset(),
    ):
        self.types = types
        self.rows = rows
        self.surplus = surplus
        self.avoid = avoid
        self.rows_of: list[list[int]] = [[] for _ in range(types.layout.coordinate_count)]
        for r, coords in enumerate(rows):
            for c in coords:
                self.rows_of[c].append(r)

    def __len__(self) -> int:
        return len(self.rows) + 1

    def best(self, u: Sequence[int]) -> tuple[int, ChoiceTypeVector | int]:
        y = [0] * len(self.rows_of)
        for coords, v in zip(self.rows, u):
            if v:
                for c in coords:
                    y[c] += v
        if self.avoid:
            found = self.types.best(y, self.avoid)
            if found is not None and found[0] + u[-1] > 0:
                return found[0] + u[-1], found[1]
            self.avoid = frozenset()
        value, t = self.types.best(y)
        value += u[-1]
        if self.surplus and self.rows:
            r = min(range(len(self.rows)), key=u.__getitem__)
            if -u[r] >= value:
                return -u[r], r
        return value, t

    def column(self, key: ChoiceTypeVector | int) -> list[tuple[int, int]]:
        if isinstance(key, int):
            return [(key, -1)]
        return [(r, 1) for c in key.chosen for r in self.rows_of[c]] + [(len(self.rows), 1)]


def type_weights(x: Mapping[Hashable, Fraction]) -> tuple[tuple[ChoiceTypeVector, Fraction], ...]:
    """The nonzero type columns of a ``TypeColumns`` point, in the types' canonical order."""
    used = (tw for tw in x.items() if isinstance(tw[0], ChoiceTypeVector) and tw[1])
    return tuple(sorted(used, key=lambda tw: tw[0].chosen, reverse=True))

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
LP: a single column decides it, and its Farkas vector is shifted the same
way.

The LP lists no columns. Each simplex iteration asks the type family for
its best type under the current row prices (``enumeration.OrderTypes`` by
its dynamic program, so no stage lists the n! orders), and the family's
canonical tie-break makes that the column a scan of the listed types would
enter: the pivots, mixtures and separators are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

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

    # One row per coordinate but the last of its block, then the convexity
    # row.
    kept = [i for block in blocks for i in block[:-1]]
    rhs = [pi.values[i] for i in kept] + [Fraction(1)]
    result = solve_equality_feasibility(_TypeColumns(types, kept, n_coords), rhs)
    if isinstance(result, FeasiblePoint):
        used = sorted(result.x.items(), key=lambda tw: tw[0].chosen, reverse=True)
        return MixingDistribution(layout, tuple((t, w) for t, w in used if w != 0))
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


class _TypeColumns:
    """The membership LP's matrix as a column oracle over the type family.

    The column of type R has a 1 in the row of each kept coordinate R picks
    and in the convexity row; the family's best type for the row prices,
    placed on their coordinates, is the best column, and the family's
    canonical order is the column order.
    """

    def __init__(self, types: TypeFamily, kept: list[int], n_coords: int):
        self.types = types
        self.kept = kept
        self.n_coords = n_coords
        self.row_of = [-1] * n_coords
        for r, i in enumerate(kept):
            self.row_of[i] = r

    def __len__(self) -> int:
        return len(self.kept) + 1

    def best(self, u: Sequence[int]) -> tuple[int, ChoiceTypeVector]:
        y = [0] * self.n_coords
        for i, v in zip(self.kept, u):
            y[i] = v
        value, t = self.types.best(y)
        return value + u[-1], t

    def column(self, t: ChoiceTypeVector) -> list[tuple[int, int]]:
        rows = [self.row_of[i] for i in t.chosen]
        return [(r, 1) for r in rows if r >= 0] + [(len(self.kept), 1)]

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
vector the certificate pipeline positivizes. A one-type set needs no LP: its
separator is +-1 on the first coordinate where the data differs from the
type, shifted and scaled the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import LayoutMismatch
from .exactlp import FeasiblePoint, solve_equality_feasibility
from .model import (
    ChoiceTypeVector,
    IndexLayout,
    RationalTypeSet,
    StochasticChoiceVector,
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
    pi: StochasticChoiceVector, type_set: RationalTypeSet
) -> MixingDistribution | SeparatingVector:
    """Decide pi in co(types) exactly.

    Returns a MixingDistribution when the data is rationalizable, otherwise a
    SeparatingVector with strictly positive gap. Exactly one of the two is
    possible for valid inputs.
    """
    if pi.layout != type_set.layout:
        raise LayoutMismatch("choice data and type set use different layouts")
    layout = pi.layout
    types = type_set.types
    n_coords = layout.coordinate_count
    blocks = [layout.block_range(j) for j in range(layout.problem_count)]
    y = [Fraction(0)] * n_coords

    if len(types) == 1:
        only = types[0]
        picked = set(only.chosen)
        diff = [v - int(k in picked) for k, v in enumerate(pi.values)]
        if not any(diff):
            return MixingDistribution(layout, ((only, Fraction(1)),))
        # Deterministic separator: the sign of the first differing coordinate.
        i = next(k for k, d in enumerate(diff) if d)
        y[i] = Fraction(1 if diff[i] > 0 else -1)
    else:
        # Nonzeros of one row per coordinate but the last of its block, then
        # of the convexity row.
        kept = [i for block in blocks for i in block[:-1]]
        row_of = [-1] * n_coords
        for r, i in enumerate(kept):
            row_of[i] = r
        ones = [(k, 1) for k in range(len(types))]
        rows = [[] for _ in kept]
        for entry, t in zip(ones, types):
            for i in t.chosen:
                if row_of[i] >= 0:
                    rows[row_of[i]].append(entry)
        rows.append(ones)
        rhs = [pi.values[i] for i in kept] + [Fraction(1)]
        result = solve_equality_feasibility(rows, rhs, len(types))
        if isinstance(result, FeasiblePoint):
            weights = tuple((types[k], w) for k, w in enumerate(result.x) if w != 0)
            return MixingDistribution(layout, weights)
        for i, v in zip(kept, result.y):
            y[i] = v

    for block in blocks:
        low = min(y[i] for i in block)
        for i in block:
            y[i] -= low
    direction = primitive_integers(y)
    best, _ = max_over_types(direction, type_set)
    gap = inner(direction, pi.values) - best
    if gap <= 0:
        raise AssertionError("infeasible system produced a non-separating direction")
    return SeparatingVector(direction, gap)

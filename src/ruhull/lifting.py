"""Power-set lifting: set-valued choice as singleton choice over subsets.

A set-valued observation on a problem is a single choice from the problem's
power set. Lifting replaces the universe by all subsets of the base universe
and each problem by the set of its subsets (the empty set included in both),
after which the ordinary membership machinery applies unchanged. Whether
empty or non-singleton choices are admissible is a property of the supplied
type set, never of the layout. Singleton choice is the special case where
every observation and every type picks a singleton:
``singleton_choice_data`` and ``singleton_types`` carry ordinary data and
types onto the lifted layout.

Also provided is the weaker, historically used trial family that may only
query "a set together with all its subsets" inside one problem, and an exact
decision procedure for the axiom restricted to that family. The restricted
axiom is implied by full rationalizability but does not imply it; see the
tests for a two-alternative instance witnessing the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CapExceeded, LayoutMismatch, ValidationError
from .exactlp import FeasiblePoint, solve_equality_feasibility
from .model import (
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    IndexLayout,
    Rational,
    RationalTypeSet,
    StochasticChoiceVector,
    Trial,
    build_layout,
    inner,
    make_type_set,
    to_rational,
    validate_pi,
)

MAX_LIFTED_COORDINATES = 1 << 16


def _subset_label(universe: ChoiceUniverse, subset: tuple[int, ...]) -> str:
    return "{" + ",".join(universe.labels[i] for i in subset) + "}"


@dataclass(frozen=True)
class LiftedLayout:
    """Coordinate layout over the power-set universe of a base instance."""

    base_universe: ChoiceUniverse
    base_problems: tuple[ChoiceProblem, ...]
    subsets: tuple[tuple[int, ...], ...]  # lifted alternative -> base index tuple
    layout: IndexLayout

    @cached_property
    def _subset_coordinates(self) -> dict[tuple[int, tuple[int, ...]], int]:
        table = {}
        for j, problem in enumerate(self.layout.problems):
            start = self.layout.block_offsets[j]
            for pos, member in enumerate(problem.members):
                table[(j, self.subsets[member])] = start + pos
        return table

    @cached_property
    def base_layout(self) -> IndexLayout:
        """The layout of the base instance."""
        return build_layout(self.base_universe, self.base_problems)

    @cached_property
    def singleton_coordinates(self) -> tuple[int, ...]:
        """For each base coordinate, the lifted coordinate of its singleton."""
        table = self._subset_coordinates
        return tuple(
            table[(j, (member,))]
            for j, problem in enumerate(self.base_problems)
            for member in problem.members
        )

    def coordinate_for_subset(self, problem_index: int, subset: tuple[int, ...]) -> int:
        """Coordinate of a subset inside a lifted block; raises if not a subset."""
        try:
            return self._subset_coordinates[(problem_index, tuple(subset))]
        except KeyError:
            raise ValidationError(
                f"{set(subset) or '{}'} is not a subset of problem {problem_index}"
            ) from None

    def block_subsets(self, problem_index: int) -> tuple[tuple[int, ...], ...]:
        """Subsets of one base problem, in block coordinate order."""
        problem = self.layout.problems[problem_index]
        return tuple(self.subsets[m] for m in problem.members)


def lift_layout(
    universe: ChoiceUniverse,
    problems: Sequence[ChoiceProblem],
    max_coordinates: int = MAX_LIFTED_COORDINATES,
) -> LiftedLayout:
    """Build the lifted layout; subsets ordered by cardinality then position."""
    if not problems:
        raise ValidationError("empty problem list")
    would_be = sum(1 << p.size for p in problems)
    if would_be > max_coordinates:
        raise CapExceeded(
            f"lifting would create {would_be} coordinates, above the cap of "
            f"{max_coordinates}"
        )
    if (1 << universe.size) > max_coordinates:
        raise CapExceeded(
            f"the power-set universe would have {1 << universe.size} elements, "
            f"above the cap of {max_coordinates}"
        )

    size = universe.size
    all_subsets = sorted(
        (
            tuple(i for i in range(size) if mask >> i & 1)
            for mask in range(1 << size)
        ),
        key=lambda s: (len(s), s),
    )
    position = {s: k for k, s in enumerate(all_subsets)}
    lifted_universe = ChoiceUniverse(
        tuple(_subset_label(universe, s) for s in all_subsets)
    )

    lifted_problems = []
    for problem in problems:
        members = sorted(
            position[s] for s in all_subsets if set(s) <= set(problem.members)
        )
        lifted_problems.append(ChoiceProblem(tuple(members)))

    layout = build_layout(lifted_universe, lifted_problems)
    return LiftedLayout(universe, tuple(problems), tuple(all_subsets), layout)


def lift_set_valued_data(
    observations: Sequence[Mapping[Iterable[str] | frozenset, Rational]],
    lifted: LiftedLayout,
) -> StochasticChoiceVector:
    """Encode per-problem subset probabilities on the lifted layout.

    Each observation maps subsets (collections of base labels; the empty
    collection is legal) to rational probabilities. Unmentioned subsets get
    probability zero; each problem's probabilities must sum to exactly 1.
    """
    if len(observations) != len(lifted.base_problems):
        raise ValidationError(
            f"expected {len(lifted.base_problems)} observation maps, "
            f"got {len(observations)}"
        )
    values = [Fraction(0)] * lifted.layout.coordinate_count
    for j, obs in enumerate(observations):
        for key, prob in obs.items():
            labels = (key,) if isinstance(key, str) else tuple(key)
            subset = tuple(sorted(lifted.base_universe.index(lbl) for lbl in labels))
            if len(set(subset)) != len(subset):
                raise ValidationError(
                    f"observation for problem {j} repeats a label in {labels!r}"
                )
            coord = lifted.coordinate_for_subset(j, subset)
            values[coord] += to_rational(prob, where=f"probability in problem {j}")
    return validate_pi(values, lifted.layout)


def singleton_choice_data(
    pi: StochasticChoiceVector, lifted: LiftedLayout
) -> StochasticChoiceVector:
    """Re-express ordinary singleton choice data on the lifted layout."""
    if pi.layout != lifted.base_layout:
        raise LayoutMismatch("choice data does not match the lifted layout's base")
    values = [Fraction(0)] * lifted.layout.coordinate_count
    for value, coord in zip(pi.values, lifted.singleton_coordinates):
        values[coord] = value
    return validate_pi(values, lifted.layout)


def singleton_types(type_set: RationalTypeSet, lifted: LiftedLayout) -> RationalTypeSet:
    """Re-express ordinary choice types on the lifted layout: each pick as its singleton."""
    if type_set.layout != lifted.base_layout:
        raise LayoutMismatch("types do not match the lifted layout's base")
    lifted_coordinate = lifted.singleton_coordinates
    types = (
        ChoiceTypeVector(tuple(lifted_coordinate[c] for c in t.chosen))
        for t in type_set.types
    )
    return make_type_set(types, lifted.layout)


def restricted_trials(lifted: LiftedLayout) -> tuple[Trial, ...]:
    """The downward-closed trial family: one query per (problem, subset) pair.

    The query for subset S of problem j marks exactly the lifted alternatives
    of block j that are subsets of S. These are the only aggregates the
    restricted axiom may use.
    """
    out = []
    for j in range(lifted.layout.problem_count):
        block_start = lifted.layout.block_offsets[j]
        subsets = lifted.block_subsets(j)
        for s in subsets:
            s_set = set(s)
            coords = tuple(
                block_start + pos
                for pos, candidate in enumerate(subsets)
                if s_set.issuperset(candidate)
            )
            out.append(Trial(j, coords))
    return tuple(out)


def check_restricted_arsp(
    pi: StochasticChoiceVector,
    type_set: RationalTypeSet,
    lifted: LiftedLayout,
) -> bool:
    """Decide the axiom quantified over the restricted trial family only.

    True iff every finite multiset of restricted trials satisfies the
    inequality. Scaling reduces the quantifier over integer multiplicities to
    nonnegative rational weights, so a violation exists iff the system

        sum_s y_s * (T_s . pi - T_s . R) >= 1  for every type R,   y >= 0

    is feasible; this is decided exactly.
    """
    if pi.layout != lifted.layout or type_set.layout != lifted.layout:
        raise LayoutMismatch("data, types and lifted layout must agree")
    trials = restricted_trials(lifted)
    trial_pi = [inner(t, pi) for t in trials]
    n_trials = len(trials)
    n_types = len(type_set.types)
    rows = []  # row r: the nonzero margins of type r, then its surplus column
    for r, typ in enumerate(type_set.types):
        margins = (p - (typ.chosen[t.block] in t.coordinates) for p, t in zip(trial_pi, trials))
        rows.append([(s, m) for s, m in enumerate(margins) if m] + [(n_trials + r, -1)])
    rhs = [Fraction(1)] * n_types
    result = solve_equality_feasibility(rows, rhs, n_trials + n_types)
    return not isinstance(result, FeasiblePoint)

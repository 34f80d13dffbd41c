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
decision procedure for the axiom restricted to that family, with a witness
either way: the LP for a mixture of types that dominates the data on every
restricted query, whose type columns are priced like the membership LP's,
so it takes any type family and lists none. The restricted axiom is implied
by full rationalizability but does not imply it; see the tests for a
two-alternative instance witnessing the gap. Two cases need no restricted LP: mass on the empty set that no
type picks (``empty_set_trial``), and singleton data, decided on the base
layout and carried across (``singleton_outcome``: a mixture's types map to
their singletons, and a certificate is rebuilt by ``make_certificate`` from
the mapped separator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .certificate import CheckOutcome, make_certificate
from .errors import CapExceeded, LayoutMismatch, ValidationError
from .exactlp import FeasiblePoint, solve_equality_feasibility
from .membership import MixingDistribution, SeparatingVector, TypeColumns, type_weights
from .model import (
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    IndexLayout,
    Rational,
    RationalTypeSet,
    StochasticChoiceVector,
    Trial,
    TypeFamily,
    build_layout,
    inner,
    make_type_set,
    primitive_integers,
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
    def coordinate_subsets(self) -> tuple[tuple[int, ...], ...]:
        """The base subset each lifted coordinate stands for."""
        return tuple(self.subsets[m] for p in self.layout.problems for m in p.members)

    @cached_property
    def _subset_coordinates(self) -> dict[tuple[int, tuple[int, ...]], int]:
        pairs = zip(self.layout.coordinate_blocks, self.coordinate_subsets)
        return {pair: c for c, pair in enumerate(pairs)}

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
                f"{_subset_label(self.base_universe, subset)} is not a subset of "
                f"problem {problem_index}"
            ) from None

    def coordinate_for_labels(self, problem_index: int, labels: Iterable[str]) -> int:
        """Coordinate of the subset with these base labels inside a lifted block.

        Raises ``ValidationError`` for an unknown label, a repeated label, or
        labels that are not a subset of the problem.
        """
        subset = tuple(sorted(map(self.base_universe.index, labels)))
        if len(set(subset)) != len(subset):
            raise ValidationError(
                f"{_subset_label(self.base_universe, subset)} repeats a label"
            )
        return self.coordinate_for_subset(problem_index, subset)

    def block_subsets(self, problem_index: int) -> tuple[tuple[int, ...], ...]:
        """Subsets of one base problem, in block coordinate order."""
        block = self.layout.block_range(problem_index)
        return self.coordinate_subsets[block.start : block.stop]


def lift_layout(universe: ChoiceUniverse, problems: Sequence[ChoiceProblem]) -> LiftedLayout:
    """Build the lifted layout; subsets ordered by cardinality then position."""
    if not problems:
        raise ValidationError("empty problem list")
    would_be = sum(1 << p.size for p in problems)
    if would_be > MAX_LIFTED_COORDINATES:
        raise CapExceeded(
            f"lifting would create {would_be} coordinates, above the cap of "
            f"{MAX_LIFTED_COORDINATES}"
        )
    if (1 << universe.size) > MAX_LIFTED_COORDINATES:
        raise CapExceeded(
            f"the power-set universe would have {1 << universe.size} elements, "
            f"above the cap of {MAX_LIFTED_COORDINATES}"
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
            coord = lifted.coordinate_for_labels(j, (key,) if isinstance(key, str) else key)
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


def singleton_outcome(
    outcome: CheckOutcome,
    pi: StochasticChoiceVector,
    types: TypeFamily,
    lifted: LiftedLayout,
) -> CheckOutcome:
    """Carry a decision on the base layout onto the lifted layout's singletons.

    ``pi`` and ``types`` are the data and types on the lifted layout. Mixture
    types move coordinate by coordinate to their singletons. A separator
    moves the same way, with zeros on every other subset, and the
    certificate pipeline runs on it over the lifted layout: every type picks
    a singleton, so the gap stays as it is, and singletons keep the base
    order inside each block, so the trials are the mapped ones.
    """
    to = lifted.singleton_coordinates
    if outcome.mixture is not None:
        weights = tuple(
            (ChoiceTypeVector(tuple(map(to.__getitem__, t.chosen))), w)
            for t, w in outcome.mixture.weights
        )
        return CheckOutcome(MixingDistribution(lifted.layout, weights), None)
    separating = outcome.certificate.separating
    direction = [0] * lifted.layout.coordinate_count
    for c, v in zip(to, separating.direction):
        direction[c] = v
    lifted_separating = SeparatingVector(tuple(direction), separating.gap)
    return CheckOutcome(None, make_certificate(lifted_separating, pi, types))


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


@dataclass(frozen=True)
class RestrictedArsp:
    """The restricted axiom's verdict and its witness.

    When the axiom holds, ``mixture`` lists (type, weight) pairs in the
    types' canonical order, weights positive and summing to 1, whose total
    on every restricted trial is at least the data's: then every multiset of
    restricted trials collects under the data at most what the mixture
    collects, so at most what its best type does (Ville's theorem). When it fails, ``trials`` lists (trial, count)
    pairs, a multiset of restricted trials that collects strictly more under
    the data than any type: the single query "a subset of the empty set"
    from ``empty_set_trial``, or the restricted LP's multiset. Both are empty
    when the full verdict witnesses the axiom (rationalizable data, or
    singleton data, where the restricted axiom is the full one).
    """

    holds: bool
    mixture: tuple[tuple[ChoiceTypeVector, Fraction], ...] = ()
    trials: tuple[tuple[Trial, int], ...] = ()


def empty_set_trial(
    pi: StochasticChoiceVector, types: TypeFamily, lifted: LiftedLayout
) -> RestrictedArsp | None:
    """The one-trial violation "the choice from B is a subset of the empty set".

    That query marks only B's empty-set coordinate. When one best value over
    the empty-set coordinates of all problems is 0, no type picks the empty
    set, so the query collects nothing under any type and the data's mass on
    it is the violation; the first problem with such mass is reported. None
    when the data puts no mass on the empty set or some type picks it. Lists
    no types and solves no LP.
    """
    empty = [lifted.coordinate_for_subset(j, ()) for j in range(lifted.layout.problem_count)]
    block = next((j for j, c in enumerate(empty) if pi.values[c]), None)
    if block is None:
        return None
    indicator = [0] * lifted.layout.coordinate_count
    for c in empty:
        indicator[c] = 1
    if types.best(indicator)[0]:
        return None
    return RestrictedArsp(False, trials=((Trial(block, (empty[block],)), 1),))


def check_restricted_arsp(
    pi: StochasticChoiceVector,
    types: TypeFamily,
    lifted: LiftedLayout,
) -> RestrictedArsp:
    """Decide the axiom quantified over the restricted trial family only.

    By Ville's theorem it holds iff some mixture mu of the types dominates
    the data on every restricted query T_s: mu(T_s) >= pi(T_s). That is the
    LP with one row per binding query (``_binds``) and a convexity row,

        sum_R lambda_R (T_s . R) - surplus_s = T_s . pi,   sum_R lambda_R = 1,

    whose type columns are priced by the membership LP's oracle
    (``membership.TypeColumns``), so no type is listed. A feasible point's
    types are the dominating mixture. Otherwise the Farkas multipliers y_s
    of the query rows are >= 0 (surplus columns), and the type columns give
    sum_s y_s (T_s . pi) > max over R of sum_s y_s (T_s . R): y, scaled to
    integers, is a violating multiset of restricted trials.
    """
    if pi.layout != lifted.layout or types.layout != lifted.layout:
        raise LayoutMismatch("data, types and lifted layout must agree")
    queries = [t for t in restricted_trials(lifted) if _binds(t, pi, lifted)]
    rhs = [inner(t, pi) for t in queries] + [1]
    oracle = TypeColumns(types, [t.coordinates for t in queries], surplus=True)
    result = solve_equality_feasibility(oracle, rhs)
    if isinstance(result, FeasiblePoint):
        return RestrictedArsp(True, mixture=type_weights(result.x))
    counts = primitive_integers(result.y[:-1])
    return RestrictedArsp(False, trials=tuple((t, k) for t, k in zip(queries, counts) if k))


def _binds(query: Trial, pi: StochasticChoiceVector, lifted: LiftedLayout) -> bool:
    """Whether the query "the choice from B is a subset of S" needs a row.

    It does iff S is not B, the data gives the query mass, and every member
    of S lies in some A within S with pi(B, A) > 0. Any mixture mu meets the
    query S = B with equality, and one without mass trivially. If some x in
    S lies in no such A, pi(within S) = pi(within S - x) <= mu(within S - x)
    <= mu(within S), so the smaller query's row implies this one.
    """
    coords = query.coordinates
    if len(coords) == len(lifted.layout.block_range(query.block)):
        return False
    supported = [lifted.coordinate_subsets[c] for c in coords if pi.values[c]]
    whole = lifted.coordinate_subsets[coords[-1]]
    return bool(supported) and len(set().union(*supported)) == len(whole)

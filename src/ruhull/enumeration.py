"""Built-in generators for rationalizable type sets.

Three sources of admissible types are supported:

* linear orders over the universe (strict utility maximization),
* weak orders (utility maximization with ties), whose maximizer *sets* become
  single choices on a power-set-lifted layout,
* explicit user-supplied 0/1 rows for anything else.

Enumeration is deterministic: identical inputs always produce the identical
canonical type set. Hard caps keep the combinatorics at desk scale.

``LinearOrderOracle`` answers the two questions a report's witness puts to
the linear-order types, whether a pattern is one and what a functional's
best value over them is, without listing them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, LayoutMismatch, ValidationError
from .lifting import LiftedLayout, singleton_types
from .model import (
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    IndexLayout,
    Rational,
    RationalTypeSet,
    make_type_set,
)

MAX_LINEAR_ORDER_UNIVERSE = 10
MAX_WEAK_ORDER_UNIVERSE = 6


def ordered_bell(n: int) -> int:
    """Number of weak orders (ordered set partitions) on n elements."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(
            sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1))
        )
    return counts[n]


def check_linear_order_cap(size: int) -> None:
    """Refuse a universe whose linear orders are past the enumeration cap."""
    if size > MAX_LINEAR_ORDER_UNIVERSE:
        raise CapExceeded(
            f"refusing to enumerate {size}! = {math.factorial(size)} linear orders "
            f"(cap is a universe of {MAX_LINEAR_ORDER_UNIVERSE})"
        )


def weak_orders(size: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered partitions of range(size), best indifference class first."""
    if size > MAX_WEAK_ORDER_UNIVERSE:
        raise CapExceeded(
            f"refusing to enumerate {ordered_bell(size)} weak orders "
            f"(cap is a universe of {MAX_WEAK_ORDER_UNIVERSE})"
        )

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not remaining:
            yield ()
            return
        n = len(remaining)
        for mask in range(1, 1 << n):
            first = tuple(remaining[i] for i in range(n) if mask >> i & 1)
            rest = tuple(remaining[i] for i in range(n) if not mask >> i & 1)
            for tail in rec(rest):
                yield (first,) + tail

    return rec(tuple(range(size)))


def types_from_linear_orders(layout: IndexLayout) -> RationalTypeSet:
    """Types induced by all linear orders: pick the order-best member of each block.

    The orders are walked as a prefix tree, best alternative first. Ranking
    x next picks x in every still-undecided problem that contains x; an
    alternative in no undecided problem cannot change the pattern, so the
    walk only ranks alternatives that decide something, and a prefix that
    has decided every problem yields its pattern and stops. Distinct orders
    can still induce the same choice pattern; duplicates are merged.
    """
    size = layout.universe.size
    check_linear_order_cap(size)
    # Per alternative: (problem, coordinate) of each problem it is a member of.
    picks: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for j, p in enumerate(layout.problems):
        for c, m in zip(layout.block_range(j), p.members):
            picks[m].append((j, c))
    members = [p.members for p in layout.problems]
    chosen = [-1] * layout.problem_count
    open_count = [len(by_problem) for by_problem in picks]  # undecided problems per alternative
    patterns = set()

    def walk(unranked: list[int], undecided: int) -> None:
        for x in unranked:
            decided = [(j, c) for j, c in picks[x] if chosen[j] < 0]
            for j, c in decided:
                chosen[j] = c
            if len(decided) == undecided:
                patterns.add(tuple(chosen))
            else:
                for j, _ in decided:
                    for m in members[j]:
                        open_count[m] -= 1
                walk([a for a in unranked if open_count[a]], undecided - len(decided))
                for j, _ in decided:
                    for m in members[j]:
                        open_count[m] += 1
            for j, _ in decided:
                chosen[j] = -1

    walk([a for a in range(size) if picks[a]], layout.problem_count)
    return make_type_set(map(ChoiceTypeVector, patterns), layout)


def types_from_explicit(
    bit_rows: Iterable[Sequence[int]], layout: IndexLayout
) -> RationalTypeSet:
    """Validate, deduplicate and canonically order user-supplied type rows."""
    return make_type_set(bit_rows, layout)


def correspondence_types_from_weak_orders(
    universe: ChoiceUniverse,
    problems: Sequence[ChoiceProblem],
    lifted: LiftedLayout,
) -> RationalTypeSet:
    """Set-valued maximizer types on a lifted layout, one per weak order.

    For each weak order the type selects, in every lifted block, the single
    element equal to the set of maximizers of the base problem. Maximizer sets
    of nonempty problems are nonempty, so these types never select the
    empty-set element.
    """
    _check_base(universe, problems, lifted)
    patterns = set()
    for classes in weak_orders(universe.size):
        chosen = []
        for j, problem in enumerate(problems):
            members = set(problem.members)
            maximizers: tuple[int, ...] = ()
            for cls in classes:
                hit = members.intersection(cls)
                if hit:
                    maximizers = tuple(sorted(hit))
                    break
            chosen.append(lifted.coordinate_for_subset(j, maximizers))
        patterns.add(tuple(chosen))
    return make_type_set(map(ChoiceTypeVector, patterns), lifted.layout)


def correspondence_types_from_linear_orders(
    universe: ChoiceUniverse,
    problems: Sequence[ChoiceProblem],
    lifted: LiftedLayout,
) -> RationalTypeSet:
    """Singleton-forcing lifted types: linear orders have one maximizer per block."""
    _check_base(universe, problems, lifted)
    return singleton_types(types_from_linear_orders(lifted.base_layout), lifted)


def _check_base(
    universe: ChoiceUniverse, problems: Sequence[ChoiceProblem], lifted: LiftedLayout
) -> None:
    if lifted.base_universe != universe or lifted.base_problems != tuple(problems):
        raise ValidationError(
            "lifted layout was not built from the given universe and problems"
        )


class LinearOrderOracle:
    """The linear-order types of a layout, decided without listing the orders.

    A pattern of picks is such a type iff its revealed relation (the pick of
    each problem ranked above every other member) is acyclic, which a
    topological sort decides in O(sum |P|). The best value of a functional y
    over the types is a dynamic program over the set S of alternatives
    ranked first, as in Held and Karp (1962): ranking x next collects
    y[P, x] in every problem P that contains x and misses S, so with
    f(empty) = 0

        f(S | {x}) = max over such S, x of  f(S) + sum of those y[P, x],

    and the best value is f(universe), found in O(2^n sum |P|) exact
    additions. On a lifted layout the types are the singleton-forcing ones:
    every pick is the singleton of a base pick, and y is read on those
    singletons.
    """

    def __init__(self, layout: IndexLayout | LiftedLayout):
        if isinstance(layout, LiftedLayout):
            self.layout, base = layout.layout, layout.base_layout
            self._type_coordinate = layout.singleton_coordinates
        else:
            self.layout = base = layout
            self._type_coordinate = range(layout.coordinate_count)
        self._size = base.universe.size
        self._problems = base.problems
        # Per base coordinate: the alternative it picks and its problem as a bit mask.
        self._member = [m for p in base.problems for m in p.members]
        self._mask = [
            sum(1 << m for m in p.members) for p in base.problems for _ in p.members
        ]
        self._base_coordinate = {c: b for b, c in enumerate(self._type_coordinate)}
        self._block = base.coordinate_blocks

    def admits(self, t: ChoiceTypeVector) -> bool:
        """Whether some linear order picks ``t.chosen[j]`` in every problem j."""
        if len(t.chosen) != len(self._problems):
            return False
        below: list[list[int]] = [[] for _ in range(self._size)]
        above_count = [0] * self._size
        for j, c in enumerate(t.chosen):
            b = self._base_coordinate.get(c)
            if b is None or self._block[b] != j:
                return False
            best = self._member[b]
            for m in self._problems[j].members:
                if m != best:
                    below[best].append(m)
                    above_count[m] += 1
        ready = [a for a in range(self._size) if not above_count[a]]
        ranked = 0
        while ready:
            a = ready.pop()
            ranked += 1
            for m in below[a]:
                above_count[m] -= 1
                if not above_count[m]:
                    ready.append(m)
        return ranked == self._size

    def best_value(self, y: Sequence[Rational]) -> Rational:
        """max over the types R of inner(y, R), exactly; equals max_over_types's value."""
        if len(y) != self.layout.coordinate_count:
            raise LayoutMismatch(
                f"vector length {len(y)} does not match layout "
                f"({self.layout.coordinate_count} coordinates)"
            )
        gains: list[list[tuple[int, Rational]]] = [[] for _ in range(self._size)]
        for b, c in enumerate(self._type_coordinate):
            if y[c]:
                gains[self._member[b]].append((self._mask[b], y[c]))
        states = 1 << self._size
        best: list[Rational | None] = [None] * states
        best[0] = 0
        for ranked in range(states - 1):
            base_value = best[ranked]
            for x, collected in enumerate(gains):
                bit = 1 << x
                if ranked & bit:
                    continue
                value = base_value
                for mask, weight in collected:
                    if not mask & ranked:
                        value += weight
                grown = ranked | bit
                if best[grown] is None or value > best[grown]:
                    best[grown] = value
        return best[states - 1]

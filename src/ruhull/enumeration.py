"""Built-in generators for rationalizable type sets.

Three sources of admissible types are supported:

* linear orders over the universe (strict utility maximization),
* weak orders (utility maximization with ties), whose maximizer *sets* become
  single choices on a power-set-lifted layout,
* explicit user-supplied 0/1 rows for anything else.

Enumeration is deterministic: identical inputs always produce the identical
canonical type set. Hard caps keep the combinatorics at desk scale.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, ValidationError
from .lifting import LiftedLayout, singleton_types
from .model import (
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    IndexLayout,
    RationalTypeSet,
    build_layout,
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


def linear_orders(size: int) -> Iterator[tuple[int, ...]]:
    """All permutations of range(size), best alternative first."""
    if size > MAX_LINEAR_ORDER_UNIVERSE:
        raise CapExceeded(
            f"refusing to enumerate {size}! = {math.factorial(size)} linear orders "
            f"(cap is a universe of {MAX_LINEAR_ORDER_UNIVERSE})"
        )
    return permutations(range(size))


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

    Distinct orders can induce the same choice pattern (when the problems do
    not discriminate between them); duplicates are merged.
    """
    size = layout.universe.size
    patterns = set()
    for order in linear_orders(size):
        rank = [0] * size
        for pos, alt in enumerate(order):
            rank[alt] = pos
        chosen = tuple(
            layout.coordinate(j, min(p.members, key=rank.__getitem__))
            for j, p in enumerate(layout.problems)
        )
        patterns.add(chosen)
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
    if lifted.base_universe != universe or lifted.base_problems != tuple(problems):
        raise ValidationError(
            "lifted layout was not built from the given universe and problems"
        )
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
    return singleton_types(types_from_linear_orders(build_layout(universe, problems)), lifted)

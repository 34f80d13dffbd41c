"""Built-in generators for rationalizable type sets.

Three sources of admissible types are supported:

* linear orders over the universe (strict utility maximization),
* weak orders (utility maximization with ties), whose maximizer *sets* become
  single choices on a power-set-lifted layout,
* explicit user-supplied 0/1 rows for anything else.

Both order families are one engine, ``OrderTypes``. An order ranks classes
of alternatives best first: single alternatives for a linear order, sets of
tied alternatives for a weak order. Ranking a class C decides every
still-undecided problem P that meets C, with the pick C & P. From that one
definition the engine lists the types, gives a functional's best type over
them by a subset dynamic program, and decides whether a pattern is a type,
the last two without listing anything.

Enumeration is deterministic: identical inputs always produce the identical
canonical type set. Hard caps keep the combinatorics at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceeded, LayoutMismatch, ValidationError
from .lifting import LiftedLayout
from .model import (
    ChoiceTypeVector,
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


def check_weak_order_cap(size: int) -> None:
    """Refuse a universe whose weak orders are past the enumeration cap."""
    if size > MAX_WEAK_ORDER_UNIVERSE:
        raise CapExceeded(
            f"refusing to enumerate {ordered_bell(size)} weak orders "
            f"(cap is a universe of {MAX_WEAK_ORDER_UNIVERSE})"
        )


def _mask(alternatives: Iterable[int]) -> int:
    return sum(1 << a for a in alternatives)


class OrderTypes:
    """The types that linear orders, or with ``ties`` weak orders, induce.

    A type picks, in every problem, the order's maximizer set of that
    problem: a single alternative for a linear order, any nonempty subset
    for a weak order (so weak orders need a lifted layout, whose blocks hold
    the subsets). On a lifted layout a linear order picks singletons.
    Alternatives and problems are bit masks over the base universe; for each
    problem the engine keeps the coordinate it picks for each maximizer set.

    ``types()`` walks the orders as a prefix tree of ranked classes; a class
    holds only alternatives of still-undecided problems, and a prefix that
    decides every problem yields its pattern and stops. ``best(y)`` is the
    dynamic program of Held and Karp (1962) over the set S of alternatives
    ranked so far: with f(empty) = 0,

        f(S | C) = max over S and C disjoint from S of
                   f(S) + sum of y[pick(P, C & P)] over the P that meet C and miss S,

    and the best value is f(universe): O(2^n sum |P|) exact additions for
    linear orders, O(3^n sum |P|) for weak orders. The class ranked last on
    a best way to each state traces the maximizing type back. ``admits(t)`` is
    Richter's (1966) test: a pattern is a type iff no strict revealed
    preference (its pick over another member of a problem) lies on a cycle
    of the revealed relation (its pick over every member), which the
    transitive closure of that relation decides in O(n^2 + sum |P|).
    """

    def __init__(self, layout: IndexLayout | LiftedLayout, ties: bool = False):
        if isinstance(layout, LiftedLayout):
            self.layout, subsets = layout.layout, layout.subsets
            base_problems, self._size = layout.base_problems, layout.base_universe.size
        elif ties:
            raise ValidationError("weak-order types need a power-set lifted layout")
        else:
            self.layout, subsets = layout, None
            base_problems, self._size = layout.problems, layout.universe.size
        self.ties = ties
        self._masks = [_mask(p.members) for p in base_problems]
        # Per problem: the coordinate picked for each maximizer set, keyed by
        # its mask. Per pick coordinate: its problem, the set as a mask and as
        # members, and the problem's other members.
        self._picks: list[dict[int, int]] = []
        self._picked: dict[int, tuple[int, int, tuple[int, ...], tuple[int, ...]]] = {}
        for j, (problem, base) in enumerate(zip(self.layout.problems, base_problems)):
            picks = {}
            for c, m in zip(self.layout.block_range(j), problem.members):
                chosen = (m,) if subsets is None else subsets[m]
                if len(chosen) == 1 or (ties and chosen):
                    picks[_mask(chosen)] = c
                    others = tuple(a for a in base.members if a not in chosen)
                    self._picked[c] = (j, _mask(chosen), chosen, others)
            self._picks.append(picks)
        # Per class an order can rank: (problem mask, pick) of each problem
        # it meets. These do not depend on the functional.
        self._class_picks = [
            (cls, [(mask, picks[mask & cls]) for mask, picks in zip(self._masks, self._picks)
                   if (mask & cls) in picks])
            for cls in self._classes((1 << self._size) - 1)
        ]
        # A tie digit per coordinate: its position in its block as a digit
        # in radix B (the largest block size), the first problem's the most
        # significant. ``_unit`` = B^problems lies above every sum of digits.
        layout = self.layout
        radix = max(p.size for p in layout.problems)
        last = layout.problem_count - 1
        self._unit = radix ** layout.problem_count
        self._digits = [
            (c - layout.block_offsets[j]) * radix ** (last - j)
            for c, j in enumerate(layout.coordinate_blocks)
        ]

    def _classes(self, alternatives: int) -> list[int]:
        """The classes an order can rank next among ``alternatives``, as masks."""
        if not self.ties:
            return [1 << a for a in range(self._size) if alternatives >> a & 1]
        out, cls = [], alternatives
        while cls:
            out.append(cls)
            cls = (cls - 1) & alternatives
        return out

    def types(self) -> RationalTypeSet:
        """Every induced type, deduplicated and canonically ordered."""
        (check_weak_order_cap if self.ties else check_linear_order_cap)(self._size)
        masks, picks = self._masks, self._picks
        chosen = [-1] * len(masks)
        patterns = set()

        def walk(undecided: list[int]) -> None:
            relevant = 0
            for j in undecided:
                relevant |= masks[j]
            for cls in self._classes(relevant):
                rest = []
                for j in undecided:
                    hit = masks[j] & cls
                    if hit:
                        chosen[j] = picks[j][hit]
                    else:
                        rest.append(j)
                if rest:
                    walk(rest)
                else:
                    patterns.add(tuple(chosen))

        walk(list(range(len(masks))))
        return make_type_set(map(ChoiceTypeVector, patterns), self.layout)

    def best(self, y: Sequence[Rational]) -> tuple[Rational, ChoiceTypeVector]:
        """max over the types R of inner(y, R), exactly, and its canonically first
        maximizer (the largest ``chosen``): the pair ``max_over_types`` returns.

        The dynamic program runs once, on integers: y is scaled to integers,
        and each coordinate's tie digit is added below the value's unit, so
        one maximum orders (value, ``chosen``) lexicographically.
        """
        if len(y) != self.layout.coordinate_count:
            raise LayoutMismatch(
                f"vector length {len(y)} does not match layout "
                f"({self.layout.coordinate_count} coordinates)"
            )
        denom = math.lcm(*(v.denominator for v in y))
        unit = self._unit
        weights = [
            v.numerator * (denom // v.denominator) * unit + digit
            for v, digit in zip(y, self._digits)
        ]
        # Per class: its mask, (problem mask, weight of the pick) of each
        # problem it meets where that weight is nonzero, and its index.
        steps = [
            (cls, [(mask, weights[c]) for mask, c in picks if weights[c]], k)
            for k, (cls, picks) in enumerate(self._class_picks)
        ]
        states = 1 << self._size
        best: list[int | None] = [None] * states
        best[0] = 0
        last_class = [0] * states  # the class ranked last on a best way to each state
        for ranked in range(states - 1):
            base_value = best[ranked]
            for cls, collected, k in steps:
                if ranked & cls:
                    continue
                value = base_value
                for mask, weight in collected:
                    if not mask & ranked:
                        value += weight
                grown = ranked | cls
                if best[grown] is None or value > best[grown]:
                    best[grown] = value
                    last_class[grown] = k
        chosen = [-1] * len(self._masks)
        blocks = self.layout.coordinate_blocks
        ranked = states - 1
        while ranked:
            cls, picks = self._class_picks[last_class[ranked]]
            ranked ^= cls
            for mask, c in picks:
                if not mask & ranked:
                    chosen[blocks[c]] = c
        value = best[states - 1] // unit
        return (value if denom == 1 else Fraction(value, denom)), ChoiceTypeVector(tuple(chosen))

    def admits(self, t: ChoiceTypeVector) -> bool:
        """Whether some order of the family picks ``t.chosen[j]`` in every problem j."""
        if len(t.chosen) != len(self._masks):
            return False
        reach = [1 << a for a in range(self._size)]  # the revealed relation, then its closure
        picks = [self._picked.get(c) for c in t.chosen]
        for j, pick in enumerate(picks):
            if pick is None or pick[0] != j:
                return False
            for a in pick[2]:
                reach[a] |= self._masks[j]
        for k in range(self._size):
            bit, via = 1 << k, reach[k]
            reach = [r | via if r & bit else r for r in reach]
        # Reject a pick strictly over another member that reaches it back.
        for _, best, _, others in picks:
            for a in others:
                if reach[a] & best:
                    return False
        return True


def types_from_linear_orders(layout: IndexLayout) -> RationalTypeSet:
    """Types induced by all linear orders: pick the order-best member of each block."""
    return OrderTypes(layout).types()


def types_from_explicit(
    bit_rows: Iterable[Sequence[int]], layout: IndexLayout
) -> RationalTypeSet:
    """Validate, deduplicate and canonically order user-supplied type rows."""
    return make_type_set(bit_rows, layout)


def correspondence_types_from_weak_orders(lifted: LiftedLayout) -> RationalTypeSet:
    """Set-valued maximizer types on a lifted layout, one per weak order.

    In every lifted block the type selects the element equal to the set of
    maximizers of the base problem. Maximizer sets of nonempty problems are
    nonempty, so these types never select the empty-set element.
    """
    return OrderTypes(lifted, ties=True).types()


def correspondence_types_from_linear_orders(lifted: LiftedLayout) -> RationalTypeSet:
    """Singleton-forcing lifted types: linear orders have one maximizer per block."""
    return OrderTypes(lifted).types()

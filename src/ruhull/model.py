"""Exact vector encoding of stochastic choice instances.

An instance fixes a finite universe of alternatives and an ordered list of
choice problems (nonempty subsets of the universe; repeats are allowed and
occupy distinct blocks). Each problem contributes one block of coordinates,
one per member, members in universe order, problems in the given order.
Everything downstream works on vectors over these coordinates:

* stochastic choice data: one exact probability distribution per block,
* choice types: deterministic choice functions, kept as the coordinate they
  pick in each block (reports and ``enumerate-types`` print them as 0/1 rows),
* trials: queries inside a single problem, kept as the problem's index and
  the coordinates of its block that they ask about.

Probabilities are ``fractions.Fraction`` end to end; nothing in this package
ever rounds through floating point. All types are immutable after
construction and all operations are pure functions, so concurrent use needs
no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import (
    AbstractSet, Any, Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence, Union,
)

from . import _kernels
from .errors import LayoutMismatch, ValidationError

Rational = Union[int, Fraction]


def to_rational(value, where: str = "value") -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected (inexact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(
        f"{where} must be an int or Fraction, got {type(value).__name__}"
    )


def _show(value: Any, text: Callable[[Any], str] = str) -> str:
    """``text(value)`` for an error or failure message; never raises.

    Python refuses to print integers of more than 4300 decimal digits (see
    ``sys.set_int_max_str_digits``), so such rationals are described by size.
    """
    try:
        return text(value)
    except ValueError:
        if not isinstance(value, (int, Fraction)):
            return f"<unprintable {type(value).__name__}>"
        q = Fraction(value)
        sign = "-" if q < 0 else ""
        bits = abs(q.numerator).bit_length()
        if q.denominator == 1:
            return f"<{sign}{bits}-bit integer>"
        return f"<{sign}{bits}-bit / {q.denominator.bit_length()}-bit fraction>"


@dataclass(frozen=True)
class ChoiceUniverse:
    """Ordered tuple of distinct alternative labels.

    The order is fixed at construction; every coordinate in every layout
    derived from this universe refers back to it.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("universe must contain at least one alternative")
        seen = set()
        for pos, label in enumerate(self.labels):
            if not isinstance(label, str) or not label:
                raise ValidationError(
                    f"universe label at position {pos} must be a nonempty string"
                )
            if label in seen:
                raise ValidationError(f"duplicate universe label {label!r}")
            seen.add(label)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown label {label!r}") from None


@dataclass(frozen=True)
class ChoiceProblem:
    """A choice problem: strictly increasing universe indices (canonical order)."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValidationError("choice problem must be nonempty")
        if self.members[0] < 0:
            raise ValidationError(f"negative universe index {self.members[0]}")
        for a, b in zip(self.members, self.members[1:]):
            if a == b:
                raise ValidationError(f"duplicate member index {a} in problem")
            if a > b:
                raise ValidationError(
                    "problem members must be listed in universe order"
                )

    @property
    def size(self) -> int:
        return len(self.members)


def problem_from_labels(universe: ChoiceUniverse, labels: Iterable[str]) -> ChoiceProblem:
    """Build a problem from labels; order is normalized to universe order."""
    indices = []
    for label in labels:
        idx = universe.index(label)
        if idx in indices:
            raise ValidationError(f"duplicate label {label!r} in problem")
        indices.append(idx)
    return ChoiceProblem(tuple(sorted(indices)))


@dataclass(frozen=True)
class IndexLayout:
    """Flat coordinate space: one block per problem, one coordinate per member."""

    universe: ChoiceUniverse
    problems: tuple[ChoiceProblem, ...]
    block_offsets: tuple[int, ...]

    @property
    def problem_count(self) -> int:
        return len(self.problems)

    @property
    def coordinate_count(self) -> int:
        last = self.problems[-1]
        return self.block_offsets[-1] + last.size

    def block_range(self, problem_index: int) -> range:
        start = self.block_offsets[problem_index]
        return range(start, start + self.problems[problem_index].size)

    @cached_property
    def coordinate_blocks(self) -> tuple[int, ...]:
        """The problem index of each coordinate."""
        return tuple(j for j, p in enumerate(self.problems) for _ in p.members)

    @cached_property
    def coordinate_labels(self) -> tuple[str, ...]:
        """The alternative label of each coordinate."""
        labels = self.universe.labels
        return tuple(labels[m] for p in self.problems for m in p.members)

    def block_of(self, coordinate: int) -> int:
        if not 0 <= coordinate < self.coordinate_count:
            raise ValidationError(f"coordinate {coordinate} out of range")
        return self.coordinate_blocks[coordinate]

    def coordinate(self, problem_index: int, universe_index: int) -> int:
        problem = self.problems[problem_index]
        try:
            pos = problem.members.index(universe_index)
        except ValueError:
            raise ValidationError(
                f"universe index {universe_index} not in problem {problem_index}"
            ) from None
        return self.block_offsets[problem_index] + pos


def build_layout(
    universe: ChoiceUniverse, problems: Sequence[ChoiceProblem]
) -> IndexLayout:
    """Assign coordinates: problems in the given order, members in universe order."""
    if not problems:
        raise ValidationError("empty problem list")
    offsets = []
    total = 0
    for j, problem in enumerate(problems):
        if problem.members[-1] >= universe.size:
            raise ValidationError(
                f"problem {j} references universe index {problem.members[-1]} "
                f"but the universe has only {universe.size} alternatives"
            )
        offsets.append(total)
        total += problem.size
    return IndexLayout(universe, tuple(problems), tuple(offsets))


@dataclass(frozen=True)
class StochasticChoiceVector:
    """Observed choice probabilities, one exact distribution per block."""

    layout: IndexLayout
    values: tuple[Fraction, ...]


def validate_pi(values: Sequence[Rational], layout: IndexLayout) -> StochasticChoiceVector:
    """Validate and freeze a stochastic choice vector.

    Entries must be exact rationals (ints or Fractions), nonnegative, and each
    block must sum to exactly 1. Entries are preserved bit for bit.
    """
    n = layout.coordinate_count
    if len(values) != n:
        raise ValidationError(f"expected {n} probabilities, got {len(values)}")
    vals = []
    for i, v in enumerate(values):
        f = to_rational(v, where=f"probability at coordinate {i}")
        if f < 0:
            raise ValidationError(f"negative probability {_show(f)} at coordinate {i}")
        vals.append(f)
    for j in range(layout.problem_count):
        block = layout.block_range(j)
        s = sum((vals[i] for i in block), Fraction(0))
        if s != 1:
            raise ValidationError(f"probabilities in problem {j} sum to {_show(s)}, not 1")
    return StochasticChoiceVector(layout, tuple(vals))


@dataclass(frozen=True)
class ChoiceTypeVector:
    """A nonstochastic choice function: ``chosen[j]`` is its pick in block j."""

    chosen: tuple[int, ...]


def make_type_vector(bits: Sequence[int], layout: IndexLayout) -> ChoiceTypeVector:
    """Validate a 0/1 row over the layout into the type it encodes."""
    n = layout.coordinate_count
    if len(bits) != n:
        raise ValidationError(f"type vector has length {len(bits)}, expected {n}")
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValidationError(f"type vector entry at coordinate {i} is not 0/1")
    chosen = []
    for j in range(layout.problem_count):
        ones = [i for i in layout.block_range(j) if bits[i]]
        if len(ones) != 1:
            raise ValidationError(
                f"type vector selects {len(ones)} alternatives in problem {j}, "
                "expected exactly one"
            )
        chosen.append(ones[0])
    return ChoiceTypeVector(tuple(chosen))


def type_bits(t: ChoiceTypeVector, layout: IndexLayout) -> tuple[int, ...]:
    """The 0/1 row of a type over the layout: 1 exactly at its chosen coordinates."""
    bits = [0] * layout.coordinate_count
    for i in t.chosen:
        bits[i] = 1
    return tuple(bits)


@dataclass(frozen=True)
class RationalTypeSet:
    """The finite set of admissible choice types, canonically ordered.

    Types are distinct and sorted lexicographically on their 0/1 rows, so
    enumeration order (and hence tie-breaking in ``best``, the one scan of
    the listed types) is deterministic across runs.
    """

    layout: IndexLayout
    types: tuple[ChoiceTypeVector, ...]

    def __len__(self) -> int:
        return len(self.types)

    # ``TypeFamily``: a scan of the listed types and two set lookups.

    def best(
        self, y: Sequence[Rational], avoid: AbstractSet[int] = frozenset()
    ) -> tuple[Rational, ChoiceTypeVector] | None:
        if len(y) != self.layout.coordinate_count:
            raise LayoutMismatch(
                f"vector length {len(y)} does not match layout "
                f"({self.layout.coordinate_count} coordinates)"
            )
        value, at = _kernels.best_support(y, (t.chosen for t in self.types), avoid)
        return None if at < 0 else (value, self.types[at])

    def admits(self, t: ChoiceTypeVector) -> bool:
        return t in self._members

    @cached_property
    def pickable(self) -> frozenset[int]:
        return frozenset(c for t in self.types for c in t.chosen)

    @cached_property
    def _members(self) -> frozenset[ChoiceTypeVector]:
        return frozenset(self.types)


class TypeFamily(Protocol):
    """The admissible types on a layout, asked rather than listed.

    Three questions: the best type under a functional, optionally among the
    types that pick no coordinate of a given set; whether a type is
    admitted; and which coordinates some type picks (``pickable``). Every
    decision, a one-type set's included, asks only these.
    ``RationalTypeSet`` answers by a scan of its listed types and
    ``enumeration.OrderTypes`` by a dynamic program over orders; both break
    ties to the canonically first type, so every answer is the same.
    """

    layout: IndexLayout
    pickable: frozenset[int]  # the coordinates that some type picks

    def best(
        self, y: Sequence[Rational], avoid: AbstractSet[int] = frozenset()
    ) -> tuple[Rational, ChoiceTypeVector] | None:
        """max over the types R that pick no coordinate in ``avoid`` of
        inner(y, R), and the canonically first maximizer; None when every
        type picks a coordinate in ``avoid``."""

    def admits(self, t: ChoiceTypeVector) -> bool:
        """Whether ``t`` is one of the types."""


def make_type_set(
    types: Iterable[Sequence[int] | ChoiceTypeVector], layout: IndexLayout
) -> RationalTypeSet:
    """Deduplicate and canonically sort types; only 0/1 rows are validated."""
    unique = {
        t if isinstance(t, ChoiceTypeVector) else make_type_vector(t, layout) for t in types
    }
    if not unique:
        raise ValidationError("a type set must contain at least one type")
    # Rows ascending is chosen descending: where two types first differ, the
    # one picking the earlier coordinate has the larger row.
    ordered = sorted(unique, key=attrgetter("chosen"), reverse=True)
    return RationalTypeSet(layout, tuple(ordered))


@dataclass(frozen=True)
class Trial:
    """A query inside one choice problem.

    ``block`` is the problem's index and ``coordinates`` are the sorted
    coordinates of that problem's block that the query asks about.
    """

    block: int
    coordinates: tuple[int, ...]


def make_trial(coordinates: Iterable[int], layout: IndexLayout) -> Trial:
    coords = tuple(sorted(coordinates))
    if not coords:
        raise ValidationError("trial must query at least one alternative")
    if len(set(coords)) != len(coords):
        raise ValidationError("trial queries a coordinate twice")
    block = layout.block_of(coords[0])
    if layout.block_of(coords[-1]) != block:
        raise ValidationError("trial support spans more than one problem block")
    return Trial(block, coords)


def trial_for_members(
    layout: IndexLayout, problem_index: int, universe_indices: Iterable[int]
) -> Trial:
    """Trial querying the given alternatives of one problem."""
    return make_trial(
        (layout.coordinate(problem_index, u) for u in universe_indices), layout
    )


@dataclass(frozen=True)
class TrialSequence:
    """A finite multiset of trials together with its dense componentwise sum.

    Only the aggregate matters to every check in this package; the trials are
    kept so certificates can be replayed literally.
    """

    trials: tuple[Trial, ...]
    aggregate: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.trials)


def make_trial_sequence(trials: Iterable[Trial], layout: IndexLayout) -> TrialSequence:
    trials = tuple(trials)
    n = layout.coordinate_count
    agg = [0] * n
    for t in trials:
        if not 0 <= t.coordinates[0] <= t.coordinates[-1] < n:
            raise LayoutMismatch("trial coordinates lie outside the layout")
        for i in t.coordinates:
            agg[i] += 1
    return TrialSequence(trials, tuple(agg))


def primitive_integers(values: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers.

    The result has gcd 1; the zero vector (and the empty one) maps to itself.
    """
    if not any(values):
        return tuple(0 for _ in values)
    denom = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (denom // v.denominator) for v in values]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _as_vector(x) -> Sequence[Rational]:
    return x.values if isinstance(x, StochasticChoiceVector) else x


def _ones(x) -> tuple[int, ...] | None:
    """The coordinates where a trial or a type is 1; None for other vectors."""
    if isinstance(x, Trial):
        return x.coordinates
    if isinstance(x, ChoiceTypeVector):
        return x.chosen
    return None


def inner(t, v) -> Rational:
    """Exact inner product; accepts raw sequences or the vector types above.

    A trial counts as the 0/1 indicator of its coordinates and a type as that
    of its chosen coordinates, so an inner product with either is a sum over
    those coordinates.
    """
    if _ones(t) is None:
        t, v = v, t
    ones, other = _ones(t), _ones(v)
    if ones is not None and other is not None:
        return len(set(ones).intersection(other))
    b = _as_vector(v)
    if ones is not None:
        return sum(b[i] for i in ones)
    a = _as_vector(t)
    if len(a) != len(b):
        raise LayoutMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return _kernels.dot(a, b)


def max_over_types(t, type_set: RationalTypeSet) -> tuple[Rational, ChoiceTypeVector]:
    """Exact max of inner(t, R) over the type set, with its canonically first maximizer."""
    return type_set.best(_as_vector(t))


class ArspResult(NamedTuple):
    lhs: Rational
    rhs: Rational
    holds: bool


def arsp_check(
    aggregate: Mapping[int, int] | TrialSequence,
    pi: StochasticChoiceVector,
    types: TypeFamily,
    best: Rational | None = None,
) -> ArspResult:
    """Check one trial multiset against the revealed-preference inequality.

    ``aggregate`` maps coordinates to how many trials query them (a
    ``TrialSequence`` stands for its aggregate). lhs is the total choice
    probability the trials collect under ``pi``; rhs is the best total any
    single type achieves: ``best`` when the caller has already derived it
    exactly, else one ``types.best``. The multiset passes when
    lhs <= rhs. Depends on the trials only through their aggregate, so it is
    invariant under reordering them.
    """
    if pi.layout != types.layout:
        raise LayoutMismatch("choice data and type set use different layouts")
    n = pi.layout.coordinate_count
    if isinstance(aggregate, TrialSequence):
        if len(aggregate.aggregate) != n:
            raise LayoutMismatch("trial sequence does not match layout")
        aggregate = dict(enumerate(aggregate.aggregate))
    dense = [0] * n
    for c, k in aggregate.items():
        if not 0 <= c < n:
            raise LayoutMismatch(f"aggregate coordinate {c} lies outside the layout")
        dense[c] = k
    lhs = inner(dense, pi.values)
    rhs = types.best(dense)[0] if best is None else best
    return ArspResult(lhs, rhs, lhs <= rhs)

"""Turn a separating vector into a replayable violation of the choice axiom.

A separating vector proves non-rationalizability abstractly; the pipeline
here converts it into a concrete finite trial sequence whose total choice
probability under the data strictly exceeds what any single type can
collect, and verifies that claim before returning. Three steps:

1. ``positivize``   shift by the max absolute entry so all entries are >= 0
                    (the shift moves both sides of the comparison by the same
                    amount because every block of the data and of every type
                    sums to one);
2. ``integerize``   clear denominators and divide out the gcd (a positive
                    rescaling, so strictness is preserved);
3. ``decompose``    write the integer aggregate as a multiset of one-block
                    trials, either one canonical-basis trial per unit or a
                    shorter greedy layering of subset queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import ValidationError
from .membership import MixingDistribution, SeparatingVector, test_membership
# max_over_types stays bound for perfbench/tracing.py, which wraps it here.
from .model import (
    IndexLayout,
    Rational,
    StochasticChoiceVector,
    Trial,
    TrialSequence,
    TypeFamily,
    inner,
    make_trial_sequence,
    max_over_types,
    primitive_integers,
    to_rational,
)

DecompositionMode = Literal["canonical", "compressed"]


def positivize(t: Sequence[Rational]) -> tuple[Rational, ...]:
    """Shift t into the nonnegative orthant by adding max(|t_i|) everywhere.

    Already-nonnegative vectors are returned unchanged to keep downstream
    aggregates small. Either way the separation gap against any valid data
    and type set is exactly preserved, since the all-ones functional gives
    the same value (the number of problems) on both.
    """
    vals = [to_rational(v, where="entry") for v in t]
    if all(v >= 0 for v in vals):
        return tuple(vals)
    shift = max(abs(v) for v in vals)
    return tuple(v + shift for v in vals)


def integerize(t: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a nonnegative rational vector to integers with gcd 1."""
    vals = [to_rational(v, where="entry") for v in t]
    for i, v in enumerate(vals):
        if v < 0:
            raise ValidationError(f"entry {i} is negative; positivize first")
    return primitive_integers(vals)


def decompose_to_trials(
    aggregate: Sequence[int],
    layout: IndexLayout,
    mode: DecompositionMode = "canonical",
) -> TrialSequence:
    """Write a nonnegative integer vector as a sum of one-block trials.

    canonical:  coordinate i contributes aggregate[i] copies of the basis
                trial querying only i (one-to-one with the integer count).
    compressed: within each block, repeatedly peel off the indicator of the
                remaining support, i.e. max(aggregate) layers per block.

    Both modes aggregate back to the input exactly.
    """
    if mode not in ("canonical", "compressed"):
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    n = layout.coordinate_count
    if len(aggregate) != n:
        raise ValidationError(f"aggregate has length {len(aggregate)}, expected {n}")
    agg = [int(v) for v in aggregate]
    if any(v < 0 for v in agg):
        raise ValidationError("aggregate entries must be nonnegative")
    if not any(agg):
        raise ValidationError("cannot decompose the zero vector into nonzero trials")

    trials: list[Trial] = []
    if mode == "canonical":
        for i, count in enumerate(agg):
            if count:
                trials.extend([Trial(layout.block_of(i), (i,))] * count)
    else:
        for j in range(layout.problem_count):
            remaining = {i: agg[i] for i in layout.block_range(j) if agg[i]}
            while remaining:
                trials.append(Trial(j, tuple(remaining)))
                remaining = {i: c - 1 for i, c in remaining.items() if c > 1}
    return make_trial_sequence(trials, layout)


@dataclass(frozen=True)
class ViolationCertificate:
    """A verified witness that the data is not a type mixture.

    Replaying ``trials`` through the axiom check must (and does, verified at
    construction) give lhs > rhs: the trial sequence collects strictly more
    probability from the data than any single type can.
    """

    separating: SeparatingVector
    positivized: tuple[Rational, ...]
    integer_aggregate: tuple[int, ...]
    trials: TrialSequence
    lhs: Fraction
    rhs: Fraction


def make_certificate(
    separating: SeparatingVector,
    pi: StochasticChoiceVector,
    types: TypeFamily,
    mode: DecompositionMode = "compressed",
) -> ViolationCertificate:
    """Run the full pipeline and verify the strict violation before returning."""
    # positivize and integerize keep strict separation, so the aggregate
    # separates exactly when the input does.
    shifted = positivize(separating.direction)
    aggregate = integerize(shifted)
    lhs = Fraction(inner(aggregate, pi.values))
    rhs = Fraction(types.best_value(aggregate))
    if lhs <= rhs:
        raise ValidationError(f"input does not separate: lhs {lhs} is not above rhs {rhs}")
    trials = decompose_to_trials(aggregate, pi.layout, mode)
    return ViolationCertificate(
        separating=separating,
        positivized=shifted,
        integer_aggregate=aggregate,
        trials=trials,
        lhs=lhs,
        rhs=rhs,
    )


@dataclass(frozen=True)
class CheckOutcome:
    """Exactly one of mixture / certificate, for one membership decision."""

    mixture: MixingDistribution | None
    certificate: ViolationCertificate | None

    def __post_init__(self):
        if (self.mixture is None) == (self.certificate is None):
            raise ValidationError("outcome must hold exactly one of mixture/certificate")

    @property
    def rationalizable(self) -> bool:
        return self.mixture is not None


def decide(
    pi: StochasticChoiceVector,
    types: TypeFamily,
    mode: DecompositionMode = "compressed",
) -> CheckOutcome:
    """End-to-end decision: mixture, or separating vector upgraded to a certificate."""
    result = test_membership(pi, types)
    if isinstance(result, MixingDistribution):
        return CheckOutcome(mixture=result, certificate=None)
    return CheckOutcome(
        mixture=None, certificate=make_certificate(result, pi, types, mode)
    )

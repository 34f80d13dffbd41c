from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    CheckOutcome,
    SeparatingVector,
    ValidationError,
    arsp_check,
    decide,
    decompose_to_trials,
    inner,
    integerize,
    make_certificate,
    max_over_types,
    membership,
    positivize,
    types_from_linear_orders,
    validate_pi,
)

from conftest import make_instance, random_rational_pi, random_small_instance, seeded


class TestPositivize:
    def test_zero_vector(self):
        assert positivize([0, 0, 0]) == (0, 0, 0)

    def test_mixed_signs(self):
        assert positivize([1, -1]) == (2, 0)

    def test_nonnegative_left_alone(self):
        assert positivize([Fraction(1, 2), 0, 3]) == (Fraction(1, 2), 0, 3)

    def test_shift_uses_largest_absolute_value(self):
        assert positivize([-5, 1]) == (0, 6)

    def test_gap_preserved_on_binary_example(self):
        # One binary problem, both types, balanced data, direction (1, -1):
        # the shifted direction must produce the same gap.
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_linear_orders(layout)
        pi = validate_pi([Fraction(1, 2), Fraction(1, 2)], layout)
        t = [1, -1]
        before = inner(t, pi) - max_over_types(t, ts)[0]
        assert before == Fraction(-1)
        shifted = positivize(t)
        assert shifted == (2, 0)
        after = inner(shifted, pi) - max_over_types(shifted, ts)[0]
        assert after == before


class TestIntegerize:
    def test_clears_denominators(self):
        assert integerize([Fraction(1, 2), Fraction(1, 3), 0]) == (3, 2, 0)

    def test_divides_gcd(self):
        assert integerize([2, 4]) == (1, 2)

    def test_zero_vector(self):
        assert integerize([0, 0]) == (0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            integerize([-1, 2])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=10, max_denominator=12),
            min_size=1,
            max_size=8,
        )
    )
    def test_positive_rescaling(self, vec):
        out = integerize(vec)
        assert all(isinstance(v, int) and v >= 0 for v in out)
        nonzero = [v for v in out if v]
        if not nonzero:
            assert not any(vec)
            return
        import math

        assert math.gcd(*nonzero) == 1
        # out = q * vec for a single positive rational q
        ratios = {Fraction(o) / Fraction(v) for o, v in zip(out, vec) if v}
        assert len(ratios) == 1
        assert ratios.pop() > 0


class TestDecompose:
    def test_single_basis_vector(self, pairwise3):
        _, _, layout, _ = pairwise3
        seq = decompose_to_trials([0, 0, 0, 0, 1, 0], layout)
        assert len(seq) == 1
        assert seq.trials[0].coordinates == (4,)
        assert seq.trials[0].block == 2

    def test_layers_per_block(self, pairwise3):
        _, _, layout, _ = pairwise3
        seq = decompose_to_trials([2, 0, 0, 3, 1, 1], layout)
        assert seq.aggregate == (2, 0, 0, 3, 1, 1)
        assert [(t.block, t.coordinates) for t in seq.trials] == [
            (0, (0,)),
            (0, (0,)),
            (1, (3,)),
            (1, (3,)),
            (1, (3,)),
            (2, (4, 5)),
        ]

    def test_compressed_layers(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        seq = decompose_to_trials([2, 1], layout)
        assert len(seq) == 2
        assert [t.coordinates for t in seq.trials] == [(0, 1), (0,)]
        assert seq.aggregate == (2, 1)

    def test_zero_aggregate_rejected(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError):
            decompose_to_trials([0] * 6, layout)

    def test_wrong_length_rejected(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError, match="aggregate has length 5, expected 6"):
            decompose_to_trials([1] * 5, layout)

    def test_negative_entry_rejected(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError, match="must be nonnegative"):
            decompose_to_trials([1, 0, 0, -1, 1, 0], layout)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decomposition_rebuilds_aggregate(self, data):
        rng = seeded(data.draw(st.integers(0, 10**6)))
        _, _, layout = random_small_instance(rng, max_universe=3, max_problems=3)
        agg = [rng.randrange(0, 4) for _ in range(layout.coordinate_count)]
        if not any(agg):
            agg[0] = 1
        seq = decompose_to_trials(agg, layout)
        assert seq.aggregate == tuple(agg)
        for t in seq.trials:
            support_blocks = {layout.block_of(i) for i in t.coordinates}
            assert support_blocks == {t.block}
        assert len(seq) == sum(
            max(agg[i] for i in layout.block_range(j)) for j in range(layout.problem_count)
        )


class TestMakeCertificate:
    def test_cyclic_values(self, pairwise3, cyclic_pi):
        _, _, layout, ts = pairwise3
        sep = SeparatingVector(direction=(1, 0, 0, 1, 1, 0), gap=Fraction(1))
        cert = make_certificate(sep, cyclic_pi, ts)
        assert cert.integer_aggregate == (1, 0, 0, 1, 1, 0)
        assert (cert.lhs, cert.rhs) == (3, 2)
        assert len(cert.trials) == 3

    def test_negative_entries_pipeline(self, pairwise3, cyclic_pi):
        _, _, layout, ts = pairwise3
        direction = (1, -1, -1, 1, 1, -1)
        best, _ = max_over_types(direction, ts)
        gap = inner(direction, cyclic_pi) - best
        assert gap == 2  # genuine separator, recomputed from scratch
        cert = make_certificate(SeparatingVector(direction, gap), cyclic_pi, ts)
        assert all(v >= 0 for v in cert.positivized)
        assert cert.integer_aggregate == (1, 0, 0, 1, 1, 0)
        assert cert.lhs > cert.rhs
        replay = arsp_check(cert.trials, cyclic_pi, ts)
        assert not replay.holds

    def test_inconsistent_separator_rejected(self, pairwise3, uniform_pi):
        _, _, layout, ts = pairwise3
        bogus = SeparatingVector(direction=(1, 0, 0, 0, 0, 0), gap=Fraction(1))
        with pytest.raises(ValidationError, match="separate"):
            make_certificate(bogus, uniform_pi, ts)

    def test_decided_certificate_violates(self, pairwise3, cyclic_pi):
        _, _, layout, ts = pairwise3
        outcome = decide(cyclic_pi, ts)
        cert = outcome.certificate
        assert cert is not None
        assert not arsp_check(cert.trials, cyclic_pi, ts).holds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pipeline_bookkeeping_on_random_violations(seed):
    # Hunt for violated instances, push negative entries into the separator
    # via a uniform downward shift (gap-neutral), and track the gap through
    # every pipeline stage.
    rng = seeded(seed)
    _, _, layout = random_small_instance(rng, max_universe=4, max_problems=5)
    ts = types_from_linear_orders(layout)
    pi = random_rational_pi(layout, rng, max_numerator=3)
    result = membership.test_membership(pi, ts)
    if not isinstance(result, SeparatingVector):
        return
    shifted = tuple(v - 1 for v in result.direction)  # force negatives
    best, _ = max_over_types(shifted, ts)
    gap_before = inner(shifted, pi) - best
    assert gap_before == result.gap  # uniform shifts never change the gap

    nonneg = positivize(shifted)
    best_after, _ = max_over_types(nonneg, ts)
    gap_after = inner(nonneg, pi) - best_after
    assert gap_after == gap_before

    aggregate = integerize(nonneg)
    ratios = {Fraction(a) / Fraction(v) for a, v in zip(aggregate, nonneg) if v}
    assert len(ratios) <= 1
    scale = ratios.pop() if ratios else Fraction(1)
    best_int, _ = max_over_types(aggregate, ts)
    assert inner(aggregate, pi) - best_int == scale * gap_after

    cert = make_certificate(SeparatingVector(shifted, gap_before), pi, ts)
    assert not arsp_check(cert.trials, pi, ts).holds


def test_outcome_holds_exactly_one_witness(pairwise3, cyclic_pi, uniform_pi):
    _, _, _, ts = pairwise3
    both = (decide(uniform_pi, ts).mixture, decide(cyclic_pi, ts).certificate)
    for mixture, certificate in (both, (None, None)):
        with pytest.raises(ValidationError, match="exactly one of mixture/certificate"):
            CheckOutcome(mixture, certificate)

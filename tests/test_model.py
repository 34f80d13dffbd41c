import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    LayoutMismatch,
    Trial,
    TrialSequence,
    ValidationError,
    arsp_check,
    build_layout,
    inner,
    make_trial,
    make_trial_sequence,
    make_type_set,
    make_type_vector,
    max_over_types,
    problem_from_labels,
    trial_for_members,
    type_bits,
    validate_pi,
)

from conftest import brute_force_order_patterns, make_instance


class TestLayout:
    def test_pairwise_three(self, pairwise3):
        _, _, layout, _ = pairwise3
        assert layout.problem_count == 3
        assert layout.coordinate_count == 6
        assert layout.block_offsets == (0, 2, 4)

    def test_single_singleton(self):
        _, _, layout = make_instance("a", [("a",)])
        assert layout.problem_count == 1
        assert layout.coordinate_count == 1

    def test_one_big_problem(self):
        _, _, layout = make_instance("abcd", [("a", "b", "c", "d")])
        assert layout.problem_count == 1
        assert layout.coordinate_count == 4

    def test_duplicate_problems_get_distinct_blocks(self):
        _, _, layout = make_instance("ab", [("a", "b"), ("a", "b")])
        assert layout.coordinate_count == 4
        assert layout.block_offsets == (0, 2)

    def test_member_order_normalized_to_universe_order(self):
        universe = ChoiceUniverse(("a", "b", "c"))
        problem = problem_from_labels(universe, ("c", "a"))
        assert problem.members == (0, 2)

    def test_duplicate_member_rejected(self):
        universe = ChoiceUniverse(("a", "b"))
        with pytest.raises(ValidationError):
            problem_from_labels(universe, ("a", "a"))

    def test_unknown_label_rejected(self):
        universe = ChoiceUniverse(("a", "b"))
        with pytest.raises(ValidationError):
            problem_from_labels(universe, ("z",))

    def test_empty_problem_list_rejected(self):
        universe = ChoiceUniverse(("a",))
        with pytest.raises(ValidationError):
            build_layout(universe, [])

    def test_coordinate_info(self, pairwise3):
        _, _, layout, _ = pairwise3
        assert layout.coordinate_info(0) == (0, "a")
        assert layout.coordinate_info(3) == (1, "c")
        assert layout.coordinate_info(5) == (2, "c")


class TestValidatePi:
    def test_valid_two_blocks(self):
        _, _, layout = make_instance("abc", [("a", "b"), ("a", "c")])
        pi = validate_pi([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)], layout)
        assert sum(pi.values) == 2

    def test_block_sum_error_names_problem(self):
        _, _, layout = make_instance("abc", [("a", "b"), ("a", "c")])
        with pytest.raises(ValidationError, match="problem 0"):
            validate_pi([Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)], layout)

    def test_negative_entry_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError, match="negative"):
            validate_pi([Fraction(3, 2), Fraction(-1, 2)], layout)

    def test_wrong_length_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError, match="expected 2"):
            validate_pi([1], layout)

    def test_float_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            validate_pi([0.5, 0.5], layout)

    def test_singleton_forced(self):
        _, _, layout = make_instance("a", [("a",)])
        pi = validate_pi([1], layout)
        assert sum(pi.values) == 1

    def test_entries_preserved_exactly(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        p = Fraction(3, 10)
        pi = validate_pi([p, 1 - p], layout)
        assert pi.values == (Fraction(3, 10), Fraction(7, 10))
        assert pi.values[0] is p  # never copied through floats


class TestInner:
    def test_identical_supports(self, pairwise3):
        _, _, layout, _ = pairwise3
        t = [1, 0, 1, 0, 1, 0]
        assert inner(t, t) == 3

    def test_all_ones_against_pi_gives_problem_count(self, pairwise3):
        _, _, layout, _ = pairwise3
        pi = validate_pi([Fraction(1, 3), Fraction(2, 3)] * 3, layout)
        assert inner([1] * 6, pi) == layout.problem_count

    def test_all_ones_against_any_type_gives_problem_count(self, pairwise3):
        _, _, layout, type_set = pairwise3
        for t in type_set.types:
            assert inner([1] * 6, t) == layout.problem_count

    def test_length_mismatch(self):
        with pytest.raises(LayoutMismatch):
            inner([1, 2], [1, 2, 3])


class TestMaxOverTypes:
    def test_all_ones_gives_problem_count(self, pairwise3):
        _, _, layout, type_set = pairwise3
        value, witness = max_over_types([1] * 6, type_set)
        assert value == 3
        assert witness is type_set.types[0]  # ties break to canonical order

    def test_basis_vector(self, pairwise3):
        _, _, layout, type_set = pairwise3
        value, _ = max_over_types([1, 0, 0, 0, 0, 0], type_set)
        assert value == 1

    def test_cyclic_direction_caps_at_two(self, pairwise3, cyclic_pi):
        # Independent check: no strict ranking satisfies all three cyclic
        # comparisons, so the best any type scores on this direction is 2.
        _, _, layout, type_set = pairwise3
        t = [1, 0, 0, 1, 1, 0]
        best = max(
            sum(t[i] for i in chosen)
            for chosen in brute_force_order_patterns(layout)
        )
        assert best == 2
        value, witness = max_over_types(t, type_set)
        assert value == 2
        assert inner(t, witness) == 2


class TestTrials:
    def test_trial_must_stay_in_one_block(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError, match="block"):
            make_trial([0, 2], layout)

    def test_trial_must_be_nonempty(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError):
            make_trial([], layout)

    def test_trial_for_members(self, pairwise3):
        _, _, layout, _ = pairwise3
        t = trial_for_members(layout, 1, [0, 2])  # both members of {a,c}
        assert t.coordinates == (2, 3)
        assert t.block == 1

    def test_trial_probability_bounds(self, pairwise3):
        _, _, layout, type_set = pairwise3
        pi = validate_pi([Fraction(1, 3), Fraction(2, 3)] * 3, layout)
        for j in range(3):
            for members in ([0], [1], [0, 1]):
                universe_members = [layout.problems[j].members[m] for m in members]
                t = trial_for_members(layout, j, universe_members)
                p = inner(t, pi)
                assert 0 <= p <= 1
                for typ in type_set.types:
                    assert inner(t, typ) in (0, 1)

    def test_sequence_aggregate(self, pairwise3):
        _, _, layout, _ = pairwise3
        t1 = trial_for_members(layout, 0, [0])
        t2 = trial_for_members(layout, 0, [0, 1])
        seq = make_trial_sequence([t1, t1, t2], layout)
        assert seq.aggregate == (3, 1, 0, 0, 0, 0)


class TestArspCheck:
    def test_empty_sequence(self, pairwise3, cyclic_pi):
        _, _, layout, type_set = pairwise3
        seq = make_trial_sequence([], layout)
        assert arsp_check(seq, cyclic_pi, type_set) == (0, 0, True)

    def test_all_ones_aggregate_is_tight(self, pairwise3, cyclic_pi):
        _, _, layout, type_set = pairwise3
        trials = [
            trial_for_members(layout, j, layout.problems[j].members) for j in range(3)
        ]
        lhs, rhs, holds = arsp_check(make_trial_sequence(trials, layout), cyclic_pi, type_set)
        assert (lhs, rhs, holds) == (3, 3, True)

    def test_cyclic_violation(self, pairwise3, cyclic_pi):
        _, _, layout, type_set = pairwise3
        trials = [
            trial_for_members(layout, 0, [0]),  # a from {a,b}
            trial_for_members(layout, 1, [2]),  # c from {a,c}
            trial_for_members(layout, 2, [1]),  # b from {b,c}
        ]
        seq = make_trial_sequence(trials, layout)
        lhs, rhs, holds = arsp_check(seq, cyclic_pi, type_set)
        assert (lhs, rhs, holds) == (3, 2, False)

    def test_depends_only_on_multiset(self, pairwise3, cyclic_pi):
        _, _, layout, type_set = pairwise3
        trials = [
            trial_for_members(layout, 0, [0]),
            trial_for_members(layout, 1, [2]),
            trial_for_members(layout, 2, [1]),
        ]
        for perm in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            seq = make_trial_sequence([trials[i] for i in perm], layout)
            assert arsp_check(seq, cyclic_pi, type_set) == (3, 2, False)

    def test_layout_mismatch(self, pairwise3, cyclic_pi):
        _, _, _, type_set = pairwise3
        _, _, other_layout = make_instance("ab", [("a", "b")])
        other_pi = validate_pi([1, 0], other_layout)
        seq = make_trial_sequence([], other_layout)
        with pytest.raises(LayoutMismatch):
            arsp_check(seq, other_pi, type_set)


class TestTypeSet:
    def test_type_vector_validation(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError, match="problem 0"):
            make_type_vector([1, 1, 1, 0, 1, 0], layout)
        with pytest.raises(ValidationError):
            make_type_vector([1, 0, 1, 0], layout)

    def test_duplicates_merged_and_sorted(self, pairwise3):
        _, _, layout, _ = pairwise3
        rows = [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]]
        ts = make_type_set(rows, layout)
        assert len(ts) == 2
        rows = [type_bits(t, ts.layout) for t in ts.types]
        assert rows == [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]

    def test_empty_rejected(self, pairwise3):
        _, _, layout, _ = pairwise3
        with pytest.raises(ValidationError):
            make_type_set([], layout)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_sum_identity_property(data):
    # For every valid data vector and every type: the all-ones functional
    # evaluates to the number of problems on both.
    from conftest import random_rational_pi, random_small_instance, seeded
    from ruhull import types_from_linear_orders

    rng = seeded(data.draw(st.integers(0, 10**6)))
    _, _, layout = random_small_instance(rng)
    pi = random_rational_pi(layout, rng)
    type_set = types_from_linear_orders(layout)
    ones = [1] * layout.coordinate_count
    assert inner(ones, pi) == layout.problem_count
    for t in type_set.types:
        assert inner(ones, t) == layout.problem_count


def _pairwise_three():
    """The layout over {a,b,c} with the three pairs, its order types and the uniform data."""
    _, _, layout = make_instance("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    pi = validate_pi([Fraction(1, 2)] * 6, layout)
    types = make_type_set(map(ChoiceTypeVector, brute_force_order_patterns(layout)), layout)
    return layout, types, pi


# (id, call on _pairwise_three's layout, types and data, error, message
# fragment): the model's input checks that the tests above leave out.
MODEL_INPUT_ERRORS = [
    ("empty-universe", lambda layout, ts, pi: ChoiceUniverse(()),
     ValidationError, "at least one alternative"),
    ("empty-label", lambda layout, ts, pi: ChoiceUniverse(("a", "")),
     ValidationError, "position 1 must be a nonempty string"),
    ("label-not-a-string", lambda layout, ts, pi: ChoiceUniverse(("a", 1)),
     ValidationError, "position 1 must be a nonempty string"),
    ("empty-problem", lambda layout, ts, pi: ChoiceProblem(()),
     ValidationError, "must be nonempty"),
    ("negative-member", lambda layout, ts, pi: ChoiceProblem((-1, 0)),
     ValidationError, "negative universe index -1"),
    ("repeated-member", lambda layout, ts, pi: ChoiceProblem((0, 0)),
     ValidationError, "duplicate member index 0"),
    ("members-out-of-order", lambda layout, ts, pi: ChoiceProblem((1, 0)),
     ValidationError, "in universe order"),
    ("member-outside-universe",
     lambda layout, ts, pi: build_layout(layout.universe, [ChoiceProblem((0, 3))]),
     ValidationError, "universe index 3 but the universe has only 3"),
    ("coordinate-out-of-range", lambda layout, ts, pi: layout.block_of(6),
     ValidationError, "coordinate 6 out of range"),
    ("alternative-not-in-problem", lambda layout, ts, pi: layout.coordinate(0, 2),
     ValidationError, "universe index 2 not in problem 0"),
    ("type-entry-not-0/1", lambda layout, ts, pi: make_type_vector([2, 0, 1, 0, 1, 0], layout),
     ValidationError, "coordinate 0 is not 0/1"),
    ("trial-repeats-a-coordinate", lambda layout, ts, pi: make_trial([1, 1], layout),
     ValidationError, "queries a coordinate twice"),
    ("trial-outside-layout", lambda layout, ts, pi: make_trial_sequence([Trial(3, (6,))], layout),
     LayoutMismatch, "outside the layout"),
    ("functional-length", lambda layout, ts, pi: max_over_types([1, 0, 1], ts),
     LayoutMismatch, "vector length 3 does not match layout (6 coordinates)"),
    ("aggregate-length",
     lambda layout, ts, pi: arsp_check(TrialSequence((), (0, 0, 0)), pi, ts),
     LayoutMismatch, "trial sequence does not match layout"),
    ("aggregate-coordinate", lambda layout, ts, pi: arsp_check({6: 1}, pi, ts),
     LayoutMismatch, "coordinate 6 lies outside the layout"),
]


@pytest.mark.parametrize(
    "call,error,match",
    [case[1:] for case in MODEL_INPUT_ERRORS],
    ids=[case[0] for case in MODEL_INPUT_ERRORS],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=re.escape(match)):
        call(*_pairwise_three())

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    LayoutMismatch,
    MixingDistribution,
    SeparatingVector,
    inner,
    make_type_set,
    max_over_types,
    membership,
    type_bits,
    types_from_explicit,
    types_from_linear_orders,
    validate_pi,
)
from ruhull.fileio import parse_instance, run_check, run_verify

from conftest import (
    make_instance,
    random_mixture_pi,
    random_rational_pi,
    random_small_instance,
    seeded,
)


def assert_valid_outcome(pi, type_set, result):
    if isinstance(result, MixingDistribution):
        assert sum((w for _, w in result.weights), Fraction(0)) == 1
        assert all(w > 0 for _, w in result.weights)
        assert result.mixture == tuple(pi.values)
    else:
        assert isinstance(result, SeparatingVector)
        best, _ = max_over_types(result.direction, type_set)
        gap = inner(result.direction, pi.values) - best
        assert gap == result.gap
        assert gap > 0


class TestTwoPointHull:
    def test_unique_weights(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_linear_orders(layout)
        pi = validate_pi([Fraction(3, 10), Fraction(7, 10)], layout)
        result = membership.test_membership(pi, ts)
        assert isinstance(result, MixingDistribution)
        weights = {type_bits(t, ts.layout): w for t, w in result.weights}
        assert weights == {(1, 0): Fraction(3, 10), (0, 1): Fraction(7, 10)}


class TestPairwiseThree:
    def test_uniform_is_rationalizable(self, pairwise3, uniform_pi):
        _, _, layout, ts = pairwise3
        # Direct oracle: equal weight on all six types reproduces the data.
        acc = [Fraction(0)] * 6
        for t in ts.types:
            for i in t.chosen:
                acc[i] += Fraction(1, 6)
        assert tuple(acc) == tuple(uniform_pi.values)
        result = membership.test_membership(uniform_pi, ts)
        assert isinstance(result, MixingDistribution)
        assert_valid_outcome(uniform_pi, ts, result)

    def test_cyclic_is_separated(self, pairwise3, cyclic_pi):
        _, _, layout, ts = pairwise3
        # A 0/1 point is a cube vertex, so it lies in the hull only if it is
        # itself one of the types; the cyclic pattern is not.
        vertices = {type_bits(t, ts.layout) for t in ts.types}
        assert tuple(int(v) for v in cyclic_pi.values) not in vertices
        result = membership.test_membership(cyclic_pi, ts)
        assert isinstance(result, SeparatingVector)
        assert_valid_outcome(cyclic_pi, ts, result)

    def test_mixture_support_bound(self, pairwise3, uniform_pi):
        _, _, layout, ts = pairwise3
        result = membership.test_membership(uniform_pi, ts)
        bound = layout.coordinate_count - layout.problem_count + 1
        assert result.support_size <= bound


class TestSingletonTypeSet:
    def test_exact_match(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_explicit([[1, 0]], layout)
        pi = validate_pi([1, 0], layout)
        result = membership.test_membership(pi, ts)
        assert isinstance(result, MixingDistribution)
        assert result.weights[0][1] == 1

    def test_mismatch_gives_the_lp_separator(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_explicit([[1, 0]], layout)
        pi = validate_pi([Fraction(1, 4), Fraction(3, 4)], layout)
        result = membership.test_membership(pi, ts)
        assert isinstance(result, SeparatingVector)
        # The data puts mass on coordinate 1, which the type does not pick:
        # its unit vector separates, with gap the data's mass there.
        assert result.direction == (0, 1)
        assert result.gap == Fraction(3, 4)
        assert_valid_outcome(pi, ts, result)


ONE_EXPLICIT_TYPE = json.loads(
    (pathlib.Path(__file__).resolve().parent / "fixtures" / "one_explicit_type.json").read_text()
)

# (instance tree, the one type's own data, other data)
ONE_TYPE_INSTANCES = {
    "explicit-single-row": (
        ONE_EXPLICIT_TYPE,
        [["1", "0"], ["1", "0"], ["0", "1"]],
        ONE_EXPLICIT_TYPE["probabilities"],
    ),
    "lifted-size-1-linear-orders": (
        {"universe": ["a", "b"], "problems": [["a"]], "types": "linear-orders", "set_valued": True},
        [{"a": "1"}],
        [{"": "1/3", "a": "2/3"}],
    ),
}


@pytest.mark.parametrize("own_data", [True, False], ids=["own-data", "other-data"])
@pytest.mark.parametrize("name", sorted(ONE_TYPE_INSTANCES))
def test_one_type_families_take_the_lp(name, own_data, monkeypatch):
    tree, own, other = ONE_TYPE_INSTANCES[name]
    instance = parse_instance(json.dumps({**tree, "probabilities": own if own_data else other}))
    (only,) = instance.type_set.types
    solve, calls = membership.solve_equality_feasibility, []
    monkeypatch.setattr(
        membership, "solve_equality_feasibility", lambda *args: calls.append(args) or solve(*args)
    )
    report = run_check(instance)
    pi = instance.pi
    if own_data:
        assert len(calls) == 1
        assert report.outcome.mixture.weights == ((only, 1),)
        assert report.outcome.mixture.mixture == pi.values
    else:
        # Other data puts mass on a coordinate the one type does not pick:
        # its unit vector separates, and no LP runs.
        assert calls == []
        c = next(i for i, v in enumerate(pi.values) if v and i not in only.chosen)
        separating = report.outcome.certificate.separating
        assert separating.direction == tuple(int(i == c) for i in range(len(pi.values)))
        assert separating.gap == pi.values[c]
    for restricted in (False, True):
        structured = run_check(instance, restricted=restricted).to_structured()
        assert structured["verdict"] == ("rationalizable" if own_data else "not-rationalizable")
        assert run_verify(instance, structured) == (True, [])


def test_layout_mismatch(pairwise3):
    _, _, _, ts = pairwise3
    _, _, other_layout = make_instance("ab", [("a", "b")])
    pi = validate_pi([1, 0], other_layout)
    with pytest.raises(LayoutMismatch):
        membership.test_membership(pi, ts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_mixtures_are_recognized(seed):
    rng = seeded(seed)
    _, _, layout = random_small_instance(rng)
    ts = types_from_linear_orders(layout)
    pi, _ = random_mixture_pi(layout, ts, rng)
    result = membership.test_membership(pi, ts)
    assert isinstance(result, MixingDistribution)
    assert_valid_outcome(pi, ts, result)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_exactly_one_branch_and_it_verifies(seed):
    rng = seeded(seed)
    _, _, layout = random_small_instance(rng)
    ts = types_from_linear_orders(layout)
    pi = random_rational_pi(layout, rng)
    result = membership.test_membership(pi, ts)
    assert isinstance(result, (MixingDistribution, SeparatingVector))
    assert_valid_outcome(pi, ts, result)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_monotone_in_the_type_set(seed):
    # Growing the admissible set can only keep mixtures mixtures.
    rng = seeded(seed)
    _, _, layout = random_small_instance(rng, max_universe=3, max_problems=4)
    full = types_from_linear_orders(layout)
    if len(full) < 2:
        return
    k = rng.randrange(1, len(full))
    part = make_type_set(list(full.types[:k]), layout)
    pi, _ = random_mixture_pi(layout, part, rng)
    assert isinstance(membership.test_membership(pi, part), MixingDistribution)
    assert isinstance(membership.test_membership(pi, full), MixingDistribution)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_outcomes_respect_support_bound(seed):
    rng = seeded(seed)
    _, _, layout = random_small_instance(rng)
    ts = types_from_linear_orders(layout)
    pi = random_rational_pi(layout, rng)
    result = membership.test_membership(pi, ts)
    if isinstance(result, MixingDistribution):
        assert result.support_size <= layout.coordinate_count - layout.problem_count + 1

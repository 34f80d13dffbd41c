import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    CapExceeded,
    ChoiceTypeVector,
    LayoutMismatch,
    MixingDistribution,
    SeparatingVector,
    ValidationError,
    check_restricted_arsp,
    correspondence_types_from_linear_orders,
    correspondence_types_from_weak_orders,
    lift_layout,
    lift_set_valued_data,
    lifted_view,
    make_certificate,
    membership,
    parse_instance,
    restricted_trials,
    run_check,
    run_verify,
    singleton_choice_data,
    singleton_types,
    type_bits,
    types_from_linear_orders,
    validate_pi,
)

from conftest import make_instance, random_rational_pi, random_small_instance, seeded


@pytest.fixture(scope="module")
def pair_lift():
    universe, problems, _ = make_instance("ab", [("a", "b")])
    return universe, problems, lift_layout(universe, problems)


class TestLiftLayout:
    def test_single_pair(self, pair_lift):
        universe, problems, lifted = pair_lift
        assert lifted.layout.universe.labels == ("{}", "{a}", "{b}", "{a,b}")
        assert lifted.layout.coordinate_count == 4
        assert lifted.block_subsets(0) == ((), (0,), (1,), (0, 1))

    def test_two_problems(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c")])
        lifted = lift_layout(universe, problems)
        assert lifted.layout.coordinate_count == 8
        assert lifted.layout.problem_count == 2

    def test_singleton(self):
        universe, problems, _ = make_instance("a", [("a",)])
        lifted = lift_layout(universe, problems)
        assert lifted.layout.coordinate_count == 2
        assert lifted.block_subsets(0) == ((), (0,))

    def test_empty_set_is_everywhere(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("c",)])
        lifted = lift_layout(universe, problems)
        for j in range(lifted.layout.problem_count):
            assert () in lifted.block_subsets(j)

    def test_cap_reports_would_be_size(self):
        # 2^17 subsets of one problem: the cap stops it before anything is built.
        labels = "abcdefghijklmnopq"
        universe, problems, _ = make_instance(labels, [tuple(labels)])
        with pytest.raises(CapExceeded, match="131072 coordinates, above the cap of 65536"):
            lift_layout(universe, problems)

    def test_subset_order_is_cardinality_then_position(self):
        universe, problems, _ = make_instance("abc", [("a", "b", "c")])
        lifted = lift_layout(universe, problems)
        assert lifted.subsets == (
            (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
        )


class TestLiftData:
    def test_whole_set_choice(self, pair_lift):
        _, _, lifted = pair_lift
        pi = lift_set_valued_data([{("a", "b"): 1}], lifted)
        assert pi.values == (0, 0, 0, 1)

    def test_singleton_split(self, pair_lift):
        _, _, lifted = pair_lift
        pi = lift_set_valued_data(
            [{("a",): Fraction(1, 2), ("b",): Fraction(1, 2)}], lifted
        )
        assert pi.values == (0, Fraction(1, 2), Fraction(1, 2), 0)

    def test_empty_choice_is_legal_input(self, pair_lift):
        _, _, lifted = pair_lift
        pi = lift_set_valued_data([{(): 1}], lifted)
        assert pi.values == (1, 0, 0, 0)

    def test_non_subset_rejected(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c")])
        lifted = lift_layout(universe, problems)
        with pytest.raises(ValidationError, match="not a subset"):
            lift_set_valued_data([{("a", "b"): 1}, {("a",): 1}], lifted)

    def test_block_sum_enforced(self, pair_lift):
        _, _, lifted = pair_lift
        with pytest.raises(ValidationError, match="sum"):
            lift_set_valued_data([{("a",): Fraction(1, 2)}], lifted)

    def test_observation_count_enforced(self, pair_lift):
        _, _, lifted = pair_lift
        with pytest.raises(ValidationError, match="expected 1 observation maps, got 2"):
            lift_set_valued_data([{("a",): 1}, {("b",): 1}], lifted)

    def test_repeated_label_rejected(self, pair_lift):
        _, _, lifted = pair_lift
        with pytest.raises(ValidationError, match="repeats a label"):
            lift_set_valued_data([{("a", "a"): 1}], lifted)

    def test_empty_problem_list_rejected(self, pair_lift):
        universe, _, _ = pair_lift
        with pytest.raises(ValidationError, match="empty problem list"):
            lift_layout(universe, [])

    def test_layouts_must_match(self, pair_lift):
        universe, problems, lifted = pair_lift
        _, _, other = make_instance("abc", [("a", "b", "c")])
        with pytest.raises(LayoutMismatch, match="lifted layout's base"):
            singleton_choice_data(validate_pi([1, 0, 0], other), lifted)
        base = validate_pi([1, 0], lifted.base_layout)
        types = correspondence_types_from_linear_orders(lifted)
        with pytest.raises(LayoutMismatch, match="must agree"):
            check_restricted_arsp(base, types, lifted)

    def test_singleton_data_reexpression(self):
        universe, problems, layout = make_instance("ab", [("a", "b")])
        lifted = lift_layout(universe, problems)
        base = validate_pi([Fraction(1, 3), Fraction(2, 3)], layout)
        pi = singleton_choice_data(base, lifted)
        assert pi.values == (0, Fraction(1, 3), Fraction(2, 3), 0)


class TestRestrictedTrials:
    def test_one_pair_queries(self, pair_lift):
        _, _, lifted = pair_lift
        trials = restricted_trials(lifted)
        # Block order is {}, {a}, {b}, {a,b}; one query per subset.
        assert [t.coordinates for t in trials] == [
            (0,),  # query {}: only the empty set is a subset
            (0, 1),  # query {a} and its subsets
            (0, 2),  # query {b} and its subsets
            (0, 1, 2, 3),  # query the whole problem and all its subsets
        ]

    def test_counts(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("a", "b", "c")])
        lifted = lift_layout(universe, problems)
        trials = restricted_trials(lifted)
        assert len(trials) == 4 + 8


class TestRestrictedAxiomGap:
    def test_always_whole_set_fools_restricted_axiom(self, pair_lift):
        # Singleton-only types, data that always picks the full problem: every
        # downward-closed query values the data and every type identically,
        # so the restricted axiom holds, yet the data is not a mixture.
        universe, problems, lifted = pair_lift
        ts = correspondence_types_from_linear_orders(lifted)
        pi = lift_set_valued_data([{("a", "b"): 1}], lifted)
        assert check_restricted_arsp(pi, ts, lifted).holds is True
        result = membership.test_membership(pi, ts)
        assert isinstance(result, SeparatingVector)

    def test_mixtures_always_pass_restricted_axiom(self, pair_lift):
        universe, problems, lifted = pair_lift
        ts = correspondence_types_from_weak_orders(lifted)
        pi = lift_set_valued_data(
            [{("a",): Fraction(1, 4), ("a", "b"): Fraction(3, 4)}], lifted
        )
        assert isinstance(membership.test_membership(pi, ts), MixingDistribution)
        assert check_restricted_arsp(pi, ts, lifted).holds is True

    def test_empty_choice_needs_empty_friendly_types(self, pair_lift):
        universe, problems, lifted = pair_lift
        ts = correspondence_types_from_weak_orders(lifted)
        pi = lift_set_valued_data([{(): 1}], lifted)
        # Maximizer types never choose the empty set, so this cannot mix.
        assert isinstance(membership.test_membership(pi, ts), SeparatingVector)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_restricted_axiom_weaker_than_membership(self, seed):
        rng = seeded(seed)
        universe, problems, _ = random_small_instance(rng, max_universe=3, max_problems=2)
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(lifted)
        pi = random_rational_pi(lifted.layout, rng, max_numerator=3)
        if isinstance(membership.test_membership(pi, ts), MixingDistribution):
            assert check_restricted_arsp(pi, ts, lifted).holds is True


class TestSingletonRecovery:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_lifting_preserves_the_verdict(self, seed):
        # Singleton-valued data with singleton-forcing lifted types must agree
        # with the plain (unlifted) decision. So must the restricted axiom:
        # on data and types that pick singletons, the restricted query for S
        # counts exactly the singletons inside S, so every query of the base
        # axiom is available; it is weaker only for set-valued choice.
        rng = seeded(seed)
        universe, problems, layout = random_small_instance(
            rng, max_universe=3, max_problems=3
        )
        base_ts = types_from_linear_orders(layout)
        base_pi = random_rational_pi(layout, rng, max_numerator=3)
        base_verdict = isinstance(
            membership.test_membership(base_pi, base_ts), MixingDistribution
        )

        lifted = lift_layout(universe, problems)
        lifted_ts = correspondence_types_from_linear_orders(lifted)
        lifted_pi = singleton_choice_data(base_pi, lifted)
        lifted_verdict = isinstance(
            membership.test_membership(lifted_pi, lifted_ts), MixingDistribution
        )
        assert base_verdict == lifted_verdict
        assert check_restricted_arsp(lifted_pi, lifted_ts, lifted).holds == base_verdict

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_explicit_base_types_restricted_verdict(self, seed):
        # run_check and run_verify take the restricted axiom on singleton data
        # from the membership verdict; the restricted LP, solved here directly
        # on any explicit singleton-picking types, must agree with it.
        rng = seeded(seed)
        universe, problems, layout = random_small_instance(
            rng, max_universe=3, max_problems=3
        )
        picks = [
            ChoiceTypeVector(
                tuple(rng.choice(layout.block_range(j)) for j in range(layout.problem_count))
            )
            for _ in range(rng.randrange(1, 5))
        ]
        rows = [list(type_bits(t, layout)) for t in picks]
        pi = random_rational_pi(layout, rng, max_numerator=3)
        tree = {
            "universe": list(universe.labels),
            "problems": [[universe.labels[m] for m in p.members] for p in problems],
            "probabilities": [
                [str(pi.values[c]) for c in layout.block_range(j)]
                for j in range(layout.problem_count)
            ],
            "types": rows,
            "set_valued": False,
        }
        instance = parse_instance(json.dumps(tree))
        report = run_check(instance, restricted=True)
        lifted, lifted_pi, lifted_ts = lifted_view(instance)
        assert report.restricted_holds == report.outcome.rationalizable
        assert check_restricted_arsp(lifted_pi, lifted_ts, lifted).holds == report.restricted_holds
        ok, failures = run_verify(instance, report.to_structured())
        assert ok, failures

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_restricted_report_carries_the_base_outcome(self, seed):
        # With --restricted-arsp singleton data is decided on the base layout
        # and the outcome moved to the singleton coordinates: the same mixture
        # weights, or the certificate the pipeline itself builds on the lifted
        # layout from the moved separator, with the same gap, lhs and rhs.
        rng = seeded(seed)
        universe, problems, layout = random_small_instance(
            rng, max_universe=3, max_problems=3
        )
        pi = random_rational_pi(layout, rng, max_numerator=3)
        tree = {
            "universe": list(universe.labels),
            "problems": [[universe.labels[m] for m in p.members] for p in problems],
            "probabilities": [
                [str(pi.values[c]) for c in layout.block_range(j)]
                for j in range(layout.problem_count)
            ],
            "types": "linear-orders",
            "set_valued": False,
        }
        instance = parse_instance(json.dumps(tree))
        base = run_check(instance).outcome
        report = run_check(instance, restricted=True)
        lifted, lifted_pi, lifted_ts = lifted_view(instance)
        to = lifted.singleton_coordinates
        assert report.layout == lifted.layout
        assert report.restricted_holds == base.rationalizable
        if base.rationalizable:
            assert [w for _, w in report.outcome.mixture.weights] == [
                w for _, w in base.mixture.weights
            ]
            assert report.outcome.mixture.mixture == lifted_pi.values
        else:
            cert, base_cert = report.outcome.certificate, base.certificate
            direction = cert.separating.direction
            assert [direction[c] for c in to] == list(base_cert.separating.direction)
            assert sum(direction) == sum(base_cert.separating.direction)
            assert cert == make_certificate(cert.separating, lifted_pi, lifted_ts)
            assert (cert.separating.gap, cert.lhs, cert.rhs) == (
                base_cert.separating.gap, base_cert.lhs, base_cert.rhs
            )
        ok, failures = run_verify(instance, report.to_structured())
        assert ok, failures

    def test_types_must_be_on_the_base_layout(self):
        universe, problems, layout = make_instance("abc", [("a", "b"), ("b", "c")])
        other = lift_layout(universe, problems[:1])
        with pytest.raises(LayoutMismatch, match="base"):
            singleton_types(types_from_linear_orders(layout), other)


class TestLiftedView:
    @staticmethod
    def instance(universe, problems, types):
        tree = {
            "universe": list(universe.labels),
            "problems": [[universe.labels[m] for m in p.members] for p in problems],
            "probabilities": [[f"1/{p.size}"] * p.size for p in problems],
            "types": types,
            "set_valued": False,
        }
        return parse_instance(json.dumps(tree))

    @staticmethod
    def chosen_subsets(lifted, type_set):
        """Each lifted type as the subset it chooses in every problem."""
        layout = lifted.layout
        out = set()
        for t in type_set.types:
            out.add(tuple(
                lifted.block_subsets(j)[c - layout.block_offsets[j]]
                for j, c in enumerate(t.chosen)
            ))
        return out

    def test_linear_orders_match_a_brute_force(self):
        # Each order picks, in every problem, the singleton of its best member.
        rng = seeded(11)
        for _ in range(40):
            universe, problems, _ = random_small_instance(rng)
            expected = {
                tuple((min(p.members, key=order.index),) for p in problems)
                for order in permutations(range(universe.size))
            }
            lifted, _, type_set = lifted_view(
                self.instance(universe, problems, "linear-orders")
            )
            correspondence = correspondence_types_from_linear_orders(lifted)
            for lifted_types in (type_set, correspondence):
                assert len(lifted_types) == len(expected)
                assert self.chosen_subsets(lifted, lifted_types) == expected

    def test_explicit_rows_map_to_singletons(self):
        rng = seeded(12)
        for _ in range(40):
            universe, problems, layout = random_small_instance(rng)
            orders = types_from_linear_orders(layout).types
            base = rng.sample(orders, rng.randrange(1, len(orders) + 1))
            rows = [list(type_bits(t, layout)) for t in base]
            lifted, _, type_set = lifted_view(self.instance(universe, problems, rows))
            expected = {
                tuple((problems[j].members[c - layout.block_offsets[j]],)
                      for j, c in enumerate(t.chosen))
                for t in base
            }
            assert len(type_set) == len(expected)
            assert self.chosen_subsets(lifted, type_set) == expected

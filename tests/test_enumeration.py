from itertools import combinations

import pytest

from ruhull import (
    CapExceeded,
    ChoiceTypeVector,
    ValidationError,
    check_weak_order_cap,
    correspondence_types_from_linear_orders,
    correspondence_types_from_weak_orders,
    lift_layout,
    make_type_set,
    ordered_bell,
    singleton_types,
    type_bits,
    types_from_explicit,
    types_from_linear_orders,
)

from conftest import LABELS, brute_force_order_patterns, make_instance


class TestLinearOrderTypes:
    def test_pairwise_three_gives_six_distinct_types(self, pairwise3):
        _, _, layout, _ = pairwise3
        ts = types_from_linear_orders(layout)
        assert len(ts) == 6
        assert {t.chosen for t in ts.types} == brute_force_order_patterns(layout)

    def test_singleton_universe(self):
        _, _, layout = make_instance("a", [("a",)])
        ts = types_from_linear_orders(layout)
        assert len(ts) == 1
        assert type_bits(ts.types[0], ts.layout) == (1,)

    def test_two_alternatives(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_linear_orders(layout)
        assert [type_bits(t, ts.layout) for t in ts.types] == [(0, 1), (1, 0)]

    def test_duplicate_patterns_merged(self):
        # One problem cannot distinguish orders that agree on its best element.
        _, _, layout = make_instance("abc", [("a", "b")])
        ts = types_from_linear_orders(layout)
        assert len(ts) == 2

    def test_cap(self):
        _, _, layout = make_instance("abcdefghijk"[:11], [tuple("abcdefghijk"[:11])])
        with pytest.raises(CapExceeded, match="39916800"):
            types_from_linear_orders(layout)

    def test_deterministic(self, pairwise3):
        _, _, layout, _ = pairwise3
        assert types_from_linear_orders(layout) == types_from_linear_orders(layout)


def permutation_types(layout):
    """The linear-order types by scanning every permutation of the universe."""
    return make_type_set(
        map(ChoiceTypeVector, brute_force_order_patterns(layout)), layout
    )


def _domains():
    """Layouts of every shape the prefix tree walks, as pytest params."""
    out = [pytest.param("a", [("a",)], id="single alternative")]
    for n in range(2, 8):
        labels = LABELS[:n]
        out.append(pytest.param(labels, list(combinations(labels, 2)), id=f"pairwise {n}"))
        out.append(pytest.param(
            labels, [(labels[-1],), (labels[0], labels[-1]), labels], id=f"size one {n}"
        ))
        out.append(pytest.param(
            labels,
            [labels[:2], labels, labels[:2], labels[1:3] or labels, labels],
            id=f"repeated {n}",
        ))
    for n in range(2, 6):
        labels = LABELS[:n]
        subsets = [p for k in range(1, n + 1) for p in combinations(labels, k)]
        out.append(pytest.param(labels, subsets, id=f"all subsets {n}"))
    out.append(pytest.param(LABELS[:7], [("b", "d"), ("d", "f")], id="unused alternatives"))
    return out


class TestPrefixTreeEnumeration:
    @pytest.mark.parametrize("labels,problems", _domains())
    def test_equals_the_permutation_scan(self, labels, problems):
        _, _, layout = make_instance(labels, problems)
        assert types_from_linear_orders(layout) == permutation_types(layout)

    @pytest.mark.parametrize("labels,problems", [
        ("abc", [("a", "b"), ("a", "b", "c")]),
        ("abcd", [("a",), ("a", "d"), ("b", "c", "d"), ("a", "d")]),
        ("abcde", list(combinations("abcde", 2))),
    ])
    def test_correspondence_types_are_unchanged(self, labels, problems):
        universe, base, layout = make_instance(labels, problems)
        lifted = lift_layout(universe, base)
        expected = singleton_types(permutation_types(layout), lifted)
        assert correspondence_types_from_linear_orders(universe, base, lifted) == expected


class TestExplicitTypes:
    def test_two_rows(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_explicit([[1, 0], [0, 1]], layout)
        assert len(ts) == 2

    def test_two_ones_in_block_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError, match="exactly one"):
            types_from_explicit([[1, 1]], layout)

    def test_duplicates_deduplicated(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_explicit([[1, 0], [1, 0]], layout)
        assert len(ts) == 1

    def test_wrong_length_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            types_from_explicit([[1, 0, 0]], layout)

    def test_empty_rejected(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            types_from_explicit([], layout)


class TestWeakOrders:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
    def test_counts_match_ordered_bell(self, n, count):
        assert ordered_bell(n) == count

    def test_cap(self):
        check_weak_order_cap(6)
        with pytest.raises(CapExceeded, match="47293"):
            check_weak_order_cap(7)


class TestCorrespondenceTypes:
    def test_two_alternatives_three_weak_orders(self):
        # a>b selects {a}; b>a selects {b}; a~b selects {a,b}.
        universe, problems, _ = make_instance("ab", [("a", "b")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(universe, problems, lifted)
        assert len(ts) == 3
        chosen_subsets = {
            lifted.block_subsets(0)[t.chosen[0]] for t in ts.types
        }
        assert chosen_subsets == {(0,), (1,), (0, 1)}

    def test_singleton_universe(self):
        universe, problems, _ = make_instance("a", [("a",)])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(universe, problems, lifted)
        assert len(ts) == 1
        # Block order is {}, {a}; the single type must pick {a}.
        assert type_bits(ts.types[0], ts.layout) == (0, 1)

    def test_linear_orders_never_select_non_singletons(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("a", "b", "c")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_linear_orders(universe, problems, lifted)
        for t in ts.types:
            for j in range(lifted.layout.problem_count):
                subset = lifted.block_subsets(j)[
                    t.chosen[j] - lifted.layout.block_offsets[j]
                ]
                assert len(subset) == 1

    def test_weak_order_types_never_select_empty_set(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(universe, problems, lifted)
        for t in ts.types:
            for j in range(lifted.layout.problem_count):
                subset = lifted.block_subsets(j)[
                    t.chosen[j] - lifted.layout.block_offsets[j]
                ]
                assert subset != ()

    def test_layout_must_match(self):
        universe, problems, _ = make_instance("ab", [("a", "b")])
        other_u, other_p, _ = make_instance("abc", [("a", "b")])
        lifted = lift_layout(other_u, other_p)
        with pytest.raises(ValidationError, match="lifted layout"):
            correspondence_types_from_weak_orders(universe, problems, lifted)

    def test_deterministic(self):
        universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c")])
        lifted = lift_layout(universe, problems)
        a = correspondence_types_from_weak_orders(universe, problems, lifted)
        b = correspondence_types_from_weak_orders(universe, problems, lifted)
        assert a == b

"""The membership LP on reduced coordinates against a full-row reference.

``test_membership`` drops one implied coordinate row per block and shifts
each block of the Farkas direction to minimum 0. Here its verdicts are
compared with the LP that keeps every coordinate row and with the facet
oracle, and its separators and certificates are checked for the shape the
reduction promises.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    MixingDistribution,
    SeparatingVector,
    correspondence_types_from_linear_orders,
    correspondence_types_from_weak_orders,
    enumerate_facets,
    facet_membership_oracle,
    inner,
    lift_layout,
    make_certificate,
    max_over_types,
    membership,
    types_from_explicit,
    types_from_linear_orders,
    validate_pi,
)

from conftest import (
    LABELS,
    full_row_verdict,
    make_instance,
    random_mixture_pi,
    random_rational_pi,
    seeded,
)

FACET_COORDINATES = 20  # the facet oracle runs on hulls up to this size


@lru_cache(maxsize=None)
def _hull(type_set):
    return enumerate_facets(type_set)


def _orders_domain(rng, kind):
    """(layout, linear-order types) of one domain kind."""
    if kind == "pairwise":
        labels = LABELS[: rng.randrange(2, 6)]
        problems = list(combinations(labels, 2))
    elif kind == "all-subsets":
        labels = LABELS[: rng.randrange(2, 5)]
        problems = [p for k in range(2, len(labels) + 1) for p in combinations(labels, k)]
    elif kind == "repeated":
        labels = LABELS[: rng.randrange(2, 5)]
        distinct = [tuple(sorted(rng.sample(labels, rng.randrange(2, len(labels) + 1))))
                    for _ in range(rng.randrange(1, 4))]
        problems = [rng.choice(distinct) for _ in range(rng.randrange(2, 6))]
    else:  # size-one problems among larger ones
        labels = LABELS[: rng.randrange(1, 5)]
        problems = [tuple(rng.sample(labels, rng.randrange(1, len(labels) + 1)))
                    for _ in range(rng.randrange(1, 5))]
        problems.append((rng.choice(labels),))
        rng.shuffle(problems)
    _, _, layout = make_instance(labels, [tuple(sorted(p)) for p in problems])
    return layout, types_from_linear_orders(layout)


def _lifted_domain(rng):
    labels = LABELS[: rng.randrange(2, 4)]
    problems = [tuple(sorted(rng.sample(labels, rng.randrange(1, len(labels) + 1))))
                for _ in range(rng.randrange(1, 3))]
    universe, base, _ = make_instance(labels, problems)
    lifted = lift_layout(universe, base)
    build = rng.choice(
        (correspondence_types_from_linear_orders, correspondence_types_from_weak_orders)
    )
    return lifted, build(lifted)


def _explicit_domain(rng):
    labels = LABELS[: rng.randrange(2, 5)]
    problems = [tuple(sorted(rng.sample(labels, rng.randrange(1, len(labels) + 1))))
                for _ in range(rng.randrange(1, 5))]
    _, _, layout = make_instance(labels, problems)
    rows = []
    for _ in range(rng.randrange(2, 9)):
        bits = [0] * layout.coordinate_count
        for j in range(layout.problem_count):
            bits[rng.choice(layout.block_range(j))] = 1
        rows.append(bits)
    return layout, types_from_explicit(rows, layout)


def _data(layout, type_set, rng):
    """Random data: a type mixture, a nudged mixture, or anything at all."""
    how = rng.randrange(3)
    if how == 2:
        return random_rational_pi(layout, rng)
    pi, _ = random_mixture_pi(layout, type_set, rng)
    if how == 0:
        return pi
    values = list(pi.values)
    block = layout.block_range(rng.randrange(layout.problem_count))
    source, target = rng.choice(block), rng.choice(block)
    moved = values[source] * Fraction(1, rng.randrange(1, 4))
    values[source] -= moved
    values[target] += moved
    return validate_pi(values, layout)


DOMAINS = ("pairwise", "all-subsets", "repeated", "size-one", "lifted", "explicit")


def _case(kind, seed):
    rng = seeded(seed)
    if kind == "lifted":
        layout, type_set = _lifted_domain(rng)
    elif kind == "explicit":
        layout, type_set = _explicit_domain(rng)
    else:
        layout, type_set = _orders_domain(rng, kind)
    return _data(layout, type_set, rng), type_set


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10**6))
def test_reduced_lp_matches_the_full_rows_and_the_facets(kind, seed):
    pi, type_set = _case(kind, seed)
    layout = pi.layout
    result = membership.test_membership(pi, type_set)
    rationalizable = isinstance(result, MixingDistribution)
    assert rationalizable == full_row_verdict(pi, type_set)
    if layout.coordinate_count <= FACET_COORDINATES:
        assert rationalizable == facet_membership_oracle(pi, _hull(type_set))

    if rationalizable:
        assert result.mixture == pi.values
        assert result.support_size <= layout.coordinate_count - layout.problem_count + 1
        return
    assert isinstance(result, SeparatingVector)
    best, _ = max_over_types(result.direction, type_set)
    assert result.gap == inner(result.direction, pi.values) - best > 0
    for j in range(layout.problem_count):
        assert min(result.direction[i] for i in layout.block_range(j)) == 0
    cert = make_certificate(result, pi, type_set)
    assert cert.positivized == result.direction
    for trial in cert.trials.trials:
        assert len(trial.coordinates) < layout.problems[trial.block].size

"""The membership LP's presolves against the dense reference.

No type that picks a coordinate where the data is 0 can be in a mixture
that reproduces the data. ``test_membership`` refutes without an LP when
every type picks such a coordinate, and otherwise prices the types that
avoid the zeros first. Here data with many zeros (planted mixtures of a few
orders, sparse random data, and deterministic data, which mostly no type
fits) is decided through ``run_check`` and compared with the LP that lists
every type as a column; every report must verify and every separator must
have minimum 0 in each block.

Data with mass on a coordinate that no type picks (the empty set, or under
linear orders a set of two or more) is refuted by that coordinate's unit
vector, with no LP; set-valued data under linear orders, weak orders and
explicit rows (some picking the empty set, some leaving sets unpicked)
checks that against the same reference.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import SeparatingVector, Trial, membership, parse_instance, run_check, run_verify

from conftest import LABELS, full_row_verdict


def _subsets(members, smallest):
    return [s for r in range(smallest, len(members) + 1) for s in combinations(members, r)]


def _fractions(weights):
    return [str(Fraction(w, sum(weights))) for w in weights]


def _sparse(draw, k):
    """k weights, most of them 0, not all."""
    weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    return _fractions(weights)


def _one_hot(draw, k):
    hot = draw(st.integers(0, k - 1))
    return [int(i == hot) for i in range(k)]


def _planted(draw, labels, problems, ties):
    """A mixture of 1-3 orders (weak orders with ``ties``): each problem's
    mass goes to the members its orders rank best."""
    n = len(labels)
    rank = st.lists(st.integers(0, 2), min_size=n, max_size=n) if ties else st.permutations(range(n))
    ranks = draw(st.lists(rank, min_size=1, max_size=3))
    mass = _fractions(draw(st.lists(st.integers(1, 3), min_size=len(ranks), max_size=len(ranks))))
    out = []
    for p in problems:
        chosen = {}
        for w, r in zip(mass, ranks):
            top = min(r[labels.index(a)] for a in p)
            key = ",".join(a for a in p if r[labels.index(a)] == top)
            chosen[key] = chosen.get(key, 0) + Fraction(w)
        out.append(chosen)
    return out


@st.composite
def zero_heavy_instances(draw):
    """(instance tree, data kind): pairwise n <= 5, all subsets n <= 4,
    set-valued n <= 3 under linear or weak orders, or explicit rows."""
    kind = draw(st.sampled_from(["pairwise", "all-subsets", "set-valued", "explicit"]))
    data = draw(st.sampled_from(["planted", "sparse", "deterministic"]))
    if kind == "pairwise":
        labels = LABELS[: draw(st.integers(3, 5))]
        problems = list(combinations(labels, 2))
    elif kind == "all-subsets":
        labels = LABELS[: draw(st.integers(3, 4))]
        problems = _subsets(labels, 2)
    else:
        labels = LABELS[: draw(st.integers(2, 3 if kind == "set-valued" else 4))]
        problems = draw(st.lists(st.sampled_from(_subsets(labels, 1)), min_size=1, max_size=4))
    set_valued = kind == "set-valued"
    types = "linear-orders"
    if set_valued:
        types = draw(st.sampled_from(["linear-orders", "weak-orders"]))
    elif kind == "explicit":
        types = [
            [bit for p in problems for bit in _one_hot(draw, len(p))]
            for _ in range(draw(st.integers(1, 5)))
        ]
    # The keys of a set-valued problem are its subsets, the empty one included.
    keys = [[",".join(s) for s in _subsets(p, 0)] if set_valued else list(p) for p in problems]
    if data == "planted" and kind != "explicit":
        mass = _planted(draw, labels, problems, types == "weak-orders")
        probabilities = [[str(m.get(k, 0)) for k in ks] for m, ks in zip(mass, keys)]
    else:
        spread = _one_hot if data == "deterministic" else _sparse
        probabilities = [list(map(str, spread(draw, len(ks)))) for ks in keys]
    if set_valued:
        probabilities = [
            {k: v for k, v in zip(ks, ps) if v != "0"} for ks, ps in zip(keys, probabilities)
        ]
    tree = {
        "universe": list(labels),
        "problems": [list(p) for p in problems],
        "probabilities": probabilities,
        "types": types,
        "set_valued": set_valued,
    }
    return tree, data


@settings(max_examples=150, deadline=None)
@given(zero_heavy_instances())
def test_presolved_verdicts_match_the_dense_reference(case):
    tree, data = case
    instance = parse_instance(json.dumps(tree))
    report = run_check(instance)
    rationalizable = report.outcome.rationalizable
    assert rationalizable == full_row_verdict(instance.pi, instance.type_set)
    if data == "planted" and isinstance(tree["types"], str):
        assert rationalizable
    assert run_verify(instance, report.to_structured()) == (True, [])
    if not rationalizable:
        direction = report.outcome.certificate.separating.direction
        layout = report.layout
        for j in range(layout.problem_count):
            assert min(direction[i] for i in layout.block_range(j)) == 0


def test_no_type_avoids_the_zeros_without_an_lp(cyclic_pi, pairwise3, monkeypatch):
    # a over b, c over a, b over c: every order picks a coordinate where the
    # data is 0. The separator is the data's support, which the data values
    # at 3 (one per block) and every order at most 2.
    _, _, _, type_set = pairwise3
    monkeypatch.setattr(membership, "solve_equality_feasibility", None)
    result = membership.test_membership(cyclic_pi, type_set)
    assert isinstance(result, SeparatingVector)
    assert result.direction == (1, 0, 0, 1, 1, 0)
    assert result.gap == 1


@st.composite
def set_valued_instances(draw):
    """(instance tree, data kind): set-valued data over n <= 3 under linear
    orders, weak orders or 1-4 explicit rows, each row picking any subset
    of each problem, the empty one included."""
    labels = LABELS[: draw(st.integers(2, 3))]
    problems = draw(st.lists(st.sampled_from(_subsets(labels, 1)), min_size=1, max_size=4))
    keys = [[",".join(s) for s in _subsets(p, 0)] for p in problems]
    types = draw(st.sampled_from(["linear-orders", "weak-orders", "explicit", "explicit"]))
    data = draw(st.sampled_from(["planted", "sparse", "deterministic"]))
    if types == "explicit":
        picks = [
            [draw(st.integers(0, len(ks) - 1)) for ks in keys]
            for _ in range(draw(st.integers(1, 4)))
        ]
        types = [[int(k == pick) for ks, pick in zip(keys, row) for k in range(len(ks))]
                 for row in picks]
    if data != "planted":
        spread = _one_hot if data == "deterministic" else _sparse
        mass = [dict(zip(ks, spread(draw, len(ks)))) for ks in keys]
    elif isinstance(types, str):
        mass = _planted(draw, labels, problems, types == "weak-orders")
    else:
        weights = _fractions(draw(st.lists(st.integers(1, 3), min_size=len(picks),
                                           max_size=len(picks))))
        mass = [{} for _ in problems]
        for w, row in zip(weights, picks):
            for m, ks, pick in zip(mass, keys, row):
                m[ks[pick]] = m.get(ks[pick], 0) + Fraction(w)
    tree = {
        "universe": list(labels),
        "problems": [list(p) for p in problems],
        "probabilities": [{k: str(v) for k, v in m.items() if v} for m in mass],
        "types": types,
        "set_valued": True,
    }
    return tree, data


@settings(max_examples=150, deadline=None)
@given(set_valued_instances())
def test_mass_no_type_picks_is_refuted_without_an_lp(case):
    tree, data = case
    instance = parse_instance(json.dumps(tree))
    pi, type_set, lifted = instance.pi, instance.type_set, instance.layout
    picked = {c for t in type_set.types for c in t.chosen}
    unpicked = [c for c, v in enumerate(pi.values) if v and c not in picked]
    solve, calls = membership.solve_equality_feasibility, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            membership, "solve_equality_feasibility",
            lambda *args: calls.append(args) or solve(*args),
        )
        report = run_check(instance)
    rationalizable = report.outcome.rationalizable
    assert rationalizable == full_row_verdict(pi, type_set)
    if data == "planted":
        assert rationalizable
    if unpicked:
        # The first coordinate with mass that no type picks: its unit vector
        # separates with gap its mass, and the one trial asks for it.
        c = unpicked[0]
        assert calls == []
        certificate = report.outcome.certificate
        assert certificate.separating.direction == tuple(int(i == c) for i in range(len(pi.values)))
        assert certificate.separating.gap == pi.values[c]
        assert certificate.trials.trials == (Trial(pi.layout.block_of(c), (c,)),)
    assert run_verify(instance, report.to_structured()) == (True, [])
    restricted = run_check(instance, restricted=True)
    empty = [lifted.coordinate_for_subset(j, ()) for j in range(pi.layout.problem_count)]
    unpicked_empty = [c for c in empty if c in unpicked]
    if unpicked_empty:
        c = unpicked_empty[0]
        trial = Trial(pi.layout.block_of(c), (c,))
        assert restricted.restricted.trials == ((trial, 1),)
    assert run_verify(instance, restricted.to_structured()) == (True, [])

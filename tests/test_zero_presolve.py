"""The membership LP's zero-probability presolve against the dense reference.

No type that picks a coordinate where the data is 0 can be in a mixture
that reproduces the data. ``test_membership`` refutes without an LP when
every type picks such a coordinate, and otherwise prices the types that
avoid the zeros first. Here data with many zeros (planted mixtures of a few
orders, sparse random data, and deterministic data, which mostly no type
fits) is decided through ``run_check`` and compared with the LP that lists
every type as a column; every report must verify and every separator must
have minimum 0 in each block.
"""

import json
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import SeparatingVector, membership, parse_instance, run_check, run_verify

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

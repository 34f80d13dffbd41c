"""Keyword types against the same types written out as explicit rows.

``check`` on "linear-orders" or "weak-orders" asks ``OrderTypes`` for the
best type on every simplex iteration; on explicit rows it scans the listed
types. Both break ties to the canonically first type, so the two must make
the same pivots: the same mixture, the same certificate and the same
restricted-axiom answer, in both decomposition modes.
"""

import json
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import OrderTypes, parse_instance, run_check, type_bits

from conftest import LABELS

SECTIONS = ("verdict", "lifted", "mixture", "certificate", "restricted_arsp")


def _subsets(members, smallest):
    return [s for r in range(smallest, len(members) + 1) for s in combinations(members, r)]


def _weights(draw, k):
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    return [str(Fraction(w, sum(weights))) for w in weights]


def _singleton_probabilities(draw, labels, problems):
    if draw(st.booleans()):
        return [_weights(draw, len(p)) for p in problems]
    # A planted mixture of linear orders.
    orders = draw(st.lists(st.permutations(labels), min_size=1, max_size=4))
    mass = _weights(draw, len(orders))
    return [
        [str(sum(Fraction(w) for w, o in zip(mass, orders) if min(p, key=o.index) == a)) for a in p]
        for p in problems
    ]


def _set_valued_probabilities(draw, labels, problems):
    if draw(st.booleans()):
        out = []
        for p in problems:
            keys = [",".join(s) for s in _subsets(p, 0)]
            out.append(dict(zip(keys, _weights(draw, len(keys)))))
        return out
    # A planted mixture of weak orders: each problem chooses its best-ranked members.
    rank = st.lists(st.integers(0, 2), min_size=len(labels), max_size=len(labels))
    ranks = draw(st.lists(rank, min_size=1, max_size=3))
    mass = _weights(draw, len(ranks))
    out = []
    for p in problems:
        chosen = {}
        for w, rank in zip(mass, ranks):
            top = min(rank[labels.index(a)] for a in p)
            key = ",".join(a for a in p if rank[labels.index(a)] == top)
            chosen[key] = str(Fraction(chosen.get(key, 0)) + Fraction(w))
        out.append(chosen)
    return out


@st.composite
def keyword_instances(draw):
    """An instance tree with keyword types: pairwise n <= 6, all subsets n <= 4, set-valued n <= 4."""
    kind = draw(st.sampled_from(["pairwise", "all-subsets", "set-valued"]))
    if kind == "pairwise":
        labels = LABELS[: draw(st.integers(3, 6))]
        problems = list(combinations(labels, 2))
    elif kind == "all-subsets":
        labels = LABELS[: draw(st.integers(3, 4))]
        problems = _subsets(labels, 2)
    else:
        labels = LABELS[: draw(st.integers(2, 4))]
        problems = draw(st.lists(st.sampled_from(_subsets(labels, 1)), min_size=1, max_size=5))
    set_valued = kind == "set-valued"
    return {
        "universe": list(labels),
        "problems": [list(p) for p in problems],
        "probabilities": (_set_valued_probabilities if set_valued else _singleton_probabilities)(
            draw, labels, problems
        ),
        "types": draw(st.sampled_from(["linear-orders", "weak-orders"])) if set_valued else "linear-orders",
        "set_valued": set_valued,
    }


def _written_out(tree):
    """The same instance with its types as explicit 0/1 rows."""
    instance = parse_instance(json.dumps(tree))
    engine = OrderTypes(
        instance.layout if instance.lifted is None else instance.lifted,
        ties=tree["types"] == "weak-orders",
    )
    rows = [list(type_bits(t, instance.layout)) for t in engine.types().types]
    return dict(tree, types=rows)


@settings(max_examples=100, deadline=None)
@given(keyword_instances())
def test_keyword_types_report_as_their_written_out_rows(tree):
    by_keyword = parse_instance(json.dumps(tree))
    by_rows = parse_instance(json.dumps(_written_out(tree)))
    for mode in ("compressed", "canonical"):
        for restricted in (False, True):
            reports = [
                run_check(instance, mode, restricted).to_structured()
                for instance in (by_keyword, by_rows)
            ]
            for section in SECTIONS:
                assert reports[0].get(section) == reports[1].get(section), (mode, restricted, section)


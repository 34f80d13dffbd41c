"""The linear-order oracle against enumeration, and ``verify`` without n!.

``LinearOrderOracle`` decides types by acyclicity and best values by a
subset dynamic program; both are compared here with the enumerated type set
(set membership and ``max_over_types``), which shares no code with them.
"""

import json
import pathlib
from fractions import Fraction
from itertools import combinations

import pytest

import ruhull.enumeration
from ruhull import (
    ChoiceTypeVector,
    LayoutMismatch,
    lift_layout,
    max_over_types,
    parse_instance,
    run_check,
    run_verify,
    singleton_types,
    types_from_linear_orders,
)
from ruhull.cli import main
from ruhull.enumeration import LinearOrderOracle
from ruhull.fileio import lifted_instance_tree

from conftest import LABELS, make_instance, seeded

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def _pairwise(n):
    return make_instance(LABELS[:n], list(combinations(LABELS[:n], 2)))


def _all_subsets(n):
    labels = LABELS[:n]
    return make_instance(
        labels, [s for r in range(2, n + 1) for s in combinations(labels, r)]
    )


def _random_problems(rng, n, count, min_size):
    labels = LABELS[:n]
    return [
        tuple(sorted(rng.sample(labels, rng.randrange(min_size, n + 1))))
        for _ in range(count)
    ]


def _base_layouts():
    rng = seeded(31)
    out = {}
    for n in range(2, 7):
        out[f"pairwise-{n}"] = _pairwise(n)[2]
    for n in range(2, 6):
        out[f"all-subsets-{n}"] = _all_subsets(n)[2]
    for n in (3, 4, 5):
        problems = _random_problems(rng, n, 4, 2)
        out[f"repeated-{n}"] = make_instance(LABELS[:n], problems + problems[:2])[2]
        out[f"size-one-{n}"] = make_instance(
            LABELS[:n], _random_problems(rng, n, 5, 1) + [(LABELS[0],)]
        )[2]
    out["one-alternative"] = make_instance("a", [("a",)])[2]
    return out


def _lifted_layouts():
    rng = seeded(32)
    out = {}
    for n in (2, 3, 4):
        universe, problems, _ = make_instance(
            LABELS[:n], _random_problems(rng, n, 3, 1) + _random_problems(rng, n, 1, 1)
        )
        out[f"lifted-{n}"] = lift_layout(universe, problems)
    universe, problems, _ = _all_subsets(3)
    out["lifted-all-subsets-3"] = lift_layout(universe, problems)
    return out


BASE = _base_layouts()
LIFTED = _lifted_layouts()


def _enumerated(name):
    """(oracle, the layout types live on, the enumerated type set) for a layout."""
    if name in BASE:
        layout = BASE[name]
        return LinearOrderOracle(layout), layout, types_from_linear_orders(layout)
    lifted = LIFTED[name]
    enumerated = singleton_types(types_from_linear_orders(lifted.base_layout), lifted)
    return LinearOrderOracle(lifted), lifted.layout, enumerated


def _random_functional(rng, n, fractions):
    if fractions:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    return [rng.randint(-5, 9) if rng.random() < 0.7 else 0 for _ in range(n)]


def _random_pattern(rng, layout):
    return ChoiceTypeVector(
        tuple(rng.choice(layout.block_range(j)) for j in range(layout.problem_count))
    )


@pytest.mark.parametrize("name", sorted(BASE) + sorted(LIFTED))
class TestOracleAgainstEnumeration:
    @pytest.mark.parametrize("fractions", [False, True])
    def test_best_value_is_the_max_over_types(self, name, fractions):
        oracle, layout, enumerated = _enumerated(name)
        rng = seeded(f"{name}:{fractions}")
        n = layout.coordinate_count
        functionals = [[0] * n, [1] * n, [-1] * n]
        functionals += [_random_functional(rng, n, fractions) for _ in range(12)]
        for y in functionals:
            assert oracle.best_value(y) == max_over_types(y, enumerated)[0], y

    def test_admits_exactly_the_enumerated_types(self, name):
        oracle, layout, enumerated = _enumerated(name)
        known = set(enumerated.types)
        assert all(oracle.admits(t) for t in enumerated.types)
        rng = seeded(name)
        for _ in range(300):
            t = _random_pattern(rng, layout)
            assert oracle.admits(t) == (t in known), t.chosen


def test_lifted_types_pick_singletons_only():
    lifted = LIFTED["lifted-all-subsets-3"]
    oracle = LinearOrderOracle(lifted)
    layout = lifted.layout
    # Subsets are ordered by size, then by position: each block starts with
    # the empty set and the singleton of its first member, and ends with the
    # whole problem. Picking the whole problem is no linear-order choice.
    whole = ChoiceTypeVector(
        tuple(layout.block_range(j)[-1] for j in range(layout.problem_count))
    )
    assert not oracle.admits(whole)
    empty = ChoiceTypeVector(
        tuple(layout.block_range(j)[0] for j in range(layout.problem_count))
    )
    assert not oracle.admits(empty)
    first = ChoiceTypeVector(
        tuple(layout.block_range(j)[1] for j in range(layout.problem_count))
    )
    assert oracle.admits(first)  # the order a, b, c


def test_picks_outside_their_block_are_not_types():
    layout = BASE["pairwise-3"]  # blocks ab, ac, bc
    oracle = LinearOrderOracle(layout)
    assert oracle.admits(ChoiceTypeVector((0, 2, 4)))
    assert not oracle.admits(ChoiceTypeVector((2, 2, 4)))
    assert not oracle.admits(ChoiceTypeVector((0, 2)))


def test_best_value_checks_the_length():
    oracle = LinearOrderOracle(BASE["pairwise-3"])
    with pytest.raises(LayoutMismatch, match="does not match layout"):
        oracle.best_value([0] * 5)


# --- verify without enumeration ------------------------------------------------


def _linear_order_samples():
    out = []
    for path in sorted(SAMPLES.glob("*.json")):
        if json.loads(path.read_text())["types"] == "linear-orders":
            out.append(path.name)
    return out


def _forbid_enumeration(monkeypatch):
    def refuse(size):
        raise AssertionError(f"linear orders of {size} alternatives were enumerated")

    # Every enumeration of linear orders checks its cap first.
    monkeypatch.setattr(ruhull.enumeration, "check_linear_order_cap", refuse)


def _reports(name):
    """(instance text, structured report) as CI checks them: plain, restricted, lifted."""
    text = (SAMPLES / name).read_text()
    instance = parse_instance(text)
    out = [(text, run_check(instance).to_structured())]
    if not instance.set_valued:
        # Set-valued data needs the type set for the restricted LP.
        out.append((text, run_check(instance, restricted=True).to_structured()))
    lifted_text = json.dumps(lifted_instance_tree(instance))
    out.append((lifted_text, run_check(parse_instance(lifted_text)).to_structured()))
    return out


@pytest.mark.parametrize("name", _linear_order_samples())
def test_sample_reports_verify_without_enumeration(name, monkeypatch):
    parsed = [(parse_instance(text), report) for text, report in _reports(name)]
    _forbid_enumeration(monkeypatch)
    for instance, report in parsed:
        ok, failures = run_verify(instance, json.loads(json.dumps(report)))
        assert ok, failures


NINE = LABELS[:9]
PLANTED = [
    ("1/2", "abcdefghi"),
    ("1/3", "ihgfedcba"),
    ("1/6", "cafebdigh"),
]


def _nine_alternative_instance():
    """Pairwise data of a planted mixture over nine alternatives."""
    problems = list(combinations(NINE, 2))
    probabilities = []
    for a, b in problems:
        p = sum(Fraction(w) for w, order in PLANTED if order.index(a) < order.index(b))
        probabilities.append([str(p), str(1 - p)])
    tree = {
        "universe": list(NINE),
        "problems": [list(p) for p in problems],
        "probabilities": probabilities,
        "types": "linear-orders",
        "set_valued": False,
    }
    return parse_instance(json.dumps(tree)), problems


def _pattern_bits(problems, better):
    """The 0/1 row of the type choosing ``better(a, b)`` in every pair (a, b)."""
    bits = []
    for a, b in problems:
        bits += [1, 0] if better(a, b) == a else [0, 1]
    return bits


def test_nine_alternative_mixture_verifies_without_enumeration(monkeypatch):
    instance, problems = _nine_alternative_instance()
    weights = [
        {"weight": w, "type": _pattern_bits(problems, lambda a, b, o=order: min(a, b, key=o.index))}
        for w, order in PLANTED
    ]
    report = {
        "format": "ruhull-report-v1",
        "command": "check",
        "flags": {"mode": "compressed", "restricted_arsp": False},
        "instance_digest": instance.digest,
        "lifted": False,
        "verdict": "rationalizable",
        "mixture": {"weights": weights},
    }
    _forbid_enumeration(monkeypatch)
    ok, failures = run_verify(instance, report)
    assert ok, failures

    # The same report with one type made cyclic (a over b over c over a).
    cycle = {("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "c"}
    order = PLANTED[0][1]
    report["mixture"]["weights"][0]["type"] = _pattern_bits(
        problems, lambda a, b: cycle.get((a, b), min(a, b, key=order.index))
    )
    ok, failures = run_verify(instance, report)
    assert not ok
    assert "mixture entry 0: type is not in the admissible set" in failures


def test_nine_alternative_certificate_verifies_without_enumeration(monkeypatch):
    # Data choosing a over b, b over c and c over a for sure: the three
    # queries collect 3, and no linear order collects more than 2.
    problems = list(combinations(NINE, 2))
    cycle = {("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "c"}
    probabilities = [
        ["1", "0"] if cycle.get(p, p[0]) == p[0] else ["0", "1"] for p in problems
    ]
    tree = {
        "universe": list(NINE),
        "problems": [list(p) for p in problems],
        "probabilities": probabilities,
        "types": "linear-orders",
        "set_valued": False,
    }
    instance = parse_instance(json.dumps(tree))
    separating = []
    trials = []
    for j, (a, b) in enumerate(problems):
        picked = cycle.get((a, b))
        separating += [int(picked == a), int(picked == b)]
        if picked is not None:
            coordinate = 2 * j + (picked == b)
            trials.append(
                {"problem": j + 1, "members": [picked], "coordinates": [coordinate + 1]}
            )
    report = {
        "format": "ruhull-report-v1",
        "command": "check",
        "flags": {"mode": "compressed", "restricted_arsp": False},
        "instance_digest": instance.digest,
        "lifted": False,
        "verdict": "not-rationalizable",
        "certificate": {
            "separating": separating,
            "gap": "1",
            "positivized": [str(v) for v in separating],
            "integer_aggregate": separating,
            "trials": trials,
            "lhs": "3",
            "rhs": "2",
        },
    }
    _forbid_enumeration(monkeypatch)
    ok, failures = run_verify(instance, report)
    assert ok, failures
    report["certificate"]["rhs"] = "3"
    ok, failures = run_verify(instance, report)
    assert failures == ["rhs is 2, report claims 3"]


@pytest.mark.parametrize("command", ["check", "verify"])
def test_eleven_alternatives_exit_four_at_parse(command, tmp_path, capsys):
    labels = list(LABELS) + ["k"]
    tree = {
        "universe": labels,
        "problems": [labels[:2]],
        "probabilities": [["1", "0"]],
        "types": "linear-orders",
        "set_valued": False,
    }
    path = tmp_path / "eleven.json"
    path.write_text(json.dumps(tree))
    report = tmp_path / "report.json"
    report.write_text("{}")
    argv = ["check", str(path)] if command == "check" else ["verify", str(path), str(report)]
    assert main(argv) == 4
    assert "refusing to enumerate 11! = 39916800 linear orders" in capsys.readouterr().err

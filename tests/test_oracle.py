"""The order engine against brute force, and ``verify`` without enumeration.

``OrderTypes`` lists types by a prefix-tree walk, decides them by Richter's
test and gives best values by a subset dynamic program. Each is compared
here with a brute force that shares no code with it: every permutation of
the universe for linear orders, every rank assignment for weak orders,
mapped to its pattern of maximizers (set membership and ``max_over_types``
over those patterns).
"""

import json
import pathlib
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

import ruhull.enumeration
import ruhull.fileio
from ruhull import (
    ChoiceTypeVector,
    LayoutMismatch,
    OrderTypes,
    ValidationError,
    lift_layout,
    make_type_set,
    max_over_types,
    ordered_bell,
    parse_instance,
    run_check,
    run_verify,
    singleton_types,
)
from ruhull.cli import main
from ruhull.fileio import lifted_instance_tree

from conftest import LABELS, brute_force_order_patterns, make_instance, seeded

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def _pairwise(n):
    return make_instance(LABELS[:n], list(combinations(LABELS[:n], 2)))


def _cycle(n):
    """Pairs around a cycle, so that a cyclic pattern on them has no shortcut."""
    labels = LABELS[:n]
    pairs = [labels[k:k + 2] for k in range(n - 1)]
    return make_instance(labels, pairs + [labels[0] + labels[-1]])


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
    for n in range(2, 8):
        out[f"pairwise-{n}"] = _pairwise(n)[2]
    for n in range(3, 8):
        out[f"cycle-{n}"] = _cycle(n)[2]
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
    for n in (2, 3, 4, 5):
        problems = _random_problems(rng, n, 3, 1) + _random_problems(rng, n, 1, 1)
        universe, problems, _ = make_instance(LABELS[:n], problems + problems[:1])
        out[f"lifted-{n}"] = lift_layout(universe, problems)
    for n in (2, 3, 4, 5):
        universe, problems, _ = _all_subsets(n)
        out[f"lifted-all-subsets-{n}"] = lift_layout(universe, problems)
    universe, problems, _ = _cycle(5)
    out["lifted-cycle-5"] = lift_layout(universe, problems)
    universe, problems, _ = make_instance("a", [("a",)])
    out["lifted-one-alternative"] = lift_layout(universe, problems)
    return out


BASE = _base_layouts()
LIFTED = _lifted_layouts()
# Linear orders on base and lifted layouts, weak orders on lifted ones.
FAMILIES = (
    [(name, False) for name in sorted(BASE)]
    + [(name, ties) for name in sorted(LIFTED) for ties in (False, True)]
)


def brute_force_weak_order_patterns(lifted):
    """Maximizer-set pattern of every rank assignment, as chosen-coordinate tuples."""
    size = lifted.base_universe.size
    patterns = set()
    for rank in product(range(size), repeat=size):
        chosen = []
        for j, problem in enumerate(lifted.base_problems):
            top = min(rank[m] for m in problem.members)
            best = tuple(sorted(m for m in problem.members if rank[m] == top))
            chosen.append(lifted.coordinate_for_subset(j, best))
        patterns.add(tuple(chosen))
    return patterns


@cache
def _brute_force(name, ties):
    """(engine, the layout types live on, the brute-force type set) for a family."""
    if name in BASE:
        layout = BASE[name]
        types = make_type_set(map(ChoiceTypeVector, brute_force_order_patterns(layout)), layout)
        return OrderTypes(layout), layout, types
    lifted = LIFTED[name]
    if ties:
        patterns = brute_force_weak_order_patterns(lifted)
        types = make_type_set(map(ChoiceTypeVector, patterns), lifted.layout)
    else:
        base = lifted.base_layout
        base_types = make_type_set(map(ChoiceTypeVector, brute_force_order_patterns(base)), base)
        types = singleton_types(base_types, lifted)
    return OrderTypes(lifted, ties), lifted.layout, types


def _random_functional(rng, n, fractions):
    if fractions:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    return [rng.randint(-5, 9) if rng.random() < 0.7 else 0 for _ in range(n)]


def _random_pattern(rng, layout):
    return ChoiceTypeVector(
        tuple(rng.choice(layout.block_range(j)) for j in range(layout.problem_count))
    )


def _perturbed(rng, t, layout):
    """``t`` with the pick of one random block replaced by a random coordinate of it."""
    j = rng.randrange(layout.problem_count)
    chosen = list(t.chosen)
    chosen[j] = rng.choice(layout.block_range(j))
    return ChoiceTypeVector(tuple(chosen))


@pytest.mark.parametrize("name,ties", FAMILIES)
class TestEngineAgainstBruteForce:
    def test_types_are_the_brute_force_types(self, name, ties):
        engine, _, expected = _brute_force(name, ties)
        assert engine.types() == expected

    @pytest.mark.parametrize("fractions", [False, True])
    def test_best_value_is_the_max_over_types(self, name, ties, fractions):
        engine, layout, expected = _brute_force(name, ties)
        rng = seeded(f"{name}:{ties}:{fractions}")
        n = layout.coordinate_count
        functionals = [[0] * n, [1] * n, [-1] * n]
        functionals += [_random_functional(rng, n, fractions) for _ in range(12)]
        for y in functionals:
            assert engine.best_value(y) == max_over_types(y, expected)[0], y

    def test_admits_exactly_the_brute_force_types(self, name, ties):
        engine, layout, expected = _brute_force(name, ties)
        known = set(expected.types)
        assert all(engine.admits(t) for t in expected.types)
        rng = seeded(f"{name}:{ties}")
        for _ in range(150):
            t = _random_pattern(rng, layout)
            assert engine.admits(t) == (t in known), t.chosen
            t = _perturbed(rng, rng.choice(expected.types), layout)
            assert engine.admits(t) == (t in known), t.chosen


def _universe_size(name):
    return BASE[name].universe.size if name in BASE else LIFTED[name].base_universe.size


# Linear orders up to 6 alternatives, weak orders up to 4.
BEST_FAMILIES = [(name, ties) for name, ties in FAMILIES if _universe_size(name) <= (4 if ties else 6)]


def _tie_heavy_functionals(rng, layout):
    """Functionals with many maximizers: zero, 0/1, constant per block, one nonzero."""
    n = layout.coordinate_count
    out = [[0] * n, [1] * n, [rng.randint(0, 1) for _ in range(n)]]
    per_block = [rng.randint(-3, 3) for _ in range(layout.problem_count)]
    out.append([per_block[j] for j in layout.coordinate_blocks])
    for i in rng.sample(range(n), min(n, 4)):
        y = [0] * n
        y[i] = rng.choice([-2, -1, 1, Fraction(1, 3)])
        out.append(y)
    return out


@pytest.mark.parametrize("name,ties", BEST_FAMILIES)
def test_best_is_the_scan_s_first_maximizer(name, ties):
    # The simplex enters the canonically first best type, so ties decide
    # the pivots: ``best`` must break them as the scan of the listed types does.
    engine, layout, expected = _brute_force(name, ties)
    rng = seeded(f"best:{name}:{ties}")
    n = layout.coordinate_count
    functionals = _tie_heavy_functionals(rng, layout)
    functionals += [_random_functional(rng, n, fractions) for fractions in (False, True) * 6]
    for y in functionals:
        assert engine.best(y) == max_over_types(y, expected), y


@pytest.mark.parametrize("name,ties", FAMILIES)
def test_single_type_is_the_only_type(name, ties):
    engine, _, expected = _brute_force(name, ties)
    assert engine.single_type() == (expected.types[0] if len(expected) == 1 else None)


@pytest.mark.parametrize("n", range(6))
def test_rank_assignments_give_every_weak_order_once(n):
    # The brute force's reference: distinct rank patterns are the weak orders.
    dense = {tuple(sorted(set(r)).index(v) for v in r) for r in product(range(n), repeat=n)}
    assert len(dense) == ordered_bell(n)


def test_lifted_types_pick_singletons_only():
    lifted = LIFTED["lifted-all-subsets-3"]
    linear, weak = OrderTypes(lifted), OrderTypes(lifted, ties=True)
    layout = lifted.layout
    # Subsets are ordered by size, then by position: each block starts with
    # the empty set and the singleton of its first member, and ends with the
    # whole problem. Picking the whole problem is no linear-order choice,
    # but it is the choice of the weak order that ties everything.
    whole = ChoiceTypeVector(
        tuple(layout.block_range(j)[-1] for j in range(layout.problem_count))
    )
    assert not linear.admits(whole)
    assert weak.admits(whole)
    empty = ChoiceTypeVector(
        tuple(layout.block_range(j)[0] for j in range(layout.problem_count))
    )
    assert not linear.admits(empty)
    assert not weak.admits(empty)
    first = ChoiceTypeVector(
        tuple(layout.block_range(j)[1] for j in range(layout.problem_count))
    )
    assert linear.admits(first)  # the order a, b, c
    assert weak.admits(first)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("lifted,ties", [(False, False), (True, False), (True, True)])
def test_cycles_are_not_types(n, lifted, ties):
    universe, problems, layout = _cycle(n)
    if lifted:
        lifted = lift_layout(universe, problems)
        engine = OrderTypes(lifted, ties)

        def pick(j, k):
            return lifted.coordinate_for_subset(j, (problems[j].members[k],))
    else:
        engine = OrderTypes(layout)

        def pick(j, k):
            return layout.block_range(j)[k]

    def pattern(members):
        return ChoiceTypeVector(tuple(pick(j, k) for j, k in enumerate(members)))

    # Pair j < n - 1 is (x_j, x_j+1) and the last pair is (x_0, x_n-1).
    assert engine.admits(pattern([0] * n))  # x_0 > x_1 > ... > x_n-1
    assert not engine.admits(pattern([0] * (n - 1) + [1]))  # ... > x_n-1 > x_0
    assert not engine.admits(pattern([1] * (n - 1) + [0]))  # the reverse cycle


def test_picks_outside_their_block_are_not_types():
    layout = BASE["pairwise-3"]  # blocks ab, ac, bc
    engine = OrderTypes(layout)
    assert engine.admits(ChoiceTypeVector((0, 2, 4)))
    assert not engine.admits(ChoiceTypeVector((2, 2, 4)))
    assert not engine.admits(ChoiceTypeVector((0, 2)))


def test_best_value_checks_the_length():
    engine = OrderTypes(BASE["pairwise-3"])
    with pytest.raises(LayoutMismatch, match="does not match layout"):
        engine.best_value([0] * 5)


def test_weak_orders_need_a_lifted_layout():
    with pytest.raises(ValidationError, match="lifted layout"):
        OrderTypes(BASE["pairwise-3"], ties=True)


# --- verify without enumeration ------------------------------------------------


# Set-valued data that no weak order explains: a over b, b over c, c over a.
WEAK_CYCLE = json.dumps({
    "universe": ["a", "b", "c", "d"],
    "problems": [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c", "d"]],
    "probabilities": [{"a": "1"}, {"b": "1"}, {"c": "1"}, {"a,b": "1/2", "d": "1/2"}],
    "types": "weak-orders",
    "set_valued": True,
})


def _order_instances():
    """(id, instance text) of every sample with order types, and of WEAK_CYCLE."""
    out = []
    for path in sorted(SAMPLES.glob("*.json")):
        if json.loads(path.read_text())["types"] in ("linear-orders", "weak-orders"):
            out.append(pytest.param(path.read_text(), id=path.name))
    out.append(pytest.param(WEAK_CYCLE, id="weak-cycle"))
    return out


def _forbid_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"orders were enumerated: {args}")

    # Every enumeration of orders checks its cap first, and an instance
    # lists its weak-order types through this name.
    monkeypatch.setattr(ruhull.enumeration, "check_linear_order_cap", refuse)
    monkeypatch.setattr(ruhull.enumeration, "check_weak_order_cap", refuse)
    monkeypatch.setattr(ruhull.fileio, "correspondence_types_from_weak_orders", refuse)


def _reports(text):
    """(instance text, structured report) as CI checks them: plain, restricted, lifted."""
    instance = parse_instance(text)
    plain = run_check(instance)
    out = [(text, plain.to_structured())]
    if not instance.set_valued or plain.outcome.rationalizable:
        # Set-valued data that fails the full axiom needs the types for the restricted LP.
        out.append((text, run_check(instance, restricted=True).to_structured()))
    lifted_text = json.dumps(lifted_instance_tree(instance))
    out.append((lifted_text, run_check(parse_instance(lifted_text)).to_structured()))
    return out


@pytest.mark.parametrize("text", _order_instances())
def test_sample_reports_verify_without_enumeration(text, monkeypatch):
    parsed = [(parse_instance(t), report) for t, report in _reports(text)]
    _forbid_enumeration(monkeypatch)
    for instance, report in parsed:
        ok, failures = run_verify(instance, json.loads(json.dumps(report)))
        assert ok, failures


def test_weak_order_certificate_verifies_without_enumeration(monkeypatch):
    instance = parse_instance(WEAK_CYCLE)
    report = json.loads(json.dumps(run_check(instance).to_structured()))
    assert report["verdict"] == "not-rationalizable"
    _forbid_enumeration(monkeypatch)
    ok, failures = run_verify(instance, report)
    assert ok, failures
    report["certificate"]["rhs"] = str(Fraction(report["certificate"]["rhs"]) + 1)
    ok, failures = run_verify(instance, report)
    assert not ok and failures[0].startswith("rhs is ")


NINE = LABELS[:9]
PLANTED = [
    ("1/2", "abcdefghi"),
    ("1/3", "ihgfedcba"),
    ("1/6", "cafebdigh"),
]


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _planted_tree(n):
    """Pairwise data over n alternatives of the planted mixture, restricted to them."""
    labels = NINE[:n]
    problems = list(combinations(labels, 2))
    probabilities = []
    for a, b in problems:
        p = sum(Fraction(w) for w, order in PLANTED if order.index(a) < order.index(b))
        probabilities.append([str(p), str(1 - p)])
    return {
        "universe": list(labels),
        "problems": [list(p) for p in problems],
        "probabilities": probabilities,
        "types": "linear-orders",
        "set_valued": False,
    }


def _nine_alternative_instance():
    """Pairwise data of a planted mixture over nine alternatives."""
    text = (FIXTURES / "nine_alternatives_planted.json").read_text()
    return parse_instance(text), list(combinations(NINE, 2))


def test_nine_alternative_fixture_is_the_planted_mixture():
    text = (FIXTURES / "nine_alternatives_planted.json").read_text()
    assert json.loads(text) == _planted_tree(9)


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


CYCLE = {("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "c"}


def test_nine_alternative_certificate_verifies_without_enumeration(monkeypatch):
    # Data choosing a over b, b over c and c over a for sure: the three
    # queries collect 3, and no linear order collects more than 2.
    problems = list(combinations(NINE, 2))
    probabilities = [
        ["1", "0"] if CYCLE.get(p, p[0]) == p[0] else ["0", "1"] for p in problems
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
        picked = CYCLE.get((a, b))
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


def _cycle_tree(n):
    """The planted data, but choosing a over b, b over c and c over a for sure."""
    tree = _planted_tree(n)
    for k, (a, b) in enumerate(tree["problems"]):
        if (a, b) in CYCLE:
            tree["probabilities"][k] = ["1", "0"] if CYCLE[a, b] == a else ["0", "1"]
    return tree


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("data", ["planted", "cycle"])
def test_check_does_not_enumerate(n, data, monkeypatch):
    # The membership LP asks the engine for the best order on every pivot,
    # so check lists no orders, plainly, canonically or restricted.
    if data == "cycle":
        instance = parse_instance(json.dumps(_cycle_tree(n)))
    elif n == 9:
        instance = _nine_alternative_instance()[0]
    else:
        instance = parse_instance(json.dumps(_planted_tree(n)))
    _forbid_enumeration(monkeypatch)
    for mode, restricted in (("compressed", False), ("canonical", False), ("compressed", True)):
        report = run_check(instance, mode, restricted)
        assert report.outcome.rationalizable == (data == "planted")
        ok, failures = run_verify(instance, json.loads(json.dumps(report.to_structured())))
        assert ok, failures


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


@pytest.mark.parametrize("command", ["check", "verify"])
def test_seven_alternative_weak_orders_exit_four_at_parse(command, tmp_path, capsys):
    labels = list(LABELS[:7])
    tree = {
        "universe": labels,
        "problems": [labels[:2]],
        "probabilities": [{labels[0]: "1"}],
        "types": "weak-orders",
        "set_valued": True,
    }
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(tree))
    report = tmp_path / "report.json"
    report.write_text("{}")
    argv = ["check", str(path)] if command == "check" else ["verify", str(path), str(report)]
    assert main(argv) == 4
    assert "refusing to enumerate 47293 weak orders" in capsys.readouterr().err

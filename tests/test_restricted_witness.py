"""The restricted-axiom LP and the witnesses ``verify`` checks in its place.

``lifting.check_restricted_arsp`` looks for a mixture of types dominating
the data on every binding restricted query, with the types priced by the
membership LP's oracle (``membership.TypeColumns``), and returns a witness:
that mixture when the axiom holds, a violating multiset of restricted trials
from the Farkas multipliers when it fails. ``check`` first tries the
one-trial witness "the choice is a subset of the empty set"
(``lifting.empty_set_trial``), which needs neither the listed types nor the
LP. Both verdicts are compared here with the dense-margin LP over the listed
types, every witness ``check`` writes must pass ``run_verify``, and
``run_verify`` must accept them without solving any LP.
"""

import dataclasses
import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    OrderTypes,
    Trial,
    check_restricted_arsp,
    exactlp,
    fileio,
    inner,
    lifting,
    load_instance,
    membership,
    parse_instance,
    restricted_trials,
    run_check,
    run_verify,
)
from ruhull.exactlp import FeasiblePoint

from conftest import LABELS, solve_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIVE_ALTERNATIVES = ROOT / "tests" / "fixtures" / "five_alternatives_set_valued.json"


def dense_margin_holds(pi, type_set, lifted):
    """The restricted axiom by the LP with one dense margin row per type R:

        sum_s y_s * (T_s . pi - T_s . R) - surplus_R = 1,   y, surplus >= 0,

    which is feasible iff the axiom fails.
    """
    trials = restricted_trials(lifted)
    trial_pi = [inner(t, pi) for t in trials]
    n_trials = len(trials)
    rows = []
    for r, typ in enumerate(type_set.types):
        margins = (p - (typ.chosen[t.block] in t.coordinates) for p, t in zip(trial_pi, trials))
        rows.append([(s, m) for s, m in enumerate(margins) if m] + [(n_trials + r, -1)])
    result = solve_rows(rows, [Fraction(1)] * len(rows), n_trials + len(rows))
    return not isinstance(result, FeasiblePoint)


@st.composite
def set_valued_texts(draw):
    """Set-valued data over 2 or 3 alternatives under linear or weak orders.

    Each problem's subset map has small integer weights; the empty set gets
    weight only in some instances, so the restricted axiom both holds and
    fails among the drawn instances.
    """
    universe = list(LABELS[: draw(st.integers(2, 3))])
    candidates = [p for r in range(1, len(universe) + 1) for p in combinations(universe, r)]
    problems = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3))
    smallest = draw(st.sampled_from([0, 1]))  # 0: the empty set may get mass
    probabilities = []
    for problem in problems:
        keys = [",".join(s) for r in range(smallest, len(problem) + 1)
                for s in combinations(problem, r)]
        weights = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys))
                       .filter(any))
        total = sum(weights)
        probabilities.append({k: f"{w}/{total}" for k, w in zip(keys, weights) if w})
    return json.dumps({
        "universe": universe,
        "problems": [list(p) for p in problems],
        "probabilities": probabilities,
        "types": draw(st.sampled_from(["linear-orders", "weak-orders"])),
        "set_valued": True,
    })


@st.composite
def explicit_type_texts(draw):
    """``set_valued_texts`` with one to four explicit types over the lifted
    layout, each picking any subset of each problem, the empty set included."""
    tree = json.loads(draw(set_valued_texts()))
    types = []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for problem in tree["problems"]:
            size = 1 << len(problem)
            pick = draw(st.integers(0, size - 1))
            row += [int(k == pick) for k in range(size)]
        types.append(row)
    tree["types"] = types
    return json.dumps(tree)


def _family(instance, family):
    """The instance's keyword types as the order engine or as the listed set."""
    if family == "listed":
        return instance.type_set
    return OrderTypes(instance.lifted, ties=instance.types == "weak-orders")


@pytest.mark.parametrize("family", ["orders", "listed"])
@settings(max_examples=80, deadline=None)
@given(set_valued_texts())
def test_restricted_lp_agrees_with_dense_margins(family, text):
    instance = parse_instance(text)
    pi, lifted = instance.pi, instance.lifted
    result = check_restricted_arsp(pi, _family(instance, family), lifted)
    assert result.holds == dense_margin_holds(pi, instance.type_set, lifted)
    assert bool(result.mixture) == result.holds != bool(result.trials)


@pytest.mark.parametrize("family", ["orders", "listed"])
@settings(max_examples=80, deadline=None)
@given(set_valued_texts(), st.data())
def test_restricted_oracle_prices_its_own_columns(family, text, data):
    # best(u) is the largest u . column(key) over every surplus column and
    # every type column of the listed set, and the first key in column order
    # (surplus columns, then the types) attaining it; every entry is an
    # integer.
    instance = parse_instance(text)
    queries = restricted_trials(instance.lifted)
    oracle = membership.TypeColumns(
        _family(instance, family), [t.coordinates for t in queries], surplus=True
    )
    u = data.draw(st.lists(st.integers(-4, 4), min_size=len(oracle), max_size=len(oracle)))
    keys = list(range(len(queries))) + list(instance.type_set.types)
    columns = [oracle.column(key) for key in keys]
    assert all(type(v) is int for column in columns for _, v in column)
    priced = [sum(u[i] * v for i, v in column) for column in columns]
    top = max(priced)
    assert oracle.best(u) == (top, keys[priced.index(top)])


@settings(max_examples=100, deadline=None)
@given(explicit_type_texts())
def test_explicit_types_agree_with_dense_margins(text):
    # Explicit types may pick the empty set, so data with mass on it can
    # reach the restricted LP. The LP's own witness must verify even where
    # check reports another one.
    instance = parse_instance(text)
    pi, type_set, lifted = instance.pi, instance.type_set, instance.lifted
    result = check_restricted_arsp(pi, type_set, lifted)
    assert result.holds == dense_margin_holds(pi, type_set, lifted)
    report = run_check(instance, restricted=True)
    assert report.restricted_holds == result.holds
    assert run_verify(instance, report.to_structured()) == (True, [])
    if not report.outcome.rationalizable:
        lp_report = dataclasses.replace(report, restricted=result)
        assert run_verify(instance, lp_report.to_structured()) == (True, [])


def _empty_set_trials(instance):
    """The restricted queries "a subset of the empty set" that the data gives mass."""
    lifted = instance.lifted
    empty = (lifted.coordinate_for_subset(j, ()) for j in range(lifted.layout.problem_count))
    return [Trial(j, (c,)) for j, c in enumerate(empty) if instance.pi.values[c]]


@settings(max_examples=80, deadline=None)
@given(set_valued_texts())
def test_check_agrees_with_dense_margins(text):
    # check takes the verdict, the empty-set trial or the restricted LP; on
    # order types any mass on the empty set fails the full axiom, and the
    # first problem with such mass is the whole witness.
    instance = parse_instance(text)
    report = run_check(instance, restricted=True)
    holds = dense_margin_holds(instance.pi, instance.type_set, instance.lifted)
    assert report.restricted_holds == holds
    empty = _empty_set_trials(instance)
    if empty:
        assert report.restricted.trials == ((empty[0], 1),)
    assert run_verify(instance, report.to_structured()) == (True, [])


# One explicit type picks the empty set, so the empty-set query does not
# violate the axiom although the data puts mass on it: that type dominates
# the data on every restricted query. Block coordinates: {}, {a}, {b}, {a,b}.
EMPTY_PICKING_TYPES = json.dumps({
    "universe": ["a", "b"],
    "problems": [["a", "b"]],
    "probabilities": [{"": "1/2", "b": "1/2"}],
    "types": [[1, 0, 0, 0], [0, 1, 0, 0]],
    "set_valued": True,
})

# The pairwise 3-cycle, a over b over c over a for sure, written as
# set-valued singleton choices: no mass on the empty set, so only the
# restricted LP finds the violating queries "a subset of {a}" in ab, and so on.
CYCLE_AS_SETS = json.dumps({
    "universe": ["a", "b", "c"],
    "problems": [["a", "b"], ["b", "c"], ["a", "c"]],
    "probabilities": [{"a": "1"}, {"b": "1"}, {"c": "1"}],
    "types": "linear-orders",
    "set_valued": True,
})


def _count_restricted_lp(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return check_restricted_arsp(*args)

    monkeypatch.setattr(fileio, "check_restricted_arsp", counted)
    return calls


def _refuse_listed_types(monkeypatch):
    def refuse(instance):
        raise AssertionError("check listed the types")

    monkeypatch.setattr(fileio.Instance, "type_set", property(refuse))


@pytest.mark.parametrize("types", ["linear-orders", "weak-orders"])
def test_restricted_lp_lists_no_types(types, monkeypatch):
    # The 3-cycle has no mass on the empty set, so the restricted LP decides
    # it, pricing the order engine's types; neither check nor verify lists
    # them.
    instance = parse_instance(CYCLE_AS_SETS.replace('"linear-orders"', f'"{types}"'))
    _refuse_listed_types(monkeypatch)
    calls = _count_restricted_lp(monkeypatch)
    report = run_check(instance, restricted=True)
    assert len(calls) == 1
    assert not report.restricted_holds
    assert run_verify(instance, report.to_structured()) == (True, [])


def test_types_picking_the_empty_set_reach_the_restricted_lp(monkeypatch):
    instance = parse_instance(EMPTY_PICKING_TYPES)
    calls = _count_restricted_lp(monkeypatch)
    report = run_check(instance, restricted=True)
    assert len(calls) == 1
    assert not report.outcome.rationalizable
    assert report.restricted_holds
    assert dense_margin_holds(instance.pi, instance.type_set, instance.lifted)
    (picks_empty, weight), = report.restricted.mixture
    assert picks_empty.chosen == (0,) and weight == 1
    assert run_verify(instance, report.to_structured()) == (True, [])


def test_restricted_lp_witnesses_a_cycle_without_empty_set_mass(monkeypatch):
    instance = parse_instance(CYCLE_AS_SETS)
    calls = _count_restricted_lp(monkeypatch)
    report = run_check(instance, restricted=True)
    assert len(calls) == 1
    assert not report.restricted_holds
    # Problems ab, bc, ac; block coordinates {}, {x}, {y}, {x,y}.
    assert report.restricted.trials == (
        (Trial(0, (0, 1)), 1), (Trial(1, (4, 5)), 1), (Trial(2, (8, 10)), 1)
    )
    assert run_verify(instance, report.to_structured()) == (True, [])


def test_empty_set_mass_lists_no_types_and_solves_no_restricted_lp(monkeypatch):
    weak_random = next(
        parse_instance(text) for text in _lifted_restricted_cases(8)
        if '"weak-orders"' in text and _empty_set_trials(parse_instance(text))
    )
    instances = [load_instance(str(FIVE_ALTERNATIVES)), weak_random]

    def refuse(*args, **kwargs):
        raise AssertionError("check solved the restricted LP")

    _refuse_listed_types(monkeypatch)
    monkeypatch.setattr(lifting, "solve_equality_feasibility", refuse)
    for instance in instances:
        assert instance.types in ("linear-orders", "weak-orders")
        report = run_check(instance, restricted=True)
        assert report.restricted.trials == ((_empty_set_trials(instance)[0], 1),)
        assert run_verify(instance, report.to_structured()) == (True, [])


def _workloads():
    """The benchmark's instance generators, ``perfbench/workloads.py``."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def _lifted_restricted_cases(count):
    """The first ``count`` instance texts of the benchmark's lifted-restricted
    workload (seed 1): set-valued data over 4 alternatives."""
    stream = _workloads().stream("lifted-restricted", 1)
    return [case.text for case in islice(stream, count)]


# Set-valued fixtures over all problems of size >= 2, linear-order types:
# name -> (alternatives, planted weak orders or None for random data, seed)
# of ``_set_valued_case``. Random data has mass on the empty set, so check
# needs no restricted LP; planted data has none, so the LP runs. Neither
# lists the types.
SET_VALUED_FIXTURES = {
    "five_alternatives_set_valued.json": (5, None, 5),
    "five_alternatives_set_valued_planted.json": (5, 3, 5),
    "six_alternatives_set_valued.json": (6, None, 6),
    "six_alternatives_set_valued_planted.json": (6, 3, 6),
}


@pytest.mark.parametrize("name", sorted(SET_VALUED_FIXTURES))
def test_set_valued_fixtures(name, monkeypatch):
    n, planted, seed = SET_VALUED_FIXTURES[name]
    text, _, restricted = _workloads()._set_valued_case(
        random.Random(seed), n, planted, "linear-orders"
    )
    path = ROOT / "tests" / "fixtures" / name
    assert json.loads(path.read_text()) == json.loads(text)
    instance = load_instance(str(path))
    _refuse_listed_types(monkeypatch)
    calls = _count_restricted_lp(monkeypatch)
    report = run_check(instance, restricted=True)
    assert not report.outcome.rationalizable
    assert report.restricted_holds == restricted
    assert bool(_empty_set_trials(instance)) == (planted is None)
    assert len(calls) == (planted is not None)
    assert run_verify(instance, report.to_structured()) == (True, [])


def test_verify_solves_no_lp(monkeypatch):
    instances = [parse_instance(text) for text in _lifted_restricted_cases(48)]
    instances.append(load_instance(str(FIVE_ALTERNATIVES)))
    instances.append(parse_instance(CYCLE_AS_SETS))
    reports = [run_check(i, restricted=True).to_structured() for i in instances]
    witnesses = [sorted(set(r["restricted_arsp"]) - {"holds"}) for r in reports]
    assert witnesses.count(["mixture"]) and witnesses.count(["trials"])
    assert reports[-2]["restricted_arsp"]["holds"] is False
    # The empty-set trial is one query; the cycle's witness, from the
    # restricted LP, is three.
    assert len(reports[-2]["restricted_arsp"]["trials"]) == 1
    assert len(reports[-1]["restricted_arsp"]["trials"]) == 3

    def refuse(*args, **kwargs):
        raise AssertionError("verify solved an LP")

    monkeypatch.setattr(exactlp, "_phase_one", refuse)
    for module in (exactlp, membership, lifting):
        monkeypatch.setattr(module, "solve_equality_feasibility", refuse)
    for instance, report in zip(instances, reports):
        assert run_verify(instance, report) == (True, [])

"""The restricted-axiom LP and the witnesses ``verify`` checks in its place.

``lifting.check_restricted_arsp`` solves the restricted LP in value-column
form and returns a witness: a mixture of types dominating the data on every
restricted trial when the axiom holds, a violating multiset of restricted
trials when it fails. Its verdicts are compared here with the dense-margin
LP it replaced, every witness ``check`` writes must pass ``run_verify``, and
``run_verify`` must accept them without solving any LP.
"""

import importlib.util
import json
import pathlib
import sys
from fractions import Fraction
from itertools import combinations, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    check_restricted_arsp,
    exactlp,
    inner,
    lifting,
    load_instance,
    membership,
    parse_instance,
    restricted_trials,
    run_check,
    run_verify,
)
from ruhull.exactlp import FeasiblePoint, solve_equality_feasibility

from conftest import LABELS

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
    result = solve_equality_feasibility(rows, [Fraction(1)] * len(rows), n_trials + len(rows))
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


@settings(max_examples=80, deadline=None)
@given(set_valued_texts())
def test_value_column_lp_agrees_with_dense_margins(text):
    instance = parse_instance(text)
    pi, type_set, lifted = instance.pi, instance.type_set, instance.lifted
    result = check_restricted_arsp(pi, type_set, lifted)
    assert result.holds == dense_margin_holds(pi, type_set, lifted)
    assert bool(result.mixture) == result.holds != bool(result.trials)
    report = run_check(instance, restricted=True)
    assert report.restricted_holds == result.holds
    assert run_verify(instance, report.to_structured()) == (True, [])


def _lifted_restricted_cases(count):
    """The first ``count`` instance texts of the benchmark's lifted-restricted
    workload (seed 1): set-valued data over 4 alternatives."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [case.text for case in islice(workloads.stream("lifted-restricted", 1), count)]


def test_verify_solves_no_lp(monkeypatch):
    instances = [parse_instance(text) for text in _lifted_restricted_cases(48)]
    instances.append(load_instance(str(FIVE_ALTERNATIVES)))
    reports = [run_check(i, restricted=True).to_structured() for i in instances]
    witnesses = [sorted(set(r["restricted_arsp"]) - {"holds"}) for r in reports]
    assert witnesses.count(["mixture"]) and witnesses.count(["trials"])
    assert reports[-1]["restricted_arsp"]["holds"] is False

    def refuse(*args, **kwargs):
        raise AssertionError("verify solved an LP")

    monkeypatch.setattr(exactlp, "_phase_one", refuse)
    for module in (exactlp, membership, lifting):
        monkeypatch.setattr(module, "solve_equality_feasibility", refuse)
    for instance, report in zip(instances, reports):
        assert run_verify(instance, report) == (True, [])

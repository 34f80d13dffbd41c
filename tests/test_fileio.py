import copy
import json
import pathlib
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    InstanceParseError,
    OrderTypes,
    RationalTypeSet,
    ValidationError,
    lift_set_valued_data,
    parse_instance,
    parse_rational,
    run_check,
    run_verify,
)
from ruhull.cli import main
from ruhull.fileio import lifted_instance_tree

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "instances"
CYCLIC_TEXT = (SAMPLES / "cyclic_majority.json").read_text()
MIXTURE_TEXT = (SAMPLES / "two_point_mixture.json").read_text()
# Set-valued data the restricted LP finds a dominating mixture for.
PLANTED_TEXT = (
    SAMPLES.parent / "tests" / "fixtures" / "five_alternatives_set_valued_planted.json"
).read_text()


def make_text(**overrides):
    tree = {
        "universe": ["a", "b"],
        "problems": [["a", "b"]],
        "probabilities": [["3/10", "0.7"]],
        "types": "linear-orders",
        "set_valued": False,
    }
    tree.update(overrides)
    return json.dumps(tree)


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("1/2", "x") == Fraction(1, 2)

    def test_decimal_string_is_exact(self):
        assert parse_rational("0.3", "x") == Fraction(3, 10)

    def test_integer(self):
        assert parse_rational(1, "x") == 1

    def test_zero_denominator_positioned(self):
        with pytest.raises(InstanceParseError, match="probabilities"):
            parse_rational("1/0", "instance.probabilities[0][0]")

    def test_float_rejected(self):
        with pytest.raises(InstanceParseError, match="not exact"):
            parse_rational(0.3, "x")

    @pytest.mark.parametrize("text", ["1e3", "1E-2", "0.5e0", "1e999999999"])
    def test_exponent_notation_rejected(self, text):
        # The size of "1eN" is exponential in its length: rejected unparsed.
        with pytest.raises(InstanceParseError, match="exponent notation"):
            parse_rational(text, "x")

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(max_denominator=10**9))
    def test_serialize_parse_round_trip_is_identity(self, q):
        assert parse_rational(str(q), "x") == q


class TestParseInstance:
    def test_round_trip_values(self):
        instance = parse_instance(make_text())
        assert instance.pi.values == (Fraction(3, 10), Fraction(7, 10))
        assert len(instance.type_set) == 2

    def test_unknown_label_positioned(self):
        text = make_text(problems=[["a", "z"]])
        with pytest.raises(InstanceParseError, match=r"problems\[0\]"):
            parse_instance(text)

    def test_block_sum_error(self):
        text = make_text(probabilities=[["1/2", "1/3"]])
        with pytest.raises(InstanceParseError, match="sum"):
            parse_instance(text)

    def test_bad_json_position(self):
        with pytest.raises(InstanceParseError, match=":1:"):
            parse_instance("{oops", source="broken.json")

    def test_exponent_probability_rejected(self):
        # 1e-1 + 9e-1 would be a valid distribution if exponents were parsed.
        text = make_text(probabilities=[["1e-1", "9e-1"]])
        with pytest.raises(InstanceParseError, match=r"probabilities\[0\]\[0\]"):
            parse_instance(text)

    def test_missing_key(self):
        with pytest.raises(InstanceParseError, match="types"):
            parse_instance(json.dumps({
                "universe": ["a"], "problems": [["a"]], "probabilities": [["1"]],
            }))

    def test_unknown_key(self):
        with pytest.raises(InstanceParseError, match="extra"):
            parse_instance(make_text(extra=1))

    def test_weak_orders_need_set_valued(self):
        with pytest.raises(InstanceParseError, match="set-valued"):
            parse_instance(make_text(types="weak-orders"))

    def test_explicit_types(self):
        instance = parse_instance(make_text(types=[[1, 0], [0, 1], [1, 0]]))
        assert len(instance.type_set) == 2

    def test_bad_type_row(self):
        with pytest.raises(InstanceParseError, match=r"types\[0\]"):
            parse_instance(make_text(types=[[1, 2]]))

    def test_set_valued_instance(self):
        text = json.dumps({
            "universe": ["a", "b"],
            "problems": [["a", "b"]],
            "probabilities": [{"a,b": "1/2", "": "1/2"}],
            "types": "weak-orders",
            "set_valued": True,
        })
        instance = parse_instance(text)
        assert instance.set_valued
        assert instance.pi.values == (Fraction(1, 2), 0, 0, Fraction(1, 2))
        assert len(instance.type_set) == 3

    def test_comma_labels_rejected_when_set_valued(self):
        text = json.dumps({
            "universe": ["a,x", "b"],
            "problems": [["a,x", "b"]],
            "probabilities": [{"b": "1"}],
            "types": "weak-orders",
            "set_valued": True,
        })
        with pytest.raises(InstanceParseError, match="comma"):
            parse_instance(text)

    def test_comma_labels_are_not_lifted(self, tmp_path, capsys):
        # Singleton data may use the label "a,b"; its lifted label would be
        # that of the subset {a,b}, so lifting refuses it by name.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "universe": ["a", "b", "a,b"],
            "problems": [["a", "b"], ["a", "a,b"]],
            "probabilities": [["1", "0"], ["0", "1"]],
            "types": "linear-orders",
            "set_valued": False,
        }))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        for args in (["check", "--restricted-arsp"], ["lift"]):
            assert main([*args, str(path)]) == 2
            err = capsys.readouterr().err
            assert "error[ValidationError]: label 'a,b' contains a comma" in err
        instance = parse_instance(path.read_text())
        report = run_check(instance).to_structured()
        report["lifted"] = True
        ok, failures = run_verify(instance, report)
        assert not ok and "label 'a,b' contains a comma" in failures[0]


SINGLETON_TREE = json.loads(make_text())
SET_VALUED_TREE = {
    "universe": ["a", "b"],
    "problems": [["a", "b"]],
    "probabilities": [{"a,b": "1/2", "": "1/2"}],
    "types": "weak-orders",
    "set_valued": True,
}

HUGE = 10**2200 + 267

# (id, instance tree, location, message fragment): every error exit of
# instance parsing that the tests above leave out.
PARSE_ERRORS = [
    ("boolean-rational", {**SINGLETON_TREE, "probabilities": [[True, "0.7"]]},
     "instance.probabilities[0][0]", "got a boolean"),
    ("not-an-object", [SINGLETON_TREE],
     "instance", "must be a JSON object"),
    ("set-valued-not-boolean", {**SINGLETON_TREE, "set_valued": 1},
     "instance.set_valued", "true or false"),
    ("label-not-a-string", {**SINGLETON_TREE, "universe": ["a", 1]},
     "instance.universe", "list of label strings"),
    ("repeated-label", {**SINGLETON_TREE, "universe": ["a", "a"]},
     "instance.universe", "duplicate universe label 'a'"),
    ("no-problems", {**SINGLETON_TREE, "problems": []},
     "instance.problems", "nonempty list"),
    ("probability-row-count",
     {**SINGLETON_TREE, "probabilities": [["1/2", "1/2"], ["1", "0"]]},
     "instance.probabilities", "one probability list per problem (1)"),
    ("subset-map-count", {**SET_VALUED_TREE, "probabilities": []},
     "instance.probabilities", "one subset map per problem (1)"),
    ("row-length", {**SINGLETON_TREE, "probabilities": [["1"]]},
     "instance.probabilities[0]", "expected 2 entries aligned with problem 0"),
    ("set-valued-entry-not-a-map", {**SET_VALUED_TREE, "probabilities": [["1/2", "1/2"]]},
     "instance.probabilities[0]", "map subsets to probabilities"),
    ("subset-key-repeats-a-label", {**SET_VALUED_TREE, "probabilities": [{"a,a": "1"}]},
     "instance.probabilities[0]['a,a']", "repeats a label"),
    ("subset-key-unknown-label", {**SET_VALUED_TREE, "probabilities": [{"z": "1"}]},
     "instance.probabilities[0]['z']", "unknown label 'z'"),
    ("subset-key-not-a-subset",
     {**SET_VALUED_TREE, "universe": ["a", "b", "c"], "probabilities": [{"a,c": "1"}]},
     "instance.probabilities[0]['a,c']", "{a,c} is not a subset of problem 0"),
    # Both keys resolve to the coordinate of {a,b}; the second is refused, not
    # added to or written over the first.
    ("two-keys-for-one-subset",
     {**SET_VALUED_TREE, "probabilities": [{"a,b": "1/2", "b,a": "1/2"}]},
     "instance.probabilities[0]['b,a']", "duplicate subset key"),
    ("set-valued-sum", {**SET_VALUED_TREE, "probabilities": [{"a": "1/2"}]},
     "instance.probabilities", "sum to 1/2, not 1"),
    # Each value parses, but each sum has over 4300 digits, too many for
    # str(): the message describes it by its size.
    ("huge-singleton-sum",
     {**SINGLETON_TREE, "probabilities": [[f"1/{HUGE}", f"1/{HUGE + 2}"]]},
     "instance.probabilities", "sum to <"),
    ("huge-set-valued-sum",
     {**SET_VALUED_TREE, "probabilities": [{"a": f"1/{HUGE}", "b": f"1/{HUGE + 2}"}]},
     "instance.probabilities", "sum to <"),
    ("unknown-types-keyword", {**SINGLETON_TREE, "types": "partial-orders"},
     "instance.types", "unknown types keyword 'partial-orders'"),
    ("types-not-a-keyword-or-list", {**SINGLETON_TREE, "types": 5},
     "instance.types", "a keyword or a nonempty list of rows"),
    ("explicit-row-picks-two", {**SINGLETON_TREE, "types": [[1, 1]]},
     "instance.types", "selects 2 alternatives in problem 0"),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "tree,location,message",
        [case[1:] for case in PARSE_ERRORS],
        ids=[case[0] for case in PARSE_ERRORS],
    )
    def test_error_carries_its_location(self, tree, location, message):
        with pytest.raises(InstanceParseError) as exc:
            parse_instance(json.dumps(tree))
        assert exc.value.location == location
        assert str(exc.value).startswith(f"{location}: ")
        assert message in str(exc.value)

    def test_huge_sum_exits_two(self, tmp_path, capsys):
        _, tree, _, _ = next(case for case in PARSE_ERRORS if case[0] == "huge-singleton-sum")
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(tree))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error[InstanceParseError]: {path}.probabilities: " in err
        assert "sum to <" in err

    def test_cli_exits_two(self, tmp_path, capsys):
        _, tree, location, message = next(
            case for case in PARSE_ERRORS if case[0] == "two-keys-for-one-subset"
        )
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(tree))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[InstanceParseError]" in err
        assert f"{path}{location[len('instance'):]}: {message}" in err


class TestDigest:
    def test_deterministic(self):
        assert parse_instance(make_text()).digest == parse_instance(make_text()).digest

    def test_equivalent_rationals_share_digest(self):
        a = parse_instance(make_text(probabilities=[["3/10", "0.7"]]))
        b = parse_instance(make_text(probabilities=[["0.3", "7/10"]]))
        assert a.digest == b.digest

    def test_data_changes_digest(self):
        a = parse_instance(make_text())
        b = parse_instance(make_text(probabilities=[["1/2", "1/2"]]))
        assert a.digest != b.digest


@st.composite
def set_valued_rewrites(draw):
    """A set-valued instance tree over at most 4 alternatives, and the same
    instance written another way: each key's labels in another order, each
    map's entries in another order, and zero entries added."""
    labels = list("abcd"[: draw(st.integers(1, 4))])
    problems = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, unique=True).map(sorted),
        min_size=1,
        max_size=3,
    ))
    maps, rewritten = [], []
    for problem in problems:
        subsets = [s for k in range(len(problem) + 1) for s in combinations(problem, k)]
        given = draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(given), max_size=len(given)))
        values = [str(Fraction(w, sum(weights))) for w in weights]
        maps.append({",".join(s): v for s, v in zip(given, values)})
        zeros = draw(st.lists(st.sampled_from(subsets), unique=True))
        entries = list(zip(given, values)) + [(s, "0") for s in zeros if s not in given]
        entries = draw(st.permutations(entries))
        rewritten.append({",".join(draw(st.permutations(s))): v for s, v in entries})
    tree = {
        "universe": labels,
        "problems": problems,
        "probabilities": maps,
        "types": "weak-orders",
        "set_valued": True,
    }
    return tree, {**tree, "probabilities": rewritten}


class TestSetValuedParse:
    @settings(max_examples=100, deadline=None)
    @given(set_valued_rewrites())
    def test_parse_matches_lifting_and_digest_is_canonical(self, trees):
        tree, rewritten = trees
        instance = parse_instance(json.dumps(tree))
        observations = [
            {tuple(key.split(",")) if key else (): Fraction(v) for key, v in m.items()}
            for m in tree["probabilities"]
        ]
        assert instance.pi == lift_set_valued_data(observations, instance.layout)
        other = parse_instance(json.dumps(rewritten))
        assert other.pi == instance.pi
        assert other.digest == instance.digest


class TestRunCheckAndVerify:
    def test_mixture_report_verifies(self):
        instance = parse_instance(make_text())
        report = run_check(instance)
        assert report.verdict == "rationalizable"
        ok, failures = run_verify(instance, report.to_structured())
        assert ok, failures

    def test_certificate_report_verifies(self):
        text = json.dumps({
            "universe": ["a", "b", "c"],
            "problems": [["a", "b"], ["a", "c"], ["b", "c"]],
            "probabilities": [["1", "0"], ["0", "1"], ["1", "0"]],
            "types": "linear-orders",
            "set_valued": False,
        })
        instance = parse_instance(text)
        report = run_check(instance)
        assert report.verdict == "not-rationalizable"
        structured = report.to_structured()
        assert structured["certificate"]["lhs"] == "3"
        assert structured["certificate"]["rhs"] == "2"
        ok, failures = run_verify(instance, structured)
        assert ok, failures

    @pytest.mark.parametrize("mode", ["canonical", "fancy"])
    def test_only_the_compressed_mode_is_accepted(self, mode):
        instance = parse_instance(CYCLIC_TEXT)
        with pytest.raises(ValidationError, match="decomposition mode"):
            run_check(instance, mode=mode)
        flags = run_check(instance, mode="compressed").to_structured()["flags"]
        assert flags == {"mode": "compressed", "restricted_arsp": False}

    def test_tampered_mixture_fails(self):
        instance = parse_instance(make_text())
        structured = run_check(instance).to_structured()
        structured["mixture"]["weights"][0]["weight"] = "1/2"
        ok, failures = run_verify(instance, structured)
        assert not ok
        assert any("reconstruct" in f or "sum" in f for f in failures)

    def test_tampered_certificate_fails(self):
        text = json.dumps({
            "universe": ["a", "b", "c"],
            "problems": [["a", "b"], ["a", "c"], ["b", "c"]],
            "probabilities": [["1", "0"], ["0", "1"], ["1", "0"]],
            "types": "linear-orders",
            "set_valued": False,
        })
        instance = parse_instance(text)
        structured = run_check(instance).to_structured()
        structured["certificate"]["lhs"] = "4"
        ok, failures = run_verify(instance, structured)
        assert not ok

    @pytest.mark.parametrize(
        "types", ["linear-orders", [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]]
    )
    def test_certificate_takes_one_best_value(self, types, monkeypatch):
        # The trials' best value follows from the separator's once the
        # pipeline checks pass, so verify searches the types once.
        tree = json.loads(CYCLIC_TEXT)
        tree["types"] = types
        instance = parse_instance(json.dumps(tree))
        report = run_check(instance).to_structured()
        assert report["verdict"] == "not-rationalizable"
        calls = []
        for cls in (OrderTypes, RationalTypeSet):
            original = cls.best

            def counted(self, y, original=original):
                calls.append(tuple(y))
                return original(self, y)

            monkeypatch.setattr(cls, "best", counted)
        ok, failures = run_verify(instance, report)
        assert ok, failures
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "claims,failures",
        [
            # The report's own claims, which fit the pipeline's multiset.
            (
                {},
                [
                    "lhs is 1, report claims 3",
                    "rhs is 1, report claims 2",
                    "trial sequence does not strictly violate the axiom",
                ],
            ),
            # Claims that fit the multiset the report lists instead.
            ({"lhs": "1", "rhs": "1"}, ["trial sequence does not strictly violate the axiom"]),
        ],
    )
    def test_off_pipeline_aggregate_gets_its_own_lhs_and_rhs(self, claims, failures):
        # One trial on a coordinate that holds 1: lhs 1, and some order picks
        # it, so rhs 1. Scaling the separator's best value would give 2.
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        cert = report["certificate"]
        assert cert["integer_aggregate"] == [1, 0, 0, 1, 1, 0]
        cert["integer_aggregate"] = [1, 0, 0, 0, 0, 0]
        cert["trials"] = cert["trials"][:1]
        cert.update(claims)
        ok, found = run_verify(instance, report)
        assert not ok
        assert found == ["integer aggregate does not match the pipeline", *failures]

    def test_wrong_instance_detected_by_digest(self):
        a = parse_instance(make_text())
        b = parse_instance(make_text(probabilities=[["1/2", "1/2"]]))
        structured = run_check(a).to_structured()
        ok, failures = run_verify(b, structured)
        assert not ok
        assert any("digest" in f for f in failures)

    def test_restricted_flag_roundtrip(self):
        text = json.dumps({
            "universe": ["a", "b"],
            "problems": [["a", "b"]],
            "probabilities": [{"a,b": "1"}],
            "types": "linear-orders",
            "set_valued": True,
        })
        instance = parse_instance(text)
        report = run_check(instance, restricted=True)
        assert report.restricted_holds is True
        assert report.verdict == "not-rationalizable"
        structured = report.to_structured()
        ok, failures = run_verify(instance, structured)
        assert ok, failures
        tampered = dict(structured)
        tampered["restricted_arsp"] = {"holds": False}
        ok, _ = run_verify(instance, tampered)
        assert not ok


def _set_valued_text(probabilities):
    return json.dumps({
        "universe": ["a", "b"],
        "problems": [["a", "b"]],
        "probabilities": [probabilities],
        "types": "linear-orders",
        "set_valued": True,
    })


# Neither is a mixture of linear orders (they never pick {a,b} or {}). On
# the first the restricted axiom holds, witnessed by 1/2 on each order, with
# equality on the query "subsets of {a}"; on the second the query "subsets of
# {}" violates it. Block coordinates: {}, {a}, {b}, {a,b}.
RESTRICTED_HOLDS_TEXT = _set_valued_text({"a": "1/2", "a,b": "1/2"})
RESTRICTED_FAILS_TEXT = _set_valued_text({"": "1/2", "a": "1/2"})


def _good_reports():
    """(instance, structured report) for every sample, plus restricted runs."""
    out = []
    for path in sorted(SAMPLES.glob("*.json")):
        instance = parse_instance(path.read_text())
        out.append((instance, run_check(instance).to_structured()))
        if instance.set_valued:
            out.append((instance, run_check(instance, restricted=True).to_structured()))
    for text in (RESTRICTED_HOLDS_TEXT, RESTRICTED_FAILS_TEXT):
        instance = parse_instance(text)
        out.append((instance, run_check(instance, restricted=True).to_structured()))
    return out


GOOD_REPORTS = _good_reports()

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([1.0, 1.5, -0.5, 0.0, 10**20])
    | st.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "x", "1.5", "true"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["weight", "type", "holds", "weights", "trials", "count", "x"]),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


def _mutate(data, tree):
    """Replace, delete or append at one random position below the root."""
    parent, key, node = None, None, tree
    while isinstance(node, (dict, list)) and node and (
        parent is None or data.draw(st.integers(0, 3))
    ):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = node[key]
    action = data.draw(st.sampled_from(["replace", "delete", "append"]))
    if action == "append" and isinstance(node, list):
        node.append(data.draw(JSON_VALUES))
    elif action == "delete":
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)


class TestVerifyMalformedReports:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_reports_never_raise(self, data):
        instance, good = data.draw(st.sampled_from(GOOD_REPORTS))
        report = copy.deepcopy(good)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, report)
        ok, failures = run_verify(instance, report)
        assert isinstance(ok, bool)
        if ok:
            assert failures == []
        else:
            assert failures and all(isinstance(f, str) for f in failures)
        json.dumps(failures)

    def test_good_reports_verify(self):
        for instance, report in GOOD_REPORTS:
            assert run_verify(instance, report) == (True, [])

    @pytest.mark.parametrize(
        "where,value",
        [
            (("mixture", "weights"), 5),
            (("mixture", "weights", 0, "type"), 5),
            (("mixture", "weights", 0), 5),
            (("mixture",), []),
            (("restricted_arsp",), True),
            (("restricted_arsp",), {"holds": "yes"}),
            (("lifted",), "no"),
        ],
    )
    def test_non_iterable_mixture_fields(self, where, value):
        instance = parse_instance(make_text())
        report = run_check(instance).to_structured()
        report["restricted_arsp"] = {"holds": True}
        _set(report, where, value)
        ok, failures = run_verify(instance, report)
        assert not ok and failures

    @pytest.mark.parametrize(
        "where,value",
        [
            (("certificate", "trials"), 5),
            (("certificate", "trials", 0), 5),
            (("certificate", "trials", 0, "coordinates"), 5),
            (("certificate", "positivized"), 5),
            (("certificate", "positivized", 0), -4),
        ],
    )
    def test_non_iterable_certificate_fields(self, where, value):
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        _set(report, where, value)
        ok, failures = run_verify(instance, report)
        assert not ok and failures

    @pytest.mark.parametrize("value", [1.0, 1.5, True])
    @pytest.mark.parametrize(
        "where",
        [
            ("certificate", "separating", 0),
            ("certificate", "integer_aggregate", 0),
            ("certificate", "trials", 0, "problem"),
            ("certificate", "trials", 0, "coordinates", 0),
        ],
    )
    def test_non_integer_entries_rejected(self, where, value):
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        # Only entries equal to 1 are tested, so truncating or coercing 1.0,
        # 1.5 or True would leave the report valid.
        cert = report["certificate"]
        cert["trials"] = sorted(cert["trials"], key=lambda t: t["problem"])
        assert _get(report, where) == 1
        assert run_verify(instance, report) == (True, [])
        _set(report, where, value)
        ok, failures = run_verify(instance, report)
        assert not ok and failures

    def test_uncappable_lifted_claim_is_a_failure(self):
        labels = [f"x{k}" for k in range(17)]
        instance = parse_instance(json.dumps({
            "universe": labels,
            "problems": [labels[:2]],
            "probabilities": [["1/2", "1/2"]],
            "types": [[1, 0], [0, 1]],
            "set_valued": False,
        }))
        report = run_check(instance).to_structured()
        report["lifted"] = True
        ok, failures = run_verify(instance, report)
        assert not ok
        assert any("cap" in f for f in failures)

    def test_exponent_weight_is_a_failure(self):
        instance = parse_instance(make_text())
        report = run_check(instance).to_structured()
        report["mixture"]["weights"][0]["weight"] = "1e5000"
        ok, failures = run_verify(instance, report)
        assert not ok
        assert "mixture entry 0: malformed weight" in failures

    def test_exponent_gap_is_a_failure(self):
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        report["certificate"]["gap"] = "1e5000"
        ok, failures = run_verify(instance, report)
        assert not ok
        assert any("exponent notation" in f for f in failures)

    def test_huge_mixture_total_is_a_failure(self):
        # The weights parse, but their sum has over 6000 digits: too many
        # for str(), so the message must describe it another way.
        instance = parse_instance((SAMPLES / "two_point_mixture.json").read_text())
        report = run_check(instance).to_structured()
        weights = report["mixture"]["weights"]
        weights[0]["weight"] = f"1/{10**3000 + 1}"
        weights[1]["weight"] = f"1/{10**3000 + 3}"
        ok, failures = run_verify(instance, report)
        assert not ok
        assert any(f.startswith("mixture weights sum to <") for f in failures)

    def test_huge_separating_entry_is_a_failure(self):
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        report["certificate"]["separating"][0] = -(10**5000)
        ok, failures = run_verify(instance, report)
        assert not ok
        assert any(f.startswith("separating gap is <") for f in failures)

    def test_repeated_trial_coordinate_rejected(self):
        instance = parse_instance(CYCLIC_TEXT)
        report = run_check(instance).to_structured()
        trial = report["certificate"]["trials"][0]
        trial["coordinates"] = trial["coordinates"] * 2
        trial.pop("members", None)
        ok, failures = run_verify(instance, report)
        assert not ok
        assert any("repeated" in f for f in failures)


def _extra_trial(**trial):
    return lambda report: report["certificate"]["trials"].append(trial)


def _zero_weight(report):
    weights = report["mixture"]["weights"]
    weights.append({"weight": "0", "type": weights[0]["type"]})


# (id, instance text, mutation of its compressed report, every failure).
# Each added trial or weight changes nothing else the report claims, so the
# branch it reaches is the only failure; a certificate left without trials
# also no longer adds up to its aggregate.
VERIFY_FAILURES = [
    ("report-not-an-object", CYCLIC_TEXT, None,
     ["report is not a JSON object"]),
    ("weight-not-positive", make_text(), _zero_weight,
     ["mixture entry 2: weight 0 is not positive"]),
    ("separator-length", CYCLIC_TEXT,
     lambda report: report["certificate"]["separating"].pop(),
     ["certificate separating vector has the wrong length"]),
    ("coordinates-out-of-range", CYCLIC_TEXT, _extra_trial(problem=3, coordinates=[7]),
     ["trial 3: coordinates out of range"]),
    ("support-leaves-its-problem", CYCLIC_TEXT, _extra_trial(problem=1, coordinates=[3]),
     ["trial 3: support is not inside problem 1"]),
    ("members-disagree", CYCLIC_TEXT,
     _extra_trial(problem=1, coordinates=[1], members=["b"]),
     ["trial 3: member labels disagree with coordinates"]),
    ("no-trials", CYCLIC_TEXT,
     lambda report: report["certificate"]["trials"].clear(),
     ["trials do not aggregate to the integer aggregate",
      "certificate contains no trials"]),
    # The header must agree with the instance and with the report's body.
    ("other-command", CYCLIC_TEXT, lambda report: report.update(command="facets"),
     ["unknown report command 'facets'"]),
    ("no-flags", CYCLIC_TEXT, lambda report: report.pop("flags"),
     ["the restricted_arsp flag is not a boolean"]),
    ("restricted-flag-without-claim", CYCLIC_TEXT,
     lambda report: report["flags"].update(restricted_arsp=True),
     ["the restricted_arsp flag is set but the report has no restricted-axiom claim"]),
    ("claim-without-restricted-flag", CYCLIC_TEXT,
     lambda report: report.update(restricted_arsp={"holds": False}),
     ["the report has a restricted-axiom claim but its restricted_arsp flag is not set"]),
    ("no-lifted-flag", CYCLIC_TEXT, lambda report: report.pop("lifted"),
     ["the lifted flag is not a boolean"]),
    ("set-valued-not-lifted", RESTRICTED_HOLDS_TEXT,
     lambda report: report.update(lifted=False),
     ["the report is not on the lifted layout, which set-valued data needs"]),
    ("restricted-not-lifted", CYCLIC_TEXT,
     lambda report: report.update(restricted_arsp={"holds": False}, flags={
         "mode": "compressed", "restricted_arsp": True}),
     ["the report is not on the lifted layout, which the restricted axiom needs"]),
    # A witness the verdict does not use is checked by nothing, so it fails.
    ("mixture-with-certificate", MIXTURE_TEXT,
     lambda report: report.update(certificate={"separating": "junk"}),
     ["a rationalizable report carries 'certificate', a witness it does not use"]),
    ("certificate-with-mixture", CYCLIC_TEXT,
     lambda report: report.update(mixture={"weights": "junk"}),
     ["a not-rationalizable report carries 'mixture', a witness it does not use"]),
    # Malformed values where a mixture entry or a rational belongs.
    ("mixture-entry-not-an-object", make_text(),
     lambda report: report["mixture"]["weights"].append(5),
     ["mixture entry 2: not an object"]),
    ("mixture-type-malformed", make_text(),
     lambda report: report["mixture"]["weights"].append({"weight": "1/2", "type": "ab"}),
     ["mixture entry 2: malformed type"]),
    ("rational-is-null", CYCLIC_TEXT,
     lambda report: report["certificate"].update(gap=None),
     ["malformed certificate: gap: expected a rational string, got NoneType"]),
    ("rational-is-a-list", CYCLIC_TEXT,
     lambda report: report["certificate"].update(lhs=["3"]),
     ["malformed certificate: lhs: expected a rational string, got list"]),
]


@pytest.mark.parametrize(
    "text,mutate,failures",
    [case[1:] for case in VERIFY_FAILURES],
    ids=[case[0] for case in VERIFY_FAILURES],
)
def test_verify_failure_branches(text, mutate, failures):
    instance = parse_instance(text)
    report = run_check(instance).to_structured()
    assert run_verify(instance, report) == (True, [])
    if mutate is None:
        report = [report]
    else:
        mutate(report)
    assert run_verify(instance, report) == (False, failures)


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _set(tree, path, value):
    _get(tree, path[:-1])[path[-1]] = value


class TestLiftedInstanceTree:
    def test_lift_output_is_checkable_and_agrees(self):
        text = json.dumps({
            "universe": ["a", "b"],
            "problems": [["a", "b"]],
            "probabilities": [{"a,b": "1"}],
            "types": "linear-orders",
            "set_valued": True,
        })
        instance = parse_instance(text)
        lifted_tree = lifted_instance_tree(instance)
        relifted = parse_instance(json.dumps(lifted_tree))
        assert not relifted.set_valued
        original = run_check(instance)
        again = run_check(relifted)
        assert original.verdict == again.verdict

    def test_singleton_instance_lifts_to_equivalent_instance(self):
        instance = parse_instance(make_text())
        lifted_tree = lifted_instance_tree(instance)
        relifted = parse_instance(json.dumps(lifted_tree))
        assert run_check(instance).verdict == run_check(relifted).verdict

    def test_explicit_base_types_lift_to_singleton_selectors(self):
        instance = parse_instance(make_text(types=[[1, 0]]))
        lifted_tree = lifted_instance_tree(instance)
        # Block order over subsets of {a,b} is {}, {a}, {b}, {a,b}; the lone
        # base type "always a" must become "always {a}".
        assert lifted_tree["types"] == [[0, 1, 0, 0]]
        relifted = parse_instance(json.dumps(lifted_tree))
        assert run_check(instance).verdict == run_check(relifted).verdict

ONLY_A, ONLY_B = [0, 1, 0, 0], [0, 0, 1, 0]


def _restricted(**fields):
    return lambda report: report["restricted_arsp"].update(fields)


def _restricted_weights(*weights):
    return _restricted(mixture={"weights": [{"weight": w, "type": t} for w, t in weights]})


def _restricted_trials(*trials):
    return _restricted(trials=[
        {"problem": 1, "coordinates": coords, "count": count} for coords, count in trials
    ])


def _without(key):
    return lambda report: report["restricted_arsp"].pop(key)


# (id, instance text, mutation of its compressed restricted report, every
# failure). Each witness as check writes it verifies; each broken one fails
# with exactly these messages.
RESTRICTED_FAILURES = [
    ("negative-weight", RESTRICTED_HOLDS_TEXT,
     _restricted_weights(("3/2", ONLY_B), ("-1/2", ONLY_A)),
     ["restricted mixture entry 1: weight -1/2 is not positive",
      "restricted mixture collects -1/2 on problem 1 query {{},{a}}, below the data's 1/2"]),
    ("weights-sum-below-1", RESTRICTED_HOLDS_TEXT,
     _restricted_weights(("1/3", ONLY_B), ("1/2", ONLY_A)),
     ["restricted mixture weights sum to 5/6, not 1",
      "restricted mixture collects 5/6 on problem 1 query {{},{a},{b},{a,b}}, "
      "below the data's 1"]),
    ("type-not-admitted", RESTRICTED_HOLDS_TEXT,
     _restricted_weights(("1/2", [0, 0, 0, 1]), ("1/2", ONLY_A)),
     ["restricted mixture entry 0: type is not in the admissible set",
      "restricted mixture weights sum to 1/2, not 1",
      "restricted mixture collects 1/2 on problem 1 query {{},{a},{b},{a,b}}, "
      "below the data's 1"]),
    ("misses-one-query-by-1/6", RESTRICTED_HOLDS_TEXT,
     _restricted_weights(("2/3", ONLY_B), ("1/3", ONLY_A)),
     ["restricted mixture collects 1/3 on problem 1 query {{},{a}}, below the data's 1/2"]),
    ("malformed-weight", RESTRICTED_HOLDS_TEXT,
     _restricted_weights(("1/0", ONLY_B), (0.5, ONLY_A)),
     ["restricted mixture entry 0: malformed weight",
      "restricted mixture entry 1: malformed weight",
      "restricted mixture weights sum to 0, not 1",
      "restricted mixture collects 0 on problem 1 query {{},{a}}, below the data's 1/2"]),
    ("oversized-weights", RESTRICTED_HOLDS_TEXT,
     _restricted_weights((f"1/{10**3000 + 1}", ONLY_A), (f"1/{10**3000 + 3}", ONLY_A)),
     ["restricted mixture weights sum to <9967-bit / 19932-bit fraction>, not 1",
      "restricted mixture collects <9967-bit / 19932-bit fraction> on problem 1 query "
      "{{},{a}}, below the data's 1/2"]),
    ("weights-not-a-list", RESTRICTED_HOLDS_TEXT, _restricted(mixture={"weights": 5}),
     ["restricted axiom claimed to hold without a mixture witness"]),
    ("holds-with-trials", RESTRICTED_HOLDS_TEXT,
     lambda report: report["restricted_arsp"].update(
         holds=True, trials=[{"problem": 1, "coordinates": [1], "count": 1}]
     ) or report["restricted_arsp"].pop("mixture"),
     ["restricted axiom claimed to hold without a mixture witness",
      "a restricted-axiom claim that the axiom holds carries 'trials', "
      "a witness it does not use"]),
    ("bare-holds-claim", RESTRICTED_HOLDS_TEXT, _without("mixture"),
     ["restricted axiom claimed to hold without a mixture witness"]),
    ("fails-with-mixture", RESTRICTED_HOLDS_TEXT, _restricted(holds=False),
     ["restricted axiom claimed to fail without a trial witness",
      "a restricted-axiom claim that the axiom fails carries 'mixture', "
      "a witness it does not use"]),
    ("bare-fails-claim", RESTRICTED_FAILS_TEXT, _without("trials"),
     ["restricted axiom claimed to fail without a trial witness"]),
    ("holds-contradicts-trials", RESTRICTED_FAILS_TEXT, _restricted(holds=True),
     ["restricted axiom claimed to hold without a mixture witness",
      "a restricted-axiom claim that the axiom holds carries 'trials', "
      "a witness it does not use"]),
    # A witness the claim does not use is checked by nothing, so it fails,
    # junk or not.
    ("planted-holds-with-trials", PLANTED_TEXT, _restricted(trials="junk"),
     ["a restricted-axiom claim that the axiom holds carries 'trials', "
      "a witness it does not use"]),
    ("verdict-claim-with-trials", CYCLIC_TEXT, _restricted_trials(([1], 1)),
     ["a restricted-axiom claim the full verdict decides carries 'trials', "
      "a witness it does not use"]),
    ("not-all-subsets", RESTRICTED_FAILS_TEXT, _restricted_trials(([1, 4], 1)),
     ["restricted trial 0: does not query all the subsets of one set"]),
    ("misses-the-empty-set", RESTRICTED_FAILS_TEXT, _restricted_trials(([2, 3, 4], 1)),
     ["restricted trial 0: does not query all the subsets of one set"]),
    ("does-not-violate", RESTRICTED_FAILS_TEXT, _restricted_trials(([1, 2, 3, 4], 2)),
     ["restricted trials collect 2, not above the best type's 2"]),
    ("count-not-positive", RESTRICTED_FAILS_TEXT,
     _restricted_trials(([1], 0), ([1, 2], True), ([1, 3], 1.0), ([1, 2], "1")),
     ["restricted trial 0: count is not a positive integer",
      "restricted trial 1: count is not a positive integer",
      "restricted trial 2: count is not a positive integer",
      "restricted trial 3: count is not a positive integer"]),
    ("trial-malformed", RESTRICTED_FAILS_TEXT,
     _restricted(trials=[5, {"problem": 1, "coordinates": [1]}, {"problem": 1, "count": 1}]),
     ["restricted trial 0: malformed",
      "restricted trial 1: count is not a positive integer",
      "restricted trial 2: malformed"]),
    ("oversized-problem", RESTRICTED_FAILS_TEXT,
     _restricted(trials=[{"problem": 10**5000, "coordinates": [1], "count": 1}]),
     ["restricted trial 0: support is not inside problem <16610-bit integer>"]),
    ("trials-empty", RESTRICTED_FAILS_TEXT, _restricted(trials=[]),
     ["restricted axiom claimed to fail without a trial witness"]),
    ("claim-not-an-object", RESTRICTED_FAILS_TEXT,
     lambda report: report.update(restricted_arsp=[False]),
     ['restricted-axiom claim is not {"holds": true|false, ...}']),
    # Where the full verdict decides the restricted axiom, a claim against
    # it fails: singleton data that is not a mixture, and set-valued data
    # that is one.
    ("singleton-claims-holds", CYCLIC_TEXT, _restricted(holds=True),
     ["the verdict makes the restricted axiom hold=False, report claims True"]),
    ("rationalizable-claims-fails", _set_valued_text({"a": "1/3", "b": "2/3"}),
     _restricted(holds=False),
     ["the verdict makes the restricted axiom hold=True, report claims False"]),
]


@pytest.mark.parametrize(
    "text,mutate,failures",
    [case[1:] for case in RESTRICTED_FAILURES],
    ids=[case[0] for case in RESTRICTED_FAILURES],
)
def test_restricted_witness_failures(text, mutate, failures, tmp_path, capsys):
    instance = parse_instance(text)
    report = run_check(instance, restricted=True).to_structured()
    assert run_verify(instance, report) == (True, [])
    mutate(report)
    assert run_verify(instance, report) == (False, failures)
    (tmp_path / "instance.json").write_text(text)
    # An integer of over 4300 digits needs the limit lifted to be written;
    # verify's JSON reader refuses it, which is a failure too.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        (tmp_path / "report.json").write_text(json.dumps(report))
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["verify", str(tmp_path / "instance.json"), str(tmp_path / "report.json")]) == 2
    out, err = capsys.readouterr()
    assert "verified: false" in out or "error[InstanceParseError]" in err

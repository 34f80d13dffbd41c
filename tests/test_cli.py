import json
import pathlib

import pytest

from ruhull import Instance, load_instance, run_verify
from ruhull.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "instances"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


@pytest.fixture()
def write_instance(tmp_path):
    def _write(tree, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(tree))
        return str(path)

    return _write


MIX_TREE = {
    "universe": ["a", "b"],
    "problems": [["a", "b"]],
    "probabilities": [["3/10", "7/10"]],
    "types": "linear-orders",
    "set_valued": False,
}

CYCLIC_TREE = {
    "universe": ["a", "b", "c"],
    "problems": [["a", "b"], ["a", "c"], ["b", "c"]],
    "probabilities": [["1", "0"], ["0", "1"], ["1", "0"]],
    "types": "linear-orders",
    "set_valued": False,
}

FOOTNOTE_TREE = {
    "universe": ["a", "b"],
    "problems": [["a", "b"]],
    "probabilities": [{"a,b": "1"}],
    "types": "linear-orders",
    "set_valued": True,
}


class TestCheckCommand:
    def test_rationalizable_exits_zero(self, write_instance, capsys):
        path = write_instance(MIX_TREE)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: rationalizable" in out
        assert "weight 3/10" in out

    def test_cyclic_exits_three_with_values(self, write_instance, capsys):
        path = write_instance(CYCLIC_TREE)
        assert main(["check", path]) == 3
        out = capsys.readouterr().out
        assert "verdict: not-rationalizable" in out
        assert "lhs: 3" in out
        assert "rhs: 2" in out

    def test_structured_output_parses(self, write_instance, capsys):
        path = write_instance(CYCLIC_TREE)
        assert main(["check", path, "--format", "structured"]) == 3
        tree = json.loads(capsys.readouterr().out)
        assert tree["verdict"] == "not-rationalizable"
        assert tree["certificate"]["integer_aggregate"] == [1, 0, 0, 1, 1, 0]

    def test_restricted_arsp_text(self, write_instance, capsys):
        path = write_instance(FOOTNOTE_TREE)
        assert main(["check", path, "--restricted-arsp"]) == 3
        out = capsys.readouterr().out
        assert "restricted axiom: holds; GARSP: violated" in out

    def test_malformed_instance_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/file.json"]) == 2

    def test_cap_exceeded_exits_four(self, write_instance, capsys):
        labels = [f"x{i}" for i in range(17)]
        tree = {
            "universe": labels,
            "problems": [labels],
            "probabilities": [{labels[0]: "1"}],
            "types": "weak-orders",
            "set_valued": True,
        }
        path = write_instance(tree)
        assert main(["check", path]) == 4
        assert "cap" in capsys.readouterr().err.lower()

    def test_timing_goes_to_stderr_not_stdout(self, write_instance, capsys):
        path = write_instance(MIX_TREE)
        main(["check", path])
        captured = capsys.readouterr()
        assert "elapsed" in captured.err
        assert "elapsed" not in captured.out

    @pytest.mark.parametrize("mode", ["canonical", "compressed"])
    def test_mode_option_is_a_usage_error(self, write_instance, capsys, mode):
        # Certificates have one decomposition, so check takes no --mode.
        path = write_instance(CYCLIC_TREE)
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--mode", mode])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestOtherCommands:
    def test_enumerate_types(self, write_instance, capsys):
        path = write_instance(CYCLIC_TREE)
        assert main(["enumerate-types", path]) == 0
        assert "6 admissible type(s)" in capsys.readouterr().out

    def test_enumerate_types_structured(self, write_instance, capsys):
        path = write_instance(MIX_TREE)
        assert main(["enumerate-types", path, "--format", "structured"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["count"] == 2
        assert tree["types"] == [[0, 1], [1, 0]]

    def test_facets(self, write_instance, capsys):
        path = write_instance(CYCLIC_TREE)
        assert main(["facets", path, "--format", "structured"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["dimension"] == 3
        assert len(tree["facets"]) == 8
        assert len(tree["equations"]) == 3

    def test_facets_cap_override(self, write_instance, capsys):
        path = write_instance(CYCLIC_TREE)
        assert main(["facets", path, "--max-coordinates", "4"]) == 4

    def test_facets_refuses_before_listing_types(self, monkeypatch, capsys):
        # 72 coordinates: the 9! = 362880 orders are never listed.
        def refuse(self):
            raise AssertionError("types were listed")

        monkeypatch.setattr(Instance, "type_set", property(refuse))
        assert main(["facets", str(FIXTURES / "nine_alternatives_planted.json")]) == 4
        err = capsys.readouterr().err
        assert "refusing 72 coordinates" in err
        assert "24 coordinates)" in err

    def test_lift_output_rechecks(self, write_instance, tmp_path, capsys):
        path = write_instance(FOOTNOTE_TREE)
        assert main(["lift", path]) == 0
        lifted_path = tmp_path / "lifted.json"
        lifted_path.write_text(capsys.readouterr().out)
        assert main(["check", str(lifted_path)]) == 3

    def test_verify_roundtrip(self, write_instance, tmp_path, capsys):
        path = write_instance(CYCLIC_TREE)
        main(["check", path, "--format", "structured"])
        report_path = tmp_path / "report.json"
        report_path.write_text(capsys.readouterr().out)
        assert main(["verify", path, str(report_path)]) == 0
        assert "verified: true" in capsys.readouterr().out

    def test_verify_tampered_report(self, write_instance, tmp_path, capsys):
        path = write_instance(CYCLIC_TREE)
        main(["check", path, "--format", "structured"])
        tree = json.loads(capsys.readouterr().out)
        tree["certificate"]["rhs"] = "1"
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(tree))
        assert main(["verify", path, str(report_path)]) == 2
        assert "verified: false" in capsys.readouterr().out

    def test_verify_malformed_report_exits_two(self, write_instance, tmp_path, capsys):
        path = write_instance(CYCLIC_TREE)
        main(["check", path, "--format", "structured"])
        tree = json.loads(capsys.readouterr().out)
        tree["certificate"]["trials"] = 5
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(tree))
        assert main(["verify", path, str(report_path)]) == 2
        assert "verified: false" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rhs,code,verified,failures",
        [("2", 0, "true", "[]"), ("1", 2, "false", '[\n    "rhs is 2, report claims 1"\n  ]')],
        ids=["accepted", "rejected"],
    )
    def test_verify_structured(
        self, write_instance, tmp_path, capsys, rhs, code, verified, failures
    ):
        path = write_instance(CYCLIC_TREE)
        main(["check", path, "--format", "structured"])
        tree = json.loads(capsys.readouterr().out)
        assert tree["certificate"]["rhs"] == "2"
        tree["certificate"]["rhs"] = rhs
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(tree))
        assert main(["verify", path, str(report_path), "--format", "structured"]) == code
        assert capsys.readouterr().out == (
            "{\n"
            f'  "failures": {failures},\n'
            '  "format": "ruhull-verify-v1",\n'
            '  "instance_digest": '
            '"529c90051c37463d71b9a208a46eba2f1490121cee72ff0e57644eb993a11198",\n'
            f'  "verified": {verified}\n'
            "}\n"
        )


class TestHugeJsonIntegers:
    # json refuses integer literals over 4300 digits with a plain ValueError.
    HUGE = "1" * 5000

    def test_check_instance_exits_two(self, tmp_path, capsys):
        text = (SAMPLES / "two_point_mixture.json").read_text()
        path = tmp_path / "instance.json"
        path.write_text(text.replace("{", '{"junk": ' + self.HUGE + ",", 1))
        assert main(["check", str(path)]) == 2
        assert "error[InstanceParseError]" in capsys.readouterr().err

    def test_verify_report_exits_two(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"x": ' + self.HUGE + "}")
        instance = str(SAMPLES / "two_point_mixture.json")
        assert main(["verify", instance, str(report)]) == 2
        assert "error[InstanceParseError]" in capsys.readouterr().err


class TestUnparsableFiles:
    # Bytes that are not UTF-8, and nesting deeper than json can recurse.
    NOT_UTF8 = b'{"universe": ["\xff"]}'
    NESTED = b"[" * 100000 + b"]" * 100000

    def _check(self, tmp_path, data):
        path = tmp_path / "instance.json"
        path.write_bytes(data)
        return main(["check", str(path)])

    def test_check_non_utf8_instance_exits_two(self, tmp_path, capsys):
        assert self._check(tmp_path, self.NOT_UTF8) == 2
        assert "error[InstanceParseError]" in capsys.readouterr().err

    def test_check_deeply_nested_instance_exits_two(self, tmp_path, capsys):
        assert self._check(tmp_path, self.NESTED) == 2
        assert "error[InstanceParseError]" in capsys.readouterr().err

    def test_verify_deeply_nested_report_exits_two(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(self.NESTED)
        instance = str(SAMPLES / "two_point_mixture.json")
        assert main(["verify", instance, str(report)]) == 2
        assert "error[InstanceParseError]" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", None],
            ["check", None, "--format", "structured"],
            ["check", None, "--restricted-arsp"],
            ["enumerate-types", None],
            ["facets", None, "--format", "structured"],
        ],
    )
    def test_byte_identical_stdout(self, write_instance, capsys, argv):
        path = write_instance(CYCLIC_TREE)
        args = [a if a is not None else path for a in argv]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        assert first  # sanity: the command printed something


UNNORMALIZED = pathlib.Path(__file__).resolve().parent / "fixtures" / "unnormalized_reports"
BARE_CLAIMS = pathlib.Path(__file__).resolve().parent / "fixtures" / "bare_restricted_claims"
CANONICAL = pathlib.Path(__file__).resolve().parent / "fixtures" / "canonical_reports"
LIFTED_LAYOUT = pathlib.Path(__file__).resolve().parent / "fixtures" / "lifted_layout_reports"
LISTED_RESTRICTED = pathlib.Path(__file__).resolve().parent / "fixtures" / "listed_restricted_reports"
# A restricted-axiom claim on set-valued data that fails the full axiom must
# carry its witness: a bare {"holds": true} could only be checked by solving
# the restricted LP, which verify does not do.
BARE_CLAIM_FAILURE = "restricted axiom claimed to hold without a mixture witness"


def _bare_restricted_claim(report):
    return report.get("restricted_arsp") == {"holds": True} and report["lifted"] and (
        report["verdict"] == "not-rationalizable"
    )


def _verify_exits(instance_path, report_path, capsys, failures):
    ok = not failures
    assert main(["verify", str(instance_path), str(report_path)]) == (0 if ok else 2)
    out = capsys.readouterr().out
    assert f"verified: {'true' if ok else 'false'}" in out
    assert all(f in out for f in failures)


@pytest.mark.parametrize(
    "report_path", sorted(UNNORMALIZED.glob("*.json")), ids=lambda p: p.stem
)
def test_reports_with_negative_separators_still_verify(report_path, capsys):
    # Reports written before separators were shifted to block minimum 0: the
    # separator has negative entries and positivize shifts it. The restricted
    # whole_set_chooser reports were also written before the restricted axiom
    # carried a witness: their bare claim is their only failure.
    report = json.loads(report_path.read_text())
    assert min(report["certificate"]["separating"]) < 0
    instance_path = SAMPLES / f"{report_path.name.split('.')[0]}.json"
    failures = [BARE_CLAIM_FAILURE] if _bare_restricted_claim(report) else []
    assert run_verify(load_instance(str(instance_path)), report) == (not failures, failures)
    _verify_exits(instance_path, report_path, capsys, failures)


@pytest.mark.parametrize(
    "report_path", sorted(BARE_CLAIMS.glob("*.json")), ids=lambda p: p.stem
)
def test_bare_restricted_claims_are_rejected(report_path, capsys):
    # The whole_set_chooser goldens as check wrote them before the restricted
    # axiom carried a witness: the rest of the report still verifies.
    report = json.loads(report_path.read_text())
    assert _bare_restricted_claim(report)
    instance_path = SAMPLES / f"{report_path.name.split('.')[0]}.json"
    assert run_verify(load_instance(str(instance_path)), report) == (False, [BARE_CLAIM_FAILURE])
    _verify_exits(instance_path, report_path, capsys, [BARE_CLAIM_FAILURE])


@pytest.mark.parametrize(
    "report_path", sorted(CANONICAL.glob("*.out")), ids=lambda p: p.stem
)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_canonical_reports_still_verify(report_path, fmt, capsys):
    # Structured reports written when check could decompose a certificate into
    # one single-coordinate trial per unit of the aggregate; verify checks the
    # trials only through their aggregate, so they still verify.
    assert json.loads(report_path.read_text())["flags"]["mode"] == "canonical"
    instance_path = SAMPLES / f"{report_path.name.split('.')[0]}.json"
    argv = ["verify", str(instance_path), str(report_path), "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "structured":
        assert json.loads(out)["verified"] is True
    else:
        assert out == "verified: true\n"


@pytest.mark.parametrize(
    "report_path", sorted(LIFTED_LAYOUT.glob("*.out")), ids=lambda p: p.stem
)
def test_lifted_layout_reports_still_verify(report_path, capsys):
    # --restricted-arsp reports on singleton data written when check decided
    # them by the membership LP on the lifted layout; check now decides on the
    # base layout and maps the outcome across, so its reports differ.
    report = json.loads(report_path.read_text())
    assert report["lifted"] and report["flags"]["restricted_arsp"]
    instance_path = _report_instance(report_path)
    assert not load_instance(str(instance_path)).set_valued
    assert main(["verify", str(instance_path), str(report_path)]) == 0
    assert capsys.readouterr().out == "verified: true\n"


@pytest.mark.parametrize(
    "report_path", sorted(LISTED_RESTRICTED.glob("*.out")), ids=lambda p: p.stem
)
def test_listed_restricted_reports_still_verify(report_path, capsys):
    # --restricted-arsp reports on set-valued data written when the
    # restricted LP kept a row per listed type; its mixtures now come from
    # the dominating-mixture LP, so these reports differ from the goldens.
    report = json.loads(report_path.read_text())
    assert report["lifted"] and report["restricted_arsp"]["mixture"]["weights"]
    instance_path = _report_instance(report_path)
    assert load_instance(str(instance_path)).set_valued
    assert main(["verify", str(instance_path), str(report_path)]) == 0
    assert capsys.readouterr().out == "verified: true\n"


def _report_instance(report_path):
    """The instance a kept report was written for: a sample or a test fixture."""
    name = f"{report_path.name.split('.')[0]}.json"
    return next(
        path for path in (SAMPLES / name, report_path.parent.parent / name) if path.exists()
    )

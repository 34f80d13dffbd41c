"""CLI stdout is pinned byte for byte on every shipped instance.

Reports are promised to be byte-identical across runs and refactors; these
goldens enforce it for ``check`` in both formats, with and without the
restricted axiom, and for ``enumerate-types`` and
``facets`` in both formats and ``lift``, which print types as 0/1 rows. Two
larger fixtures, all subsets of size >= 2 over six alternatives (planted and
random data), pin structured ``check`` reports, plain and restricted, where
the LP has hundreds of rows. A third, planted set-valued data over five
alternatives, pins the one shipped restricted report whose mixture the
restricted LP finds at scale (4 types). After a deliberate change to an
output format, regenerate them with
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.
"""

import hashlib
import itertools
import pathlib
import sys

import pytest

from ruhull.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "instances"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = [
    (path.name, fmt, restricted)
    for path, fmt, restricted in itertools.product(
        sorted(SAMPLES.glob("*.json")), ("text", "structured"), (False, True)
    )
]

FIXTURE_CASES = [
    (name, restricted)
    for name in (
        "six_alternatives_all_subsets_planted.json",
        "six_alternatives_all_subsets_random.json",
        "five_alternatives_set_valued_planted.json",
    )
    for restricted in (False, True)
]

SUBCOMMAND_CASES = [
    (path.name, command, fmt)
    for path in sorted(SAMPLES.glob("*.json"))
    for command, fmt in (
        ("enumerate-types", "text"),
        ("enumerate-types", "structured"),
        ("facets", "text"),
        ("facets", "structured"),
        ("lift", None),
    )
]


def _argv(name, fmt, restricted, folder=SAMPLES):
    argv = ["check", str(folder / name), "--format", fmt]
    return argv + ["--restricted-arsp"] if restricted else argv


def _golden_path(name, fmt, restricted):
    # "compressed" names the decomposition that every certificate uses.
    suffix = ".restricted" if restricted else ""
    return GOLDEN / f"{pathlib.Path(name).stem}.{fmt}.compressed{suffix}.out"


def assert_matches_golden(out, path):
    """Fail unless ``out`` equals the golden at ``path``, byte for byte.

    Length and sha256 decide; on a mismatch the first differing line is
    reported, so a large golden never has pytest diff two whole reports.
    """
    expected = path.read_text(encoding="utf-8")
    if len(out) == len(expected) and _sha256(out) == _sha256(expected):
        return
    lines = itertools.zip_longest(out.split("\n"), expected.split("\n"))
    number, (got, want) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
    pytest.fail(
        f"{path.name} differs at line {number}:\n  got:      {got!r}\n  expected: {want!r}",
        pytrace=False,
    )


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).digest()


def _subcommand_argv(name, command, fmt):
    argv = [command, str(SAMPLES / name)]
    return argv + ["--format", fmt] if fmt else argv


def _subcommand_golden_path(name, command, fmt):
    suffix = f".{fmt}" if fmt else ""
    return GOLDEN / f"{pathlib.Path(name).stem}.{command}{suffix}.out"


@pytest.mark.parametrize("name,fmt,restricted", CASES)
def test_check_stdout_matches_golden(name, fmt, restricted, capsys):
    code = main(_argv(name, fmt, restricted))
    assert code in (0, 3)
    assert_matches_golden(capsys.readouterr().out, _golden_path(name, fmt, restricted))


@pytest.mark.parametrize("name,restricted", FIXTURE_CASES)
def test_fixture_check_stdout_matches_golden(name, restricted, capsys):
    code = main(_argv(name, "structured", restricted, FIXTURES))
    assert code in (0, 3)
    assert_matches_golden(capsys.readouterr().out, _golden_path(name, "structured", restricted))


@pytest.mark.parametrize("name,command,fmt", SUBCOMMAND_CASES)
def test_subcommand_stdout_matches_golden(name, command, fmt, capsys):
    assert main(_subcommand_argv(name, command, fmt)) == 0
    assert_matches_golden(capsys.readouterr().out, _subcommand_golden_path(name, command, fmt))


def _regenerate():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    runs = [(_argv(*case), _golden_path(*case)) for case in CASES] + [
        (_subcommand_argv(*case), _subcommand_golden_path(*case))
        for case in SUBCOMMAND_CASES
    ]
    runs += [
        (
            _argv(name, "structured", restricted, FIXTURES),
            _golden_path(name, "structured", restricted),
        )
        for name, restricted in FIXTURE_CASES
    ]
    for argv, path in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        path.write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {len(runs)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

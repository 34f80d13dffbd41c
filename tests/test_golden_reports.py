"""`ruhull check` stdout is pinned byte for byte on every shipped instance.

Reports are promised to be byte-identical across runs and refactors; these
goldens enforce it for both formats, both decomposition modes and with and
without the restricted axiom. After a deliberate change to the report
format, regenerate them with ``PYTHONPATH=src python tests/test_golden_reports.py``
and review the diff.
"""

import itertools
import pathlib
import sys

import pytest

from ruhull.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "instances"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = [
    (path.name, fmt, mode, restricted)
    for path, fmt, mode, restricted in itertools.product(
        sorted(SAMPLES.glob("*.json")),
        ("text", "structured"),
        ("compressed", "canonical"),
        (False, True),
    )
]


def _argv(name, fmt, mode, restricted):
    argv = ["check", str(SAMPLES / name), "--format", fmt, "--mode", mode]
    return argv + ["--restricted-arsp"] if restricted else argv


def _golden_path(name, fmt, mode, restricted):
    suffix = ".restricted" if restricted else ""
    return GOLDEN / f"{pathlib.Path(name).stem}.{fmt}.{mode}{suffix}.out"


@pytest.mark.parametrize("name,fmt,mode,restricted", CASES)
def test_check_stdout_matches_golden(name, fmt, mode, restricted, capsys):
    code = main(_argv(name, fmt, mode, restricted))
    assert code in (0, 3)
    expected = _golden_path(name, fmt, mode, restricted).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _regenerate():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            main(_argv(*case))
        _golden_path(*case).write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {len(CASES)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

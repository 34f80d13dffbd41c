"""Backend agreement: the compiled kernels must match the pure ones exactly."""

import random
from fractions import Fraction

import pytest

from ruhull._kernels import BACKEND, _pure

try:
    from ruhull._kernels import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(
    _speedups is None, reason="compiled kernels not built"
)


def random_vector(rng, n, rational=False):
    if rational:
        return [Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)) for _ in range(n)]
    return [rng.randrange(-20, 21) for _ in range(n)]


@needs_compiled
@pytest.mark.parametrize("rational", [False, True])
def test_dot_agreement(rational):
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 30)
        a = random_vector(rng, n, rational)
        b = random_vector(rng, n, rational)
        assert _speedups.dot(a, b) == _pure.dot(a, b)


@needs_compiled
def test_support_kernels_agreement():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(2, 30)
        t = random_vector(rng, n, rational=bool(rng.randrange(2)))
        supports = [
            tuple(sorted(rng.sample(range(n), rng.randrange(1, n))))
            for _ in range(rng.randrange(1, 12))
        ]
        assert _speedups.best_support(t, supports) == _pure.best_support(t, supports)


@needs_compiled
def test_bareiss_row_agreement():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 25)
        pivot_row = [rng.randrange(-9, 10) for _ in range(n)]
        divisor = rng.choice([1, 2, 3, 5])
        # Build a row for which the division is exact by construction.
        base = [rng.randrange(-9, 10) for _ in range(n)]
        pivot = rng.choice([1, 2, 3, 4]) * divisor
        coeff = rng.randrange(-5, 6) * divisor
        row_a = [v * divisor for v in base]
        row_b = list(row_a)
        _speedups.bareiss_row(row_a, pivot_row, coeff, pivot, divisor)
        _pure.bareiss_row(row_b, pivot_row, coeff, pivot, divisor)
        assert row_a == row_b


@needs_compiled
def test_bareiss_row_rejects_inexact_division():
    with pytest.raises(ArithmeticError):
        _speedups.bareiss_row([1, 1], [1, 0], 1, 1, 3)
    with pytest.raises(ArithmeticError):
        _pure.bareiss_row([1, 1], [1, 0], 1, 1, 3)


@needs_compiled
def test_row_kernels_agreement():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(1, 25)
        row_a = random_vector(rng, n, rational=True)
        row_b = list(row_a)
        pivot = random_vector(rng, n, rational=True)
        factor = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        _speedups.sub_scaled(row_a, pivot, factor)
        _pure.sub_scaled(row_b, pivot, factor)
        assert row_a == row_b
        cx = rng.randrange(-4, 5)
        cy = rng.randrange(-4, 5)
        assert _speedups.combine(cx, row_a, cy, pivot) == _pure.combine(
            cx, row_b, cy, pivot
        )


def test_backend_is_reported():
    assert BACKEND in ("pure", "compiled")


def test_results_do_not_depend_on_backend(monkeypatch):
    # End to end: the pure fallback must produce the identical report.
    import json
    import subprocess
    import sys

    tree = {
        "universe": ["a", "b", "c"],
        "problems": [["a", "b"], ["a", "c"], ["b", "c"]],
        "probabilities": [["2/3", "1/3"], ["1/3", "2/3"], ["1/2", "1/2"]],
        "types": "linear-orders",
        "set_valued": False,
    }
    script = (
        "import json,sys\n"
        "from ruhull import parse_instance, run_check\n"
        "inst = parse_instance(sys.stdin.read())\n"
        "print(json.dumps(run_check(inst, mode='canonical').to_structured(), sort_keys=True))\n"
    )
    payload = json.dumps(tree)
    outputs = []
    for env_extra in ({}, {"RUHULL_PURE": "1"}):
        import os

        env = dict(os.environ, **env_extra)
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]

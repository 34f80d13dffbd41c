"""Compare the compiled kernels against the pure-Python fallback.

Times the hot kernels on realistic workloads:

* best_support  -- maximizing a functional over a large set of choice types
                   (the inner loop of every axiom check),
* bareiss_row   -- one fraction-free row update of the simplex's kept
                   [B^-1 | beta] block (44 wide: a 7-alternative pairwise
                   instance has 43 rows),
* sub_scaled    -- one row step of the exact row reduction (RREF) that the
                   facet enumeration runs,
* dot           -- plain exact inner products,

then a full end-to-end membership decision under each backend. Run as

    python3 benchmarks/bench_kernels.py

The arithmetic is exact Python-object arithmetic either way; the compiled
module only strips interpreter overhead from the loops, so expect a modest
constant factor, not an order of magnitude.
"""

import random
import statistics
import time
from fractions import Fraction

from ruhull._kernels import _pure

try:
    from ruhull._kernels import _speedups
except ImportError:
    _speedups = None


def timeit(fn, repeats=5):
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best.append(time.perf_counter() - t0)
    return min(best), statistics.median(best)


def bench_kernels():
    rng = random.Random(20240)
    n = 30            # coordinates of a mid-size instance
    n_types = 720     # ranking types for six alternatives
    t_int = [rng.randrange(0, 7) for _ in range(n)]
    supports = [
        tuple(sorted(rng.sample(range(n), 10))) for _ in range(n_types)
    ]
    row = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n * 2)]
    pivot = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n * 2)]
    factor = Fraction(3, 7)
    vec_a = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n * 4)]
    vec_b = [rng.randrange(-3, 4) for _ in range(n * 4)]
    int_prow = [rng.randrange(-50, 51) for _ in range(44)]
    int_row_base = [rng.randrange(-50, 51) * 6 for _ in range(44)]

    cases = {
        "best_support (720 types x 10)": lambda impl: (
            lambda: [impl.best_support(t_int, supports) for _ in range(20)]
        ),
        "bareiss_row (44-wide x 10000)": lambda impl: (
            lambda: [
                impl.bareiss_row(list(int_row_base), int_prow, 12, 18, 6)
                for _ in range(10000)
            ]
        ),
        "sub_scaled (60-wide row x 2000)": lambda impl: (
            lambda: [impl.sub_scaled(list(row), pivot, factor) for _ in range(2000)]
        ),
        "dot (120-wide x 5000)": lambda impl: (
            lambda: [impl.dot(vec_a, vec_b) for _ in range(5000)]
        ),
    }

    print(f"{'kernel':36} {'pure':>10} {'compiled':>10} {'speedup':>9}")
    for name, make in cases.items():
        pure_best, _ = timeit(make(_pure))
        if _speedups is None:
            print(f"{name:36} {pure_best * 1e3:9.2f}ms {'n/a':>10} {'n/a':>9}")
            continue
        fast_best, _ = timeit(make(_speedups))
        print(
            f"{name:36} {pure_best * 1e3:9.2f}ms {fast_best * 1e3:9.2f}ms "
            f"{pure_best / fast_best:8.2f}x"
        )


def timeit_subprocess_check(env_extra):
    import json
    import os
    import subprocess
    import sys

    labels = list("abcdef")
    problems = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1 :]]
    rng = random.Random(99)
    probabilities = []
    for _ in problems:
        x = rng.randrange(1, 6)
        probabilities.append([f"{x}/6", f"{6 - x}/6"])
    tree = {
        "universe": labels,
        "problems": problems,
        "probabilities": probabilities,
        "types": "linear-orders",
        "set_valued": False,
    }
    script = (
        "import json,sys,time\n"
        "from ruhull import parse_instance, run_check\n"
        "inst = parse_instance(sys.stdin.read())\n"
        "t0 = time.perf_counter()\n"
        "for _ in range(5):\n"
        "    run_check(inst)\n"
        "print((time.perf_counter() - t0) / 5)\n"
    )
    env = dict(os.environ, **env_extra)
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(tree),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return float(out.stdout.strip())


def bench_end_to_end():
    print()
    print("full membership decision (6 alternatives, 15 pairwise problems, 720 types):")
    pure = timeit_subprocess_check({"RUHULL_PURE": "1"})
    print(f"  pure:     {pure * 1e3:8.2f}ms")
    if _speedups is None:
        print("  compiled: not built")
        return
    fast = timeit_subprocess_check({})
    print(f"  compiled: {fast * 1e3:8.2f}ms  ({pure / fast:.2f}x)")


if __name__ == "__main__":
    if _speedups is None:
        print("note: compiled kernels unavailable; showing pure timings only")
    bench_kernels()
    bench_end_to_end()

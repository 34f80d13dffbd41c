import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ruhull import (
    ChoiceUniverse,
    build_layout,
    problem_from_labels,
    types_from_linear_orders,
    validate_pi,
)
from ruhull.exactlp import FarkasCertificate, FeasiblePoint, solve_equality_feasibility

LABELS = "abcdefghij"


def make_instance(labels, problem_labels):
    """(universe, problems, layout) from label tuples."""
    universe = ChoiceUniverse(tuple(labels))
    problems = [problem_from_labels(universe, p) for p in problem_labels]
    return universe, problems, build_layout(universe, problems)


@pytest.fixture(scope="session")
def pairwise3():
    """Universe {a,b,c} with all three pairwise problems and its order types."""
    universe, problems, layout = make_instance("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    type_set = types_from_linear_orders(layout)
    return universe, problems, layout, type_set


@pytest.fixture(scope="session")
def cyclic_pi(pairwise3):
    """Deterministic cyclic data: a over b, c over a, b over c."""
    _, _, layout, _ = pairwise3
    return validate_pi([1, 0, 0, 1, 1, 0], layout)


@pytest.fixture(scope="session")
def uniform_pi(pairwise3):
    _, _, layout, _ = pairwise3
    return validate_pi([Fraction(1, 2)] * 6, layout)


def seeded(seed):
    return random.Random(seed)


# --- independent oracles -----------------------------------------------------
#
# These deliberately re-derive results with different algorithms than the
# library (plain permutation scans, hyperplane brute force) so the two can be
# compared in tests.


def brute_force_order_patterns(layout):
    """Choice pattern of every strict ranking, as chosen-coordinate tuples."""
    size = layout.universe.size
    patterns = set()
    for order in permutations(range(size)):
        chosen = []
        for j, problem in enumerate(layout.problems):
            best = min(problem.members, key=order.index)
            pos = problem.members.index(best)
            chosen.append(layout.block_offsets[j] + pos)
        patterns.add(tuple(chosen))
    return patterns


def _rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    rank = 0
    if not rows:
        return rows, pivots
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def affine_rank(points):
    if not points:
        return 0
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    reduced, _ = _rref(diffs)
    return len(reduced) + 1


def hull_coordinates(vertices):
    """Vertices in exact coordinates of their affine hull (full-dimensional)."""
    base = vertices[0]
    diffs = [[v[i] - base[i] for i in range(len(base))] for v in vertices[1:]]
    _, pivots = _rref(diffs)
    return [tuple(Fraction(v[p] - base[p]) for p in pivots) for v in vertices]


def brute_force_facet_tight_sets(vertices):
    """All facets of conv(vertices), identified by their tight vertex sets.

    Hyperplane brute force: for every dim-subset of vertices spanning a
    hyperplane of the hull, keep it if all vertices lie on one side and the
    tight set is (dim-1)-dimensional. A facet is uniquely determined by its
    tight vertex set, so this is representation-independent.
    """
    pts = hull_coordinates(vertices)
    dim = affine_rank(pts) - 1
    if dim == 0:
        return set()
    facets = set()
    for subset in combinations(range(len(pts)), dim):
        sub = [pts[i] for i in subset]
        diffs = [
            [p[i] - sub[0][i] for i in range(dim)] for p in sub[1:]
        ]
        reduced, pivots = _rref(diffs)
        if len(reduced) != dim - 1:
            continue
        free = [c for c in range(dim) if c not in pivots]
        if len(free) != 1:
            continue
        normal = [Fraction(0)] * dim
        normal[free[0]] = Fraction(1)
        for k, p in enumerate(pivots):
            normal[p] = -reduced[k][free[0]]
        level = sum(n * x for n, x in zip(normal, sub[0]))
        vals = [sum(n * x for n, x in zip(normal, p)) for p in pts]
        if all(v <= level for v in vals) or all(v >= level for v in vals):
            tight = frozenset(i for i, v in enumerate(vals) if v == level)
            if affine_rank([pts[i] for i in tight]) == dim:
                facets.add(tight)
    return facets


def facet_tight_set(facet, vertices):
    """Tight vertex indices of a module-produced facet inequality."""
    vals = [sum(n * v for n, v in zip(facet.normal, vx)) for vx in vertices]
    assert all(v <= facet.offset for v in vals)
    return frozenset(i for i, v in enumerate(vals) if v == facet.offset)


def inequality_tight_set(normal, offset, vertices):
    """Tight set of an arbitrary valid inequality over the vertex list."""
    vals = [sum(n * v for n, v in zip(normal, vx)) for vx in vertices]
    assert max(vals) == offset, "inequality is not tight at any vertex"
    assert all(v <= offset for v in vals), "inequality is not valid"
    return frozenset(i for i, v in enumerate(vals) if v == offset)


# --- listed rows ----------------------------------------------------------------
#
# The engine takes only a column oracle. These adapt a matrix written out row
# by row, for the tests and for the reference LPs that list their rows.


class MatrixOracle:
    """Rows listed by their nonzeros, seen as a ``ColumnOracle`` keyed by column.

    ``rows[i]`` lists the (column, value) pairs of row i; values may be
    rational. The oracle holds row i times ``scales[i]``, the lcm of the
    denominators of its entries and of ``rhs[i]``, so every entry is an
    integer, and ``rhs`` holds the scaled right-hand sides. ``best`` prices
    every column; ties go to the lowest index.
    """

    def __init__(self, rows, rhs, n_columns):
        self.n_rows = len(rows)
        self.scales = [
            math.lcm(Fraction(b).denominator, *(Fraction(v).denominator for _, v in row))
            for row, b in zip(rows, rhs)
        ]
        self.rhs = [int(Fraction(b) * s) for b, s in zip(rhs, self.scales)]
        self.columns = [[] for _ in range(n_columns)]
        for i, (row, s) in enumerate(zip(rows, self.scales)):
            for j, v in row:
                if v:
                    self.columns[j].append((i, int(Fraction(v) * s)))

    def __len__(self):
        return self.n_rows

    def best(self, u):
        values = [sum(u[i] * v for i, v in col) for col in self.columns]
        top = max(values)
        return top, values.index(top)

    def column(self, j):
        return self.columns[j]


def solve_rows(rows, rhs, n_columns):
    """``solve_equality_feasibility`` on listed rows (see ``MatrixOracle``).

    A Farkas certificate's multipliers are mapped back to the rows as given.
    """
    oracle = MatrixOracle(rows, rhs, n_columns)
    result = solve_equality_feasibility(oracle, oracle.rhs)
    if isinstance(result, FarkasCertificate):
        return FarkasCertificate(tuple(y * s for y, s in zip(result.y, oracle.scales)))
    return result


def full_row_verdict(pi, type_set):
    """Whether pi is a type mixture, by the LP with one row per coordinate.

    Every listed type is a column and every type prices in every pivot: the
    dense reference for the membership LP's verdict.
    """
    types = type_set.types
    ones = [(k, 1) for k in range(len(types))]
    rows = [[] for _ in pi.values]
    for entry, t in zip(ones, types):
        for i in t.chosen:
            rows[i].append(entry)
    rows.append(ones)
    result = solve_rows(rows, list(pi.values) + [1], len(types))
    return isinstance(result, FeasiblePoint)


# --- random generators --------------------------------------------------------


def random_rational_pi(layout, rng, max_numerator=6):
    """Random exact per-block distributions with small denominators."""
    values = []
    for j in range(layout.problem_count):
        size = layout.problems[j].size
        while True:
            nums = [rng.randrange(0, max_numerator + 1) for _ in range(size)]
            if any(nums):
                break
        total = sum(nums)
        values.extend(Fraction(n, total) for n in nums)
    return validate_pi(values, layout)


def random_small_instance(rng, max_universe=4, max_problems=6):
    """Random universe and problem list with its layout."""
    size = rng.randrange(2, max_universe + 1)
    labels = LABELS[:size]
    n_problems = rng.randrange(1, max_problems + 1)
    problem_labels = []
    for _ in range(n_problems):
        k = rng.randrange(2, size + 1)
        problem_labels.append(tuple(sorted(rng.sample(labels, k))))
    return make_instance(labels, problem_labels)


def random_mixture_pi(layout, type_set, rng):
    """Data constructed as an explicit random mixture of the given types."""
    weights = [Fraction(rng.randrange(0, 5)) for _ in type_set.types]
    if not any(weights):
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    weights = [w / total for w in weights]
    values = [Fraction(0)] * layout.coordinate_count
    for w, t in zip(weights, type_set.types):
        if w:
            for i in t.chosen:
                values[i] += w
    return validate_pi(values, layout), weights


def grid_distributions(size, denominators):
    """All exact distributions over `size` cells with entry denominators bounded."""
    values = sorted({Fraction(n, d) for d in denominators for n in range(d + 1)})

    def rec(cells_left, remaining):
        if cells_left == 1:
            if remaining in values:
                yield (remaining,)
            return
        for v in values:
            if v <= remaining:
                for tail in rec(cells_left - 1, remaining - v):
                    yield (v,) + tail

    return list(rec(size, Fraction(1)))

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruhull import (
    MixingDistribution,
    correspondence_types_from_weak_orders,
    enumerate_facets,
    facet_membership_oracle,
    lift_layout,
    membership,
    types_from_linear_orders,
)
from ruhull import _kernels, exactlp
from ruhull.errors import ValidationError
from ruhull.exactlp import (
    FarkasCertificate,
    FeasiblePoint,
    solve_equality_feasibility,
)

from conftest import (
    MatrixOracle,
    _rref,
    make_instance,
    random_mixture_pi,
    random_rational_pi,
    seeded,
    solve_rows,
)


def solve(rows, rhs):
    """Solve a system written as dense rows, handing the solver their nonzeros."""
    nonzeros = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    return solve_rows(nonzeros, rhs, len(rows[0]))


def dense(point, n):
    """The point's value on every one of n columns."""
    return tuple(point.x.get(j, 0) for j in range(n))


def check_result(rows, rhs, result):
    """Either branch must carry an exact, self-validating witness."""
    m, n = len(rows), len(rows[0])
    if isinstance(result, FeasiblePoint):
        x = dense(result, n)
        assert all(v >= 0 for v in x)
        for i in range(m):
            assert sum(rows[i][j] * x[j] for j in range(n)) == rhs[i]
        # A basic solution: its support columns are linearly independent
        # (this bounds the support of a membership mixture).
        support = [j for j in range(n) if x[j]]
        independent, _ = _rref([[row[j] for row in rows] for j in support])
        assert len(independent) == len(support)
    else:
        y = result.y
        for j in range(n):
            assert sum(y[i] * rows[i][j] for i in range(m)) <= 0
        assert sum(y[i] * rhs[i] for i in range(m)) > 0


def test_simple_feasible():
    rows = [[1, 1], [1, -1]]
    rhs = [2, 0]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    assert dense(result, 2) == (1, 1)


def test_simple_infeasible():
    # x1 + x2 = -1 has no nonnegative solution.
    rows = [[1, 1]]
    rhs = [-1]
    result = solve(rows, rhs)
    assert isinstance(result, FarkasCertificate)
    check_result(rows, rhs, result)


def test_infeasible_by_conflict():
    rows = [[1, 1], [1, 1]]
    rhs = [1, 2]
    result = solve(rows, rhs)
    assert isinstance(result, FarkasCertificate)
    check_result(rows, rhs, result)


def test_redundant_rows_ok():
    rows = [[1, 1], [2, 2]]
    rhs = [1, 2]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    check_result(rows, rhs, result)


def test_zero_rhs():
    rows = [[1, -1], [1, 1]]
    rhs = [0, 0]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    assert dense(result, 2) == (0, 0)


def test_negative_rhs_row_is_reoriented():
    rows = [[-1, 0], [0, 1]]
    rhs = [-3, 2]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    assert dense(result, 2) == (3, 2)


def test_rational_entries():
    # Scaled to the integer row 2 x1 + x2 = 3: x1 enters and is the one
    # basic column.
    rows = [[Fraction(1, 3), Fraction(1, 6)]]
    rhs = [Fraction(1, 2)]
    result = solve(rows, rhs)
    check_result(rows, rhs, result)
    assert result == FeasiblePoint({0: Fraction(3, 2)})


def test_column_without_nonzeros():
    # Columns that no row lists are zero columns: they never enter, so the
    # point has no key for them.
    result = solve_rows([[(1, 2)]], [4], 3)
    assert result == FeasiblePoint({1: 2})


def test_empty_rejected():
    with pytest.raises(ValidationError):
        solve_equality_feasibility(MatrixOracle([], [], 0), [])


def test_degenerate_ties_terminate():
    # Heavy degeneracy: identical rows, zero right-hand sides, and duplicated
    # columns force repeated ratio-test ties; the lexicographic rule must
    # still terminate and certify correctly.
    rows = [
        [1, 1, 1, 1, -1, -1],
        [1, 1, 1, 1, -1, -1],
        [0, 0, 1, 1, -1, 0],
        [1, 1, 0, 0, 0, -1],
    ]
    rhs = [0, 0, 0, 0]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    check_result(rows, rhs, result)

    conflicted = rows + [[0, 0, 0, 0, 0, 1]]
    result = solve(conflicted, rhs + [-1])
    assert isinstance(result, FarkasCertificate)
    check_result(conflicted, rhs + [-1], result)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_systems_self_validate(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [data.draw(st.integers(-6, 6)) for _ in range(m)]
    result = solve(rows, rhs)
    check_result(rows, rhs, result)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_planted_solutions_are_found(data):
    # Feasibility must hold when a nonnegative solution is planted.
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    planted = [data.draw(st.integers(0, 4)) for _ in range(n)]
    rhs = [sum(rows[i][j] * planted[j] for j in range(n)) for i in range(m)]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    check_result(rows, rhs, result)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degenerate_systems_terminate(data):
    # Duplicated (and negated) rows, duplicated columns and zero or tiny
    # right-hand sides: ratio ties everywhere, yet every run must stop with a
    # self-validating witness.
    m0 = data.draw(st.integers(1, 4))
    n0 = data.draw(st.integers(1, 5))
    base = [[data.draw(st.integers(-2, 2)) for _ in range(n0)] for _ in range(m0)]
    row_picks = data.draw(st.lists(st.integers(0, m0 - 1), min_size=1, max_size=8))
    col_picks = data.draw(st.lists(st.integers(0, n0 - 1), min_size=1, max_size=10))
    signs = [data.draw(st.sampled_from([1, 1, 2, -1])) for _ in row_picks]
    rows = [[s * base[i][j] for j in col_picks] for s, i in zip(signs, row_picks)]
    rhs_kind = data.draw(st.sampled_from(["zero", "small", "planted"]))
    if rhs_kind == "zero":
        rhs = [0] * len(rows)
    elif rhs_kind == "small":
        rhs = [data.draw(st.integers(-1, 1)) for _ in rows]
    else:
        x = [data.draw(st.sampled_from([0, 0, 0, 1])) for _ in col_picks]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    result = solve(rows, rhs)
    check_result(rows, rhs, result)
    if rhs_kind != "small":
        assert isinstance(result, FeasiblePoint)


# --- the dense reference ---------------------------------------------------
#
# The same simplex with a dense fraction-free block: every pivot updates all
# m x (m + 1) cells of [B^-1 | beta], all at the current divisor. It makes
# its pivot choices by the same rules, so the sparse engine must reproduce
# its pivots and its exact points and multipliers.


def _dense_bareiss_row(row, pivot_row, coeff, pivot, divisor):
    for j, p in enumerate(pivot_row):
        q, r = divmod(row[j] * pivot - coeff * p, divisor)
        assert r == 0
        row[j] = q


def _dense_lex_less(block, col, a, b, m):
    ra, rb, ca, cb = block[a], block[b], col[a], col[b]
    for k in (m, *range(m)):
        lhs = ra[k] * cb
        rhs = rb[k] * ca
        if lhs != rhs:
            return lhs < rhs
    raise AssertionError("basis inverse has proportional rows")


def dense_phase_one(b, price, column, pivots, to_optimality=False):
    """Reference ``_phase_one``; appends (entering, leaving, rows hit) per pivot.

    "Rows hit" counts the rows other than the leaving one whose entry in
    the entering column is nonzero. Like the engine it stops when the
    objective reaches zero; with ``to_optimality`` it pivots on until no
    column prices positive.
    """
    m = len(b)
    block = [[int(i == k) for k in range(m)] + [bi] for i, bi in enumerate(b)]
    obj = [0] * m + [-sum(b)]
    basis = [None] * m
    divisor = 1
    while obj[m] or to_optimality:
        w = [divisor - v for v in obj[:m]]
        best, entering = price(w)
        if best <= 0:
            break
        nonzeros = column(entering)
        col = [sum(r[i] * v for i, v in nonzeros) for r in block]
        leaving = -1
        for i in range(m):
            if col[i] > 0 and (leaving < 0 or _dense_lex_less(block, col, i, leaving, m)):
                leaving = i
        assert leaving >= 0
        hit = sum(1 for i in range(m) if i != leaving and col[i])
        pivots.append((entering, leaving, hit))
        prow = block[leaving]
        pivot = col[leaving]
        for i in range(m):
            if i != leaving:
                _dense_bareiss_row(block[i], prow, col[i], pivot, divisor)
        _dense_bareiss_row(obj, prow, -best, pivot, divisor)
        divisor = pivot
        basis[leaving] = entering
    if obj[m] == 0:
        point = [(j, Fraction(r[m], divisor)) for j, r in zip(basis, block) if j is not None]
        return point, None
    return None, [Fraction(wi, divisor) for wi in w]


def solve_dense(rows, rhs, to_optimality=False):
    """The reference's result and its (entering, leaving, rows hit) pivots."""
    pivots = []

    def phase_one(b, price, column):
        return dense_phase_one(b, price, column, pivots, to_optimality)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_phase_one", phase_one)
        return solve(rows, rhs), pivots


def solve_sparse(rows, rhs, events=None):
    """The engine's result and its pivots, recorded like the reference's.

    With ``events``, also logs "price" before each pricing and the
    (coeff, pivot row) arguments of each ``bareiss_row`` call.
    """
    pivots = []
    entering = []
    phase_one = exactlp._phase_one
    leaving_row = exactlp._leaving_row
    kernel = _kernels.bareiss_row

    def recorded_phase_one(b, price, column):
        def priced(w):
            if events is not None:
                events.append("price")
            best, key = price(w)
            entering.append(key)
            return best, key

        return phase_one(b, priced, column)

    def recorded_leaving_row(block, col, m):
        leaving = leaving_row(block, col, m)
        pivots.append((entering[-1], leaving, len(col) - 1))
        return leaving

    def recorded_kernel(row, pivot_row, coeff, pivot, divisor):
        events.append((coeff, dict(pivot_row)))
        return kernel(row, pivot_row, coeff, pivot, divisor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_phase_one", recorded_phase_one)
        mp.setattr(exactlp, "_leaving_row", recorded_leaving_row)
        if events is not None:
            mp.setattr(_kernels, "bareiss_row", recorded_kernel)
        return solve(rows, rhs), pivots


@st.composite
def sparse_systems(draw):
    """Small systems with untouched rows, zero and negative right-hand sides,
    duplicated (degenerate) rows and columns, and rational entries."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, 1, -1, 2, -3])
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        rows[i] = [0] * n  # a row that no column touches
    if draw(st.booleans()):  # degenerate: repeated rows and columns
        rows = [rows[i] for i in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=7))]
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        rows = [[row[j] for j in picks] for row in rows]
    kind = draw(st.sampled_from(["zero", "small", "negative", "planted", "rational"]))
    if kind == "zero":
        rhs = [0] * len(rows)
    elif kind == "small":
        rhs = [draw(st.integers(-2, 2)) for _ in rows]
    elif kind == "negative":
        rhs = [draw(st.integers(-4, 0)) for _ in rows]
    elif kind == "planted":
        x = [draw(st.sampled_from([0, 0, 1, 2])) for _ in rows[0]]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in rows]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_engine_matches_dense_reference(system):
    # Same entering and leaving sequence, same rows hit, and the same exact
    # point or Farkas multipliers.
    rows, rhs = system
    expected, expected_pivots = solve_dense(rows, rhs)
    result, pivots = solve_sparse(rows, rhs)
    assert pivots == expected_pivots
    assert result == expected
    check_result(rows, rhs, result)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_stopping_at_objective_zero_keeps_the_point(system):
    # Past objective zero every pivot is degenerate: it swaps a basic
    # column at value zero and leaves every basic value as it is. So the
    # point's nonzero entries are those of pivoting on to optimality.
    rows, rhs = system
    result = solve(rows, rhs)
    optimal, _ = solve_dense(rows, rhs, to_optimality=True)
    assert isinstance(result, FeasiblePoint) == isinstance(optimal, FeasiblePoint)
    if isinstance(result, FeasiblePoint):
        assert {j: v for j, v in result.x.items() if v} == {
            j: v for j, v in optimal.x.items() if v
        }


def test_pivot_updates_only_the_rows_it_touches():
    # Per pivot: one bareiss_row call for each other row with a nonzero
    # entering entry, one for the objective row, and at most one rescale of
    # the pivot row (zero coefficient, empty pivot row argument). Rows the
    # entering column misses are not touched.
    rng = seeded(5)
    rescales = skipped = 0
    for _ in range(60):
        m, n = rng.randrange(1, 8), rng.randrange(1, 12)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-4, 5) for _ in range(m)]
        _, expected_pivots = solve_dense(rows, rhs)
        events = []
        result, pivots = solve_sparse(rows, rhs, events=events)
        check_result(rows, rhs, result)
        assert pivots == expected_pivots
        per_pivot = []
        for event in events:
            if event == "price":
                per_pivot.append([])
            else:
                per_pivot[-1].append(event)
        # An infeasible system ends with a pricing that finds no column; a
        # feasible one ends at objective zero, without pricing.
        if isinstance(result, FarkasCertificate):
            assert per_pivot.pop() == []
        assert len(per_pivot) == len(pivots)
        for calls, (_, _, hit) in zip(per_pivot, pivots):
            updates = [c for c in calls if c[0]]
            scalings = [c for c in calls if not c[0]]
            assert len(updates) == hit + 1
            assert len(scalings) <= 1 and all(pivot_row == {} for _, pivot_row in scalings)
            rescales += len(scalings)
            skipped += m - 1 - hit
    # Both the rescale and the skip actually happen on these systems.
    assert rescales > 0 and skipped > 0


def _agree_with_facets(layout, type_set, rng, count):
    hrep = enumerate_facets(type_set)
    verdicts = set()
    for k in range(count):
        if k % 2:
            pi, _ = random_mixture_pi(layout, type_set, rng)
        else:
            pi = random_rational_pi(layout, rng)
        by_lp = membership.test_membership(pi, type_set)
        inside = isinstance(by_lp, MixingDistribution)
        assert inside == facet_membership_oracle(pi, hrep)
        verdicts.add(inside)
    assert verdicts == {True, False}


def test_membership_matches_facets_on_four_alternative_pairwise_data():
    _, _, layout = make_instance(
        "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    _agree_with_facets(layout, types_from_linear_orders(layout), seeded(21), 60)


def test_membership_matches_facets_on_three_alternative_weak_order_data():
    universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c"), ("a", "b", "c")])
    lifted = lift_layout(universe, problems)
    type_set = correspondence_types_from_weak_orders(lifted)
    _agree_with_facets(lifted.layout, type_set, seeded(22), 60)


def test_bareiss_row_rejects_inexact_division():
    # Entries of a fraction-free pivot are minors, so the division is exact;
    # a remainder means the block was corrupted and must not be rounded away.
    with pytest.raises(ArithmeticError, match="inexact division"):
        _kernels.bareiss_row({0: 1, 1: 1}, {0: 1}, 1, 1, 3)


def test_bareiss_row_rejects_inexact_division_on_the_pivot_row():
    # The same check where the pivot row meets the row: (1 - 2) / 3.
    with pytest.raises(ArithmeticError, match="inexact division"):
        _kernels.bareiss_row({0: 1}, {0: 2}, 1, 1, 3)


def test_rhs_length_must_match_rows():
    with pytest.raises(ValidationError, match="rhs length does not match row count"):
        solve_equality_feasibility(MatrixOracle([[(0, 1)], [(0, 1)]], [1, 1], 1), [1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6),
    st.integers(-4, 4),
    st.integers(-4, 4).filter(bool),
    st.integers(-5, 5).filter(bool),
)
def test_bareiss_row_matches_the_dense_step(pairs, coeff, pivot, divisor):
    # On sparse rows the step stores exactly the nonzeros of the dense step.
    row = [divisor * a for a, _ in pairs]
    prow = [divisor * b for _, b in pairs]
    sparse = {j: v for j, v in enumerate(row) if v}
    _kernels.bareiss_row(sparse, {j: v for j, v in enumerate(prow) if v}, coeff, pivot, divisor)
    _dense_bareiss_row(row, prow, coeff, pivot, divisor)
    assert sparse == {j: v for j, v in enumerate(row) if v}

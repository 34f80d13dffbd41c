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
from ruhull import _kernels
from ruhull.errors import ValidationError
from ruhull.exactlp import (
    FarkasCertificate,
    FeasiblePoint,
    solve_equality_feasibility,
)

from conftest import (
    _rref,
    make_instance,
    random_mixture_pi,
    random_rational_pi,
    seeded,
)


def solve(rows, rhs):
    """Solve a system written as dense rows, handing the solver their nonzeros."""
    nonzeros = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    return solve_equality_feasibility(nonzeros, rhs, len(rows[0]))


def check_result(rows, rhs, result):
    """Either branch must carry an exact, self-validating witness."""
    m, n = len(rows), len(rows[0])
    if isinstance(result, FeasiblePoint):
        assert all(v >= 0 for v in result.x)
        for i in range(m):
            assert sum(rows[i][j] * result.x[j] for j in range(n)) == rhs[i]
        # A basic solution: its support columns are linearly independent
        # (this bounds the support of a membership mixture).
        support = [j for j in range(n) if result.x[j]]
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
    assert result.x == (1, 1)


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
    assert result.x == (0, 0)


def test_negative_rhs_row_is_reoriented():
    rows = [[-1, 0], [0, 1]]
    rhs = [-3, 2]
    result = solve(rows, rhs)
    assert isinstance(result, FeasiblePoint)
    assert result.x == (3, 2)


def test_rational_entries():
    rows = [[Fraction(1, 3), Fraction(1, 6)]]
    rhs = [Fraction(1, 2)]
    result = solve(rows, rhs)
    check_result(rows, rhs, result)
    assert isinstance(result, FeasiblePoint)


def test_column_out_of_range_rejected():
    for column in (2, -1):
        with pytest.raises(ValidationError, match="out of range"):
            solve_equality_feasibility([[(0, 1), (column, 1)]], [1], 2)


def test_column_without_nonzeros():
    # Columns that no row lists are zero columns: they stay at zero.
    result = solve_equality_feasibility([[(1, 2)]], [4], 3)
    assert isinstance(result, FeasiblePoint)
    assert result.x == (0, 2, 0)


def test_empty_rejected():
    with pytest.raises(ValidationError):
        solve_equality_feasibility([], [], 0)


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


def test_pivot_updates_every_row_once(monkeypatch):
    # One pivot eliminates in the m - 1 other rows of [B^-1 | beta] and in the
    # objective row: m fraction-free row updates of width m + 1 each.
    widths = []
    original = _kernels.bareiss_row

    def counted(row, pivot_row, coeff, pivot, divisor):
        widths.append(len(pivot_row))
        return original(row, pivot_row, coeff, pivot, divisor)

    monkeypatch.setattr(_kernels, "bareiss_row", counted)
    rng = seeded(5)
    for _ in range(30):
        m, n = rng.randrange(1, 7), rng.randrange(1, 12)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-4, 5) for _ in range(m)]
        widths.clear()
        check_result(rows, rhs, solve(rows, rhs))
        assert len(widths) % m == 0
        assert all(w == m + 1 for w in widths)


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
    type_set = correspondence_types_from_weak_orders(universe, problems, lifted)
    _agree_with_facets(lifted.layout, type_set, seeded(22), 60)


def test_bareiss_row_rejects_inexact_division():
    # Entries of a fraction-free pivot are minors, so the division is exact;
    # a remainder means the block was corrupted and must not be rounded away.
    with pytest.raises(ArithmeticError, match="inexact division"):
        _kernels.bareiss_row([1, 1], [1, 0], 1, 1, 3)

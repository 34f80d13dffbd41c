"""The inner loops of the exact LP, the type maximization and the facets code.

* ``dot``: inner products (``model.inner``, facet offsets and the values of
  the double description rays on each inserted vertex);
* ``best_support``: the best type for a functional (``RationalTypeSet.best``);
* ``bareiss_row``: one row update of a fraction-free simplex pivot, and also
  the elimination step of the facets row reduction.

All three are exact: they operate on Python ints and ``Fraction`` values and
never convert to floating point. Zero entries are skipped, or not stored at
all (``bareiss_row`` acts on ``{column: value}`` rows), so that exact
arithmetic only pays for nonzero work (pivot blocks and 0/1 vectors are
sparse in practice). Callers look the kernels up on this module at call time
(``_kernels.dot(...)``), so a profiler can wrap them in one place.
"""

BACKEND = "pure"


def dot(a, b):
    """Exact inner product of two equal-length sequences (ints/Fractions)."""
    s = 0
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def best_support(t, supports, avoid):
    """Max of sum(t[i] for i in s) over the supports s disjoint from ``avoid``.

    Returns (best value, index of first maximizer), or (None, -1) when every
    support meets ``avoid``.
    """
    best = None
    best_at = -1
    indexed = enumerate(supports)
    if avoid:
        indexed = ((k, sup) for k, sup in indexed if avoid.isdisjoint(sup))
    for k, sup in indexed:
        v = 0
        for i in sup:
            v += t[i]
        if best is None or v > best:
            best = v
            best_at = k
    return best, best_at


def bareiss_row(row, pivot_row, coeff, pivot, divisor):
    """Fraction-free elimination step, in place on a sparse integer row.

    Rows are ``{column: nonzero}`` dicts. Sets row = (row * pivot - coeff *
    pivot_row) / divisor, dropping the entries that become zero; the
    division is exact by the pivoting invariant (entries are minors), so a
    nonzero remainder means corrupted input and raises. With ``coeff`` 0
    and an empty ``pivot_row`` the step only rescales the row by
    pivot / divisor.
    """
    new = {}
    if coeff:
        pop = row.pop
        for j, p in pivot_row.items():
            v = pop(j, 0) * pivot - coeff * p
            if v:
                q, r = divmod(v, divisor)
                if r:
                    raise ArithmeticError("inexact division in fraction-free pivot")
                new[j] = q
    # What is left of the row lies off the pivot row's support: only scaled.
    for j, v in row.items():
        q, r = divmod(v * pivot, divisor)
        if r:
            raise ArithmeticError("inexact division in fraction-free pivot")
        new[j] = q
    row.clear()
    row.update(new)

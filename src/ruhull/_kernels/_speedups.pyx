# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
"""Compiled kernels; must match ruhull._kernels._pure exactly.

The arithmetic stays on Python objects (arbitrary-precision ints and
Fractions), so results are exact; Cython only removes interpreter overhead
from the inner loops.
"""


def dot(a, b):
    """Exact inner product of two equal-length sequences (ints/Fractions)."""
    cdef Py_ssize_t i, n = len(a)
    s = 0
    for i in range(n):
        x = a[i]
        y = b[i]
        if x and y:
            s = s + x * y
    return s


def best_support(t, supports):
    """Max over s in supports of sum(t[i] for i in s); first maximizer wins.

    Returns (best value, index of first maximizer).
    """
    cdef Py_ssize_t k, i, m, n = len(supports)
    cdef Py_ssize_t best_at = -1
    best = None
    for k in range(n):
        sup = supports[k]
        m = len(sup)
        v = 0
        for i in range(m):
            v = v + t[sup[i]]
        if best is None or v > best:
            best = v
            best_at = k
    return best, best_at


def sub_scaled(list row, pivot_row, factor):
    """In place: row -= factor * pivot_row, skipping zero pivot entries."""
    cdef Py_ssize_t j, n = len(pivot_row)
    if not factor:
        return
    for j in range(n):
        p = pivot_row[j]
        if p:
            row[j] = row[j] - factor * p


def bareiss_row(list row, pivot_row, coeff, pivot, divisor):
    """Fraction-free elimination step, in place on an integer row.

    row[j] = (row[j] * pivot - coeff * pivot_row[j]) / divisor, where the
    division is exact by the pivoting invariant (entries are minors); a
    nonzero remainder means corrupted input and raises.
    """
    cdef Py_ssize_t j, n = len(pivot_row)
    for j in range(n):
        v = row[j] * pivot - coeff * pivot_row[j]
        if v:
            q, r = divmod(v, divisor)
            if r:
                raise ArithmeticError("inexact division in fraction-free pivot")
            row[j] = q
        else:
            row[j] = 0


def combine(cx, x, cy, y):
    """Return the list cx*x + cy*y for equal-length sequences x, y."""
    cdef Py_ssize_t j, n = len(x)
    cdef list out = [None] * n
    for j in range(n):
        out[j] = cx * x[j] + cy * y[j]
    return out

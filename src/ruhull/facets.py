"""Halfspace description of the type polytope, at desk scale.

Given the finite set of 0/1 type vectors, this module computes a complete
irredundant description of their convex hull as affine-hull equations plus
facet-defining inequalities, converts each facet gradient into a trial
sequence via the certificate pipeline, and offers the resulting description
as an independent membership oracle.

The hull is never full dimensional in coordinate space (each block's entries
sum to one), so the affine hull is computed first by fraction-free integer
row reduction of vertex differences; facets are then enumerated inside the
hull with the double description method over the integers: start from a
simplicial cone spanned by the first affinely independent vertices and insert
the remaining vertices one at a time, maintaining the extreme rays of the
dual cone with a combinatorial adjacency test. One row reduction, of the
transposed vertex matrix with an identity block appended, both picks those
vertices and inverts the starting cone. Zero sets are kept by bookkeeping: a
new ray is zero on an inserted vertex exactly when both its parents are.

Vertex-to-halfspace conversion blows up quickly in general, so hard caps on
coordinates and vertex counts refuse anything beyond desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .certificate import decompose_to_trials, integerize, positivize
from .errors import CapExceeded, LayoutMismatch
from .model import (
    IndexLayout,
    RationalTypeSet,
    StochasticChoiceVector,
    TrialSequence,
    inner,
    primitive_integers,
    type_bits,
)

MAX_FACET_COORDINATES = 24
MAX_FACET_TYPES = 5000


@dataclass(frozen=True)
class AffineEquation:
    """inner(coefficients, x) == constant for every point of the hull."""

    coefficients: tuple[int, ...]
    constant: int


@dataclass(frozen=True)
class FacetInequality:
    """inner(normal, x) <= offset for every point of the hull, tight on a facet."""

    normal: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class HRepresentation:
    """Equations plus facets; together they cut out exactly the hull."""

    layout: IndexLayout
    dimension: int
    equations: tuple[AffineEquation, ...]
    facets: tuple[FacetInequality, ...]


def _rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns the nonzero rows and their pivot columns. Each row is the
    rational RREF row times one common nonzero pivot d (the last pivot
    entry, a signed minor of the input), so every pivot entry equals d.
    Rows are held as ``{column: nonzero}`` dicts and updated with
    ``bareiss_row``; divisions are exact. A row that is all zero stays so,
    and is dropped rather than updated again.
    """
    width = len(rows[0]) if rows else 0
    mat = [{j: v for j, v in enumerate(r) if v} for r in rows]
    mat = [r for r in mat if r]
    pivots: list[int] = []
    rank = 0
    divisor = 1
    for col in range(width):
        pivot_row = next((i for i in range(rank, len(mat)) if col in mat[i]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        prow = mat[rank]
        pivot = prow[col]
        for i, row in enumerate(mat):
            if i != rank:
                _kernels.bareiss_row(row, prow, row.get(col, 0), pivot, divisor)
        divisor = pivot
        pivots.append(col)
        rank += 1
        mat[rank:] = [row for row in mat[rank:] if row]
    return [[row.get(j, 0) for j in range(width)] for row in mat[:rank]], pivots


def _affine_hull(
    vertices: list[tuple[int, ...]],
) -> tuple[list[list[int]], list[int], list[int]]:
    """Reduced basis of the hull's direction space, its pivot and free columns."""
    base = vertices[0]
    diffs = [[v[i] - base[i] for i in range(len(base))] for v in vertices[1:]]
    basis, pivots = _rref(diffs)
    free = [c for c in range(len(base)) if c not in pivots]
    return basis, pivots, free


def _equations(
    basis: list[list[int]],
    pivots: list[int],
    free: list[int],
    base: tuple[int, ...],
) -> tuple[AffineEquation, ...]:
    """One equation per free column; sign fixed so the first nonzero entry is positive."""
    n = len(base)
    d = basis[0][pivots[0]] if basis else 1
    eqs = []
    for f in free:
        coeff = [0] * n
        coeff[f] = d
        for k, p in enumerate(pivots):
            coeff[p] = -basis[k][f]
        ints = list(primitive_integers(coeff))
        first = next(v for v in ints if v)
        if first < 0:
            ints = [-v for v in ints]
        eqs.append(AffineEquation(tuple(ints), _kernels.dot(ints, base)))
    eqs.sort(key=lambda e: (e.coefficients, e.constant))
    return tuple(eqs)


def _double_description(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {y : y . (p, 1) >= 0 for all points p}.

    Each ray corresponds to one facet of the (full-dimensional) hull of the
    points. Points are inserted in list order; the starting simplicial cone
    uses the first affinely independent ones.
    """
    dim = len(points[0]) + 1
    generators = [tuple(p) + (1,) for p in points]

    # One reduction of [G^T | I]: its pivots in the first len(generators)
    # columns are the first dim linearly independent generators, and its
    # right block is d * (G_c^T)^-1 for those generators G_c. Row c of that
    # block, times the sign of d, is the starting ray that takes a positive
    # value on chosen generator c and 0 on the other chosen ones.
    reduced, chosen = _rref([
        list(column) + [int(r == c) for c in range(dim)]
        for r, column in enumerate(zip(*generators))
    ])
    if chosen[-1] >= len(generators):
        raise AssertionError("points do not affinely span their space")
    sign = 1 if reduced[0][chosen[0]] > 0 else -1
    rays = [
        primitive_integers([sign * v for v in row[len(generators):]])
        for row in reduced
    ]

    # Zero sets (bitmask over inserted generators, by insertion position)
    # drive the combinatorial adjacency test. Every ray is >= 0 on every
    # inserted generator: a starting ray is zero on all chosen generators
    # but its own, and a new ray is a positive combination of a ray positive
    # and a ray negative on the generator being inserted. So a new ray is
    # zero exactly where both parents are, and on the new generator.
    masks = [((1 << dim) - 1) ^ (1 << c) for c in range(dim)]

    chosen_set = set(chosen)
    rest = [g for idx, g in enumerate(generators) if idx not in chosen_set]
    for position, g in enumerate(rest, start=dim):
        bit = 1 << position
        values = [_kernels.dot(g, r) for r in rays]
        plus = [k for k, v in enumerate(values) if v > 0]
        minus = [k for k, v in enumerate(values) if v < 0]
        for k, v in enumerate(values):
            if v == 0:
                masks[k] |= bit
        if not minus:
            continue
        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        for kp in plus:
            for km in minus:
                common = masks[kp] & masks[km]
                # Adjacent rays share dim - 2 independent zero constraints.
                if common.bit_count() < dim - 2:
                    continue
                adjacent = True
                for other in range(len(rays)):
                    if other != kp and other != km and masks[other] & common == common:
                        adjacent = False
                        break
                if adjacent:
                    vp, vm = values[kp], values[km]
                    new_rays.append(primitive_integers(
                        [vp * a - vm * b for a, b in zip(rays[km], rays[kp])]
                    ))
                    new_masks.append(common | bit)
        keep = [k for k, v in enumerate(values) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] for k in keep] + new_masks
    return rays


def enumerate_facets(
    type_set: RationalTypeSet,
    max_coordinates: int = MAX_FACET_COORDINATES,
    max_types: int = MAX_FACET_TYPES,
) -> HRepresentation:
    """Complete irredundant halfspace description of the hull of the type set.

    Output order is deterministic: equations and facets are sorted on their
    integer coefficient vectors.
    """
    layout = type_set.layout
    n = layout.coordinate_count
    if n > max_coordinates or len(type_set) > max_types:
        raise CapExceeded(
            f"vertex-to-halfspace conversion is computationally prohibitive in "
            f"general; refusing {len(type_set)} vertices in {n} coordinates "
            f"(caps: {max_types} vertices, {max_coordinates} coordinates)"
        )
    vertices = [type_bits(t, layout) for t in type_set.types]
    base = vertices[0]
    basis, pivots, free = _affine_hull(vertices)
    equations = _equations(basis, pivots, free, base)
    dim = len(pivots)
    if dim == 0:
        return HRepresentation(layout, 0, equations, ())

    # Hull coordinates: the pivot-column entries of (vertex - base).
    points = [tuple(v[p] - base[p] for p in pivots) for v in vertices]
    rays = _double_description(points)

    facets = []
    for ray in rays:
        # Rays bound the hull from below (ray . (w, 1) >= 0); facets are
        # stated as upper bounds, so the lifted normal flips sign. Recomputing
        # the offset as the max over vertices absorbs both the base-point
        # shift and the gcd rescaling, and is tight by construction.
        normal = [0] * n
        for k, p in enumerate(pivots):
            normal[p] = -ray[k]
        normal = list(primitive_integers(normal))
        offset = max(_kernels.dot(normal, v) for v in vertices)
        facets.append(FacetInequality(tuple(normal), int(offset)))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return HRepresentation(layout, dim, equations, tuple(facets))


def facet_membership_oracle(pi: StochasticChoiceVector, hrep: HRepresentation) -> bool:
    """True iff the data satisfies every equation and facet inequality."""
    if pi.layout != hrep.layout:
        raise LayoutMismatch("choice data and halfspace description disagree on layout")
    for eq in hrep.equations:
        if inner(eq.coefficients, pi.values) != eq.constant:
            return False
    for facet in hrep.facets:
        if inner(facet.normal, pi.values) > facet.offset:
            return False
    return True


def essential_sequences(
    hrep: HRepresentation, layout: IndexLayout
) -> tuple[TrialSequence, ...]:
    """One trial sequence per facet, via the shift/scale/decompose pipeline.

    Checking the axiom on exactly these sequences is equivalent to checking
    every facet inequality, hence (for data satisfying the hull equations) to
    membership itself.
    """
    if layout != hrep.layout:
        raise LayoutMismatch("halfspace description does not match layout")
    sequences = []
    for facet in hrep.facets:
        aggregate = integerize(positivize(facet.normal))
        sequences.append(decompose_to_trials(aggregate, layout))
    return tuple(sequences)

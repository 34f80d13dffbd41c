import pathlib
from fractions import Fraction
from itertools import product

import pytest

from ruhull import (
    CapExceeded,
    LayoutMismatch,
    MixingDistribution,
    arsp_check,
    enumerate_facets,
    essential_sequences,
    facet_membership_oracle,
    facets,
    inner,
    integerize,
    load_instance,
    membership,
    positivize,
    type_bits,
    types_from_explicit,
    types_from_linear_orders,
    validate_pi,
)

from conftest import _rref as reference_rref
from conftest import (
    affine_rank,
    brute_force_facet_tight_sets,
    facet_tight_set,
    grid_distributions,
    inequality_tight_set,
    make_instance,
    seeded,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="module")
def pairwise3_hrep(pairwise3):
    _, _, _, ts = pairwise3
    return enumerate_facets(ts)


class TestSmallInstances:
    def test_one_binary_problem(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_linear_orders(layout)
        h = enumerate_facets(ts)
        assert h.dimension == 1
        assert [(e.coefficients, e.constant) for e in h.equations] == [((1, 1), 1)]
        # A segment has two facets: its endpoints (x >= 0 for each coordinate,
        # expressed on the hull's pivot coordinate).
        assert {(f.normal, f.offset) for f in h.facets} == {
            ((-1, 0), 0),
            ((1, 0), 1),
        }

    def test_single_type_pins_everything(self):
        _, _, layout = make_instance("abc", [("a", "b"), ("b", "c")])
        ts = types_from_explicit([[1, 0, 0, 1]], layout)
        h = enumerate_facets(ts)
        assert h.dimension == 0
        assert not h.facets
        assert len(h.equations) == 4
        pinned = validate_pi([1, 0, 0, 1], layout)
        assert facet_membership_oracle(pinned, h)
        other = validate_pi([0, 1, 0, 1], layout)
        assert not facet_membership_oracle(other, h)

    def test_layouts_must_match(self, pairwise3_hrep):
        _, _, other = make_instance("ab", [("a", "b")])
        with pytest.raises(LayoutMismatch, match="disagree on layout"):
            facet_membership_oracle(validate_pi([1, 0], other), pairwise3_hrep)
        with pytest.raises(LayoutMismatch, match="does not match layout"):
            essential_sequences(pairwise3_hrep, other)

    def test_caps(self, pairwise3):
        # The message names the job's size (6 vertices, 6 coordinates) and
        # both caps, whichever of them stopped it.
        _, _, _, ts = pairwise3
        with pytest.raises(CapExceeded, match="prohibitive") as exc:
            enumerate_facets(ts, max_coordinates=4)
        assert "refusing 6 vertices in 6 coordinates" in str(exc.value)
        assert "(caps: 5000 vertices, 4 coordinates)" in str(exc.value)
        with pytest.raises(CapExceeded) as exc:
            enumerate_facets(ts, max_types=2)
        assert "refusing 6 vertices in 6 coordinates" in str(exc.value)
        assert "(caps: 2 vertices, 24 coordinates)" in str(exc.value)


class TestRowReduction:
    @staticmethod
    def random_matrix(rng):
        n_cols = rng.randrange(1, 7)
        rows = [
            [rng.randrange(-3, 4) for _ in range(n_cols)]
            for _ in range(rng.randrange(1, 6))
        ]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n_cols)
        if rng.random() < 0.5:
            # A combination of two rows, so the matrix is rank deficient.
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            x, y = rng.choice(rows), rng.choice(rows)
            rows.append([a * u + b * v for u, v in zip(x, y)])
        return rows

    def test_matches_fraction_reference(self):
        # Each row is the rational RREF row times one common pivot d.
        rng = seeded(8)
        signs = set()
        for _ in range(300):
            rows = self.random_matrix(rng)
            reduced, pivots = facets._rref(rows)
            expected, expected_pivots = reference_rref(rows)
            assert pivots == expected_pivots
            assert len(reduced) == len(expected)
            if not reduced:
                continue
            d = reduced[0][pivots[0]]
            signs.add(d > 0)
            for row, p, ref in zip(reduced, pivots, expected):
                assert all(type(v) is int for v in row)
                assert row[p] == d
                assert [Fraction(v, d) for v in row] == ref
        assert signs == {True, False}

    def test_double_description_on_signed_points(self):
        # Points with negative coordinates: on (0,) and (-1,) the reduced
        # starting cone [G | I] has common pivot -1, so the rays are only
        # right if the sign of d is taken into account.
        rng = seeded(9)
        samples = [[(0,), (-1,)], [(0, 0), (-1, 0), (0, -1)]]
        while len(samples) < 40:
            dim = rng.randrange(1, 4)
            points = list({
                tuple(rng.randrange(-2, 3) for _ in range(dim))
                for _ in range(rng.randrange(dim + 1, dim + 6))
            })
            if affine_rank(points) == dim + 1:
                samples.append(points)
        # Subsets of cube vertices in dimensions 4 and 5: many points share
        # each facet, so new rays inherit most of their zero sets from both
        # parents.
        while len(samples) < 60:
            dim = 4 if len(samples) < 50 else 5
            cube = list(product((0, 1), repeat=dim))
            points = rng.sample(cube, rng.randrange(dim + 3, dim + 8))
            if affine_rank(points) == dim + 1:
                samples.append(points)
        for points in samples:
            rays = facets._double_description(points)
            tight_sets = set()
            for ray in rays:
                values = [inner(ray, p + (1,)) for p in points]
                assert min(values) == 0
                tight_sets.add(frozenset(i for i, v in enumerate(values) if v == 0))
            assert len(tight_sets) == len(rays)
            assert tight_sets == brute_force_facet_tight_sets(points)

    def test_empty_and_zero_matrices(self):
        assert facets._rref([]) == ([], [])
        assert facets._rref([[0, 0], [0, 0]]) == ([], [])

    def test_zero_rows_are_never_updated(self, monkeypatch):
        # On the 5-alternative pairwise hull most vertex differences reduce
        # to zero; once a row is all zero, no further elimination touches it.
        pairs = [(x, y) for i, x in enumerate("abcde") for y in "abcde"[i + 1:]]
        _, _, layout = make_instance("abcde", pairs)
        ts = types_from_linear_orders(layout)
        kernel = facets._kernels.bareiss_row
        zero_rows = []

        def counting(row, *args):
            if not any(row):
                zero_rows.append(list(row))
            return kernel(row, *args)

        monkeypatch.setattr(facets._kernels, "bareiss_row", counting)
        hrep = enumerate_facets(ts)
        assert zero_rows == []
        assert hrep.dimension == 10
        assert len(hrep.facets) == 40


class TestPairwiseThreeFacets:
    def test_matches_independent_hyperplane_enumeration(self, pairwise3, pairwise3_hrep):
        _, _, _, ts = pairwise3
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        expected = brute_force_facet_tight_sets(vertices)
        produced = {facet_tight_set(f, vertices) for f in pairwise3_hrep.facets}
        assert produced == expected
        assert len(pairwise3_hrep.facets) == len(expected)  # no duplicates

    def test_dimension_and_equations(self, pairwise3_hrep):
        assert pairwise3_hrep.dimension == 3
        assert len(pairwise3_hrep.equations) == 3

    def test_both_triangle_inequalities_present(self, pairwise3, pairwise3_hrep):
        # The two cyclic comparison patterns each admit at most two of three
        # unit queries; their facet identities are checked via tight sets.
        _, _, _, ts = pairwise3
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        produced = {facet_tight_set(f, vertices) for f in pairwise3_hrep.facets}
        tri1 = inequality_tight_set((1, 0, 0, 1, 1, 0), 2, vertices)
        tri2 = inequality_tight_set((0, 1, 1, 0, 0, 1), 2, vertices)
        assert tri1 in produced
        assert tri2 in produced

    def test_every_facet_tight_on_a_dim_sized_independent_set(
        self, pairwise3, pairwise3_hrep
    ):
        from conftest import affine_rank

        _, _, _, ts = pairwise3
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        for f in pairwise3_hrep.facets:
            tight = [vertices[i] for i in facet_tight_set(f, vertices)]
            assert len(tight) >= pairwise3_hrep.dimension
            assert affine_rank(tight) == pairwise3_hrep.dimension

    def test_irredundant(self, pairwise3, pairwise3_hrep):
        # Dropping any single facet admits a point that the rest accept:
        # walk from the barycenter through the dropped facet's tight face.
        _, _, layout, ts = pairwise3
        n = layout.coordinate_count
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        bary = [
            sum(Fraction(v[i]) for v in vertices) / len(vertices) for i in range(n)
        ]
        for dropped in pairwise3_hrep.facets:
            tight = [vertices[i] for i in facet_tight_set(dropped, vertices)]
            face_center = [
                sum(Fraction(v[i]) for v in tight) / len(tight) for i in range(n)
            ]
            # point = bary + mu (face_center - bary), slightly beyond mu = 1
            direction = [fc - b for fc, b in zip(face_center, bary)]
            mu = Fraction(9, 8)
            point = [b + mu * d for b, d in zip(bary, direction)]
            assert inner(dropped.normal, point) > dropped.offset
            for other in pairwise3_hrep.facets:
                if other != dropped:
                    assert inner(other.normal, point) <= other.offset
            for eq in pairwise3_hrep.equations:
                assert inner(eq.coefficients, point) == eq.constant

    def test_oracle_on_known_points(self, pairwise3, pairwise3_hrep, cyclic_pi, uniform_pi):
        _, _, layout, ts = pairwise3
        assert facet_membership_oracle(uniform_pi, pairwise3_hrep)
        assert not facet_membership_oracle(cyclic_pi, pairwise3_hrep)
        for t in ts.types:
            vertex_pi = validate_pi(type_bits(t, ts.layout), layout)
            assert facet_membership_oracle(vertex_pi, pairwise3_hrep)

    def test_oracle_agrees_with_lp_on_dense_grid(self, pairwise3, pairwise3_hrep):
        # Denominators up to 4 per block: exhaustive cross-validation of the
        # two independent membership routes.
        _, _, layout, ts = pairwise3
        blocks = grid_distributions(2, (1, 2, 3, 4))
        agreements = 0
        for b0 in blocks:
            for b1 in blocks:
                for b2 in blocks:
                    pi = validate_pi(list(b0 + b1 + b2), layout)
                    by_lp = isinstance(
                        membership.test_membership(pi, ts), MixingDistribution
                    )
                    by_facets = facet_membership_oracle(pi, pairwise3_hrep)
                    assert by_lp == by_facets
                    agreements += 1
        assert agreements == len(blocks) ** 3


class TestEssentialSequences:
    def test_segment_sequences(self):
        _, _, layout = make_instance("ab", [("a", "b")])
        ts = types_from_linear_orders(layout)
        h = enumerate_facets(ts)
        seqs = essential_sequences(h, layout)
        aggregates = {s.aggregate for s in seqs}
        # Facet -x1 <= 0 shifts to the basis query on the second coordinate;
        # facet x1 <= 1 is already nonnegative.
        assert aggregates == {(0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "path", sorted(SAMPLES.glob("*.json")), ids=lambda p: p.stem
    )
    def test_sample_sequences_peel_the_shifted_normals(self, path):
        # Each sequence aggregates to the facet's shifted, integerized normal,
        # peeled in layers: a block takes as many trials as its largest entry.
        type_set = load_instance(str(path)).type_set
        layout = type_set.layout
        hrep = enumerate_facets(type_set)
        seqs = essential_sequences(hrep, layout)
        assert len(seqs) == len(hrep.facets) > 0
        for facet, seq in zip(hrep.facets, seqs):
            assert seq.aggregate == integerize(positivize(facet.normal))
            for j in range(layout.problem_count):
                trials = [t for t in seq.trials if t.block == j]
                entries = [seq.aggregate[i] for i in layout.block_range(j)]
                assert len(trials) == max(entries)

    def test_one_sequence_per_facet(self, pairwise3, pairwise3_hrep):
        _, _, layout, _ = pairwise3
        seqs = essential_sequences(pairwise3_hrep, layout)
        assert len(seqs) == len(pairwise3_hrep.facets)

    def test_sequences_equivalent_to_facets(self, pairwise3, pairwise3_hrep):
        _, _, layout, ts = pairwise3
        seqs = essential_sequences(pairwise3_hrep, layout)
        blocks = grid_distributions(2, (1, 2, 3))
        for b0 in blocks:
            for b1 in blocks:
                for b2 in blocks:
                    pi = validate_pi(list(b0 + b1 + b2), layout)
                    facet_ok = facet_membership_oracle(pi, pairwise3_hrep)
                    axiom_ok = all(
                        arsp_check(s, pi, ts).holds for s in seqs
                    )
                    assert facet_ok == axiom_ok

    def test_tightness_at_witness_vertices(self, pairwise3, pairwise3_hrep):
        # Each essential sequence achieves equality for some vertex data.
        _, _, layout, ts = pairwise3
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        seqs = essential_sequences(pairwise3_hrep, layout)
        for f, s in zip(pairwise3_hrep.facets, seqs):
            tight = facet_tight_set(f, vertices)
            witness = validate_pi(vertices[min(tight)], layout)
            lhs, rhs, holds = arsp_check(s, witness, ts)
            assert holds and lhs == rhs


class TestLowerDimensionalHulls:
    # Hulls of type subsets are flat inside the block-sum space; the affine
    # hull step has to find the extra equations before the facet run.
    @pytest.mark.parametrize(
        "type_indices",
        [(0, 1), (0, 2, 4), (1, 3, 5), (0, 1, 2, 3), (0, 1, 2, 3, 4)],
    )
    def test_matches_oracle_on_type_subsets(self, pairwise3, type_indices):
        _, _, layout, full = pairwise3
        rows = [list(type_bits(full.types[i], full.layout)) for i in type_indices]
        ts = types_from_explicit(rows, layout)
        h = enumerate_facets(ts)
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        produced = {facet_tight_set(f, vertices) for f in h.facets}
        assert produced == brute_force_facet_tight_sets(vertices)
        # Equations must hold at every vertex and pin the hull's dimension.
        from conftest import affine_rank

        assert h.dimension == affine_rank(vertices) - 1
        for eq in h.equations:
            for v in vertices:
                assert inner(eq.coefficients, v) == eq.constant
        assert len(h.equations) == layout.coordinate_count - h.dimension

    @pytest.mark.parametrize("type_indices", [(0, 1), (0, 2, 4), (0, 1, 2, 3)])
    def test_oracle_matches_lp_on_random_points(self, pairwise3, type_indices):
        from conftest import random_rational_pi, seeded

        _, _, layout, full = pairwise3
        rows = [list(type_bits(full.types[i], full.layout)) for i in type_indices]
        ts = types_from_explicit(rows, layout)
        h = enumerate_facets(ts)
        rng = seeded(831 + len(type_indices))
        for _ in range(150):
            pi = random_rational_pi(layout, rng, max_numerator=4)
            by_lp = isinstance(membership.test_membership(pi, ts), MixingDistribution)
            assert by_lp == facet_membership_oracle(pi, h)


class TestLiftedHulls:
    def test_weak_order_polytope_of_a_pair(self):
        # Lifted single pair: hull of the three maximizer types in the
        # four-coordinate block (never the empty set).
        from ruhull import correspondence_types_from_weak_orders, lift_layout

        universe, problems, _ = make_instance("ab", [("a", "b")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(lifted)
        h = enumerate_facets(ts)
        assert h.dimension == 2
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        produced = {facet_tight_set(f, vertices) for f in h.facets}
        assert produced == brute_force_facet_tight_sets(vertices)
        # The empty-set coordinate is pinned to zero by an equation.
        pinned = [
            eq for eq in h.equations if eq.coefficients == (1, 0, 0, 0)
        ]
        assert pinned and pinned[0].constant == 0

    def test_lifted_membership_cross_check(self):
        from conftest import random_rational_pi, seeded
        from ruhull import correspondence_types_from_weak_orders, lift_layout

        universe, problems, _ = make_instance("abc", [("a", "b"), ("b", "c")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_weak_orders(lifted)
        h = enumerate_facets(ts)
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        assert {facet_tight_set(f, vertices) for f in h.facets} == (
            brute_force_facet_tight_sets(vertices)
        )
        rng = seeded(5150)
        for _ in range(150):
            pi = random_rational_pi(lifted, rng, max_numerator=3)
            by_lp = isinstance(membership.test_membership(pi, ts), MixingDistribution)
            assert by_lp == facet_membership_oracle(pi, h)


class TestRandomizedCrossValidation:
    def test_mixed_problem_sizes_random_points(self):
        # A seven-coordinate instance (one triple, two pairs): the halfspace
        # oracle and the LP must agree on random rational points too.
        from conftest import random_rational_pi, seeded

        _, _, layout = make_instance("abc", [("a", "b", "c"), ("a", "b"), ("b", "c")])
        ts = types_from_linear_orders(layout)
        h = enumerate_facets(ts)
        rng = seeded(424242)
        for _ in range(300):
            pi = random_rational_pi(layout, rng, max_numerator=5)
            by_lp = isinstance(membership.test_membership(pi, ts), MixingDistribution)
            assert by_lp == facet_membership_oracle(pi, h)


class TestLargerSmoke:
    # The hyperplane oracle is too slow beyond three alternatives, so assert
    # the derived structure instead: for all-pairs instances the facets are
    # exactly the coordinate bounds plus both cyclic three-way comparison
    # inequalities of every triple (each inequality is itself re-validated
    # for validity and tightness before its identity is compared).
    @pytest.mark.parametrize(
        "labels,expect_dim,expect_facets,expect_tight",
        [("abcd", 6, 20, 12), ("abcde", 10, 40, 60)],
    )
    def test_all_pairs_facet_family(
        self, labels, expect_dim, expect_facets, expect_tight
    ):
        from itertools import combinations, permutations

        from conftest import affine_rank

        pairs = [
            (a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]
        ]
        universe, _, layout = make_instance(labels, pairs)
        ts = types_from_linear_orders(layout)
        h = enumerate_facets(ts)
        assert h.dimension == expect_dim
        assert len(h.facets) == expect_facets
        n_coords = layout.coordinate_count
        vertices = [type_bits(t, ts.layout) for t in ts.types]
        produced = set()
        for f in h.facets:
            vals = [inner(f.normal, v) for v in vertices]
            assert max(vals) == f.offset
            tight = facet_tight_set(f, vertices)
            assert len(tight) == expect_tight
            assert affine_rank([vertices[i] for i in tight]) == expect_dim
            produced.add(tight)

        def coord(winner, loser):
            j = pairs.index(tuple(sorted((winner, loser))))
            return layout.coordinate(j, universe.index(winner))

        expected = set()
        for i, j in permutations(labels, 2):  # coordinate bounds
            n = [0] * n_coords
            n[coord(i, j)] = -1
            expected.add(inequality_tight_set(tuple(n), 0, vertices))
        for triple in combinations(labels, 3):  # both cyclic orientations
            for i, j, k in (triple, (triple[0], triple[2], triple[1])):
                n = [0] * n_coords
                n[coord(i, j)] = 1
                n[coord(j, k)] = 1
                n[coord(k, i)] = 1
                expected.add(inequality_tight_set(tuple(n), 2, vertices))
        assert produced == expected

        for t in ts.types[:24]:
            assert facet_membership_oracle(validate_pi(type_bits(t, ts.layout), layout), h)

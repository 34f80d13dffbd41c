"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check is exact (zero tolerance): rational arithmetic end to end. Run
with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
inline; under captured output they are still written to the real stdout.
"""

import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from ruhull import (
    MixingDistribution,
    SeparatingVector,
    arsp_check,
    correspondence_types_from_linear_orders,
    check_restricted_arsp,
    decide,
    enumerate_facets,
    essential_sequences,
    facet_membership_oracle,
    inner,
    integerize,
    lift_layout,
    lift_set_valued_data,
    membership,
    max_over_types,
    positivize,
    singleton_choice_data,
    type_bits,
    types_from_linear_orders,
    validate_pi,
)
from ruhull.cli import main

from conftest import (
    affine_rank,
    brute_force_facet_tight_sets,
    facet_tight_set,
    grid_distributions,
    inequality_tight_set,
    make_instance,
    random_mixture_pi,
    random_rational_pi,
    random_small_instance,
    seeded,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{description}]: FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {num} [{description}]: PASS", file=sys.__stdout__)


CYCLIC_TREE = {
    "universe": ["a", "b", "c"],
    "problems": [["a", "b"], ["a", "c"], ["b", "c"]],
    "probabilities": [["1", "0"], ["0", "1"], ["1", "0"]],
    "types": "linear-orders",
    "set_valued": False,
}

FOOTNOTE_TREE = {
    "universe": ["a", "b"],
    "problems": [["a", "b"]],
    "probabilities": [{"a,b": "1"}],
    "types": "linear-orders",
    "set_valued": True,
}


def test_criterion_1_theorem_equivalence_on_grid(pairwise3):
    with criterion(1, "LP membership == facet oracle == essential sequences on full grid"):
        start = time.monotonic()
        _, _, layout, ts = pairwise3
        hrep = enumerate_facets(ts)
        sequences = essential_sequences(hrep, layout)
        blocks = grid_distributions(2, (1, 2, 3))
        assert len(blocks) == 5
        count = 0
        for b0 in blocks:
            for b1 in blocks:
                for b2 in blocks:
                    pi = validate_pi(list(b0 + b1 + b2), layout)
                    by_lp = isinstance(
                        membership.test_membership(pi, ts), MixingDistribution
                    )
                    by_facets = facet_membership_oracle(pi, hrep)
                    by_sequences = all(
                        arsp_check(s, pi, ts).holds for s in sequences
                    )
                    assert by_lp == by_facets == by_sequences
                    count += 1
        assert count == 125 <= 1000
        assert time.monotonic() - start < 60


def test_criterion_2_duality_soundness():
    with criterion(2, "1000 random instances: exactly one exact branch, both verified"):
        start = time.monotonic()
        rng = seeded(20240801)
        for _ in range(1000):
            _, _, layout = random_small_instance(rng, max_universe=4, max_problems=6)
            ts = types_from_linear_orders(layout)
            pi = random_rational_pi(layout, rng)
            outcome = decide(pi, ts)
            assert (outcome.mixture is None) != (outcome.certificate is None)
            if outcome.mixture is not None:
                mix = outcome.mixture
                assert sum((w for _, w in mix.weights), Fraction(0)) == 1
                assert mix.mixture == tuple(pi.values)
            else:
                cert = outcome.certificate
                assert all(isinstance(v, int) and v >= 0 for v in cert.integer_aggregate)
                assert cert.trials.aggregate == cert.integer_aggregate
                assert cert.lhs > cert.rhs
                assert cert.lhs == inner(cert.integer_aggregate, pi.values)
                assert cert.rhs == max_over_types(cert.integer_aggregate, ts)[0]
        assert time.monotonic() - start < 120


def test_criterion_3_round_trip_mixtures():
    with criterion(3, "500 random type mixtures are always recognized as mixtures"):
        rng = seeded(20240802)
        failures = 0
        for _ in range(500):
            _, _, layout = random_small_instance(rng, max_universe=4, max_problems=5)
            ts = types_from_linear_orders(layout)
            pi, _ = random_mixture_pi(layout, ts, rng)
            result = membership.test_membership(pi, ts)
            if not isinstance(result, MixingDistribution):
                failures += 1
        assert failures == 0


def test_criterion_4_pipeline_bookkeeping():
    with criterion(4, "200 negative-entry separators: gap exact through the pipeline"):
        rng = seeded(20240803)
        collected = 0
        while collected < 200:
            _, _, layout = random_small_instance(rng, max_universe=4, max_problems=5)
            ts = types_from_linear_orders(layout)
            pi = random_rational_pi(layout, rng, max_numerator=3)
            result = membership.test_membership(pi, ts)
            if not isinstance(result, SeparatingVector):
                continue
            # Uniform downward shifts are gap-neutral (the all-ones functional
            # gives the problem count on data and types alike); use one to
            # force negative entries into the separator.
            shift = max(result.direction) + rng.randrange(1, 4)
            direction = tuple(v - shift for v in result.direction)
            assert min(direction) < 0
            best, _ = max_over_types(direction, ts)
            gap_before = inner(direction, pi.values) - best
            assert gap_before == result.gap > 0

            nonneg = positivize(direction)
            assert all(v >= 0 for v in nonneg)
            best_shifted, _ = max_over_types(nonneg, ts)
            gap_after = inner(nonneg, pi.values) - best_shifted
            assert gap_after == gap_before

            aggregate = integerize(nonneg)
            ratios = {
                Fraction(a) / Fraction(v) for a, v in zip(aggregate, nonneg) if v
            }
            assert len(ratios) == 1
            scale = ratios.pop()
            assert scale > 0
            best_int, _ = max_over_types(aggregate, ts)
            assert inner(aggregate, pi.values) - best_int == scale * gap_after

            cert = decide(pi, ts).certificate
            assert cert is not None
            replay = arsp_check(cert.trials, pi, ts)
            assert not replay.holds and replay.lhs > replay.rhs
            collected += 1


def test_criterion_5_cyclic_instance_via_cli(tmp_path, capsys):
    with criterion(5, "cyclic instance: exit code 3, certificate lhs 3 / rhs 2"):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(CYCLIC_TREE))
        code = main(["check", str(path), "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "not-rationalizable"
        assert report["certificate"]["lhs"] == "3"
        assert report["certificate"]["rhs"] == "2"
        # The certificate must also re-verify as a standalone artifact.
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        assert main(["verify", str(path), str(report_path)]) == 0
        capsys.readouterr()


def test_criterion_6_restricted_axiom_gap():
    with criterion(6, "whole-set data: restricted axiom holds yet no mixture exists"):
        universe, problems, _ = make_instance("ab", [("a", "b")])
        lifted = lift_layout(universe, problems)
        ts = correspondence_types_from_linear_orders(lifted)
        pi = lift_set_valued_data([{("a", "b"): 1}], lifted)
        assert check_restricted_arsp(pi, ts).holds is True
        assert isinstance(membership.test_membership(pi, ts), SeparatingVector)


def test_criterion_7_singleton_recovery():
    with criterion(7, "100 singleton instances: lifted verdict equals plain verdict"):
        rng = seeded(20240804)
        for _ in range(100):
            universe, problems, layout = random_small_instance(
                rng, max_universe=3, max_problems=4
            )
            base_ts = types_from_linear_orders(layout)
            pi = random_rational_pi(layout, rng, max_numerator=3)
            plain = isinstance(
                membership.test_membership(pi, base_ts), MixingDistribution
            )
            lifted = lift_layout(universe, problems)
            lifted_ts = correspondence_types_from_linear_orders(lifted)
            lifted_pi = singleton_choice_data(pi, lifted)
            raised = isinstance(
                membership.test_membership(lifted_pi, lifted_ts), MixingDistribution
            )
            assert plain == raised


def test_criterion_8_facet_enumeration(pairwise3):
    with criterion(8, "facets: irredundant, tight, both triangle inequalities present"):
        _, _, layout, ts = pairwise3
        hrep = enumerate_facets(ts)
        vertices = [type_bits(t, ts.layout) for t in ts.types]

        produced = {facet_tight_set(f, vertices) for f in hrep.facets}
        independent = brute_force_facet_tight_sets(vertices)
        assert produced == independent
        assert len(hrep.facets) == len(produced)  # no duplicates, no redundancy

        for f in hrep.facets:
            tight = [vertices[i] for i in facet_tight_set(f, vertices)]
            assert len(tight) >= hrep.dimension
            assert affine_rank(tight) == hrep.dimension  # dim-1 face: dim points

        tri1 = inequality_tight_set((1, 0, 0, 1, 1, 0), 2, vertices)
        tri2 = inequality_tight_set((0, 1, 1, 0, 0, 1), 2, vertices)
        assert tri1 in produced and tri2 in produced


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    with criterion(9, "every command is byte-identical across repeated runs"):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps(CYCLIC_TREE))
        footnote = tmp_path / "footnote.json"
        footnote.write_text(json.dumps(FOOTNOTE_TREE))

        report = tmp_path / "report.json"
        main(["check", str(cyclic), "--format", "structured"])
        report.write_text(capsys.readouterr().out)

        commands = [
            ["check", str(cyclic)],
            ["check", str(cyclic), "--format", "structured"],
            ["check", str(footnote)],
            ["check", str(footnote), "--restricted-arsp"],
            ["check", str(footnote), "--restricted-arsp", "--format", "structured"],
            ["enumerate-types", str(cyclic)],
            ["facets", str(cyclic), "--format", "structured"],
            ["lift", str(footnote)],
            ["verify", str(cyclic), str(report)],
        ]
        for argv in commands:
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second and first

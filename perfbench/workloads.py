"""Seeded instance generators for the three benchmark workloads.

Each workload is an endless stream of instance JSON texts: ``stream()``
yields ``Case`` records, and case ``i`` depends only on ``(seed, i)``. The
library sees nothing but the text, through ``parse_instance``.

Every case knows its verdicts by construction, so the correctness gate can
check them on any seed:

* planted mixtures of orders are rationalizable by those orders;
* "random" data carries a forced violation (a 3-cycle of pairwise
  probabilities above 3/4, or positive mass on the empty set), so it is never
  rationalizable and the certificate path always runs;
* planted weak-order mixtures with at least one tie, read under linear-order
  types, fail the full axiom (a linear order never chooses a set of size two)
  but satisfy the restricted one (breaking each tie uniformly gives linear
  orders that dominate every downward-closed query).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

LABELS = "abcdefghij"


@dataclass(frozen=True)
class Case:
    kind: str                # e.g. "pairwise-6-planted3", "set-weak-4-random"
    text: str                # instance JSON handed to parse_instance
    rationalizable: bool     # expected full-axiom verdict
    restricted: bool | None  # expected restricted axiom, for set-valued data


def _text(universe, problems, probabilities, types, set_valued) -> str:
    return json.dumps(
        {
            "universe": universe,
            "problems": problems,
            "probabilities": probabilities,
            "types": types,
            "set_valued": set_valued,
        },
        sort_keys=True,
    )


# -- singleton pairwise data ---------------------------------------------------


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _planted_pairwise(rng: random.Random, n: int, k: int) -> list[list[str]]:
    """Pairwise probabilities of a mixture of k random linear orders."""
    orders = []
    for _ in range(k):
        order = list(range(n))
        rng.shuffle(order)
        rank = {alt: pos for pos, alt in enumerate(order)}
        orders.append((rank, rng.randint(1, 4)))
    total = sum(w for _, w in orders)
    rows = []
    for a, b in _pairs(n):
        p_a = Fraction(sum(w for rank, w in orders if rank[a] < rank[b]), total)
        rows.append([str(p_a), str(1 - p_a)])
    return rows


def _random_pairwise(rng: random.Random, n: int) -> list[list[str]]:
    """Random rational pairwise data with a forced 3-cycle (never rationalizable).

    Any mixture of linear orders has p(a>b) + p(b>c) + p(c>a) <= 2; the cycle
    sets all three above 3/4.
    """
    p = {}
    for a, b in _pairs(n):
        d = rng.randint(2, 9)
        p[(a, b)] = Fraction(rng.randint(0, d), d)
    a, b, c = sorted(rng.sample(range(n), 3))
    d = rng.randint(5, 9)
    high = lambda: Fraction(rng.randint(d - 1, d), d)  # noqa: E731  >= 4/5 > 3/4
    p[(a, b)] = high()       # a over b
    p[(b, c)] = high()       # b over c
    p[(a, c)] = 1 - high()   # c over a
    return [[str(p[pair]), str(1 - p[pair])] for pair in _pairs(n)]


def _pairwise_case(rng: random.Random, n: int, k: int | None) -> tuple[str, bool, None]:
    """Planted mixture of k orders, or random data when k is None."""
    universe = list(LABELS[:n])
    problems = [[universe[a], universe[b]] for a, b in _pairs(n)]
    probs = _random_pairwise(rng, n) if k is None else _planted_pairwise(rng, n, k)
    return _text(universe, problems, probs, "linear-orders", False), k is not None, None


# -- set-valued data -----------------------------------------------------------


def _random_weak_order(rng: random.Random, n: int, force_tie: bool) -> list[list[int]]:
    """Random ordered partition of range(n); with ``force_tie`` some class has >= 2."""
    while True:
        alts = list(range(n))
        rng.shuffle(alts)
        classes: list[list[int]] = []
        for alt in alts:
            if classes and rng.random() < 0.4:
                classes[-1].append(alt)
            else:
                classes.append([alt])
        if not force_tie or any(len(c) > 1 for c in classes):
            return classes


def _subset_key(universe: list[str], subset) -> str:
    return ",".join(universe[i] for i in sorted(subset))


def _planted_set_valued(
    rng: random.Random, n: int, problems: list[tuple[int, ...]], k: int
) -> list[dict[str, str]]:
    """Mixture of k weak orders, the first with a tie; maximizer sets per problem."""
    universe = list(LABELS[:n])
    orders = [
        (_random_weak_order(rng, n, force_tie=(j == 0)), rng.randint(1, 4))
        for j in range(k)
    ]
    total = sum(w for _, w in orders)
    rows = []
    for members in problems:
        acc: dict[str, int] = {}
        for classes, w in orders:
            for cls in classes:
                hit = set(cls) & set(members)
                if hit:
                    key = _subset_key(universe, hit)
                    acc[key] = acc.get(key, 0) + w
                    break
        rows.append({k: str(Fraction(v, total)) for k, v in sorted(acc.items())})
    return rows


def _random_set_valued(
    rng: random.Random, n: int, problems: list[tuple[int, ...]]
) -> list[dict[str, str]]:
    """Random subset maps with a common denominator; every problem puts mass
    on the empty set.

    No type of either family ever chooses the empty set, and the restricted
    query "subsets of the empty set" sees that mass, so both axioms fail. One
    denominator for all problems keeps the lifted LPs' integers small, as
    in planted data; per-problem denominators make the restricted LP's
    entries hundreds of bits long and its run time erratic.
    """
    universe = list(LABELS[:n])
    units = rng.randint(3, 6)
    rows = []
    for members in problems:
        subsets = [
            s for r in range(len(members) + 1) for s in combinations(members, r)
        ]
        weights = [1] + [0] * (len(subsets) - 1)  # the empty set
        for _ in range(units - 1):
            weights[rng.randrange(len(subsets))] += 1
        rows.append(
            {
                _subset_key(universe, s): str(Fraction(w, units))
                for s, w in zip(subsets, weights)
                if w
            }
        )
    return rows


def _all_problems(n: int) -> list[tuple[int, ...]]:
    return [s for r in range(2, n + 1) for s in combinations(range(n), r)]


def _set_valued_case(
    rng: random.Random, n: int, k: int | None, types: str
) -> tuple[str, bool, bool]:
    """Planted mixture of k weak orders, or random subset maps when k is None."""
    universe = list(LABELS[:n])
    problems = _all_problems(n)
    if k is None:
        probs = _random_set_valued(rng, n, problems)
    else:
        probs = _planted_set_valued(rng, n, problems, k)
    text = _text(universe, [[universe[i] for i in p] for p in problems], probs, types, True)
    planted = k is not None
    return text, planted and types == "weak-orders", planted


# -- workloads -----------------------------------------------------------------

# Each workload cycles through a fixed pattern of cases, and runs stop only
# at the end of a pass, so every run sees the pattern's mix exactly, and the
# first pass (the reference set) has the same verdict tally on every seed.
# The number of planted orders is fixed per position, not drawn: run time
# depends strongly on it, and drawing it would add that spread to every
# metric. The counts also set where the medians fall: each pattern puts its
# 50th percentile inside one kind of case, not on the border between a fast
# kind and a slow one.
#
# A pattern entry is (kind, (full size, smoke-test size), planted orders);
# None marks random data.

PATTERNS = {
    # Membership LP with types far outnumbering rows. Planted data runs the
    # LP to a feasible point, random data runs the certificate path. A
    # quarter of the cases are planted: planted run times spread over a
    # factor of ten, so the median is held by the random kind, which also
    # gives the most samples per run. The 7-alternative rung is random data
    # only.
    "orders-wide": (
        ("pairwise", (6, 4), 2),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), 3),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), 4),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), 5),
        ("pairwise", (6, 4), None),
        ("pairwise", (6, 4), None),
        ("pairwise", (7, 5), None),
    ),
    # All problems of size >= 2 over 4 alternatives, checked with the
    # restricted axiom. Under weak orders the membership LP has about as many
    # rows as types and the restricted LP one row per type (75); these two
    # kinds take ~80% of the time, so the cheap linear-order kinds hold the
    # medians.
    "lifted-restricted": (
        ("set-weak", (4, 3), 3),
        ("set-linear", (4, 3), 2),
        ("set-linear", (4, 3), None),
        ("set-weak", (4, 3), None),
        ("set-linear", (4, 3), 3),
        ("set-linear", (4, 3), None),
        ("set-linear", (4, 3), 4),
        ("set-linear", (4, 3), None),
    ),
    # Double description dominates; the LP barely runs. The 5-alternative
    # cases hold both medians: the op median (facet enumeration, the same
    # for all data on one type set) and the verify median (planted data
    # replays every essential sequence; random data stops at the first
    # violated one).
    "facets-dd": (
        ("pairwise", (5, 4), 2),
        ("pairwise", (4, 3), None),
        ("pairwise", (5, 4), 3),
        ("set-weak", (3, 2), 2),
        ("pairwise", (5, 4), 4),
        ("pairwise", (5, 4), None),
        ("pairwise", (5, 4), 2),
        ("set-weak", (3, 2), None),
        ("pairwise", (5, 4), 3),
        ("pairwise", (5, 4), 4),
    ),
}

# op_s_tail percentile per workload: the highest of 75, 90, 95, 99 that
# leaves at least ten operations beyond it in a run of the default length.
# It is fixed, not worked out per run, so that a faster commit, which fits
# more operations into a run, is compared at the same percentile.
TAIL_PERCENTILE = {"orders-wide": 75, "lifted-restricted": 75, "facets-dd": 90}

MAKERS = {
    "pairwise": _pairwise_case,
    "set-weak": lambda rng, n, k: _set_valued_case(rng, n, k, "weak-orders"),
    "set-linear": lambda rng, n, k: _set_valued_case(rng, n, k, "linear-orders"),
}


def stream(workload: str, seed: int, smoke: bool = False) -> Iterator[Case]:
    """Endless cases of one workload; case i depends only on (seed, i)."""
    pattern = PATTERNS[workload]
    index = 0
    while True:
        kind, sizes, k = pattern[index % len(pattern)]
        n = sizes[1] if smoke else sizes[0]
        rng = random.Random(f"{workload}:{seed}:{index}")
        data = "random" if k is None else f"planted{k}"
        yield Case(f"{kind}-{n}-{data}", *MAKERS[kind](rng, n, k))
        index += 1

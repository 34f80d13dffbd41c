"""Instance files, result reports, and exact re-verification.

Instances are JSON trees with explicit keys::

    {
      "universe":      ["a", "b", "c"],
      "problems":      [["a", "b"], ["a", "c"], ["b", "c"]],
      "probabilities": [["1", "0"], ["0", "1"], ["1", "0"]],
      "types":         "linear-orders",
      "set_valued":    false
    }

Probabilities are rational strings ("1/2" and "0.5" both parse to the exact
rational 1/2); JSON floats are rejected because they are not exact, and
exponent notation ("1e3") because its size is exponential in its length. For
set-valued instances each problem's probabilities form a map from subsets
(labels joined by commas, "" for the empty set) to rational strings, and
``types`` may also be "weak-orders". Explicit ``types`` rows are 0/1 vectors
over the instance's effective layout (the lifted one when set-valued).

Reports embed a digest of the canonicalized instance so that ``verify`` can
detect mismatched pairs, and serialize all rationals as "p/q" strings. Report
output is deterministic: identical instances and flags produce byte-identical
reports (wall-clock timing is emitted separately on stderr by the CLI).
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

from .certificate import CheckOutcome, decide, integerize, positivize
from .enumeration import (
    OrderTypes,
    check_linear_order_cap,
    check_weak_order_cap,
    correspondence_types_from_linear_orders,
    correspondence_types_from_weak_orders,
    types_from_explicit,
    types_from_linear_orders,
)
from .errors import CapExceeded, InstanceParseError, ValidationError
# lift_set_valued_data and max_over_types stay bound for perfbench/tracing.py,
# which wraps them here.
from .lifting import (
    LiftedLayout,
    RestrictedArsp,
    check_restricted_arsp,
    empty_set_trial,
    lift_layout,
    lift_set_valued_data,
    restricted_trials,
    singleton_choice_data,
    singleton_outcome,
    singleton_types,
)
from .model import (
    ChoiceProblem,
    ChoiceUniverse,
    IndexLayout,
    RationalTypeSet,
    StochasticChoiceVector,
    Trial,
    TypeFamily,
    arsp_check,
    build_layout,
    inner,
    make_type_vector,
    max_over_types,
    primitive_integers,
    problem_from_labels,
    type_bits,
    validate_pi,
    _show,
)

REPORT_FORMAT = "ruhull-report-v1"


def parse_rational(value: Any, location: str) -> Fraction:
    """Parse "3/10", "0.3" or an int to an exact rational.

    Floats are rejected because they are not exact, and exponent notation
    ("1e9") because its size is exponential in its length.
    """
    if isinstance(value, bool):
        raise InstanceParseError("expected a rational, got a boolean", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InstanceParseError(
            "floats are not exact; write the value as a string like \"3/10\"",
            location,
        )
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise InstanceParseError(
                f"malformed rational {value!r}: exponent notation is not "
                "accepted; write \"p/q\" or a plain decimal",
                location,
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(f"malformed rational {value!r}: {exc}", location)
    raise InstanceParseError(
        f"expected a rational string, got {type(value).__name__}", location
    )


@dataclass(frozen=True)
class Instance:
    """A parsed, validated instance with its effective layout and type set.

    For set-valued instances the effective data and types live on the lifted
    layout (``pi.layout`` is a ``LiftedLayout``); otherwise on the base
    layout. ``types`` is "linear-orders", "weak-orders" or the explicit type
    set; a keyword's types are enumerated on the first use of ``type_set``.
    ``digest`` is a sha256 over the canonicalized instance tree.
    """

    pi: StochasticChoiceVector
    types: str | RationalTypeSet
    digest: str

    @cached_property
    def type_set(self) -> RationalTypeSet:
        """The admissible types on the effective layout."""
        if isinstance(self.types, RationalTypeSet):
            return self.types
        if not self.set_valued:
            return types_from_linear_orders(self.layout)
        build = (
            correspondence_types_from_linear_orders
            if self.types == "linear-orders"
            else correspondence_types_from_weak_orders
        )
        return build(self.layout)

    @property
    def set_valued(self) -> bool:
        return isinstance(self.pi.layout, LiftedLayout)

    @property
    def layout(self) -> IndexLayout:
        return self.pi.layout


def _canonical_tree(
    universe: ChoiceUniverse,
    problems: Sequence[ChoiceProblem],
    set_valued: bool,
    probabilities_canon: Any,
    types_canon: Any,
) -> dict:
    return {
        "universe": list(universe.labels),
        "problems": [
            [universe.labels[m] for m in p.members] for p in problems
        ],
        "probabilities": probabilities_canon,
        "types": types_canon,
        "set_valued": set_valued,
    }


def _digest(tree: dict) -> str:
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _parse_labels(obj: Any, location: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise InstanceParseError("expected a list of label strings", location)
    return obj


def parse_json(text: str | bytes, source: str) -> Any:
    """The tree of a JSON document (bytes must be UTF-8), or InstanceParseError."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"invalid JSON: {exc.msg}", f"{source}:{exc.lineno}:{exc.colno}"
        )
    except ValueError as exc:  # not UTF-8, or an integer over the digit limit
        raise InstanceParseError(f"invalid JSON: {exc}", source)
    except RecursionError:
        raise InstanceParseError("invalid JSON: nested too deeply", source)


def parse_instance(text: str | bytes, source: str = "instance") -> Instance:
    """Parse and validate an instance from JSON text or bytes; errors carry positions."""
    return parse_instance_dict(parse_json(text, source), source)


def parse_instance_dict(obj: Any, source: str = "instance") -> Instance:
    if not isinstance(obj, dict):
        raise InstanceParseError("instance must be a JSON object", source)
    known = {"universe", "problems", "probabilities", "types", "set_valued"}
    for key in obj:
        if key not in known:
            raise InstanceParseError(f"unknown key {key!r}", source)
    for key in ("universe", "problems", "probabilities", "types"):
        if key not in obj:
            raise InstanceParseError(f"missing key {key!r}", source)

    set_valued = obj.get("set_valued", False)
    if not isinstance(set_valued, bool):
        raise InstanceParseError("must be true or false", f"{source}.set_valued")

    try:
        universe = ChoiceUniverse(tuple(_parse_labels(obj["universe"], f"{source}.universe")))
    except ValidationError as exc:
        raise InstanceParseError(str(exc), f"{source}.universe")
    if set_valued and any("," in lbl for lbl in universe.labels):
        raise InstanceParseError(
            "labels must not contain commas in set-valued instances "
            "(they key subset maps)",
            f"{source}.universe",
        )

    if not isinstance(obj["problems"], list) or not obj["problems"]:
        raise InstanceParseError("expected a nonempty list", f"{source}.problems")
    problems = []
    for j, raw in enumerate(obj["problems"]):
        loc = f"{source}.problems[{j}]"
        labels = _parse_labels(raw, loc)
        try:
            problems.append(problem_from_labels(universe, labels))
        except ValidationError as exc:
            raise InstanceParseError(str(exc), loc)
    problems = tuple(problems)

    raw_probs, where = obj["probabilities"], f"{source}.probabilities"
    if set_valued:
        pi, probs_canon = _parse_set_valued(raw_probs, where, lift_layout(universe, problems))
    else:
        pi, probs_canon = _parse_singleton(raw_probs, where, build_layout(universe, problems))
    types_canon, types = _parse_types(obj["types"], f"{source}.types", pi.layout)
    digest = _digest(
        _canonical_tree(universe, problems, set_valued, probs_canon, types_canon)
    )
    return Instance(pi, types, digest)


def _parse_singleton(
    raw_probs: Any, location: str, layout: IndexLayout
) -> tuple[StochasticChoiceVector, list[list[str]]]:
    problems = layout.problems
    if not isinstance(raw_probs, list) or len(raw_probs) != len(problems):
        raise InstanceParseError(
            f"expected one probability list per problem ({len(problems)})", location
        )
    values: list[Fraction] = []
    canon: list[list[str]] = []
    for j, row in enumerate(raw_probs):
        loc = f"{location}[{j}]"
        if not isinstance(row, list) or len(row) != problems[j].size:
            raise InstanceParseError(
                f"expected {problems[j].size} entries aligned with problem {j}", loc
            )
        parsed = [parse_rational(v, f"{loc}[{k}]") for k, v in enumerate(row)]
        values.extend(parsed)
        canon.append([str(v) for v in parsed])
    try:
        return validate_pi(values, layout), canon
    except ValidationError as exc:
        raise InstanceParseError(str(exc), location)


def _parse_set_valued(
    raw_probs: Any, location: str, lifted: LiftedLayout
) -> tuple[StochasticChoiceVector, list[dict[str, str]]]:
    labels, subsets = lifted.base_universe.labels, lifted.coordinate_subsets
    count = len(lifted.base_problems)
    if not isinstance(raw_probs, list) or len(raw_probs) != count:
        raise InstanceParseError(f"expected one subset map per problem ({count})", location)
    values = [Fraction(0)] * lifted.coordinate_count
    given: set[int] = set()
    canon: list[dict[str, str]] = []
    for j, mapping in enumerate(raw_probs):
        loc = f"{location}[{j}]"
        if not isinstance(mapping, dict):
            raise InstanceParseError(
                "set-valued instances map subsets to probabilities", loc
            )
        canon_row = {}
        for key, raw_value in mapping.items():
            key_loc = f"{loc}[{key!r}]"
            try:
                coord = lifted.coordinate_for_labels(j, key.split(",") if key else ())
            except ValidationError as exc:
                raise InstanceParseError(str(exc), key_loc)
            value = parse_rational(raw_value, key_loc)
            if coord in given:
                raise InstanceParseError("duplicate subset key", key_loc)
            given.add(coord)
            values[coord] = value
            if value != 0:
                canon_row[",".join(labels[i] for i in subsets[coord])] = str(value)
        canon.append(dict(sorted(canon_row.items())))
    try:
        return validate_pi(values, lifted), canon
    except ValidationError as exc:
        raise InstanceParseError(str(exc), location)


def _parse_types(
    raw: Any, location: str, layout: IndexLayout
) -> tuple[Any, str | RationalTypeSet]:
    """(canonical tree, ``Instance.types``); a keyword is checked against its
    enumeration cap here and enumerated only when ``type_set`` is first used."""
    lifted = isinstance(layout, LiftedLayout)
    size = (layout.base_universe if lifted else layout.universe).size
    if raw == "linear-orders":
        check_linear_order_cap(size)
        return raw, raw
    if raw == "weak-orders":
        if not lifted:
            raise InstanceParseError(
                '"weak-orders" types require a set-valued instance', location
            )
        check_weak_order_cap(size)
        return raw, raw
    if isinstance(raw, str):
        raise InstanceParseError(
            f'unknown types keyword {raw!r}; use "linear-orders", "weak-orders" '
            "or explicit 0/1 rows",
            location,
        )
    if not isinstance(raw, list) or not raw:
        raise InstanceParseError("expected a keyword or a nonempty list of rows", location)
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or not all(
            isinstance(b, int) and not isinstance(b, bool) and b in (0, 1) for b in row
        ):
            raise InstanceParseError("expected a row of 0/1 entries", f"{location}[{r}]")
        rows.append(row)
    try:
        type_set = types_from_explicit(rows, layout)
    except ValidationError as exc:
        raise InstanceParseError(str(exc), location)
    return [list(type_bits(t, layout)) for t in type_set.types], type_set


def load_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read(), source=path)


def lifted_view(instance: Instance) -> tuple[StochasticChoiceVector, RationalTypeSet]:
    """The instance re-expressed on the lifted layout (identity if set-valued)."""
    pi, types = _view(instance, True)
    return pi, types.types() if isinstance(types, OrderTypes) else types


def _view(instance: Instance, lifted: bool) -> tuple[StochasticChoiceVector, TypeFamily]:
    """The instance's data and types, on the lifted layout if ``lifted``.

    Set-valued data is already on the lifted layout and singleton data is
    carried onto its singletons. Linear and weak orders are an
    ``OrderTypes`` engine, which lists nothing; explicit rows are their
    listed set.
    """
    pi, types = instance.pi, instance.types
    if lifted and not instance.set_valued:
        layout = lift_layout(pi.layout.universe, pi.layout.problems)
        pi = singleton_choice_data(pi, layout)
        if not isinstance(types, str):
            types = singleton_types(types, layout)
    if isinstance(types, str):
        types = OrderTypes(pi.layout, ties=types == "weak-orders")
    return pi, types


@dataclass(frozen=True)
class ResultReport:
    """Outcome of one check: machine-verifiable, deterministically serialized."""

    instance: Instance
    layout: IndexLayout  # the layout the decision ran on (lifted when applicable)
    flags: dict
    outcome: CheckOutcome
    restricted: RestrictedArsp | None

    @property
    def restricted_holds(self) -> bool | None:
        return None if self.restricted is None else self.restricted.holds

    @property
    def lifted_used(self) -> bool:
        return self.instance.set_valued or self.flags["restricted_arsp"]

    @property
    def verdict(self) -> str:
        return "rationalizable" if self.outcome.rationalizable else "not-rationalizable"

    def to_structured(self) -> dict:
        out: dict[str, Any] = {
            "format": REPORT_FORMAT,
            "command": "check",
            "flags": dict(sorted(self.flags.items())),
            "instance_digest": self.instance.digest,
            "lifted": self.lifted_used,
            "verdict": self.verdict,
        }
        if self.outcome.mixture is not None:
            out["mixture"] = _mixture_tree(self.outcome.mixture.weights, self.layout)
        else:
            cert = self.outcome.certificate
            assert cert is not None
            out["certificate"] = {
                "separating": list(cert.separating.direction),
                "gap": str(cert.separating.gap),
                "positivized": [str(v) for v in cert.positivized],
                "integer_aggregate": list(cert.integer_aggregate),
                "trials": _trials_tree(cert.trials.trials, self.layout),
                "lhs": str(cert.lhs),
                "rhs": str(cert.rhs),
            }
        restricted = self.restricted
        if restricted is not None:
            out["restricted_arsp"] = {"holds": restricted.holds}
            if restricted.mixture:
                out["restricted_arsp"]["mixture"] = _mixture_tree(restricted.mixture, self.layout)
            if restricted.trials:
                trials, counts = zip(*restricted.trials)
                out["restricted_arsp"]["trials"] = [
                    {**tree, "count": k}
                    for tree, k in zip(_trials_tree(trials, self.layout), counts)
                ]
        return out

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"instance digest: {self.instance.digest}",
        ]
        if self.lifted_used:
            lines.append("layout: power-set lifted")
        if self.restricted_holds is not None:
            axiom = "holds" if self.restricted_holds else "violated"
            garsp = "holds" if self.outcome.rationalizable else "violated"
            lines.append(f"restricted axiom: {axiom}; GARSP: {garsp}")
        if self.outcome.mixture is not None:
            mix = self.outcome.mixture
            lines.append(f"mixture over {mix.support_size} type(s):")
            for t, w in mix.weights:
                lines.append(f"  weight {w} on {_describe_type(t, self.layout)}")
        else:
            cert = self.outcome.certificate
            assert cert is not None
            lines.append(f"separating vector: {list(cert.separating.direction)}")
            lines.append(f"gap: {cert.separating.gap}")
            lines.append(f"integer aggregate: {list(cert.integer_aggregate)}")
            n_trials = len(cert.trials)
            lines.append(f"trial sequence ({n_trials} trial{'s' if n_trials != 1 else ''}):")
            for trial_line in _describe_trials(cert.trials.trials, self.layout):
                lines.append(f"  {trial_line}")
            lines.append(f"lhs: {cert.lhs}")
            lines.append(f"rhs: {cert.rhs}")
        return "\n".join(lines) + "\n"


def _mixture_tree(weights, layout: IndexLayout) -> dict:
    return {
        "weights": [{"weight": str(w), "type": list(type_bits(t, layout))} for t, w in weights]
    }


def _describe_type(t, layout: IndexLayout) -> str:
    return " | ".join(layout.coordinate_labels[c] for c in t.chosen)


def _trials_tree(trials: Sequence[Trial], layout: IndexLayout) -> list[dict]:
    out = []
    for t in trials:
        out.append(
            {
                "problem": t.block + 1,
                "members": [layout.coordinate_labels[i] for i in t.coordinates],
                "coordinates": [i + 1 for i in t.coordinates],
            }
        )
    return out


def _describe_trials(trials: Sequence[Trial], layout: IndexLayout) -> list[str]:
    lines = []
    for t in trials:
        labels = [layout.coordinate_labels[i] for i in t.coordinates]
        lines.append(f"problem {t.block + 1} query {{{','.join(labels)}}}")
    return lines


def run_check(
    instance: Instance,
    mode: str = "compressed",
    restricted: bool = False,
) -> ResultReport:
    """Decide rationalizability end to end; optionally also the restricted axiom.

    The restricted axiom's report is on the lifted layout: singleton data is
    decided on its base layout and carried across, and set-valued data that
    fails the full axiom tries the empty-set trial before the restricted LP.

    Certificates always use the compressed decomposition, and reports keep
    ``"mode": "compressed"`` among their flags; ``mode`` accepts only that.
    """
    if mode != "compressed":
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    pi, family = _view(instance, False)
    outcome = decide(pi, family)
    axiom = None
    if restricted:
        axiom = _restricted_from_verdict(instance, outcome.rationalizable)
        if not instance.set_valued:
            # Singleton data: every type picks a singleton, so the base
            # decision carries across to the lifted layout.
            pi, family = _view(instance, True)
            outcome = singleton_outcome(outcome, pi, family)
        elif axiom is None:
            axiom = empty_set_trial(pi, family) or check_restricted_arsp(pi, family)
    return ResultReport(
        instance=instance,
        layout=pi.layout,
        flags={"mode": "compressed", "restricted_arsp": restricted},
        outcome=outcome,
        restricted=axiom,
    )


def _restricted_from_verdict(instance: Instance, rationalizable: bool) -> RestrictedArsp | None:
    """The restricted axiom's verdict when the full verdict witnesses it, else None.

    Rationalizable data satisfies it, since the full axiom implies it. On
    singleton data every query counts only singletons, so the restricted
    axiom is the full one. Only set-valued data that fails the full axiom
    needs the restricted LP and its own witness.
    """
    if rationalizable or not instance.set_valued:
        return RestrictedArsp(rationalizable)
    return None


def run_verify(instance: Instance, report: Any) -> tuple[bool, list[str]]:
    """Exactly re-validate a structured check report against an instance.

    Returns (verified, failure messages); a malformed report is a failure,
    never an exception. Every claim in the report is recomputed with exact
    arithmetic: digests, mixture reconstruction, certificate pipeline stages,
    and the strict violation itself. Integer fields must hold ints and
    rational fields strings or ints: a float or a boolean is rejected, never
    rounded or truncated.
    """
    if not isinstance(report, dict):
        return False, ["report is not a JSON object"]
    if report.get("format") != REPORT_FORMAT:
        return False, [f"unknown report format {_show(report.get('format'), repr)}"]
    if report.get("instance_digest") != instance.digest:
        return False, ["digest mismatch: report was produced from a different instance"]

    command = report.get("command")
    if command != "check":
        return False, [f"unknown report command {_show(command, repr)}"]
    flags = report.get("flags")
    restricted = flags.get("restricted_arsp") if isinstance(flags, dict) else None
    if not isinstance(restricted, bool):
        return False, ["the restricted_arsp flag is not a boolean"]
    if restricted != ("restricted_arsp" in report):
        return False, [
            "the restricted_arsp flag is set but the report has no restricted-axiom claim"
            if restricted
            else "the report has a restricted-axiom claim but its restricted_arsp flag is not set"
        ]
    lifted_used = report.get("lifted")
    if not isinstance(lifted_used, bool):
        return False, ["the lifted flag is not a boolean"]
    if not lifted_used and (instance.set_valued or restricted):
        needs = "set-valued data" if instance.set_valued else "the restricted axiom"
        return False, [f"the report is not on the lifted layout, which {needs} needs"]
    try:
        pi, types = _view(instance, lifted_used)
    except (CapExceeded, ValidationError) as exc:
        return False, [f"the report claims a lifted layout: {exc}"]

    verdict = report.get("verdict")
    if verdict == "rationalizable":
        failures = _verify_mixture(report.get("mixture"), pi, types)
    elif verdict == "not-rationalizable":
        failures = _verify_certificate(report.get("certificate"), pi, types)
    else:
        return False, [f"unknown verdict {_show(verdict, repr)}"]
    used = "mixture" if verdict == "rationalizable" else "certificate"
    failures += _unused_witnesses(report, ("mixture", "certificate"), used, f"a {verdict} report")

    if restricted:
        claim = report["restricted_arsp"]
        if not isinstance(claim, dict) or not isinstance(claim.get("holds"), bool):
            failures.append("restricted-axiom claim is not {\"holds\": true|false, ...}")
        else:
            holds = claim["holds"]
            by_verdict = _restricted_from_verdict(instance, verdict == "rationalizable")
            if by_verdict is None:
                failures += _verify_restricted_witness(claim, pi, types)
                used = "mixture" if holds else "trials"
                owner = f"a restricted-axiom claim that the axiom {'holds' if holds else 'fails'}"
            else:
                used, owner = None, "a restricted-axiom claim the full verdict decides"
                if by_verdict.holds != holds:
                    failures.append(
                        f"the verdict makes the restricted axiom hold={by_verdict.holds}, "
                        f"report claims {holds}"
                    )
            failures += _unused_witnesses(claim, ("mixture", "trials"), used, owner)
    return not failures, failures


def _unused_witnesses(
    tree: dict, fields: tuple[str, ...], used: str | None, owner: str
) -> list[str]:
    """A failure for each witness field of ``tree`` other than ``used``: a
    witness that nothing checks must not pass as checked."""
    return [
        f"{owner} carries {field!r}, a witness it does not use"
        for field in fields
        if field != used and field in tree
    ]


def _ints(value: Any) -> tuple[int, ...]:
    """The entries of a list of ints; raises ValueError for any other value."""
    if not isinstance(value, (list, tuple)) or any(type(v) is not int for v in value):
        raise ValueError("expected a list of integers")
    return tuple(value)


def _verify_mixture(mixture: Any, pi: StochasticChoiceVector, types: TypeFamily) -> list[str]:
    if not isinstance(mixture, dict) or not isinstance(
        mixture.get("weights"), (list, tuple)
    ):
        return ["rationalizable report lacks a mixture"]
    combined, failures = _mixture_total(mixture["weights"], pi.layout, types, "mixture")
    if tuple(combined) != tuple(pi.values):
        failures.append("mixture does not reconstruct the observed probabilities")
    return failures


def _mixture_total(
    weights: list | tuple, layout: IndexLayout, types: TypeFamily, name: str
) -> tuple[list[Fraction], list[str]]:
    """The weighted sum of a report's mixture entries, and the failures of the
    entries (admissible types, positive weights summing to 1)."""
    failures: list[str] = []
    total = Fraction(0)
    combined = [Fraction(0)] * layout.coordinate_count
    for k, item in enumerate(weights):
        if not isinstance(item, dict):
            failures.append(f"{name} entry {k}: not an object")
            continue
        try:
            weight = parse_rational(item["weight"], f"{name} entry {k}")
        except (KeyError, ValueError, ZeroDivisionError):
            failures.append(f"{name} entry {k}: malformed weight")
            continue
        try:
            typ = make_type_vector(_ints(item["type"]), layout)
        except (KeyError, ValueError):
            failures.append(f"{name} entry {k}: malformed type")
            continue
        if not types.admits(typ):
            failures.append(f"{name} entry {k}: type is not in the admissible set")
            continue
        if weight <= 0:
            failures.append(f"{name} entry {k}: weight {_show(weight)} is not positive")
        total += weight
        for i in typ.chosen:
            combined[i] += weight
    if total != 1:
        failures.append(f"{name} weights sum to {_show(total)}, not 1")
    return combined, failures


def _report_trial(item: Any, layout: IndexLayout) -> tuple[int, list[int]]:
    """The problem and coordinates of a report's trial object, 0-based;
    ValueError says what is wrong."""
    try:
        if not isinstance(item, dict) or type(item["problem"]) is not int:
            raise ValueError
        problem = item["problem"] - 1
        coords = [c - 1 for c in _ints(item["coordinates"])]
        members = list(map(str, item.get("members", ())))
    except (KeyError, ValueError, TypeError):
        raise ValueError("malformed") from None
    if not coords or min(coords) < 0 or max(coords) >= layout.coordinate_count:
        raise ValueError("coordinates out of range")
    if len(set(coords)) != len(coords):
        raise ValueError("a coordinate is repeated")
    if set(map(layout.coordinate_blocks.__getitem__, coords)) != {problem}:
        raise ValueError(f"support is not inside problem {_show(problem + 1)}")
    if members and members != list(map(layout.coordinate_labels.__getitem__, coords)):
        raise ValueError("member labels disagree with coordinates")
    return problem, coords


def _verify_restricted_witness(
    claim: dict, pi: StochasticChoiceVector, types: TypeFamily
) -> list[str]:
    """Check the witness of a restricted-axiom claim on set-valued data that
    fails the full axiom: a dominating mixture if it holds, a violating
    multiset of restricted trials if not. No LP: one pass over the restricted
    trials, or one best value."""
    if claim["holds"]:
        mixture = claim.get("mixture")
        weights = mixture.get("weights") if isinstance(mixture, dict) else None
        if not isinstance(weights, (list, tuple)):
            return ["restricted axiom claimed to hold without a mixture witness"]
        combined, failures = _mixture_total(weights, pi.layout, types, "restricted mixture")
        # The mixture's excess over the data, scaled to integers.
        excess = primitive_integers([m - p for m, p in zip(combined, pi.values)])
        for t in restricted_trials(pi.layout):
            if sum(map(excess.__getitem__, t.coordinates)) < 0:
                labels = ",".join(map(pi.layout.coordinate_labels.__getitem__, t.coordinates))
                failures.append(
                    f"restricted mixture collects {_show(inner(t, combined))} on problem "
                    f"{t.block + 1} query {{{labels}}}, below the data's {_show(inner(t, pi))}"
                )
                break
        return failures
    items = claim.get("trials")
    if not isinstance(items, (list, tuple)) or not items:
        return ["restricted axiom claimed to fail without a trial witness"]
    failures = []
    aggregate: dict[int, int] = defaultdict(int)
    for k, item in enumerate(items):
        try:
            _, coords = _report_trial(item, pi.layout)
            # Distinct subsets of the union of the queried subsets, all in one
            # block: they are all of its subsets iff there are 2^|union|.
            union = set().union(*map(pi.layout.coordinate_subsets.__getitem__, coords))
            if len(coords) != 1 << len(union):
                raise ValueError("does not query all the subsets of one set")
            count = item.get("count")
            if type(count) is not int or count <= 0:
                raise ValueError("count is not a positive integer")
        except ValueError as exc:
            failures.append(f"restricted trial {k}: {exc}")
            continue
        for c in coords:
            aggregate[c] += count
    if failures:
        return failures
    lhs, rhs, holds = arsp_check(aggregate, pi, types)
    if holds:
        failures.append(
            f"restricted trials collect {_show(lhs)}, not above the best type's {_show(rhs)}"
        )
    return failures


def _verify_certificate(cert: Any, pi: StochasticChoiceVector, types: TypeFamily) -> list[str]:
    if not isinstance(cert, dict):
        return ["non-rationalizable report lacks a certificate"]
    layout = pi.layout
    n = layout.coordinate_count
    try:
        separating = _ints(cert["separating"])
        claimed_gap = parse_rational(cert["gap"], "gap")
        if not isinstance(cert["positivized"], (list, tuple)):
            raise ValueError("positivized vector is not a list")
        claimed_pos = tuple(parse_rational(v, "positivized") for v in cert["positivized"])
        aggregate = _ints(cert["integer_aggregate"])
        lhs = parse_rational(cert["lhs"], "lhs")
        rhs = parse_rational(cert["rhs"], "rhs")
        trial_items = cert["trials"]
        if not isinstance(trial_items, (list, tuple)):
            raise ValueError("trials are not a list")
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed certificate: {exc}"]
    if len(separating) != n:
        return ["certificate separating vector has the wrong length"]

    failures: list[str] = []
    best = types.best(separating)[0]
    gap = inner(separating, pi.values) - best
    if gap != claimed_gap:
        failures.append(
            f"separating gap is {_show(gap)}, report claims {_show(claimed_gap)}"
        )
    if gap <= 0:
        failures.append("separating vector does not separate")
    positivized = positivize(separating)
    if positivized != claimed_pos:
        failures.append("positivized vector does not match the pipeline")
    pipeline = integerize(positivized) == aggregate
    if not pipeline:
        failures.append("integer aggregate does not match the pipeline")

    rebuilt = [0] * n
    for k, item in enumerate(trial_items):
        try:
            _, coords = _report_trial(item, layout)
        except ValueError as exc:
            failures.append(f"trial {k}: {exc}")
            continue
        for c in coords:
            rebuilt[c] += 1
    if tuple(rebuilt) != aggregate:
        failures.append("trials do not aggregate to the integer aggregate")
    if not any(rebuilt):
        failures.append("certificate contains no trials")
        return failures
    aggregate_best = None
    if pipeline and tuple(rebuilt) == aggregate:
        # The trials aggregate to k * (separating + shift) for some k > 0,
        # and every type picks one coordinate per problem, so their best
        # value follows from the separator's without a second search.
        shift = positivized[0] - separating[0]
        c = next(i for i, v in enumerate(positivized) if v)
        k = Fraction(aggregate[c]) / positivized[c]
        aggregate_best = k * (best + shift * layout.problem_count)
    check_lhs, check_rhs, holds = arsp_check(
        dict(enumerate(rebuilt)), pi, types, aggregate_best
    )
    if check_lhs != lhs:
        failures.append(f"lhs is {_show(check_lhs)}, report claims {_show(lhs)}")
    if check_rhs != rhs:
        failures.append(f"rhs is {_show(check_rhs)}, report claims {_show(rhs)}")
    if holds:
        failures.append("trial sequence does not strictly violate the axiom")
    return failures


def lifted_instance_tree(instance: Instance) -> dict:
    """The lifted instance as a plain (singleton-choice) instance tree."""
    pi, type_set = lifted_view(instance)
    layout = pi.layout
    probabilities = [
        [str(pi.values[i]) for i in layout.block_range(j)]
        for j in range(layout.problem_count)
    ]
    types = [list(type_bits(t, layout)) for t in type_set.types]
    return _canonical_tree(layout.universe, layout.problems, False, probabilities, types)

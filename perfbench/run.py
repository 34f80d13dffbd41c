"""Closed-loop benchmark of ruhull's check, verify and facets commands.

One client sends one operation at a time and checks every answer. Run from
the root of a source checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload orders-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload facets-dd --trace 1
    python3 perfbench/run.py --workload all     # every workload, both runs, all tables

Workloads (see ``workloads.py``): ``orders-wide`` (``check`` on pairwise data
over 6 and 7 alternatives), ``lifted-restricted`` (``check --restricted-arsp``
on set-valued data over 4 alternatives) and ``facets-dd`` (``facets``, the
facet oracle and the essential sequences).

An operation is what one user command does. For ``check``: parse the
instance JSON, decide, and serialize the structured report. For ``facets``:
parse, enumerate facets, apply the facet oracle to the data point, build the
essential sequences and serialize them. Each operation is followed by its
verification, timed separately: ``parse_instance`` plus ``run_verify`` on the
dumped report for ``check``; for ``facets``, ``parse_instance`` plus a replay
of the data against the dumped equations and essential sequences.

``--trace 0`` runs distinct cases for about ``--seconds``, in whole passes of
the workload's pattern, and prints the end-to-end metrics: ``setup_s``
(median time for a fresh interpreter to finish ``import ruhull``),
``ops_per_s`` (median over passes of operations completed per second spent
in operations),
``op_s_p50`` and ``verify_s_p50`` (median seconds of one operation and of its
verification) and ``peak_rss_mb``. The record also holds ``op_s_tail`` at the
workload's fixed percentile and ``fail_frac``, which the result line carries
as ``failed`` out of ``attempted``.

``--trace 1`` cycles the reference set (the first pass of the pattern) in
alternating untraced and traced passes and prints per-layer self times and
counts per operation (see ``tracing.py``), plus the tracing overhead: traced
against untraced ``ops_per_s`` on the same cases.

The correctness gate fails an operation when it raises (cap errors
included), when its verdict differs from the one its case was built to
have, when its report does not pass verification, or, on ``facets-dd``, when
the facet oracle, the exact LP and the essential-sequence replay disagree.
Each run also checks the verdict tally of the reference set against
``expected.json``.

Standard output ends with two JSON lines: a record (backend, Python version,
nproc, seed, sha256 of the reference set's reports, tallies, every metric)
that ``compare.py`` reads, then the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.PATTERNS)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 36
SETUP_STARTS = 9  # fresh interpreters per run; setup_s is their median


# -- operations ---------------------------------------------------------------


class Ops:
    """The user-level operations of one workload, with their checks.

    Library functions are looked up through their modules on every call, so
    the traced run sees them through its wrappers.
    """

    def __init__(self, workload: str, tracer=None):
        import ruhull.facets
        import ruhull.fileio
        import ruhull.membership
        import ruhull.model

        self.fileio = ruhull.fileio
        self.facets = ruhull.facets
        self.model = ruhull.model
        self.membership = ruhull.membership
        self.workload = workload
        self.restricted = workload == "lifted-restricted"
        self.tracer = tracer

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _root(self, name: str):
        return self.tracer.root(name) if self.tracer else nullcontext()

    def run(self, case) -> tuple[float, float, str, str, bool | None]:
        """One operation and its verification; raises AssertionError on a wrong answer.

        Returns (op seconds, verify seconds, report text, verdict, restricted).
        """
        if self.workload == "facets-dd":
            start = time.perf_counter()
            with self._root("bench.op"):
                report, inside = self._facets(case.text)
            mid = time.perf_counter()
            with self._root("bench.verify"):
                replayed = self._replay(case.text, report)
            end = time.perf_counter()
            inst = self.fileio.parse_instance(case.text)
            by_lp = isinstance(
                self.membership.test_membership(inst.pi, inst.type_set),
                self.membership.MixingDistribution,
            )
            _require(
                inside == by_lp == replayed,
                f"facet oracle says {inside}, LP says {by_lp}, replay says {replayed}",
            )
            restricted = None
        else:
            start = time.perf_counter()
            with self._root("bench.op"):
                report, inside, restricted = self._check(case.text)
            mid = time.perf_counter()
            with self._root("bench.verify"):
                ok, problems = self._verify(case.text, report)
            end = time.perf_counter()
            _require(ok, f"run_verify rejects the report: {problems}")
            if self.restricted:
                _require(
                    restricted == case.restricted,
                    f"restricted axiom {restricted}, built to be {case.restricted}",
                )
        _require(
            inside == case.rationalizable,
            f"rationalizable is {inside}, built to be {case.rationalizable}",
        )
        verdict = "rationalizable" if inside else "not-rationalizable"
        return mid - start, end - mid, report, verdict, restricted

    def _check(self, text: str) -> tuple[str, bool, bool | None]:
        fileio = self.fileio
        instance = fileio.parse_instance(text)
        result = fileio.run_check(instance, mode="compressed", restricted=self.restricted)
        with self._span("fileio.report"):
            report = json.dumps(result.to_structured(), indent=2, sort_keys=True) + "\n"
        return report, result.outcome.rationalizable, result.restricted_holds

    def _verify(self, text: str, report: str) -> tuple[bool, list[str]]:
        fileio = self.fileio
        instance = fileio.parse_instance(text)
        return fileio.run_verify(instance, json.loads(report))

    def _facets(self, text: str) -> tuple[str, bool]:
        fileio, facets = self.fileio, self.facets
        instance = fileio.parse_instance(text)
        hrep = facets.enumerate_facets(instance.type_set)
        inside = facets.facet_membership_oracle(instance.pi, hrep)
        sequences = facets.essential_sequences(hrep, instance.layout)
        with self._span("fileio.report"):
            tree = {
                "dimension": hrep.dimension,
                "equations": [
                    {"coefficients": list(e.coefficients), "constant": e.constant}
                    for e in hrep.equations
                ],
                "facets": [
                    {"normal": list(f.normal), "offset": f.offset} for f in hrep.facets
                ],
                "inside": inside,
                "essential_sequences": [list(s.aggregate) for s in sequences],
            }
            report = json.dumps(tree, indent=2, sort_keys=True) + "\n"
        return report, inside

    def _replay(self, text: str, report: str) -> bool:
        """Membership by the dumped equations and the essential sequences' axiom."""
        model = self.model
        instance = self.fileio.parse_instance(text)
        tree = json.loads(report)
        values = instance.pi.values
        for eq in tree["equations"]:
            if model.inner(eq["coefficients"], values) != eq["constant"]:
                return False
        for aggregate in tree["essential_sequences"]:
            best, _ = model.max_over_types(aggregate, instance.type_set)
            if model.inner(aggregate, values) > best:
                return False
        return True


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


class Tally:
    """Outcomes of a run: timings, failures, and the reference set's reports."""

    def __init__(self):
        self.op_s: list[float] = []
        self.verify_s: list[float] = []
        self.by_kind: dict[str, list[tuple[float, float]]] = {}
        self.busy: list[tuple[bool, float]] = []  # (succeeded, op seconds) per attempt
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[int, str] = {}
        self.verdicts: dict[str, int] = {}
        self.restricted: dict[str, int] = {}

    def run(self, ops: Ops, case, position: int | None) -> None:
        """Run one case; ``position`` is its index in the reference set, if any.

        The first result at a position is recorded and tallied; later results
        at the same position must repeat its report byte for byte.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            op_s, verify_s, report, verdict, restricted = ops.run(case)
            if position in self.reference:
                _require(
                    report == self.reference[position],
                    "report differs from the first run of the same instance",
                )
        except Exception as exc:  # every failure is counted, none is dropped
            self.busy.append((False, time.perf_counter() - start))
            self.failures.append(f"{case.kind}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        self.op_s.append(op_s)
        self.verify_s.append(verify_s)
        self.busy.append((True, op_s))
        self.by_kind.setdefault(case.kind, []).append((op_s, verify_s))
        if position is not None and position not in self.reference:
            self.reference[position] = report
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            if restricted is not None:
                key = "holds" if restricted else "violated"
                self.restricted[key] = self.restricted.get(key, 0) + 1

    def kinds(self) -> dict:
        """Per kind of case: count and median op and verify seconds."""
        return {
            kind: {
                "count": len(times),
                "op_s_p50": statistics.median(t[0] for t in times),
                "verify_s_p50": statistics.median(t[1] for t in times),
            }
            for kind, times in sorted(self.by_kind.items())
        }

    def reports_sha256(self) -> str:
        digest = hashlib.sha256()
        for position in sorted(self.reference):
            digest.update(self.reference[position].encode())
        return digest.hexdigest()

    def tallies(self) -> dict:
        out = {"verdicts": dict(sorted(self.verdicts.items()))}
        if self.restricted:
            out["restricted"] = dict(sorted(self.restricted.items()))
        return out


# -- runs ---------------------------------------------------------------------


class SetupProbe:
    """Times fresh interpreters finishing ``import ruhull``; setup_s is the median.

    Starts are spread over the run, between operations, so that one burst of
    load on the machine does not move them all.
    """

    def __init__(self, seconds: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.interval = seconds / SETUP_STARTS
        self.times: list[float] = []
        self._start()  # the first start writes the .pyc files; not counted
        self.due = time.perf_counter()

    def _start(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ruhull"], env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def maybe_sample(self) -> None:
        if len(self.times) < SETUP_STARTS and time.perf_counter() >= self.due:
            self.times.append(self._start())
            self.due += self.interval

    def median(self) -> float:
        while len(self.times) < SETUP_STARTS:
            self.times.append(self._start())
        return statistics.median(self.times)


def _more_passes(start: float, done: int, seconds: float) -> bool:
    """Whether one more step, as long as the ``done`` ones on average, ends
    closer to ``seconds`` than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def run_stream(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[Tally, float]:
    """Distinct cases back to back, in whole passes of the pattern, for ``seconds``.

    Stopping only at the end of a pass keeps each run's mix of cases exactly
    the pattern's, so a slow kind is never over- or under-represented.
    """
    ops = Ops(workload)
    size = len(workloads.PATTERNS[workload])
    probe = SetupProbe(seconds)
    tally = Tally()
    start = time.perf_counter()
    for index, case in enumerate(workloads.stream(workload, seed, smoke)):
        passes = index // size
        if index % size == 0 and passes and not _more_passes(start, passes, seconds):
            break
        tally.run(ops, case, index if index < size else None)
        probe.maybe_sample()
    return tally, probe.median()


def run_traced(workload: str, seed: int, seconds: float, smoke: bool):
    """Alternate untraced and traced passes over the reference set."""
    from itertools import islice

    from tracing import Tracer

    size = len(workloads.PATTERNS[workload])
    reference = list(islice(workloads.stream(workload, seed, smoke), size))
    tracer = Tracer()
    plain, traced = Ops(workload), Ops(workload, tracer)
    tally = Tally()
    split = {False: ([], []), True: ([], [])}  # traced? -> (op_s, verify_s)
    start = time.perf_counter()
    passes = 0
    while passes < 2 or passes % 2 or _more_passes(start, passes // 2, seconds):
        is_traced = passes % 2 == 1
        first = len(tally.op_s)
        if is_traced:
            tracer.install()
        try:
            for position, case in enumerate(reference):
                tally.run(traced if is_traced else plain, case, position)
        finally:
            if is_traced:
                tracer.uninstall()
        split[is_traced][0].extend(tally.op_s[first:])
        split[is_traced][1].extend(tally.verify_s[first:])
        passes += 1
    return tally, tracer, split


# -- metrics ------------------------------------------------------------------


def _percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def end_to_end(workload: str, tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, further figures for the record).

    ops_per_s is the median over the run's passes, each one copy of the
    workload's mix, of operations completed per second spent in operations:
    one pass that drew a rare slow case does not move it.
    """
    size = len(workloads.PATTERNS[workload])
    rates = []
    for first in range(0, len(tally.busy), size):
        chunk = tally.busy[first:first + size]
        rates.append(sum(ok for ok, _ in chunk) / sum(s for _, s in chunk))
    percentile = workloads.TAIL_PERCENTILE[workload]
    tail = _percentile(tally.op_s, percentile)
    beyond = sum(1 for v in tally.op_s if v > tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_s_p50": (statistics.median(tally.op_s), "s"),
        "verify_s_p50": (statistics.median(tally.verify_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_s_tail": tail,
        "op_s_tail_percentile": percentile,
        "op_s_tail_beyond": beyond,
        "fail_frac": len(tally.failures) / tally.attempted,
        "ops_completed": len(tally.op_s),
    }
    return metrics, extra


def per_layer(tracer, split) -> tuple[dict, dict]:
    from tracing import ROOT_SPANS, SPANS

    traced_op_s, traced_verify_s = split[True]
    plain_op_s, _ = split[False]
    n = len(traced_op_s)
    metrics = {}
    for name in list(SPANS) + ["fileio.report"]:
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / n, "s/op")
    for name in ("exactlp.solve", "model.max_over_types"):
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / n, "count/op")
    for key in (
        "exactlp.pivots",
        "exactlp.cells",
        "model.max_over_types.types_scanned",
        "enumeration.types.count",
        "certificate.trials.count",
        "facets.facets.count",
        "kernels.bareiss_row.calls",
        "kernels.best_support.calls",
    ):
        metrics[key] = (tracer.counts.get(key, 0) / n, "count/op")
    metrics["exactlp.pivot_bits_max"] = (tracer.pivot_bits_max, "bits")
    unattributed = sum(tracer.self_s.get(r, 0.0) for r in ROOT_SPANS)
    metrics["unattributed.self_s"] = (unattributed / n, "s/op")
    traced_s = (sum(traced_op_s) + sum(traced_verify_s)) / n
    metrics["traced.op_s"] = (traced_s, "s/op")
    traced_rate = n / sum(traced_op_s)
    plain_rate = len(plain_op_s) / sum(plain_op_s)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["untraced.ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1, "ratio")
    spans_s = sum(tracer.self_s.values()) / n
    extra = {"span_self_s_sum": spans_s, "traced_ops": n, "untraced_ops": len(plain_op_s)}
    return metrics, extra


# -- output -------------------------------------------------------------------


def _environment(seed: int) -> dict:
    import ruhull
    from ruhull import _kernels

    digest = hashlib.sha256()
    package = Path(ruhull.__file__).resolve().parent
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "source_sha256": digest.hexdigest(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:>16.6g} {unit}")


def run_one(args) -> int:
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    if args.trace:
        tally, tracer, split = run_traced(args.workload, args.seed, args.seconds, args.smoke)
        measured = split[True][0] and split[False][0]
    else:
        tally, setup_s = run_stream(args.workload, args.seed, args.seconds, args.smoke)
        measured = tally.op_s
    if not measured:  # every operation failed: nothing to measure
        for failure in tally.failures:
            print(f"FAILED {failure}")
        result = {"correct": False, "attempted": tally.attempted, "failed": len(tally.failures)}
        print(json.dumps({**result, "metrics": {}}))
        return 1
    if args.trace:
        metrics, extra = per_layer(tracer, split)
        _print_table(f"{args.workload}: per-layer, per operation (traced run)", metrics)
        print(
            f"  spans' self times sum to {extra['span_self_s_sum']:.6g} s/op of "
            f"{metrics['traced.op_s'][0]:.6g} s/op traced"
        )
    else:
        metrics, extra = end_to_end(args.workload, tally, setup_s)
        _print_table(f"{args.workload}: end to end", metrics)
        print(
            f"  op_s_tail {extra['op_s_tail']:.6g} s is the p{extra['op_s_tail_percentile']} of "
            f"{extra['ops_completed']} operations ({extra['op_s_tail_beyond']} beyond it); "
            f"fail_frac {extra['fail_frac']:.6g}"
        )
        for kind, row in tally.kinds().items():
            print(
                f"  {kind:28} {row['count']:4d} ops, op_s p50 {row['op_s_p50']:.4g} s, "
                f"verify_s p50 {row['verify_s_p50']:.4g} s"
            )
    tallies = tally.tallies()
    errors = list(tally.failures)
    if tallies != expected:
        errors.append(f"verdict tally {tallies} differs from expected.json {expected}")
    for error in errors:
        print(f"FAILED {error}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        **_environment(args.seed),
        "reports_sha256": tally.reports_sha256(),
        "tallies": tallies,
        "kinds": tally.kinds(),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process; all tables."""
    records = {}
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            record = next(
                (json.loads(l)["record"] for l in lines if l.startswith('{"record"')), None
            )
            if done.returncode != 0 or record is None:
                print(f"{workload} --trace {trace}: exited {done.returncode}")
                ok = False
                continue
            records[workload, trace] = record
    env = next(iter(records.values()), {})
    print(
        f"backend {env.get('backend')}, Python {env.get('python')}, "
        f"nproc {env.get('nproc')}, seed {args.seed}, {args.seconds} s per run"
    )
    summary = {"correct": ok, "attempted": 0, "failed": 0, "metrics": {}}
    for trace, title in ((0, "end to end"), (1, "per layer, per operation (traced run)")):
        present = [w for w in WORKLOADS if (w, trace) in records]
        if not present:
            continue
        print(f"\n{title}")
        print(f"  {'metric':40} {'unit':9}" + "".join(f"{w:>19}" for w in present))
        names = records[present[0], trace]["metrics"]
        for name in names:
            unit = names[name]["unit"]
            cells = "".join(
                f"{records[w, trace]['metrics'][name]['value']:>19.6g}" for w in present
            )
            print(f"  {name:40} {unit:9}{cells}")
        for w in present:
            record = records[w, trace]
            summary["correct"] &= not record["failures"]
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
            for name, value in record["metrics"].items():
                summary["metrics"][f"{w}.{name}"] = value
    for w in WORKLOADS:
        if (w, 0) in records:
            r = records[w, 0]
            print(
                f"  {w}: op_s_tail {r['op_s_tail']:.6g} s at p{r['op_s_tail_percentile']}, "
                f"fail_frac {r['fail_frac']:.6g}, reports sha256 {r['reports_sha256'][:16]}"
            )
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest instance sizes (for tests)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "ruhull" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ruhull

    if SRC.resolve() not in Path(ruhull.__file__).resolve().parents:
        print(f"error: imported ruhull from {ruhull.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

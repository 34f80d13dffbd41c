"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``run.py`` runs; the
``{"record": ...}`` lines are read from it. Records are grouped by workload.
For every end-to-end metric in BENCHMARK.json the medians of the two sides
are compared against the metric's bound.

Results from different kernel backends are never compared: the command
refuses (exit code 2). Report hashes must match between runs of the same
source and seed (exit code 2 if not); across different sources they are only
reported, since a change may legitimately return another Farkas vector.
Exit code 1 means some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_records(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def check_hashes(records: list[dict]) -> list[str]:
    """Runs of one source and seed must agree on the reference reports."""
    seen: dict[tuple, str] = {}
    problems = []
    for r in records:
        key = (r["workload"], r["source_sha256"], r["seed"], r["smoke"])
        if seen.setdefault(key, r["reports_sha256"]) != r["reports_sha256"]:
            problems.append(f"{r['workload']} seed {r['seed']}: report hashes differ")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = read_records(argv[0]), read_records(argv[1])
    backends = {r["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}")
        return 2
    problems = check_hashes(base + new)
    for p in problems:
        print(f"ERROR {p}")

    worse = False
    for workload in sorted({r["workload"] for r in base + new if r["trace"] == 0}):
        sides = [[r for r in rs if r["workload"] == workload and r["trace"] == 0] for rs in (base, new)]
        if not all(sides):
            print(f"{workload}: missing on one side")
            continue
        print(f"{workload} ({len(sides[0])} vs {len(sides[1])} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (statistics.median(r["metrics"][name]["value"] for r in s) for s in sides)
            change = (b - a) / a
            regressed = change > bound if metric["better"] == "lower" else -change > bound
            worse |= regressed
            flag = "WORSE" if regressed else ""
            print(f"  {name:14} {a:12.6g} -> {b:12.6g} {metric['unit']:4} {change:+8.2%} "
                  f"(bound {bound:.0%}) {flag}")
        hashes = [{r["seed"]: r["reports_sha256"] for r in s} for s in sides]
        for seed in sorted(hashes[0].keys() & hashes[1].keys()):
            same = hashes[0][seed] == hashes[1][seed]
            print(f"  seed {seed} report hash: {'same' if same else 'different (reported only)'}")
    if problems:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Summarize benchmark results, or compare two sets of them.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the result records that run.py leaves in
perfbench/.work/results/ (one JSON file per run).  For every workload and
end-to-end metric this prints the median of the runs and the spread
(distance between the first and third quartile, as a share of the median).
Given two directories it also prints the change of the median and whether it
stays within the metric's bound from BENCHMARK.json.  Results made on a
different backend (numba against the numpy fallback), a different core
count or a different run length are refused: their timings are not
comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"error: no result records in {directory}")
    return records


def check_comparable(records: list[dict]) -> None:
    for key in ("backend", "nproc", "run_seconds"):
        seen = {r["provenance"].get(key) for r in records}
        if len(seen) > 1:
            raise SystemExit(f"error: refusing to compare results with different {key}: {seen}")


def summarize(records: list[dict], metric: str, workload: str):
    values = [
        r["metrics"][metric]["value"]
        for r in records
        if r["provenance"]["workload"] == workload and r["trace"] == 0
    ]
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med, len(values)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    check_comparable([r for s in sets for r in s])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in config["workloads"]:
        for m in config["end_to_end"]:
            stats = [summarize(s, m["name"], w["name"]) for s in sets]
            if stats[0] is None:
                continue
            line = f"{w['name']:12s} {m['name']:16s}"
            for med, spread, count in filter(None, stats):
                line += f"  median {med:11.5g} {m['unit']:4s} spread {spread:6.3f} (n={count})"
            if len(stats) == 2 and stats[1] is not None:
                base, change = stats[0][0], stats[1][0]
                worse = (change - base) / base if m["better"] == "lower" else (base - change) / base
                verdict = "ok" if worse <= m["bound"] else "REGRESSION"
                if max(stats[0][1], stats[1][1]) > m["bound"]:
                    verdict += " (unresolved: spread above bound)"
                ok &= worse <= m["bound"]
                line += f"  worse by {worse:+.3f} (bound {m['bound']}) {verdict}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

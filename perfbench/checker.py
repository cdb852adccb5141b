"""Output checks: parse what each scheme produced, compare every decision
with the reference answer, and count matches, wrong answers and errors.

A decision is one scheme at one decision time.  Its verdict is
  "match": in the stopping set and agreeing with the reference,
  "wrong": in the stopping set and disagreeing,
  "out":   outside the stopping set (the scheme abstained),
  "error": the call that should have produced it raised or exited non-zero.
A memory-length decision agrees when the estimate equals the reference
memory length; a conditional-probability decision agrees when every emitted
symbol's estimate is within COND_TOL of the reference law.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from memlen import Sample, write_sample
from workloads import Reference

COND_TOL = 0.02
MEMORY_HEADER = ["n", "in_set", "estimate", "oracle", "match", "theta", "kappa", "ms"]
CONDPROB_HEADER = ["n", "in_set", "symbol", "estimate", "oracle", "match", "theta", "kappa", "ms"]


class MalformedOutput(Exception):
    """A scheme's output breaks its own format."""


@dataclass(frozen=True)
class Decision:
    scheme: str
    n: int
    in_set: bool
    memory: int | None = None  # memory-length schemes
    law: tuple[tuple[int, float], ...] | None = None  # condprob schemes
    theta: int | None = None


def read_cli_output(scheme: str, out_dir: Path, checkpoints: list[int]) -> list[Decision]:
    """Decisions from one `memlen estimate` run, one per checkpoint, with the
    format checked (header, one decision per checkpoint, values in range)."""
    with open(out_dir / "estimate_000.csv", newline="") as f:
        rows = list(csv.reader(f))
    condprob = scheme.startswith("condprob")
    header = CONDPROB_HEADER if condprob else MEMORY_HEADER
    if not rows or rows[0] != header:
        raise MalformedOutput(f"{scheme}: unexpected header {rows[:1]}")
    by_n: dict[int, list[list[str]]] = {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise MalformedOutput(f"{scheme}: row of {len(row)} fields")
        by_n.setdefault(int(row[0]), []).append(row)
    if sorted(by_n) != sorted(checkpoints):
        raise MalformedOutput(f"{scheme}: decisions at {sorted(by_n)}, asked {checkpoints}")
    out = []
    for n in checkpoints:
        group = by_n[n]
        in_set = group[0][1] == "1"
        if any(r[1] != group[0][1] for r in group) or group[0][1] not in ("0", "1"):
            raise MalformedOutput(f"{scheme}@{n}: inconsistent in_set")
        theta = int(group[0][-3]) if group[0][-3] != "" else None
        if not condprob:
            if len(group) != 1:
                raise MalformedOutput(f"{scheme}@{n}: {len(group)} rows")
            memory = int(group[0][2]) if in_set else None
            if in_set and not 0 <= memory <= n:
                raise MalformedOutput(f"{scheme}@{n}: memory length {memory}")
            out.append(Decision(scheme, n, in_set, memory=memory, theta=theta))
            continue
        law = None
        if in_set and group[0][2] != "":
            law = tuple((int(r[2]), float(r[3])) for r in group)
            probs = [q for _, q in law]
            if min(probs) < 0 or max(probs) > 1 or sum(probs) > 1 + 1e-5:
                raise MalformedOutput(f"{scheme}@{n}: law {law}")
        out.append(Decision(scheme, n, in_set and law is not None, law=law, theta=theta))
    return out


def verdict(decision: Decision | None, ref) -> str:
    """Verdict of one decision against its reference; None means the call
    that should have produced the decision failed."""
    if decision is None:
        return "error"
    if not decision.in_set:
        return "out"
    if decision.law is not None:
        ok = all(abs(q - ref.law.get(x, 0.0)) <= COND_TOL for x, q in decision.law)
    else:
        ok = decision.memory == ref.memory
    return "match" if ok else "wrong"


def rates(verdicts: list[str]) -> dict[str, float]:
    """match_rate, wrong_rate and error_rate as shares of all decisions."""
    c = Counter(verdicts)
    total = max(len(verdicts), 1)
    return {
        "match_rate": c["match"] / total,
        "wrong_rate": c["wrong"] / total,
        "error_rate": c["error"] / total,
    }


def self_test(run_plugin_r, tmp: Path) -> list[str]:
    """Feed the checker a deliberately wrong estimate and a raising
    estimator; return the problems found (empty when the checker counts the
    first as wrong and the second as an error)."""
    problems = []
    ref = Reference(10, 2, {0: 0.5, 1: 0.5})
    cases = [
        (Decision("backward", 10, True, memory=2), "match"),
        (Decision("backward", 10, True, memory=3), "wrong"),
        (Decision("forward-p", 10, False), "out"),
        (Decision("condprob-fm", 10, True, law=((0, 0.51), (1, 0.49))), "match"),
        (Decision("condprob-fm", 10, True, law=((0, 0.55), (1, 0.45))), "wrong"),
        (Decision("condprob-fm", 10, True, law=((0, 0.5), (2, 0.03))), "wrong"),
    ]
    for dec, want in cases:
        got = verdict(dec, ref)
        if got != want:
            problems.append(f"{dec} judged {got}, expected {want}")

    def raising_estimator(arr):
        raise RuntimeError("deliberate failure")

    path = tmp / "selftest.bin"
    rng = np.random.default_rng(0)
    write_sample(path, Sample.forward(rng.integers(0, 2, size=201)), fmt="bin")
    _, decisions = run_plugin_r(path, [100, 200], raising_estimator, quiet=True)
    got = rates([verdict(d, ref) for d in decisions])
    if got["error_rate"] != 1.0:
        problems.append(f"raising estimator gave {got}, expected error_rate 1")
    mixed = rates(["match", "wrong", "out", "error"])
    if mixed != {"match_rate": 0.25, "wrong_rate": 0.25, "error_rate": 0.25}:
        problems.append(f"rates miscounted: {mixed}")
    return problems

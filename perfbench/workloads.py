"""Benchmark workloads: the sample each one generates from its seed, its
decision times, the schemes it runs, and the reference answers its outputs
are checked against.

The program under test only ever sees the generated binary sample file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from memlen import (
    UNBOUNDED,
    GeometricJumpChain,
    Word,
    generate,
    oracle_memory,
    parity_chain,
    write_sample,
)

CLI_SCHEMES = ("backward", "forward-p", "condprob-fm", "condprob-markov", "forward-r")
# scheme R driven directly with the benchmark's structural parity estimator
PLUGIN_R = "forward-r-plugin"


@dataclass(frozen=True)
class Spec:
    name: str
    model: str  # "parity" or "jump"
    n: int
    grid: tuple[int, ...]
    # parity only: the memory length each grid time is moved to (see
    # decision_times); None keeps the grid as it is
    memory_profile: tuple[int, ...] | None
    schemes: tuple[str, ...]
    # scheme R with the structural estimator runs in the traced run only:
    # its recurrence scans cost 0.5 to 5 s per decision depending on the
    # seed, too uneven to time against a bound
    plugin_r: bool = False


# Parity decision times are moved back from each grid point to the latest
# time whose realized past has a fixed memory length.  The backward sweep
# tests suffixes up to the estimated memory length, so its cost grows with
# that length; pinning the lengths keeps the work of a run the same from
# seed to seed.
WORKLOADS = {
    "parity-grid": Spec(
        "parity-grid",
        "parity",
        100_000,
        (10_000, 40_000, 70_000, 100_000),
        (3, 1, 4, 2),
        CLI_SCHEMES,
        plugin_r=True,
    ),
    "parity-deep": Spec(
        "parity-deep", "parity", 300_000, (300_000,), (3,), ("backward", "forward-p")
    ),
    "jump-wide": Spec(
        "jump-wide",
        "jump",
        1_000_000,
        (1_000_000,),
        None,
        ("backward", "forward-p", "condprob-markov"),
    ),
}

# The same workloads at small n, for the benchmark's own test.
SMOKE = {
    "parity-grid": replace(
        WORKLOADS["parity-grid"], n=20_000, grid=(5_000, 20_000), memory_profile=(3, 1)
    ),
    "parity-deep": replace(WORKLOADS["parity-deep"], n=50_000, grid=(50_000,)),
    "jump-wide": replace(WORKLOADS["jump-wide"], n=50_000, grid=(50_000,)),
}


@dataclass(frozen=True)
class Reference:
    """What the model says at one decision time: the memory length of the
    realized past and the law of the next symbol."""

    n: int
    memory: int
    law: dict[int, float]


@dataclass
class Inputs:
    path: Path
    checkpoints: list[int]
    refs: dict[int, Reference]
    generate_s: float
    reference_s: float


def structural_parity_estimator(arr: np.ndarray) -> int:
    """Backward estimator that knows the parity chain: the memory is one more
    than the number of trailing zeros; with no one visible the whole window
    is the certificate."""
    ones = np.flatnonzero(arr == 1)
    if len(ones) == 0:
        return len(arr)
    return len(arr) - int(ones[-1])


def _parity_time(data: np.ndarray, g: int, memory: int) -> int:
    """Latest t <= g whose past ends in a one followed by memory-1 zeros."""
    for t in range(g, memory - 2, -1):
        if data[t - memory + 1] == 1 and not data[t - memory + 2 : t + 1].any():
            return t
    raise ValueError(f"no past with memory {memory} before time {g}")


def decision_times(spec: Spec, data: np.ndarray) -> list[int]:
    if spec.memory_profile is None:
        return list(spec.grid)
    return [_parity_time(data, g, m) for g, m in zip(spec.grid, spec.memory_profile)]


def _parity_reference(model, data: np.ndarray, n: int) -> Reference:
    """Exact memory length and law, certified on a window of the past that
    widens until a certificate appears."""
    win = 64
    while True:
        past = Word.of(data[max(0, n + 1 - win) : n + 1])
        ans = oracle_memory(model, past)
        if ans.memory_length is not UNBOUNDED or win > n:
            break
        win *= 4
    if ans.memory_length is UNBOUNDED:
        raise ValueError(f"no certified memory length at time {n}")
    return Reference(n, int(ans.memory_length), ans.law_float())


def _jump_reference(data: np.ndarray, n: int) -> Reference:
    # The jump chain is first order and every row differs from the
    # stationary law (P(0) is 1/2 from state 0 and 1/4 from any other,
    # against 1/3), so the memory length is 1 after every past.
    return Reference(n, 1, GeometricJumpChain().row(int(data[n])))


def make_inputs(spec: Spec, seed: int, workdir: Path) -> Inputs:
    """Generate the sample, write it where the program reads it, and compute
    the reference answers at every decision time."""
    model = parity_chain() if spec.model == "parity" else GeometricJumpChain()
    t0 = time.perf_counter()
    sample = generate(model, spec.n, seed=seed)
    generate_s = time.perf_counter() - t0
    path = workdir / f"{spec.name}.bin"
    write_sample(path, sample, fmt="bin")
    data = sample.symbols
    t0 = time.perf_counter()
    checkpoints = decision_times(spec, data)
    if spec.model == "parity":
        refs = {n: _parity_reference(model, data, n) for n in checkpoints}
    else:
        refs = {n: _jump_reference(data, n) for n in checkpoints}
    reference_s = time.perf_counter() - t0
    return Inputs(path, checkpoints, refs, generate_s, reference_s)

"""Conditional-probability estimation at stopping times, the Markov-order
variant, and the block-recurrence machinery behind both.

The core estimate is the transition/context count ratio of the current
suffix whose length a memory estimator supplies.  The recurrence-time view
of the same counts (successors harvested at the backward recurrences of the
suffix block) underlies the consistency argument and is exposed for testing:
successors at recurrences of a memory word are conditionally i.i.d. with the
word's conditional law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .backward import discrepancy_by_length
from .counting import CountIndex
from .errors import InsufficientRecurrencesError, OutOfRangeError, UndefinedConditionalError
from .forward import forward_index
from .sequence import EstimatorParams, Sample, Word, suffix


@dataclass(frozen=True)
class RecurrenceTimes:
    """Recurrence offsets of the length-k block ending at ``center``.

    Both offset lists start with the 0 entry for the block itself and are
    strictly increasing; entry m marks a position where the block recurs.
    """

    center: int
    word_length: int
    forward_offsets: tuple[int, ...] = (0,)
    backward_offsets: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class CondProbEstimate:
    time: int
    symbol: int
    qhat: float
    support_count: int
    method: str  # "FM" | "MARKOV"

    def __post_init__(self):
        if not (0.0 <= self.qhat <= 1.0) or self.support_count <= 0:
            raise ValueError("estimate must be a ratio over a positive support count")


def backward_recurrences(sample: Sample, center: int, k: int, count: int) -> RecurrenceTimes:
    """First ``count`` backward recurrence offsets of the length-k block
    ending at ``center``; the list is shorter when the data run out.  The
    empty block ends down to -1, so its offsets are 1..center+1."""
    _check_block(sample, center, k, count)
    block = sample.symbols[center - k + 1 : center + 1]
    pos = _kernels.occurrence_positions(sample.symbols, block, k - 1, center - 1)
    offs = center - pos[::-1][:count]
    return RecurrenceTimes(
        center=center,
        word_length=k,
        backward_offsets=(0,) + tuple(int(t) for t in offs),
    )


def forward_recurrences(sample: Sample, center: int, k: int, count: int) -> RecurrenceTimes:
    """First ``count`` forward recurrence offsets of the same block."""
    _check_block(sample, center, k, count)
    block = sample.symbols[center - k + 1 : center + 1]
    pos = _kernels.occurrence_positions(sample.symbols, block, center + 1, sample.n)
    offs = pos[:count] - center
    return RecurrenceTimes(
        center=center,
        word_length=k,
        forward_offsets=(0,) + tuple(int(t) for t in offs),
    )


def _check_block(sample: Sample, center: int, k: int, count: int) -> None:
    if sample.orientation != "forward":
        raise ValueError("recurrence times are defined over forward samples")
    if k < 0 or center - k + 1 < 0 or center > sample.n:
        raise OutOfRangeError(f"length-{k} block ending at {center} does not fit the sample")
    if count < 0:
        raise ValueError("recurrence count must be >= 0")


def _successors(sample: Sample, k: int) -> np.ndarray:
    """Symbols that follow the earlier occurrences of the current length-k
    suffix, one per earlier end; the empty suffix ends at -1..n-1, so its
    successors are the whole sample, X_0 included."""
    if sample.orientation != "forward":
        raise ValueError("conditional-probability estimation reads a forward sample")
    n = sample.n
    data = sample.symbols
    if k < 0 or k > n:
        raise OutOfRangeError(f"memory length {k} outside sample")
    pos = _kernels.occurrence_positions(data, suffix(sample, k).as_array(), k - 1, n - 1)
    return data[pos + 1]


def estimate_successor_law(
    sample: Sample, memory_length: int, method: str = "FM"
) -> dict[int, CondProbEstimate]:
    """Estimates for every observed successor of the current suffix of the
    given length, from one scan for the suffix; empty when the suffix never
    occurs earlier."""
    succ = _successors(sample, memory_length)
    symbols, counts = np.unique(succ, return_counts=True)
    return {
        int(x): CondProbEstimate(
            time=sample.n,
            symbol=int(x),
            qhat=int(c) / len(succ),
            support_count=len(succ),
            method=method,
        )
        for x, c in zip(symbols, counts)
    }


def estimate_cond_prob(sample: Sample, memory_length: int, x: int) -> CondProbEstimate:
    """Ratio of transition to context counts of the current suffix of the
    given length within the sample.

    With memory length 0 the context is empty and every position counts, so
    the estimate is the empirical frequency of ``x`` over the whole sample.
    """
    succ = _successors(sample, memory_length)
    if len(succ) == 0:
        raise UndefinedConditionalError("the current suffix never occurs earlier")
    num = int(np.count_nonzero(succ == x))
    return CondProbEstimate(
        time=sample.n, symbol=x, qhat=num / len(succ), support_count=len(succ), method="FM"
    )


def cond_prob_from_recurrences(sample: Sample, n: int, order: int, j: int, x: int) -> float:
    """Average of successor indicators over the ``j`` most recent backward
    recurrences of the length-``order`` block ending at ``n``."""
    if n > sample.n:
        raise OutOfRangeError(f"time {n} beyond sample end")
    prefix = Sample.forward(sample.symbols[: n + 1])
    rt = backward_recurrences(prefix, n, order, j)
    offs = rt.backward_offsets[1:]
    if len(offs) < j:
        raise InsufficientRecurrencesError(
            f"only {len(offs)} recurrences available, {j} requested"
        )
    hits = sum(1 for t in offs if sample.symbols[n - t + 1] == x)
    return hits / j


def estimate_markov_order(
    sample: Sample, params: EstimatorParams, index: CountIndex | None = None
) -> int:
    """Smallest k such that every frequent length-k context passes the
    memory-word test; at most l_max + 1, where no block is frequent and the
    test passes vacuously.

    Consistent for finite-order chains: below the true order some frequent
    context eventually fails, at the true order all pass.  Stands in for any
    almost-surely convergent order estimator.
    """
    if sample.orientation != "forward":
        raise ValueError("order estimation reads a forward sample")
    n = sample.n
    if index is None:
        index = forward_index(sample)
    elif index.n != n:
        raise OutOfRangeError("supplied index does not cover exactly X_0..X_n")
    thr = params.test_threshold(n)
    l_max = index.max_frequent_length(params.gamma)
    for k in range(l_max + 1):
        disc = discrepancy_by_length(index, k, params.gamma)
        if np.all(disc[index.frequent_blocks(k, params.gamma)[0]] <= thr):
            return k
    return l_max + 1


@dataclass(frozen=True)
class MarkovCondProb:
    """Per-time output of the order-estimator-driven scheme."""

    time: int
    in_stopping_set: bool
    order: int
    estimates: Optional[dict[int, CondProbEstimate]] = None


def cond_prob_markov(
    sample: Sample, params: EstimatorParams, index: CountIndex | None = None
) -> MarkovCondProb:
    """Conditional-probability estimates with the estimated order as suffix
    length, emitted only when that suffix occurs at least n^(1-gamma) times
    over the ends order-1..n (the empty suffix n + 1 times), as the index
    counts it; out-of-set is a first-class result, not an error."""
    n = sample.n
    if index is None:
        index = forward_index(sample)
    # refuses an index over any other sample length
    order = estimate_markov_order(sample, params, index=index)
    # order <= l_max + 1, a length max_frequent_length has already built
    if order <= n and index.l_count(order)[index.ids(order)[n]] >= params.frequency_cutoff(n):
        estimates = estimate_successor_law(sample, order, method="MARKOV")
        if estimates:
            return MarkovCondProb(time=n, in_stopping_set=True, order=order, estimates=estimates)
    return MarkovCondProb(time=n, in_stopping_set=False, order=order)


@dataclass(frozen=True)
class IidCheck:
    """Successor structure at block recurrences around one occurrence."""

    max_running_deviation: float
    lag1_autocorrelation: float
    n_samples: int


def iid_structure_test(
    sample: Sample,
    w: Word,
    x: int,
    center: int,
    oracle_prob: float,
) -> IidCheck:
    """Harvest the successors at the backward and forward recurrences of
    ``w`` around ``center`` (the center's own successor is the conditioning
    event and is excluded) and measure the indicator stream of ``x``:
    the largest deviation of its running frequency from ``oracle_prob``, and
    its lag-1 sample autocorrelation (0 for a constant stream).

    For a memory word the stream is conditionally i.i.d. with success
    probability ``oracle_prob``; for a non-memory word nearby successors are
    tied to the conditioning and the running frequency starts biased.
    """
    k = len(w)
    data = sample.symbols
    if not np.array_equal(data[center - k + 1 : center + 1], w.as_array()):
        raise OutOfRangeError("the word does not end at the given center")
    back = backward_recurrences(sample, center, k, 100_000).backward_offsets[1:]
    fwd = forward_recurrences(sample, center, k, 100_000).forward_offsets[1:]
    succ_pos = [center - t + 1 for t in back] + [
        center + t + 1 for t in fwd if center + t + 1 <= sample.n
    ]
    stream = np.asarray([1.0 if data[p] == x else 0.0 for p in succ_pos])
    m = len(stream)
    if m == 0:
        raise InsufficientRecurrencesError("no recurrences around the center")
    running = np.cumsum(stream) / np.arange(1, m + 1)
    max_dev = float(np.max(np.abs(running - oracle_prob)))
    if m < 2 or np.var(stream) == 0.0:
        auto = 0.0
    else:
        a = stream - stream.mean()
        auto = float(np.sum(a[:-1] * a[1:]) / np.sum(a * a))
    return IidCheck(max_running_deviation=max_dev, lag1_autocorrelation=auto, n_samples=m)

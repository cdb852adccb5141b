"""Backward memory-word testing and memory-length estimation.

The test statistic for a word w is the largest gap between the empirical
conditional law given w and the law given any frequent extension of w deeper
into the past.  One level loop computes every gap; the statistic of every
word of a length is folded from it once and memoized on the index, and the
per-word test reads its word's entry.  A word passes when the statistic is
at most n^(-beta); the backward memory-length estimate is the shortest
sample suffix that passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .counting import CountIndex
from .sequence import EstimatorParams, Word


@dataclass(frozen=True)
class TestVerdict:
    passed: bool
    discrepancy: float
    threshold: float
    witness: Optional[tuple[Word, int]] = None


def _extension_levels(
    index: CountIndex, k: int, gamma: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The frequent extensions of the length-k words, one depth at a time.

    A frequent length-m block z+w+x (m = k + i + 1 for extension depth
    i >= 1) contributes the gap
        | c(w,x)/ctx(w)  -  c(z+w,x)/ctx(z+w) |
    to the statistic of its middle word w.  Every quantity in it is a
    function of the block, so the gap is computed once per distinct frequent
    block, at its earliest end, rather than once per sample position: at
    most n^gamma blocks per length instead of n positions.

    Yields, for m = k+2..l_max: m, the id of each frequent length-m block's
    middle word, the blocks' earliest ends in increasing order and their
    gaps.
    """
    l_max = index.max_frequent_length(gamma)
    # l_max <= n + 1, so every length below fits in the sample
    if k + 2 > l_max:
        return
    ids_w1 = index.ids(k + 1)
    cnt_w1 = index.successor_count(k + 1)
    for m in range(k + 2, l_max + 1):
        blocks, ends = index.frequent_blocks(m, gamma)
        mid = index.ids(k)[ends - 1]
        ctx_w = index.ctx_count(k)[mid]
        assert np.all(ctx_w > 0), "frequent extension of a context that never occurs"
        p_w = cnt_w1[ids_w1[ends]] / ctx_w
        p_zw = index.l_count(m)[blocks] / index.ctx_count(m - 1)[index.ids(m - 1)[ends - 1]]
        yield m, mid, ends, np.abs(p_w - p_zw)


def discrepancy_by_length(index: CountIndex, word_length: int, gamma: float) -> np.ndarray:
    """Test statistic for every observed word of the given length at once.

    Entry u is the statistic of the word with dense id u.  Words without any
    frequent extension score 0 by convention.
    """
    key = (word_length, gamma)
    if key not in index.discrepancy_memo:
        out = np.zeros(index.n_ids(word_length), dtype=np.float64)
        for _, mid, _, gaps in _extension_levels(index, word_length, gamma):
            np.maximum.at(out, mid, gaps)
        index.discrepancy_memo[key] = out
    return index.discrepancy_memo[key]


def max_discrepancy(
    index: CountIndex, w: Word, gamma: float
) -> tuple[float, Optional[tuple[Word, int]]]:
    """Statistic for one word, with the extension achieving the maximum.

    The statistic is the word's entry of ``discrepancy_by_length``.  The
    witness is the earliest-ending block of the first extension depth that
    reaches it; an unobserved word, or one whose statistic is 0, has none.
    """
    k = len(w)
    u = index.word_id(w)
    if u < 0:
        return 0.0, None
    best = discrepancy_by_length(index, k, gamma)[u]
    if best == 0:
        return 0.0, None
    for m, mid, ends, gaps in _extension_levels(index, k, gamma):
        hit = np.flatnonzero((mid == u) & (gaps == best))
        if len(hit):
            e = int(ends[hit[0]])
            z = Word(tuple(int(s) for s in index.data[e - m + 1 : e - k]))
            return best, (z, int(index.data[e]))
    raise AssertionError("a positive statistic without a block reaching it")


def memory_word_test(index: CountIndex, w: Word, params: EstimatorParams) -> TestVerdict:
    """Passed when the discrepancy statistic is within the n^(-beta)
    threshold (ties pass)."""
    disc, witness = max_discrepancy(index, w, params.gamma)
    thr = params.test_threshold(index.n)
    return TestVerdict(passed=disc <= thr, discrepancy=disc, threshold=thr, witness=witness)


def backward_memory_estimate(index: CountIndex, params: EstimatorParams) -> int:
    """Estimate the memory length of the realized past from X_-n..X_0.

    Parameters
    ----------
    index : CountIndex
        Block statistics over the backward sample.
    params : EstimatorParams
        Frequency cutoff and test threshold exponents.

    Returns
    -------
    int
        The smallest suffix length 0 <= k < n whose suffix passes the
        memory-word test, or n if none passes.  A length-1 sample estimates
        0 by convention.  Converges almost surely to the true memory length
        for finitarily Markovian processes.
    """
    n = index.n
    thr = params.test_threshold(n)
    for k in range(0, n):
        if discrepancy_by_length(index, k, params.gamma)[index.ids(k)[n]] <= thr:
            return k
    return n

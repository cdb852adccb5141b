"""Backward memory-word testing and memory-length estimation.

The test statistic for a word w is the largest gap between the empirical
conditional law given w and the law given any frequent extension of w deeper
into the past.  A word passes when the statistic is at most n^(-beta); the
backward memory-length estimate is the shortest sample suffix that passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .counting import CountIndex
from .sequence import EstimatorParams, Word


@dataclass(frozen=True)
class TestVerdict:
    passed: bool
    discrepancy: float
    threshold: float
    witness: Optional[tuple[Word, int]] = None


def discrepancy_by_length(index: CountIndex, word_length: int, gamma: float) -> np.ndarray:
    """Test statistic for every observed word of the given length at once.

    Entry u is the statistic of the word with dense id u.  Words without any
    frequent extension score 0 by convention.
    """
    key = (word_length, gamma)
    if key in index.discrepancy_memo:
        return index.discrepancy_memo[key]

    out = np.zeros(index.n_ids(word_length) if word_length >= 1 else 1, dtype=np.float64)
    l_max = index.max_frequent_length(gamma)
    # l_max <= n + 1, so every length below fits in the sample
    if word_length + 2 <= l_max:
        ids_w1 = index.ids(word_length + 1)
        cnt_w1 = index.successor_count(word_length + 1)
        for m in range(word_length + 2, l_max + 1):
            trip, ends = index.frequent_blocks(m, gamma)
            if word_length >= 1:
                u = index.ids(word_length)[ends - 1]
                ctx_w = index.ctx_count(word_length)[u]
            else:
                u = np.zeros(len(ends), dtype=np.intp)
                ctx_w = index.n
            gaps = _kernels.extension_gaps(
                trip,
                ends,
                ctx_w,
                ids_w1,
                index.ids(m - 1),
                cnt_w1,
                index.l_count(m),
                index.ctx_count(m - 1),
            )
            np.maximum.at(out, u, gaps)
    index.discrepancy_memo[key] = out
    return out


def max_discrepancy(
    index: CountIndex, w: Word, gamma: float
) -> tuple[float, Optional[tuple[Word, int]]]:
    """Statistic for one word, with the extension achieving the maximum.

    Reads the frequent blocks z+w+x level by level (extension depth
    i = 1, 2, ...) and stops as soon as a level has none: a block occurs at
    most as often as its suffix, so deeper levels are empty too.  The
    witness is the earliest-ending block of the first level that reaches the
    maximum.
    """
    k = len(w)
    n = index.n
    best = 0.0
    witness: Optional[tuple[Word, int]] = None
    if k >= 1:
        u = index.word_id(w)
        if u < 0:
            return 0.0, None
        denom_w = index.ctx_count(k)[u]
    else:
        denom_w = n
    data = index.data
    for m in range(k + 2, index.max_frequent_length(gamma) + 1):
        trip, ends = index.frequent_blocks(m, gamma)
        if k >= 1:
            keep = index.ids(k)[ends - 1] == u
            trip, ends = trip[keep], ends[keep]
        if not len(ends):
            break
        assert denom_w > 0, "frequent extension of a context that never occurs"
        gaps = _kernels.extension_gaps(
            trip,
            ends,
            denom_w,
            index.ids(k + 1),
            index.ids(m - 1),
            index.successor_count(k + 1),
            index.l_count(m),
            index.ctx_count(m - 1),
        )
        top = int(np.argmax(gaps))
        if gaps[top] > best:
            best = gaps[top]
            e = int(ends[top])
            witness = (Word(tuple(int(s) for s in data[e - m + 1 : e - k])), int(data[e]))
    return best, witness


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
        disc_all = discrepancy_by_length(index, k, params.gamma)
        if k == 0:
            disc = disc_all[0]
        else:
            u = index.ids(k)[n]
            disc = disc_all[u]
        if disc <= thr:
            return k
    return n

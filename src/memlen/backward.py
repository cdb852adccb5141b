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

    @property
    def verdict(self) -> str:
        return "YES" if self.passed else "NO"


def discrepancy_by_length(index: CountIndex, word_length: int, gamma: float) -> np.ndarray:
    """Test statistic for every observed word of the given length at once.

    Entry u is the statistic of the word with dense id u.  Words without any
    frequent extension score 0 by convention.
    """
    key = (word_length, gamma)
    if key in index.discrepancy_memo:
        return index.discrepancy_memo[key]

    n = index.n
    if word_length >= 1:
        n_out = index.n_ids(word_length)
    else:
        n_out = 1
    out = np.zeros(n_out, dtype=np.float64)
    l_max = index.max_frequent_length(gamma)
    if n_out and word_length + 2 <= l_max and word_length + 1 - 1 <= n:
        thr = float(n) ** (1.0 - gamma)
        dummy_ids = index._sym_ids
        dummy_cnt = np.zeros(1, dtype=np.int64)
        ids_w = index.ids(word_length) if word_length >= 1 else dummy_ids
        ctx_w = index.ctx_count(word_length) if word_length >= 1 else dummy_cnt
        ids_w1 = index.ids(word_length + 1)
        cnt_w1 = index.successor_count(word_length + 1)
        for m in range(word_length + 2, l_max + 1):
            if m - 1 > n:
                break
            hit = _kernels.accumulate_discrepancy(
                ids_w,
                ids_w1,
                index.ids(m - 1),
                index.ids(m),
                cnt_w1,
                ctx_w,
                index.l_count(m),
                index.ctx_count(m - 1),
                thr,
                n,
                word_length,
                m,
                out,
            )
            if not hit:
                break
    index.discrepancy_memo[key] = out
    return out


def max_discrepancy(
    index: CountIndex, w: Word, gamma: float
) -> tuple[float, Optional[tuple[Word, int]]]:
    """Statistic for one word, with the extension achieving the maximum.

    Scans the occurrence positions of w level by level (extension depth
    i = 1, 2, ...) and stops as soon as a level has no frequent extension:
    counts only shrink with depth, so deeper levels are empty too.
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
    l_max = index.max_frequent_length(gamma)
    thr = float(n) ** (1.0 - gamma)
    data = index.data
    w_arr = w.as_array()
    for i in range(1, max(l_max - k, 0) + 1):
        m = k + i + 1
        if m - 1 > n:
            break
        pos = _kernels.occurrence_positions(data, w_arr, k + i - 1, n - 1)
        ids_m = index.ids(m)
        cnt_m = index.l_count(m)
        ids_w1 = index.ids(k + 1)
        cnt_w1 = index.successor_count(k + 1)
        ctx_m1 = index.ctx_count(m - 1)
        ids_m1 = index.ids(m - 1)
        hit = False
        for j in pos:
            trip = ids_m[j + 1]
            if cnt_m[trip] <= thr:
                continue
            hit = True
            assert denom_w > 0, "frequent extension of a context that never occurs"
            p_w = cnt_w1[ids_w1[j + 1]] / denom_w
            p_zw = cnt_m[trip] / ctx_m1[ids_m1[j]]
            d = abs(p_w - p_zw)
            if d > best:
                best = d
                z = Word(tuple(int(s) for s in data[j - k - i + 1 : j - k + 1]))
                witness = (z, int(data[j + 1]))
        if not hit:
            break
    return best, witness


def memory_word_test(index: CountIndex, w: Word, params: EstimatorParams) -> TestVerdict:
    """YES when the discrepancy statistic is within the n^(-beta) threshold
    (ties pass)."""
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
        if k >= 1 and k - 1 > n:
            break
        disc_all = discrepancy_by_length(index, k, params.gamma)
        if k == 0:
            disc = disc_all[0]
        else:
            u = index.ids(k)[n]
            disc = disc_all[u]
        if disc <= thr:
            return k
    return n


__all__ = [
    "TestVerdict",
    "discrepancy_by_length",
    "max_discrepancy",
    "memory_word_test",
    "backward_memory_estimate",
]

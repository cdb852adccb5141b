"""Kernels against direct scans, and the recurrence views built on them."""

import numpy as np
import pytest

import memlen._kernels as K
import naive
from memlen import CountIndex, Sample
from memlen.condprob import backward_recurrences, forward_recurrences


@pytest.mark.parametrize("seed", range(5))
def test_occurrence_positions_matches_scan(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 3, size=300).astype(np.int64)
    for k in (0, 1, 2, 4):
        word = rng.integers(0, 3, size=k).astype(np.int64)
        for _ in range(10):
            lo, hi = sorted(int(x) for x in rng.integers(-2, 305, size=2))
            got = K.occurrence_positions(data, word, lo, hi)
            assert list(got) == naive.scan_ends(data, word, max(lo, 0), hi)


@pytest.mark.parametrize(
    "seed, n_symbols",
    [(seed, 3) for seed in range(5)] + [(5, 20)],
    ids=[str(seed) for seed in range(5)] + ["20-symbols"],
)
def test_extend_block_ids_rank_blocks_lexicographically(seed, n_symbols):
    # theta and kappa index words in this order.  Three symbols take the
    # table pass at every length; twenty take the radix pass at lengths 2-5,
    # where the table of (older symbol, previous id) pairs outgrows n + 2
    rng = np.random.default_rng(10 + seed)
    data = rng.integers(0, n_symbols, size=300)
    index = CountIndex(Sample.backward(data))
    for length in (2, 3, 4, 5):
        by_table = n_symbols * index.n_ids(length - 1) <= len(data) + 1
        assert by_table == (n_symbols == 3)
        ids, n_ids = index.ids(length), index.n_ids(length)
        blocks = [tuple(data[j - length + 1 : j + 1]) for j in range(length - 1, len(data))]
        rank = {b: r for r, b in enumerate(sorted(set(blocks)))}
        assert n_ids == len(rank)
        assert list(ids[: length - 1]) == [-1] * (length - 1)
        assert list(ids[length - 1 :]) == [rank[b] for b in blocks]


def test_sampler_streams_agree_with_python_loop():
    # one uniform per step: the sampler matches a loop over its step function
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    a = K.sample_geometric_jump(rng_a, 200, 50, 0)
    out_b = np.empty(200, dtype=np.int64)
    s = 0
    for i in range(50):
        s = K.step_geometric_jump(rng_b.random(), s)
    for i in range(200):
        s = K.step_geometric_jump(rng_b.random(), s)
        out_b[i] = s
    assert np.array_equal(a, out_b)


@pytest.mark.parametrize("seed", range(5))
def test_recurrence_views_match_step_scans(seed):
    rng = np.random.default_rng(30 + seed)
    data = rng.integers(0, 2, size=120)
    s = Sample.forward(data)
    for k in (0, 1, 2, 3, 6):
        for center in (k - 1, k, 60, 119):
            if center < 0:
                continue
            for count in (0, 1, 3, 500):
                back = backward_recurrences(s, center, k, count).backward_offsets
                fwd = forward_recurrences(s, center, k, count).forward_offsets
                assert list(back) == [0] + naive.recurrences_before(data, center, k, count)
                assert list(fwd) == [0] + naive.recurrences_after(data, center, k, count)


def test_empty_block_recurs_down_to_minus_one():
    s = Sample.forward([0, 1, 1, 0])
    assert backward_recurrences(s, 2, 0, 10).backward_offsets == (0, 1, 2, 3)
    assert forward_recurrences(s, 2, 0, 10).forward_offsets == (0, 1)


def test_negative_recurrence_count_rejected():
    s = Sample.forward([0, 1, 1, 0])
    with pytest.raises(ValueError):
        backward_recurrences(s, 2, 1, -1)
    with pytest.raises(ValueError):
        forward_recurrences(s, 2, 1, -1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from memlen import (
    CountIndex,
    Sample,
    UndefinedConditionalError,
    Word,
    count_context,
    count_transition,
    empirical_cond_prob,
    frequent_extensions,
    is_frequent,
)

symbol_lists = st.lists(st.integers(0, 3), min_size=2, max_size=60)


def index_of(symbols):
    return CountIndex(Sample.backward(symbols))


class TestCountContext:
    def test_spec_example(self):
        idx = index_of([0, 1, 0, 1, 0])
        assert count_context(idx, Word((0,))) == 2

    def test_empty_word_counts_n(self):
        idx = index_of([0, 1, 0, 1, 0])
        assert count_context(idx, Word(())) == 4

    def test_absent_pattern(self):
        idx = index_of([0, 1, 0, 1, 0])
        assert count_context(idx, Word((1, 1))) == 0

    def test_word_longer_than_n(self):
        idx = index_of([0, 1])
        assert count_context(idx, Word((0, 1, 0))) == 0


class TestCountTransition:
    def test_spec_examples(self):
        idx = index_of([0, 1, 0, 1, 0])
        assert count_transition(idx, Word((0,)), 1) == 2
        assert count_transition(idx, Word((0,)), 0) == 0

    @given(symbol_lists)
    def test_partitions_context(self, syms):
        idx = index_of(syms)
        for w in [Word(()), Word((syms[0],)), Word(tuple(syms[:2]))]:
            total = sum(count_transition(idx, w, x) for x in range(4))
            assert total == count_context(idx, w)


class TestEmpiricalCondProb:
    def test_deterministic_successor(self):
        idx = index_of([0, 1, 0, 1, 0])
        assert empirical_cond_prob(idx, Word((0,)), 1) == 1.0

    def test_spec_scan_example(self):
        idx = index_of([0, 0, 1, 0, 0, 1, 0, 0])
        assert empirical_cond_prob(idx, Word((0,)), 0) == pytest.approx(3 / 5)

    def test_empty_word_is_marginal(self):
        syms = [2, 0, 1, 0, 0]
        idx = index_of(syms)
        # frequency over the n positions after the first symbol
        assert empirical_cond_prob(idx, Word(()), 0) == pytest.approx(3 / 4)

    def test_zero_count_raises(self):
        idx = index_of([0, 1, 0])
        with pytest.raises(UndefinedConditionalError):
            empirical_cond_prob(idx, Word((3,)), 0)

    @given(symbol_lists)
    def test_sums_to_one(self, syms):
        idx = index_of(syms)
        w = Word((syms[0],))
        if count_context(idx, w) == 0:
            return
        total = sum(empirical_cond_prob(idx, w, x) for x in set(syms))
        assert total == pytest.approx(1.0)


class TestIsFrequent:
    def test_threshold_arithmetic(self):
        # n = 16, gamma = .5: cutoff 4, strict inequality
        syms = [0] * 5 + [1] * 12  # n = 16; word [0] occurs 5 times
        idx = index_of(syms)
        assert is_frequent(idx, Word((0,)), 0.5)  # 5 > 4
        syms = [0] * 4 + [1] * 13
        idx = index_of(syms)
        assert not is_frequent(idx, Word((0,)), 0.5)  # 4 > 4 fails

    def test_boundary_strict(self):
        # n = 100, exactly 10 occurrences, cutoff 10
        syms = [0, 1] * 10 + [2] * 81
        idx = index_of(syms)
        assert naive.l_count(idx.data, [1]) == 10
        assert not is_frequent(idx, Word((1,)), 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            is_frequent(index_of([0, 1]), Word(()), 0.5)

    @given(symbol_lists, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_antitone_in_extension(self, syms, a, b, c):
        idx = index_of(syms)
        if is_frequent(idx, Word((a, b, c)), 0.5):
            assert is_frequent(idx, Word((b, c)), 0.5)


class TestFrequentExtensions:
    def test_all_zeros(self):
        idx = index_of([0] * 40)
        assert frequent_extensions(idx, Word((0,)), 1, 0.5) == {(Word((0,)), 0)}

    def test_absent_word(self):
        idx = index_of([0] * 20)
        assert frequent_extensions(idx, Word((5,)), 1, 0.5) == set()

    def test_too_deep_is_empty(self):
        idx = index_of([0, 1] * 8)
        # no string of length 12 can clear the cutoff in 16 symbols
        assert frequent_extensions(idx, Word((0,)), 10, 0.5) == set()

    def test_empty_beyond_max_frequent_length(self):
        rng = np.random.default_rng(0)
        syms = rng.integers(0, 2, size=300)
        idx = index_of(syms)
        l_max = idx.max_frequent_length(0.5)
        w = Word((int(syms[-1]),))
        for i in range(l_max, l_max + 3):
            assert frequent_extensions(idx, w, i, 0.5) == set()

    @given(symbol_lists, st.integers(0, 2))
    @settings(max_examples=40)
    def test_matches_naive(self, syms, k):
        idx = index_of(syms)
        w = Word(tuple(syms[len(syms) - k :]))
        for i in range(1, idx.max_frequent_length(0.5) + 2):
            got = {(z.letters, x) for z, x in frequent_extensions(idx, w, i, 0.5)}
            want = naive.frequent_extensions(np.asarray(syms), list(w.letters), i, 0.5)
            assert got == want


class TestFrequentBlocks:
    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scan(self, seed, gamma):
        rng = np.random.default_rng(seed)
        syms = rng.integers(0, 1 + seed % 3, size=rng.integers(2, 300))
        idx = index_of(syms)
        n = len(syms) - 1
        for length in range(1, idx.max_frequent_length(gamma) + 2):
            count, first = {}, {}
            for j in range(length - 1, n + 1):
                block = tuple(int(s) for s in syms[j - length + 1 : j + 1])
                count[block] = count.get(block, 0) + 1
                first.setdefault(block, j)
            want = sorted(
                (first[b], b) for b in count if count[b] > float(n) ** (1.0 - gamma)
            )
            ids, ends = idx.frequent_blocks(length, gamma)
            got = [(int(e), idx.decode(length, int(u)).letters) for u, e in zip(ids, ends)]
            assert got == want
            assert (len(ids) > 0) == (length <= idx.max_frequent_length(gamma))


class TestIndexAgainstNaive:
    """Index results must equal direct rescans on random queries."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_queries(self, seed):
        rng = np.random.default_rng(seed)
        syms = rng.integers(0, 3, size=rng.integers(10, 400))
        idx = index_of(syms)
        for _ in range(25):
            k = rng.integers(0, 4)
            w = list(rng.integers(0, 3, size=k))
            x = int(rng.integers(0, 3))
            assert count_context(idx, Word(tuple(w))) == naive.count_context(syms, w)
            assert count_transition(idx, Word(tuple(w)), x) == naive.count_transition(
                syms, w, x
            )
            if k:
                assert is_frequent(idx, Word(tuple(w)), 0.5) == naive.is_frequent(
                    syms, w, 0.5
                )

    def test_count_monotone_in_extension(self):
        rng = np.random.default_rng(3)
        syms = rng.integers(0, 2, size=200)
        idx = index_of(syms)
        for _ in range(50):
            j = rng.integers(3, 200)
            w = Word(tuple(int(s) for s in syms[j - 2 : j]))
            longer = Word(tuple(int(s) for s in syms[j - 3 : j]))
            assert count_context(idx, longer) <= count_context(idx, w)


class TestMaxFrequentLength:
    def test_nothing_beyond(self):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 2, size=500)
        idx = index_of(syms)
        l_max = idx.max_frequent_length(0.5)
        assert l_max >= 1
        cnt = idx.l_count(l_max + 1)
        n = len(syms) - 1
        assert len(cnt) == 0 or cnt.max() <= n**0.5

    def test_constant_sample(self):
        idx = index_of([7] * 17)  # n = 16, cutoff 4
        # the block of length L occurs 18 - L times; need > 4, so L <= 13
        assert idx.max_frequent_length(0.5) == 13

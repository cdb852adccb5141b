import numpy as np
import pytest

import naive
from memlen import (
    CountIndex,
    EstimatorParams,
    GeometricJumpChain,
    Sample,
    Word,
    backward_memory_estimate,
    generate,
    max_discrepancy,
    memory_word_test,
)
from memlen.backward import discrepancy_by_length


def index_of(symbols):
    return CountIndex(Sample.backward(symbols))


class TestDiscrepancy:
    def test_deterministic_alternating_is_zero(self):
        idx = index_of([i % 2 for i in range(101)])
        d, witness = max_discrepancy(idx, Word((0,)), 0.5)
        assert d == 0.0

    def test_empty_max_convention(self):
        # nothing frequent at the extension lengths of a length-2 word
        idx = index_of([0, 1, 2, 3, 4, 5, 6, 7])
        d, witness = max_discrepancy(idx, Word((6, 7)), 0.5)
        assert d == 0.0 and witness is None

    def test_absent_word_scores_zero(self):
        idx = index_of([0, 1] * 30)
        assert max_discrepancy(idx, Word((5,)), 0.5) == (0.0, None)

    def test_alternating_empty_word_sees_gap(self):
        idx = index_of([i % 2 for i in range(101)])
        d, witness = max_discrepancy(idx, Word(()), 0.5)
        assert d == pytest.approx(0.5, abs=0.02)
        assert witness is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        syms = rng.integers(0, 2, size=150)
        idx = index_of(syms)
        for k in range(0, 4):
            w = Word(tuple(int(s) for s in syms[len(syms) - k :]))
            fast, _ = max_discrepancy(idx, w, 0.5)
            assert fast == pytest.approx(naive.discrepancy(syms, list(w.letters), 0.5))

    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_path_matches_per_word(self, seed):
        rng = np.random.default_rng(100 + seed)
        syms = rng.integers(0, 3, size=200)
        idx = index_of(syms)
        for length in range(0, idx.max_frequent_length(0.5) + 1):
            bulk = discrepancy_by_length(idx, length, 0.5)
            for u in range(idx.n_ids(length) if length else 1):
                w = idx.decode(length, u) if length else Word(())
                assert bulk[u] == max_discrepancy(idx, w, 0.5)[0]


def reference_samples():
    rng = np.random.default_rng(7)
    return {
        "binary": rng.integers(0, 2, size=301),
        "ternary": rng.integers(0, 3, size=301),
        "constant": np.full(41, 4),
        "alternating": np.array([(i + 1) % 2 for i in range(101)]),
        "jump": generate(GeometricJumpChain(), 1500, 5).symbols,
    }


class TestAgainstPerPositionSweep:
    """The statistic read once per distinct frequent block equals the sweep
    over every sample position, bit for bit, witnesses included."""

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    @pytest.mark.parametrize("name", sorted(reference_samples()))
    def test_bulk_and_per_word(self, name, gamma):
        syms = reference_samples()[name]
        idx, ref = index_of(syms), index_of(syms)
        l_max = idx.max_frequent_length(gamma)
        assert l_max == naive.max_frequent_length(ref, gamma)
        for length in range(0, l_max + 2):
            bulk = discrepancy_by_length(idx, length, gamma)
            want = naive.discrepancy_by_length(ref, length, gamma)
            assert bulk.dtype == want.dtype and np.array_equal(bulk, want)
            for u in range(idx.n_ids(length) if length else 1):
                w = idx.decode(length, u) if length else Word(())
                d, witness = max_discrepancy(idx, w, gamma)
                if witness is not None:
                    witness = (witness[0].letters, witness[1])
                assert (d, witness) == naive.max_discrepancy(ref, list(w.letters), gamma)

    def test_tied_blocks_keep_the_earliest(self):
        # 1010...1: the blocks 01 and 10 (and 010, 101 one level deeper)
        # give the empty word the same gap; the witness is the block that
        # ends first (10, though 01 comes first in lexicographic order), at
        # the first level reaching the maximum
        syms = np.array([(i + 1) % 2 for i in range(101)])
        idx = index_of(syms)
        gap_01 = abs(naive.cond_prob(syms, [], 1) - naive.cond_prob(syms, [0], 1))
        gap_10 = abs(naive.cond_prob(syms, [], 0) - naive.cond_prob(syms, [1], 0))
        assert gap_01 == gap_10 > 0
        assert max_discrepancy(idx, Word(()), 0.5) == (gap_10, (Word((1,)), 0))
        assert naive.max_discrepancy(idx, [], 0.5) == (gap_10, ((1,), 0))


class TestMemoryWordTest:
    def test_tie_passes(self):
        # a verdict at exactly the threshold is a pass
        idx = index_of([0, 1] * 40)
        v = memory_word_test(idx, Word((0,)), EstimatorParams())
        assert v.discrepancy == 0.0
        assert v.passed

    def test_verdict_iff_threshold(self):
        idx = index_of([i % 2 for i in range(101)])
        p = EstimatorParams()
        v = memory_word_test(idx, Word(()), p)
        assert v.passed == (v.discrepancy <= v.threshold)
        assert not v.passed

    def test_threshold_value(self):
        idx = index_of([0, 1] * 50 + [0])  # n = 100
        v = memory_word_test(idx, Word((0,)), EstimatorParams(beta=0.24))
        assert v.threshold == pytest.approx(100 ** -0.24)


class TestBackwardEstimate:
    def test_alternating_gives_one(self):
        idx = index_of([i % 2 for i in range(101)])
        assert backward_memory_estimate(idx, EstimatorParams()) == 1

    def test_iid_constant_gives_zero(self):
        idx = index_of([4] * 200)
        assert backward_memory_estimate(idx, EstimatorParams()) == 0

    def test_length_one_sample(self):
        idx = index_of([3])
        assert backward_memory_estimate(idx, EstimatorParams()) == 0

    def test_fair_coin_empty_word_passes(self):
        rng = np.random.default_rng(13)
        idx = index_of(rng.integers(0, 2, size=100_001))
        p = EstimatorParams()
        assert memory_word_test(idx, Word(()), p).passed
        assert backward_memory_estimate(idx, p) == 0

    def test_first_passing_suffix_wins(self):
        # monotonicity in verdicts: the estimate never looks past the first YES
        idx = index_of([i % 2 for i in range(101)])
        p = EstimatorParams()
        est = backward_memory_estimate(idx, p)
        assert not memory_word_test(idx, Word((0,)) if est != 1 else Word(()), p).passed
        suffix_word = Word(tuple(int(s) for s in idx.data[len(idx.data) - est :]))
        assert memory_word_test(idx, suffix_word, p).passed

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 250))
        syms = rng.integers(0, 2, size=n + 1)
        idx = index_of(syms)
        p = EstimatorParams()
        assert backward_memory_estimate(idx, p) == naive.chi(syms, p.gamma, p.beta)

import itertools
import tracemalloc

import numpy as np
import pytest

from memlen import (
    EstimatorParams,
    OutOfRangeError,
    Sample,
    Word,
    available_depth,
    decide_p,
    decide_r,
    memory_word_test,
    occurrence_set,
    reconstruct_past,
)
from memlen.backward import discrepancy_by_length
from memlen.counting import CountIndex
from memlen.forward import ReconstructionScheme, StoppingDecision, forward_index
from memlen.processes import GeometricJumpChain, generate, parity_chain

import naive
from test_acceptance import parity_structural_estimator


class TestOccurrenceSet:
    def test_basic(self):
        s = Sample.forward([0, 1, 0, 1, 0])
        assert set(occurrence_set(s, Word((0, 1)))) == {1, 3}

    def test_empty_word_everywhere(self):
        s = Sample.forward([0, 1, 0, 1, 0])
        assert set(occurrence_set(s, Word(()))) == {0, 1, 2, 3, 4}

    def test_absent(self):
        s = Sample.forward([0, 1, 0, 1, 0])
        assert len(occurrence_set(s, Word((1, 1)))) == 0


class TestForwardTest:
    def test_definitional_identity(self):
        rng = np.random.default_rng(0)
        s = Sample.forward(rng.integers(0, 2, size=120))
        p = EstimatorParams()
        idx = CountIndex(Sample.backward(s.symbols))
        for w in [Word(()), Word((0,)), Word((1, 0))]:
            a = memory_word_test(forward_index(s), w, p)
            b = memory_word_test(idx, w, p)
            assert (a.passed, a.discrepancy, a.threshold) == (
                b.passed,
                b.discrepancy,
                b.threshold,
            )

    def test_alternating(self):
        s = Sample.forward([i % 2 for i in range(101)])
        p = EstimatorParams()
        assert memory_word_test(forward_index(s), Word((s.symbols[-1],)), p).passed
        assert not memory_word_test(forward_index(s), Word(()), p).passed


class TestReconstruction:
    def test_alternating_first_level(self):
        s = Sample.forward([0, 1, 0, 1, 0, 1, 0, 1])
        rec = reconstruct_past(s, 0, 1)
        assert rec.recurrence_times == [0, 2]
        assert rec.symbols == [0, 1]  # anchor value, then one step back

    def test_constant_sample(self):
        s = Sample.forward([7] * 10)
        rec = reconstruct_past(s, 0, 5)
        assert rec.recurrence_times == [0, 1, 2, 3, 4, 5]
        assert rec.symbols == [7] * 6

    def test_no_recurrence(self):
        s = Sample.forward([3, 1, 4, 1, 5, 9, 2, 6])
        rec = reconstruct_past(s, 0, 5)
        assert rec.depth == 0

    def test_block_replay_invariant(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=400)
        s = Sample.forward(data)
        for anchor in (0, 3, 17):
            rec = reconstruct_past(s, anchor, 8)
            for m in range(1, rec.depth + 1):
                z_prev, z = rec.recurrence_times[m - 1], rec.recurrence_times[m]
                cur = data[anchor + z_prev - (m - 1) : anchor + z_prev + 1]
                cpy = data[anchor + z - (m - 1) : anchor + z + 1]
                assert np.array_equal(cur, cpy)
                # minimality: no earlier recurrence
                for t in range(1, z - z_prev):
                    cand = data[anchor + z_prev - (m - 1) + t : anchor + z_prev + t + 1]
                    assert not np.array_equal(cur, cand)
                assert rec.symbols[m] == data[anchor + z - m]

    def test_backward_array_order(self):
        s = Sample.forward([0, 1, 0, 1, 0, 1])
        rec = reconstruct_past(s, 0, 2)
        arr = rec.backward_array()
        assert arr[-1] == s.symbols[0]  # most recent last

    def test_negative_max_depth_rejected(self):
        s = Sample.forward([0, 1, 0, 1, 1, 0, 1])
        with pytest.raises(ValueError):
            reconstruct_past(s, 0, -1)


def _check_against_naive(data, anchor, horizon):
    times, symbols = naive.reconstruct(data, anchor, horizon)
    depth = len(times) - 1
    s = Sample.forward(data)
    assert available_depth(s, horizon, anchor) == depth
    prefix = Sample.forward(data[: horizon + 1])
    for max_depth in {0, depth // 2, depth, depth + 3}:
        rec = reconstruct_past(prefix, anchor, max_depth)
        assert rec.anchor == anchor
        assert rec.recurrence_times == times[: max_depth + 1]
        assert rec.symbols == symbols[: max_depth + 1]
    # a recurrence found by the horizon is the first one at any later time
    full = reconstruct_past(s, anchor, depth)
    assert full.recurrence_times == times and full.symbols == symbols


class TestReconstructionAgainstNaive:
    @pytest.mark.parametrize("alphabet", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_samples(self, seed, alphabet):
        rng = np.random.default_rng(40 + seed)
        data = rng.integers(0, alphabet, size=250)
        n = len(data) - 1
        for anchor in (0, 1, int(rng.integers(2, n)), n - 1, n):
            for horizon in {anchor, anchor + 1, int(rng.integers(anchor, n + 1)), n}:
                if horizon <= n:
                    _check_against_naive(data, anchor, horizon)

    def test_horizon_before_first_recurrence(self):
        data = np.array([0, 1, 1, 1, 0, 1, 0, 0])
        # the anchor's symbol first recurs at time 4
        for horizon in (0, 1, 2, 3, 4, 7):
            _check_against_naive(data, 0, horizon)
        assert available_depth(Sample.forward(data), 3, 0) == 0
        assert available_depth(Sample.forward(data), 4, 0) == 1

    def test_alternating(self):
        data = np.array([0, 1, 0, 1, 0, 1])
        for anchor in range(6):
            for horizon in range(anchor, 6):
                _check_against_naive(data, anchor, horizon)
        assert reconstruct_past(Sample.forward(data), 0, 9).recurrence_times == [0, 2, 4]

    def test_constant_sample(self):
        data = np.full(30, 5)
        for anchor in (0, 7, 29):
            for horizon in {anchor, min(anchor + 1, 29), 29}:
                _check_against_naive(data, anchor, horizon)
                assert available_depth(Sample.forward(data), horizon, anchor) == horizon - anchor


class TestAppearance:
    def test_frequent_blocks_are_eventually_reconstructed(self, parity_model):
        """Every frequent 3-block shows up as the tail of some anchor's
        reconstruction over a long run."""
        from memlen.processes import generate

        s = generate(parity_model, 30_000, seed=21)
        data = s.symbols
        win = np.lib.stride_tricks.sliding_window_view(data, 3)
        blocks, counts = np.unique(win, axis=0, return_counts=True)
        frequent = {tuple(int(v) for v in b) for b, c in zip(blocks, counts) if c > s.n**0.5}
        reconstructed = set()
        for anchor in range(400):
            rec = reconstruct_past(s, anchor, 2)
            if rec.depth >= 2:
                reconstructed.add((rec.symbols[2], rec.symbols[1], rec.symbols[0]))
        assert frequent <= reconstructed


class TestAvailableDepth:
    def test_constant(self):
        s = Sample.forward([7] * 10)
        assert available_depth(s, 5, 0) == 5

    def test_anchor_at_n(self):
        s = Sample.forward([7] * 10)
        assert available_depth(s, 4, 4) == 0

    def test_anchor_beyond_n(self):
        s = Sample.forward([7] * 10)
        assert available_depth(s, 4, 5) == -1

    def test_negative_anchor_rejected(self):
        s = Sample.forward([0, 1, 0, 1, 1, 0, 1])
        with pytest.raises(OutOfRangeError):
            available_depth(s, 6, -1)

    def test_anchor_beyond_sample_rejected(self):
        s = Sample.forward([0, 1, 0, 1, 1, 0, 1])
        with pytest.raises(OutOfRangeError):
            available_depth(s, 9, 8)


class TestDecideP:
    def test_iid_like_constant(self):
        s = Sample.forward([4] * 300)
        dec = decide_p(s, EstimatorParams())
        assert dec.in_stopping_set
        assert dec.memory_length == 0
        assert dec.word_index == 0 and dec.coverage_index == 0

    def test_decision_invariants(self):
        with pytest.raises(ValueError):
            StoppingDecision(
                time=5,
                scheme="forward-p",
                in_stopping_set=True,
                coverage_index=0,
                coverage=1.0,
            )

    def test_alternating(self):
        s = Sample.forward([i % 2 for i in range(201)])
        dec = decide_p(s, EstimatorParams())
        assert dec.in_stopping_set
        assert dec.memory_length == 1

    def test_leaves_nothing_behind(self):
        # with l_max and the test statistics already in the index, the
        # stopping rule keeps nothing and needs a few bytes per symbol
        s = generate(parity_chain(), 200_000, seed=3)
        p = EstimatorParams()
        idx = forward_index(s)
        for length in range(idx.max_frequent_length(p.gamma) + 1):
            discrepancy_by_length(idx, length, p.gamma)
        tracemalloc.start()
        try:
            decide_p(s, p, index=idx)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < len(s)
        assert peak < 16 * len(s)

    def test_allocates_no_per_end_array(self):
        # coverage is counted per word: on a warm index the rule's
        # temporaries are tables of candidate and read words, whatever n is
        s = generate(parity_chain(), 200_000, seed=3)
        p = EstimatorParams()
        idx = forward_index(s)
        for length in range(idx.max_frequent_length(p.gamma) + 1):
            discrepancy_by_length(idx, length, p.gamma)
        tracemalloc.start()
        try:
            decide_p(s, p, index=idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_backward_sample_rejected(self):
        s = Sample.backward(np.arange(301) % 2)
        for decide in (decide_p, decide_r):
            with pytest.raises(ValueError, match="reads a forward sample"):
                decide(s, EstimatorParams())


class TestDecideR:
    def test_constant_sample(self):
        s = Sample.forward([4] * 300)
        dec = decide_r(s, EstimatorParams())
        assert dec.in_stopping_set
        assert dec.memory_length == 0

    def test_coverage_is_a_share_of_all_times(self):
        # the occurrence sets cover times 0..n, n + 1 of them
        dec = decide_r(Sample.forward([4] * 300), EstimatorParams())
        assert dec.coverage == 1.0
        rng = np.random.default_rng(5)
        s = Sample.forward(rng.integers(0, 2, size=400))
        scheme = ReconstructionScheme(s, EstimatorParams())
        for n in (0, 1, 50, 399):
            assert 0.0 < scheme.decide(n).coverage <= 1.0

    def test_custom_estimator_receives_backward_order(self):
        seen = []

        def probe(arr):
            seen.append(arr.copy())
            return 0

        s = Sample.forward([0, 1] * 100)
        decide_r(s, EstimatorParams(), backward_estimator=probe)
        assert seen, "estimator was never called"
        # reconstruction of an alternating path is alternating
        for arr in seen[:5]:
            assert set(np.unique(arr)).issubset({0, 1})

    def test_incremental_matches_fresh(self):
        # nothing carries over between decisions: times in any order, going
        # back and forward again, give each time's fresh decision
        rng = np.random.default_rng(11)
        s = Sample.forward(rng.integers(0, 2, size=500))
        p = EstimatorParams(anchor_cap=64)

        def shallow(arr):  # short words: several anchors to reach coverage
            return min(len(arr), 3)

        for estimator in (None, shallow):
            scheme = ReconstructionScheme(s, p, estimator)
            for n in (200, 350, 499, 200, 499):
                prefix = Sample.forward(s.symbols[: n + 1])
                assert scheme.decide(n) == ReconstructionScheme(prefix, p, estimator).decide()

    def test_time_beyond_sample_rejected(self):
        s = Sample.forward([0, 1] * 10)
        scheme = ReconstructionScheme(s, EstimatorParams())
        with pytest.raises(OutOfRangeError):
            scheme.decide(100)

    @pytest.mark.parametrize("n", (-1, -2))
    def test_negative_time_rejected(self, n):
        s = Sample.forward([0, 1] * 10)
        scheme = ReconstructionScheme(s, EstimatorParams())
        with pytest.raises(OutOfRangeError):
            scheme.decide(n)


def _short_words(arr):  # short words: several anchors to reach coverage
    return min(len(arr), 3)


def _random(alphabet, n, seed):
    return lambda: np.random.default_rng(seed).integers(0, alphabet, size=n + 1)


def _parity(n):
    return lambda: generate(parity_chain(), n, seed=21).symbols


DECISION_CASES = {
    **{
        f"random{a}-n{n}": _random(a, n, 10 * a + i)
        for a in (2, 3)
        for i, n in enumerate((50, 300, 1000, 3000))
    },
    # out of the set with the short words
    "random3-n1000-seed24": _random(3, 1000, 24),
    "constant": lambda: np.zeros(300, dtype=np.int64),
    "alternating": lambda: np.arange(301) % 2,
    # n = 1379: out of the set for scheme P and the structural estimator
    **{f"parity-n{n}": _parity(n) for n in (1_000, 1_379, 5_000, 20_000)},
    # a countable alphabet: lengths from 4 on built by the radix pass
    "jump": lambda: generate(GeometricJumpChain(), 5000, 5).symbols,
    # six symbols in 41: table at lengths 1-2, radix from 3
    "switch": lambda: np.random.default_rng(8).integers(0, 6, size=41),
}

# (gamma, beta, epsilon): the defaults, then a looser test threshold with a
# low frequency cutoff and a high coverage target, and with a high cutoff and
# a low target
DECISION_PARAMS = [(0.5, 0.24, 0.1), (0.7, 0.1, 0.05), (0.3, 0.1, 0.3)]


class TestAgainstSeparateLoops:
    """Both schemes through the shared stopping rule give, field for field,
    the decisions of the separate coverage loops in ``naive``."""

    @staticmethod
    def _assert_same(got, want):
        assert got == want
        assert type(got.coverage_index) is int
        assert got.word_index is None or type(got.word_index) is int
        assert got.memory_length is None or type(got.memory_length) is int

    @pytest.mark.parametrize("case", sorted(DECISION_CASES))
    def test_decisions(self, case):
        s = Sample.forward(DECISION_CASES[case]())
        idx = forward_index(s)
        for gamma, beta, epsilon in DECISION_PARAMS:
            p = EstimatorParams(gamma=gamma, beta=beta, epsilon=epsilon)
            self._assert_same(decide_p(s, p, index=idx), naive.decide_p(s, p, idx))
            for estimator in (None, parity_structural_estimator, _short_words):
                scheme = ReconstructionScheme(s, p, estimator)
                want = naive.decide_r(s, p, scheme.estimator, s.n, idx)
                self._assert_same(scheme.decide(index=idx), want)


def _cycling_lengths():
    """A backward estimator whose words run through the lengths 7, 2, 7, 9,
    2, 0, 4 in turn, capped at the reconstruction depth: long words, the
    shorter words they extend, words read again and the empty word mix."""
    lengths = itertools.cycle((7, 2, 7, 9, 2, 0, 4))
    return lambda past: min(next(lengths), len(past) - 1)


class TestRereadAndExtension:
    """Scheme R counts what a word adds from the words read before it: a
    word read again adds nothing, and a word adds none of the ends the
    longer words extending it have covered.  Its decisions are those of the
    separate coverage loop."""

    @pytest.mark.parametrize("case", sorted(DECISION_CASES))
    def test_cycling_lengths(self, case):
        s = Sample.forward(DECISION_CASES[case]())
        idx = forward_index(s)
        for gamma, beta, epsilon in DECISION_PARAMS:
            p = EstimatorParams(gamma=gamma, beta=beta, epsilon=epsilon)
            got = ReconstructionScheme(s, p, _cycling_lengths()).decide(index=idx)
            assert got == naive.decide_r(s, p, _cycling_lengths(), s.n, idx)


class TestEstimatorCalls:
    """Scheme R reconstructs and estimates no anchor past the one whose
    memory word reaches coverage: a word found later could not put the time
    in the stopping set."""

    @staticmethod
    def _counted(scheme):
        calls = []
        estimator = scheme.estimator

        def counted(arr):
            calls.append(len(arr))
            return estimator(arr)

        scheme.estimator = counted
        return calls

    def test_constant_sample_one_call(self):
        scheme = ReconstructionScheme(Sample.forward(np.zeros(300)), EstimatorParams())
        calls = self._counted(scheme)
        dec = scheme.decide()
        assert dec.in_stopping_set and dec.coverage_index == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("estimator", [None, _short_words], ids=["default", "short"])
    def test_calls_stop_at_coverage(self, estimator):
        p = EstimatorParams()
        target = 1.0 - p.epsilon / 2.0
        # ternary seed 24 at n = 1000: out of the set with the short words,
        # so no word ending at n turns up before coverage
        for alphabet, seed in ((2, 3), (3, 4), (3, 24)):
            data = np.random.default_rng(seed).integers(0, alphabet, size=1001)
            for n in (300, 1000):
                scheme = ReconstructionScheme(Sample.forward(data), p, estimator)
                calls = self._counted(scheme)
                dec = scheme.decide(n)
                assert dec.coverage >= target
                assert len(calls) == dec.coverage_index + 1

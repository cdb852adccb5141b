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
    memory_word_test_forward,
    occurrence_set,
    reconstruct_past,
    shift_view,
)
from memlen.counting import CountIndex
from memlen.forward import ReconstructionScheme, StoppingDecision


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
        idx = CountIndex(shift_view(s, s.n))
        for w in [Word(()), Word((0,)), Word((1, 0))]:
            a = memory_word_test_forward(s, w, p)
            b = memory_word_test(idx, w, p)
            assert (a.passed, a.discrepancy, a.threshold) == (
                b.passed,
                b.discrepancy,
                b.threshold,
            )

    def test_alternating(self):
        s = Sample.forward([i % 2 for i in range(101)])
        p = EstimatorParams()
        assert memory_word_test_forward(s, Word((s.symbols[-1],)), p).passed
        assert not memory_word_test_forward(s, Word(()), p).passed


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
        rng = np.random.default_rng(11)
        s = Sample.forward(rng.integers(0, 2, size=500))
        p = EstimatorParams(anchor_cap=64)
        scheme = ReconstructionScheme(s, p)
        out_of_order = [scheme.decide(n) for n in (200, 350, 499)]
        for dec in out_of_order:
            fresh = ReconstructionScheme(
                Sample.forward(s.symbols[: dec.time + 1]), p
            ).decide()
            assert (
                dec.in_stopping_set,
                dec.memory_length,
                dec.word_index,
                dec.coverage_index,
            ) == (
                fresh.in_stopping_set,
                fresh.memory_length,
                fresh.word_index,
                fresh.coverage_index,
            )

    def test_time_beyond_sample_rejected(self):
        s = Sample.forward([0, 1] * 10)
        scheme = ReconstructionScheme(s, EstimatorParams())
        with pytest.raises(OutOfRangeError):
            scheme.decide(100)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from memlen import (
    EstimatorParams,
    InsufficientRecurrencesError,
    Sample,
    UndefinedConditionalError,
    Word,
    backward_memory_estimate,
    backward_recurrences,
    cond_prob_from_recurrences,
    cond_prob_markov,
    estimate_cond_prob,
    estimate_markov_order,
    forward_recurrences,
    iid_structure_test,
    parity_chain,
)
from memlen.forward import forward_index
from memlen.processes import MarkovKernel, generate

PARAM_GRID = [
    EstimatorParams(gamma=0.5, beta=0.24),
    EstimatorParams(gamma=0.3, beta=0.1),
    EstimatorParams(gamma=0.7, beta=0.1),
]


class TestRecurrences:
    def test_constant_sample(self):
        s = Sample.forward([7] * 20)
        rt = backward_recurrences(s, 10, 2, 3)
        assert rt.backward_offsets == (0, 1, 2, 3)

    def test_alternating(self):
        s = Sample.forward([0, 1] * 8)  # index 9 holds 1
        rt = backward_recurrences(s, 9, 2, 3)
        assert rt.backward_offsets == (0, 2, 4, 6)

    def test_unique_block(self):
        s = Sample.forward([3, 1, 4, 1, 5])
        rt = backward_recurrences(s, 2, 2, 5)
        assert rt.backward_offsets == (0,)

    def test_forward_side(self):
        s = Sample.forward([0, 1] * 8)
        rt = forward_recurrences(s, 1, 2, 3)
        assert rt.forward_offsets == (0, 2, 4, 6)

    def test_strictly_increasing_with_block_match(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, size=300)
        s = Sample.forward(data)
        for k in (1, 2, 3):
            center = 150
            rt = backward_recurrences(s, center, k, 50)
            offs = rt.backward_offsets
            assert all(b > a for a, b in zip(offs, offs[1:]))
            block = data[center - k + 1 : center + 1]
            for t in offs[1:]:
                assert np.array_equal(data[center - t - k + 1 : center - t + 1], block)
            rt2 = forward_recurrences(s, center, k, 50)
            for t in rt2.forward_offsets[1:]:
                assert np.array_equal(data[center + t - k + 1 : center + t + 1], block)


class TestEstimateCondProb:
    def test_deterministic(self):
        s = Sample.forward([0, 1] * 50)  # suffix [1], successor of 1... sample ends 0,1
        est = estimate_cond_prob(s, 1, 0)
        assert est.qhat == 1.0

    def test_zero_memory_is_marginal(self):
        s = Sample.forward([0, 0, 1, 0])
        est = estimate_cond_prob(s, 0, 1)
        assert est.qhat == pytest.approx(1 / 4)
        assert est.support_count == 4

    def test_undefined(self):
        s = Sample.forward([0, 0, 0, 1])
        with pytest.raises(UndefinedConditionalError):
            estimate_cond_prob(s, 1, 0)  # suffix [1] never occurs earlier

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        s = Sample.forward(rng.integers(0, 3, size=500))
        for rho in (0, 1, 2):
            total = sum(estimate_cond_prob(s, rho, x).qhat for x in range(3))
            assert total == pytest.approx(1.0)


class TestRecurrenceAverage:
    def test_deterministic_period_two(self):
        s = Sample.forward([0, 1] * 30)
        for j in (1, 5, 20):
            assert cond_prob_from_recurrences(s, s.n, 1, j, 0) == 1.0

    def test_full_count_equals_ratio_exhaustive(self):
        for seed in range(100):
            self._check_identity(seed)

    def _check_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 2_000))
        s = Sample.forward(rng.integers(0, 2, size=n + 1))
        k = int(rng.integers(1, 3))
        w = s.symbols[len(s.symbols) - k :]
        # all backward recurrences with a visible successor
        import naive

        pos = naive.scan_ends(s.symbols, list(w), k - 1, s.n - 1)
        j = len(pos)
        if j == 0:
            return
        got = cond_prob_from_recurrences(s, s.n, k, j, 1)
        want = estimate_cond_prob(s, k, 1)
        assert got == pytest.approx(want.qhat)
        assert want.support_count == j

    def test_insufficient(self):
        s = Sample.forward([0, 1, 2, 3, 4, 5])
        with pytest.raises(InsufficientRecurrencesError):
            cond_prob_from_recurrences(s, s.n, 1, 3, 0)

    def test_sqrt_n_samples_near_truth(self):
        # two-state order-1 chain with P(1|0) = 0.3; the median over
        # replicas of the sqrt(n)-sample average lands near the truth
        rows = {(0,): {0: 0.7, 1: 0.3}, (1,): {0: 0.5, 1: 0.5}}
        chain = MarkovKernel(order=1, rows=rows)
        n = 100_000
        j = int(n**0.5)
        values = []
        for r in range(50):
            s = generate(chain, n, seed=31, stream=r)
            m = s.n
            while s.symbols[m] != 0:  # condition on the suffix being [0]
                m -= 1
            values.append(cond_prob_from_recurrences(s, m, 1, j, 1))
        assert abs(float(np.median(values)) - 0.3) <= 0.05


class TestMarkovOrder:
    # A higher frequency cutoff and a looser test threshold give the verdicts
    # clean statistical separation at these sample sizes; the default corner
    # sits right at the noise boundary for chains with stochastic successors.
    SEP = EstimatorParams(gamma=0.4, beta=0.19)

    def test_iid_gives_zero(self):
        rng = np.random.default_rng(0)
        s = Sample.forward(rng.integers(0, 2, size=5000))
        assert estimate_markov_order(s, self.SEP) == 0

    def test_order_one(self):
        rows = {(0,): {0: 0.7, 1: 0.3}, (1,): {0: 0.35, 1: 0.65}}
        s = generate(MarkovKernel(order=1, rows=rows), 20_000, seed=1)
        assert estimate_markov_order(s, self.SEP) == 1

    def test_order_two(self, order2_kernel):
        s = generate(order2_kernel, 20_000, seed=2)
        assert estimate_markov_order(s, self.SEP) == 2


class TestCondProbMarkov:
    def test_order_one_rows_recovered(self):
        rows = {(0,): {0: 0.8, 1: 0.2}, (1,): {0: 0.3, 1: 0.7}}
        s = generate(MarkovKernel(order=1, rows=rows), 50_000, seed=3)
        out = cond_prob_markov(s, EstimatorParams())
        assert out.in_stopping_set and out.order == 1
        tail = int(s.symbols[-1])
        for x, est in out.estimates.items():
            assert est.qhat == pytest.approx(rows[(tail,)][x], abs=0.02)
            assert est.method == "MARKOV"

    def test_matches_fm_formula(self, order2_kernel):
        s = generate(order2_kernel, 10_000, seed=4)
        out = cond_prob_markov(s, EstimatorParams())
        assert out.in_stopping_set
        for x, est in out.estimates.items():
            assert est.qhat == estimate_cond_prob(s, out.order, x).qhat

    def test_estimates_sum_to_one(self, order2_kernel):
        s = generate(order2_kernel, 5_000, seed=5)
        out = cond_prob_markov(s, EstimatorParams())
        assert sum(e.qhat for e in out.estimates.values()) == pytest.approx(1.0)


class TestFiniteAlphabetEstimate:
    """The paper's finite-alphabet estimator, the shortest suffix no longer
    than the estimated order that passes the test, is the backward estimate
    on the forward index: the suffix as long as the estimated order always
    passes (if frequent, by the definition of the order; if not, it has no
    frequent extension and scores 0)."""

    def test_iid(self):
        rng = np.random.default_rng(6)
        s = Sample.forward(rng.integers(0, 2, size=4000))
        assert backward_memory_estimate(forward_index(s), EstimatorParams()) == 0

    def test_order_one(self):
        rows = {(0,): {0: 0.9, 1: 0.1}, (1,): {0: 0.4, 1: 0.6}}
        s = generate(MarkovKernel(order=1, rows=rows), 20_000, seed=7)
        assert backward_memory_estimate(forward_index(s), EstimatorParams()) == 1

    @staticmethod
    def _check_against_naive(data, params):
        s = Sample.forward(data)
        idx = forward_index(s)
        order = estimate_markov_order(s, params, index=idx)
        want = naive.finite_alphabet_memory_estimate(idx, params, order)
        assert backward_memory_estimate(idx, params) == want

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=400),
        st.sampled_from(PARAM_GRID),
    )
    @settings(max_examples=60)
    def test_matches_suffix_loop(self, syms, params):
        self._check_against_naive(np.asarray(syms), params)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=["g.5b.24", "g.3b.1", "g.7b.1"])
    def test_matches_suffix_loop_at_scale(self, params, order2_kernel):
        rng = np.random.default_rng(8)
        parity = generate(parity_chain(), 20_000, seed=9).symbols
        order2 = generate(order2_kernel, 20_000, seed=9).symbols
        for n in (1, 2, 5, 30, 300, 3_000, 20_000):
            self._check_against_naive(parity[: n + 1], params)
            self._check_against_naive(order2[: n + 1], params)
            self._check_against_naive(rng.integers(0, 2, size=n + 1), params)
            self._check_against_naive(rng.integers(0, 3, size=n + 1), params)


class TestIidStructure:
    def test_deterministic_stream(self):
        s = Sample.forward([0, 1] * 200)
        center = 200  # a 0 followed deterministically by 1
        assert s.symbols[center] == 0
        chk = iid_structure_test(s, Word((0,)), 1, center, oracle_prob=1.0)
        assert chk.max_running_deviation == 0.0
        assert chk.lag1_autocorrelation == 0.0

    def test_wrong_center_rejected(self):
        s = Sample.forward([0, 1] * 10)
        from memlen.errors import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            iid_structure_test(s, Word((1,)), 0, 0, oracle_prob=0.5)

    def test_non_memory_word_departs(self, parity_model):
        # for a word that is NOT a memory word, nearby successors are tied
        # to the conditioning, so the running frequency starts biased
        from memlen.processes import generate

        s = generate(parity_model, 50_000, seed=9)
        data = s.symbols
        zeros = np.nonzero(data == 0)[0]
        center = int(zeros[len(zeros) // 2])
        chk = iid_structure_test(s, Word((0,)), 1, center, oracle_prob=0.25)
        assert chk.max_running_deviation >= 0.1

    def test_stochastic_stream_is_iid_like(self, parity_model):
        s = generate(parity_model, 100_000, seed=8)
        data = s.symbols
        # word [1,0,0] pins the hidden state; its successors follow a fair coin
        ends = np.nonzero((data[:-2] == 1) & (data[1:-1] == 0) & (data[2:] == 0))[0] + 2
        center = int(ends[len(ends) // 2])
        chk = iid_structure_test(s, Word((1, 0, 0)), 1, center, oracle_prob=0.5)
        assert chk.n_samples > 10_000
        # final frequency must settle near 1/2 and neighbours decorrelate
        final_dev = abs(
            np.mean(
                [1.0 if data[p] == 1 else 0.0 for p in _successor_positions(s, center)]
            )
            - 0.5
        )
        assert final_dev <= 0.02
        assert abs(chk.lag1_autocorrelation) <= 0.03


def _successor_positions(s, center):
    back = backward_recurrences(s, center, 3, 10**6).backward_offsets[1:]
    fwd = forward_recurrences(s, center, 3, 10**6).forward_offsets[1:]
    return [center - t + 1 for t in back] + [
        center + t + 1 for t in fwd if center + t + 1 <= s.n
    ]

import hashlib
import json
import warnings

import numpy as np
import pytest

from memlen import (
    GeometricJumpChain,
    InvalidModelError,
    LadderFunctionProcess,
    MarkovKernel,
    PerturbedJumpChain,
    RenewalProcess,
    generate,
    model_from_spec,
    model_to_spec,
    parity_chain,
    perturbed_chain_stage,
)
from memlen.processes import stationary_distribution


class TestMarkovKernel:
    def test_rejects_bad_row(self):
        with pytest.raises(InvalidModelError):
            MarkovKernel(order=1, rows={(0,): {0: 0.5, 1: 0.4}})

    def test_rejects_missing_reachable_context(self):
        with pytest.raises(InvalidModelError):
            MarkovKernel(order=1, rows={(0,): {0: 0.5, 1: 0.5}})

    def test_alphabet(self):
        rows = {(0,): {0: 0.5, 2: 0.5}, (2,): {0: 1.0}}
        assert MarkovKernel(order=1, rows=rows).alphabet == (0, 2)


class TestGeneration:
    def test_deterministic(self, parity_model):
        a = generate(parity_model, 500, seed=9)
        b = generate(parity_model, 500, seed=9)
        assert np.array_equal(a.symbols, b.symbols)

    def test_streams_differ(self, parity_model):
        a = generate(parity_model, 500, seed=9, stream=0)
        b = generate(parity_model, 500, seed=9, stream=1)
        assert not np.array_equal(a.symbols, b.symbols)

    def test_length(self, parity_model):
        assert len(generate(parity_model, 123, seed=0)) == 124

    def test_parity_chain_structure(self, parity_model):
        s = generate(parity_model, 20_000, seed=1)
        d = s.symbols
        # a one is always followed by at least two zeros
        assert np.sum((d[:-1] == 1) & (d[1:] == 1)) == 0
        assert np.sum((d[:-2] == 1) & (d[2:] == 1)) == 0
        # zeros between ones come in pairs
        ones = np.nonzero(d == 1)[0]
        gaps = np.diff(ones) - 1
        assert np.all(gaps % 2 == 0)

    def test_hidden_forced_transition(self):
        # the hidden 0 -> 1 transition is sure, so observing 1 forces a 0 next
        m = parity_chain()
        s = generate(m, 50_000, seed=2)
        d = s.symbols
        after_one = d[1:][d[:-1] == 1]
        assert np.all(after_one == 0)


class TestJumpChains:
    def test_row_sums(self):
        chain = GeometricJumpChain()
        for s in (0, 1, 5, 12):
            assert sum(chain.row(s).values()) == pytest.approx(1.0, abs=1e-12)

    def test_jump_to_zero_probability(self):
        chain = GeometricJumpChain()
        for s in (1, 3, 8):
            assert chain.row(s)[0] == pytest.approx(0.25, abs=1e-11)

    def test_perturbed_swap_preserves_mass(self):
        m = perturbed_chain_stage([3, 9, 27], 1)
        for prev, cur in [(3, 0), (9, 1), (4, 0), (9, 2)]:
            row = m.pair_row(prev, cur)
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_swap_values(self):
        m = perturbed_chain_stage([3, 9, 27], 0)
        base = GeometricJumpChain().row(0)
        swapped = m.pair_row(3, 0)
        assert swapped[0] == base[1] and swapped[1] == base[0]
        untouched = m.pair_row(4, 0)
        assert untouched[0] == base[0]

    def test_stage_minus_one_is_base(self):
        m = perturbed_chain_stage([3], -1)
        assert m.pair_row(3, 0) == GeometricJumpChain().row(0)

    def test_schedule_validation(self):
        with pytest.raises(InvalidModelError):
            PerturbedJumpChain(schedule=(3, 3), stage=0)
        with pytest.raises(InvalidModelError):
            PerturbedJumpChain(schedule=(1,), stage=0)  # needs t_0 > 1
        with pytest.raises(InvalidModelError):
            PerturbedJumpChain(schedule=(3,), stage=1)

    def test_swap_sampled_exactly(self):
        # empirically the swapped pair (t_0, 0) sends mass 1/2 to state 1
        m = perturbed_chain_stage([3, 9, 27], 0)
        s = generate(m, 200_000, seed=3)
        d = s.symbols
        mask = (d[:-2] == 3) & (d[1:-1] == 0)
        assert mask.sum() > 1000
        p1 = np.mean(d[2:][mask] == 1)
        assert p1 == pytest.approx(0.5, abs=0.03)


class TestLadder:
    def test_zero_set_membership(self):
        m = LadderFunctionProcess(extra_zeros=(5, 8))
        assert [m.observe(s) for s in range(10)] == [0, 0, 1, 1, 1, 0, 1, 1, 0, 1]

    def test_adjacency_rejected(self):
        with pytest.raises(InvalidModelError):
            LadderFunctionProcess(extra_zeros=(5, 6))

    def test_small_zeros_rejected(self):
        with pytest.raises(InvalidModelError):
            LadderFunctionProcess(extra_zeros=(3,))

    def test_modulus(self):
        m = LadderFunctionProcess(modulus=4)
        assert m.in_zero_set(8) and not m.in_zero_set(9)
        assert not m.in_zero_set(2)
        with pytest.raises(InvalidModelError):
            LadderFunctionProcess(modulus=1)

    def test_reset_block_pins_states(self):
        # 0,0,1 in the observed process can only come from hidden 0,1,2
        m = LadderFunctionProcess()
        s = generate(m, 30_000, seed=4)
        d = s.symbols
        idx = np.nonzero((d[:-2] == 0) & (d[1:-1] == 0) & (d[2:] == 1))[0]
        assert len(idx) > 100  # the reset recurs constantly


class TestConvenienceSurfaces:
    def test_ladder_function_process_rule_spec(self):
        s = generate(model_from_spec({"type": "ladder", "mod": 6}), 500, seed=12)
        assert set(np.unique(s.symbols)) <= {0, 1}


class TestRenewal:
    def test_deterministic_gap(self):
        s = generate(RenewalProcess(gap_probs={2: 1.0}), 50, seed=5)
        ones = np.nonzero(s.symbols == 1)[0]
        assert np.all(np.diff(ones) == 2)

    def test_geometric_p_one_is_all_ones_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = generate(RenewalProcess(geometric_p=1.0), 1000, seed=5)
        assert np.all(s.symbols == 1)

    def test_geometric_is_iid(self):
        s = generate(RenewalProcess(geometric_p=0.3), 400_000, seed=6)
        d = s.symbols
        assert np.mean(d) == pytest.approx(0.3, abs=0.01)
        p11 = np.mean((d[:-1] == 1) & (d[1:] == 1))
        assert p11 == pytest.approx(0.09, abs=0.01)

    def test_mean_gap_matches_law(self):
        law = {1: 0.2, 3: 0.5, 6: 0.3}
        model = RenewalProcess(gap_probs=law)
        s = generate(model, 200_000, seed=7)
        ones = np.nonzero(s.symbols == 1)[0]
        gaps = np.diff(ones)
        se = gaps.std() / np.sqrt(len(gaps))
        assert abs(gaps.mean() - model.mean_gap) <= 3 * se

    def test_validation(self):
        with pytest.raises(InvalidModelError):
            RenewalProcess(gap_probs={0: 1.0})
        with pytest.raises(InvalidModelError):
            RenewalProcess(geometric_p=0.0)
        with pytest.raises(InvalidModelError):
            RenewalProcess()


class TestEmpiricalConvergence:
    def test_transition_frequencies_match_kernel(self, order2_kernel):
        s = generate(order2_kernel, 1_000_000, seed=10)
        d = s.symbols
        worst = 0.0
        for (a, b), row in order2_kernel.rows.items():
            mask = (d[:-2] == a) & (d[1:-1] == b)
            succ = d[2:][mask]
            for x, p in row.items():
                if p < 0.05:
                    continue
                worst = max(worst, abs(float(np.mean(succ == x)) - p))
        assert worst <= 0.01


# sha256 of generate(model, 5000, seed=3).symbols.tobytes(), recorded before
# the finite and jump chain samplers became numpy scans: a change to any
# sampler's stream shows here
STREAM_DIGESTS = {
    "markov-order2": "e7b2a6504a58dcdec1f2947982481fa1c7d330a738ce4de69a490c9d62aba221",
    "hidden-parity": "6d08d863e4307ef43dee3c0b995f2224334bcee5bf6bd28e487ed67909f77bef",
    "geometric-jump": "bc948b44197013583260734f142e2d0cc95a848604bea3ae02b9e3529a8d6d52",
    "perturbed-jump": "506a881111d32c1da9bc6379d1ff33e3116ac92213947422a434372d68facd03",
    "ladder-extra-zeros": "2838def988d24a1daa9803e2c4ccb274106cf74dab5bee1f6d16c2834a354c9d",
    "ladder-modulus": "4d3f934610db2bf77747f53646bcf7bfb34b86e6ff11e479d835906794b6de9f",
    "renewal-gap-table": "fbbc017b36d1923ad491f5201b5c6680d277655fc2de17e3e589af5ee2428aa1",
    "renewal-geometric": "5d8077d9c3f3178df2476608828c5af4a78fc76149bebd8e2d8941e605122a5d",
}


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_generate_streams_are_pinned(name, order2_kernel):
    model = {
        "markov-order2": order2_kernel,
        "hidden-parity": parity_chain(),
        "geometric-jump": GeometricJumpChain(),
        "perturbed-jump": PerturbedJumpChain(schedule=(3, 5, 8), stage=1),
        "ladder-extra-zeros": LadderFunctionProcess(extra_zeros=(4, 7)),
        "ladder-modulus": LadderFunctionProcess(modulus=3),
        "renewal-gap-table": RenewalProcess(gap_probs={1: 0.2, 3: 0.5, 4: 0.3}),
        "renewal-geometric": RenewalProcess(geometric_p=0.3),
    }[name]
    symbols = generate(model, 5000, seed=3).symbols
    assert hashlib.sha256(symbols.tobytes()).hexdigest() == STREAM_DIGESTS[name]


class TestStationary:
    def test_three_state(self, parity_model):
        pi = stationary_distribution(
            [0, 1, 2], {c[0]: row for c, row in parity_model.kernel.rows.items()}
        )
        assert pi[0] == pytest.approx(0.2)
        assert pi[1] == pytest.approx(0.4)
        assert pi[2] == pytest.approx(0.4)


class TestModelSpecs:
    @pytest.mark.parametrize(
        "model",
        [
            parity_chain(),
            GeometricJumpChain(),
            perturbed_chain_stage([3, 9], 1),
            LadderFunctionProcess(extra_zeros=(5,)),
            LadderFunctionProcess(modulus=3),
            RenewalProcess(geometric_p=0.25),
            RenewalProcess(gap_probs={1: 0.5, 4: 0.5}),
            MarkovKernel(order=1, rows={(0,): {0: 0.5, 1: 0.5}, (1,): {0: 1.0}}),
        ],
    )
    def test_roundtrip(self, model):
        spec = model_to_spec(model)
        json.dumps(spec)  # must be serializable
        again = model_from_spec(spec)
        assert model_to_spec(again) == spec

    def test_preset(self):
        m = model_from_spec({"type": "hidden", "preset": "parity"})
        assert m == parity_chain()

    def test_unknown_type(self):
        with pytest.raises(InvalidModelError):
            model_from_spec({"type": "nope"})

    def test_roundtrip_generates_identically(self, parity_model):
        again = model_from_spec(model_to_spec(parity_model))
        a = generate(parity_model, 300, seed=8)
        b = generate(again, 300, seed=8)
        assert np.array_equal(a.symbols, b.symbols)

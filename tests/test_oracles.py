from fractions import Fraction

import pytest

from memlen import (
    GeometricJumpChain,
    ImpossiblePastError,
    InvalidModelError,
    LadderFunctionProcess,
    MarkovKernel,
    UNBOUNDED,
    Word,
    exact_chain,
    oracle_cond,
    oracle_memory,
)


class TestParityOracle:
    """Frozen exact values for the three-state hidden chain."""

    def test_trailing_one(self, parity_model):
        ans = oracle_memory(parity_model, Word((0, 1)))
        assert ans.memory_length == 1
        assert ans.law == {0: Fraction(1)}

    def test_one_zero(self, parity_model):
        ans = oracle_memory(parity_model, Word((1, 0)))
        assert ans.memory_length == 2
        assert ans.law == {0: Fraction(1)}

    def test_one_two_zeros(self, parity_model):
        ans = oracle_memory(parity_model, Word((1, 0, 0)))
        assert ans.memory_length == 3
        assert ans.law == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_deep_zeros(self, parity_model):
        ans = oracle_memory(parity_model, Word((1, 0, 0, 0, 0)))
        assert ans.memory_length == 5
        assert ans.law == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_all_zeros_unbounded(self, parity_model):
        assert oracle_memory(parity_model, Word((0, 0, 0, 0))).memory_length is UNBOUNDED

    def test_impossible_past(self, parity_model):
        with pytest.raises(ImpossiblePastError):
            oracle_memory(parity_model, Word((1, 1)))

    def test_cond_only(self, parity_model):
        assert oracle_cond(parity_model, Word((0, 0, 1))) == {0: Fraction(1)}

    def test_suffix_locality(self, parity_model):
        # the certificate depends only on the suffix, not on how far back
        # the past extends
        short = oracle_memory(parity_model, Word((1, 0, 0)))
        long = oracle_memory(parity_model, Word((0, 0, 1, 0, 0, 1, 0, 0)))
        assert short.memory_length == long.memory_length == 3
        assert short.law == long.law


class TestMarkovOracle:
    def test_iid_memory_zero(self):
        rows = {(0,): {0: 0.5, 1: 0.5}, (1,): {0: 0.5, 1: 0.5}}
        m = MarkovKernel(order=1, rows=rows)
        assert oracle_memory(m, Word((0, 1, 0))).memory_length == 0

    def test_order_one_distinct_rows(self):
        rows = {(0,): {0: 0.75, 1: 0.25}, (1,): {0: 0.5, 1: 0.5}}
        m = MarkovKernel(order=1, rows=rows)
        ans = oracle_memory(m, Word((1, 0)))
        assert ans.memory_length == 1
        assert ans.law == {0: Fraction(3, 4), 1: Fraction(1, 4)}

    def test_order_bounded_by_kernel_order(self):
        rows = {
            (a, b): {x: [0.6, 0.25, 0.15][(a + 2 * b + x) % 3] for x in range(3)}
            for a in range(3)
            for b in range(3)
        }
        m = MarkovKernel(order=2, rows=rows)
        for past in [(0, 1, 2), (2, 2, 0, 1)]:
            ans = oracle_memory(m, Word(past))
            assert ans.memory_length == 2
            ctx = past[-2:]
            assert ans.law_float() == pytest.approx(
                {x: rows[ctx][x] for x in range(3)}
            )


class TestLadderOracle:
    def test_trailing_one(self):
        m = LadderFunctionProcess()
        ans = oracle_memory(m, Word((0, 1)))
        assert ans.memory_length == 1
        assert ans.law == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_one_then_zero(self):
        # ...1,0 pins the hidden chain at 0, which climbs to 1 surely
        m = LadderFunctionProcess()
        ans = oracle_memory(m, Word((1, 0)))
        assert ans.memory_length == 2
        assert ans.law == {0: Fraction(1)}

    def test_two_zeros(self):
        # ...0,0 pins the hidden chain at 1, which climbs to 2 surely
        m = LadderFunctionProcess()
        ans = oracle_memory(m, Word((0, 0)))
        assert ans.memory_length == 2
        assert ans.law == {1: Fraction(1)}

    def test_stationary_exact(self):
        chain = exact_chain(LadderFunctionProcess())
        pi = {s: p for s, p in zip(chain.states, chain.pi)}
        assert pi[0] == Fraction(1, 4)
        assert pi[1] == Fraction(1, 4)
        assert pi["high"] == Fraction(1, 2)

    def test_extra_zero_changes_memory(self):
        plain = LadderFunctionProcess()
        rich = LadderFunctionProcess(extra_zeros=(5,))
        past = Word((1, 1, 0))
        # with an extra zero at 5, a trailing 0 no longer pins one state
        assert oracle_memory(plain, past).memory_length == 2
        assert oracle_memory(rich, past).memory_length != 2 or oracle_cond(
            rich, past
        ) != oracle_cond(plain, past)

    def test_infinite_zero_set_rule(self):
        m = LadderFunctionProcess(modulus=6)
        base = Word((0, 0, 1))
        k0 = oracle_memory(m, base).memory_length
        assert k0 == 3
        # the climb from the revealed state passes 3, 4, 5 before the zero at 6
        for j in (1, 2, 3):
            past = Word((0, 0, 1) + (1,) * j)
            k = oracle_memory(m, past).memory_length
            assert k == 3 + j  # longer all-ones suffixes get larger certificates

    def test_infinite_no_reset_unbounded(self):
        m = LadderFunctionProcess(modulus=4)
        ans = oracle_memory(m, Word((1, 1, 1, 1)))
        assert ans.memory_length is UNBOUNDED
        assert ans.law is None

    def test_no_exact_chain_for_infinite(self):
        with pytest.raises(InvalidModelError):
            exact_chain(LadderFunctionProcess(modulus=4))


class TestJumpOracle:
    """The jump chain is observed directly: its law is the current row."""

    @pytest.mark.parametrize("state", [0, 1, 5])
    def test_law_is_the_row(self, state):
        law = oracle_cond(GeometricJumpChain(), Word((2, state)))
        assert law[state] == Fraction(1, 2 ** (state + 1))
        assert sum(law.values()) == 1 - Fraction(1, 2**40)
        row = GeometricJumpChain().row(state)
        assert set(law) == set(row)
        assert all(float(law[x]) == pytest.approx(row[x], rel=1e-11) for x in row)

    def test_no_memory_oracle(self):
        with pytest.raises(InvalidModelError):
            oracle_memory(GeometricJumpChain(), Word((1,)))
        with pytest.raises(InvalidModelError):
            oracle_cond(GeometricJumpChain(), Word(()))


class TestBruteForceAgreement:
    """The point-mass filter criterion must agree with the definition check
    by explicit extension enumeration (exact arithmetic)."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_parity(self, parity_model, length):
        chain = exact_chain(parity_model)
        for bits in range(2**length):
            past = Word(tuple((bits >> i) & 1 for i in range(length)))
            try:
                fast = chain.memory_length(past)
            except ImpossiblePastError:
                with pytest.raises(ImpossiblePastError):
                    chain.brute_force_memory_length(past, depth=6)
                continue
            assert fast == chain.brute_force_memory_length(past, depth=6)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_ladder(self, length):
        chain = exact_chain(LadderFunctionProcess())
        for bits in range(2**length):
            past = Word(tuple((bits >> i) & 1 for i in range(length)))
            try:
                fast = chain.memory_length(past)
            except ImpossiblePastError:
                continue
            assert fast == chain.brute_force_memory_length(past, depth=6)

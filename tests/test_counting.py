import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from memlen import (
    CountIndex,
    EstimatorParams,
    GeometricJumpChain,
    MemlenError,
    Sample,
    UndefinedConditionalError,
    Word,
    backward_memory_estimate,
    count_context,
    count_transition,
    decide_p,
    empirical_cond_prob,
    frequent_extensions,
    generate,
    is_frequent,
    parity_chain,
)
from memlen.forward import ReconstructionScheme, forward_index

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


class TestLengthZero:
    """Length 0 is the empty word's one block: id 0 at each of the n + 1
    ends, n of them contexts, first ending at 0.  Its id array is one zero
    broadcast, read-only and allocating nothing per end."""

    @pytest.mark.parametrize(
        "syms, n",
        [(np.full(41, 4), 40), (np.random.default_rng(20).integers(0, 3, size=500), 499)],
        ids=["constant", "random"],
    )
    def test_tables(self, syms, n):
        idx = index_of(syms)
        ids = idx.ids(0)
        assert ids.tolist() == [0] * (n + 1)
        assert ids.strides == (0,)
        assert not ids.flags.writeable
        assert idx.n_ids(0) == 1
        assert idx.l_count(0).tolist() == [n + 1]
        assert idx.ctx_count(0).tolist() == [n]
        assert idx.first_ends(0).tolist() == [0]
        assert idx.decode(0, 0) == Word(())
        assert idx.word_id(Word(())) == 0
        assert [a.tolist() for a in idx.frequent_blocks(0, 0.5)] == [[0], [0]]

    def test_negative_length_and_csr_raise(self):
        idx = index_of([0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            idx.ids(-1)
        with pytest.raises(ValueError):
            idx.positions_by_id(0)


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


def wide_alphabet_sample(n_symbols):
    """Every symbol of the alphabet once, then a binary tail long enough to
    leave frequent blocks several lengths deep."""
    rng = np.random.default_rng(n_symbols)
    return np.concatenate([rng.permutation(n_symbols), rng.integers(0, 2, size=20000)])


def table_samples():
    rng = np.random.default_rng(11)
    return {
        "binary": rng.integers(0, 2, size=3001),
        "ternary": rng.integers(0, 3, size=3001),
        "constant": np.full(41, 4),
        "alternating": np.array([(i + 1) % 2 for i in range(101)]),
        "jump": generate(GeometricJumpChain(), 5000, 5).symbols,
        # six symbols in 41: table at lengths 1-2, radix from 3, and the
        # table again from the length where few blocks are left
        "switch": np.random.default_rng(8).integers(0, 6, size=41),
    }


def passes(index, top):
    """'T' or 'R' for each length 1..top: whether the table of (older
    symbol, previous id) pairs fits in 2(n + 2) cells, twice the padded
    key."""
    n_prev = [1] + [index.n_ids(length) for length in range(1, top)]
    fits = [len(index.symbol_values) * n <= 2 * (index.n + 2) for n in n_prev]
    return "".join("T" if f else "R" for f in fits)


# the id dtype at length 1 sits on each side of the int8 and int16 limits
WIDE_ALPHABETS = {127: np.int8, 128: np.int16, 32767: np.int16, 32768: np.int32, 40000: np.int32}


class TestAgainstSortedTables:
    """The table and radix passes give the per-length tables the comparison
    sorts gave: ids, counts, CSR positions and offsets, and frequent blocks,
    at every length up to l_max + 1 (n + 3 on the short samples).  Each
    length's CSR positions are asked for while it is the newest."""

    @staticmethod
    def assert_same_tables(syms, gamma=0.5):
        idx = index_of(syms)
        ref = naive.SortedTableIndex(Sample.backward(syms))
        l_max = idx.max_frequent_length(gamma)
        assert l_max == ref.max_frequent_length(gamma)
        n = len(syms) - 1
        top = n + 3 if n < 200 else l_max + 1
        for length in range(1, top + 1):
            assert np.array_equal(idx.ids(length), ref.ids(length))
            assert idx.n_ids(length) == ref.n_ids(length)
            assert np.array_equal(idx.l_count(length), ref.l_count(length))
            for got, want in zip(idx.positions_by_id(length), ref.positions_by_id(length)):
                assert np.array_equal(got, want)
            for got, want in zip(idx.frequent_blocks(length, gamma), ref.frequent_blocks(length, gamma)):
                assert np.array_equal(got, want)
        return idx

    @pytest.mark.parametrize("name", sorted(table_samples()))
    def test_samples(self, name):
        idx = self.assert_same_tables(table_samples()[name])
        if name == "switch":
            assert passes(idx, idx.n + 3) == "TT" + "R" * 26 + "T" * 15

    def test_radix_after_an_int32_table_length(self):
        # four symbols at n = 1e5: the table pass builds lengths 1-8, the
        # last with more ids than int16 holds, so the first radix length
        # sorts its ends from int32 ids.  The wider gamma keeps frequent
        # blocks up to length 10, past that switch
        syms = np.random.default_rng(12).integers(0, 4, size=100_001)
        idx = self.assert_same_tables(syms, gamma=0.9)
        first_radix = passes(idx, idx.max_frequent_length(0.9) + 1).index("R") + 1
        assert idx.ids(first_radix - 1).dtype == np.int32

    @pytest.mark.parametrize("n_symbols", sorted(WIDE_ALPHABETS))
    def test_wide_alphabets(self, n_symbols):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrapping narrow scalar warns
            idx = self.assert_same_tables(wide_alphabet_sample(n_symbols))
        assert idx.ids(1).dtype == WIDE_ALPHABETS[n_symbols]

    @pytest.mark.parametrize("n_symbols", sorted(WIDE_ALPHABETS))
    def test_decisions_on_wide_alphabets(self, n_symbols):
        syms = wide_alphabet_sample(n_symbols)
        params = EstimatorParams()
        forward = Sample.forward(syms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backward_memory_estimate(
                index_of(syms), params
            ) == backward_memory_estimate(naive.SortedTableIndex(Sample.backward(syms)), params)
            ref = naive.SortedTableIndex(Sample.backward(syms))
            assert decide_p(forward, params, index=forward_index(forward)) == decide_p(
                forward, params, index=ref
            )
            for estimator in (None, lambda past: 1):  # default, and one reading ids at length 1
                scheme = ReconstructionScheme(forward, params, backward_estimator=estimator)
                assert scheme.decide(index=forward_index(forward)) == scheme.decide(index=ref)

    def test_sample_too_long_for_int32_ends(self):
        # refused before any array is touched
        huge = type("Huge", (), {"orientation": "backward", "n": np.iinfo(np.int32).max})()
        with pytest.raises(MemlenError, match="int32"):
            CountIndex(huge)


class TestFirstEnds:
    """The earliest end of every id, which the forward stopping rule reads
    in place of the id arrays, is the one ``np.minimum.at`` finds over the
    sorted ids, at every length the sorted-table comparison reads; the
    index hands it out read-only."""

    @staticmethod
    def assert_same_first_ends(syms):
        idx = index_of(syms)
        ref = naive.SortedTableIndex(Sample.backward(syms))
        n = len(syms) - 1
        top = n + 3 if n < 200 else ref.max_frequent_length(0.5) + 1
        for length in range(1, top + 1):
            first = idx.first_ends(length)
            assert np.array_equal(first, ref.first_ends(length))
            assert not first.flags.writeable

    @pytest.mark.parametrize("name", sorted(table_samples()))
    def test_samples(self, name):
        self.assert_same_first_ends(table_samples()[name])

    @pytest.mark.parametrize("n_symbols", sorted(WIDE_ALPHABETS))
    def test_wide_alphabets(self, n_symbols):
        self.assert_same_first_ends(wide_alphabet_sample(n_symbols))


class TestCallOrder:
    """Only a radix-built newest length carries its sorted ends, so every
    table must come out the same whichever lengths were built or asked for
    before, and whichever pass built them."""

    @staticmethod
    def assert_same(got_pair, want_pair):
        for got, want in zip(got_pair, want_pair):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["binary", "jump", "constant", "switch"])
    def test_tables_after_building_past_l_max(self, name):
        syms = table_samples()[name]
        idx = index_of(syms)
        ref = naive.SortedTableIndex(Sample.backward(syms))
        n = len(syms) - 1
        # the short samples are built to n + 2, past the switch back to the table
        top = n + 2 if n < 200 else ref.max_frequent_length(0.5) + 5
        idx.ids(top)
        rng = np.random.default_rng(len(syms))
        for gamma in (0.7, 0.3, 0.5):
            for length in rng.permutation(np.arange(1, top + 1)).tolist():
                got, want = idx.frequent_blocks(length, gamma), ref.frequent_blocks(length, gamma)
                self.assert_same(got, want)
        old = rng.permutation(np.arange(1, top)).tolist()
        for length in old[: len(old) // 2] + [top] + old[len(old) // 2 :]:
            self.assert_same(idx.positions_by_id(length), ref.positions_by_id(length))
        idx.ids(top + 1)
        for length in range(1, top + 2):
            assert np.array_equal(idx.ids(length), ref.ids(length))
            assert np.array_equal(idx.l_count(length), ref.l_count(length))
            assert np.array_equal(idx.first_ends(length), ref.first_ends(length))
            self.assert_same(idx.positions_by_id(length), ref.positions_by_id(length))
            self.assert_same(idx.frequent_blocks(length, 0.5), ref.frequent_blocks(length, 0.5))


class TestReadOnlyTables:
    """An index keeps its tables and hands the same arrays to every reader,
    so no table it hands out may be written into."""

    def test_writes_raise(self):
        idx = index_of(np.random.default_rng(2).integers(0, 2, size=500))
        l_max = idx.max_frequent_length(0.5)
        tables = [idx.ids(1), idx.l_count(1), idx.ctx_count(1), *idx.frequent_blocks(1, 0.5)]
        tables += [*idx.positions_by_id(l_max + 1), *idx.positions_by_id(1)]
        for table in tables:
            assert len(table)
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestTablePassBuffers:
    """While its newest length is table-built, an index keeps the table
    pass's code and end buffers and reuses them at the next table-built
    length; no table it keeps is a view of them."""

    def test_table_length_allocates_only_its_tables(self):
        # a table-built length makes its id array (1 byte per end here) and
        # tables of a few cells; the n-sized codes and ends are reused
        s = generate(parity_chain(), 200_000, seed=3)
        idx = forward_index(s)
        idx.ids(2)
        assert passes(idx, 7) == "T" * 7
        for length in range(3, 8):
            tracemalloc.start()
            try:
                idx.ids(length)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * len(s)
            assert retained < 1.5 * len(s)

    def test_buffers_stay_with_their_index(self):
        # two indexes built length by length in turn, across the switch
        # from the table to the radix pass and back, give the tables of a
        # fresh index built alone and of the comparison sorts
        samples = {name: table_samples()[name] for name in ("binary", "switch")}
        indexes = {name: index_of(syms) for name, syms in samples.items()}
        tops = {}
        for name, syms in samples.items():
            n = len(syms) - 1
            tops[name] = n + 2 if n < 200 else index_of(syms).max_frequent_length(0.5) + 5
        for length in range(1, max(tops.values()) + 1):
            for name, idx in indexes.items():
                if length <= tops[name]:
                    idx.ids(length)
        assert passes(indexes["switch"], tops["switch"]) == "TT" + "R" * 26 + "T" * 14
        for name, idx in indexes.items():
            alone = index_of(samples[name])
            alone.ids(tops[name])
            ref = naive.SortedTableIndex(Sample.backward(samples[name]))
            for length in range(1, tops[name] + 1):
                for other in (alone, ref):
                    assert np.array_equal(idx.ids(length), other.ids(length))
                    assert np.array_equal(idx.l_count(length), other.l_count(length))
                    for got, want in zip(
                        idx.frequent_blocks(length, 0.5), other.frequent_blocks(length, 0.5)
                    ):
                        assert np.array_equal(got, want)
            ids = [idx.ids(length) for length in range(1, tops[name] + 1)]
            for i, a in enumerate(ids):
                assert not any(np.shares_memory(a, b) for b in ids[i + 1 :])


class TestRadixPassBuffers:
    """While its newest length is radix-built, an index keeps two pairs of
    sorted ends and ids (int32), which swap roles at each length, and the
    pass's symbol keys and run flags: 18 bytes per end below 128 symbols.
    A radix length writes into them and allocates only the sort's
    permutation, the run starts and its own tables; no table it keeps is a
    view of the buffers."""

    # numpy's cast and iterator buffers, in chunks of 8192 elements
    SLACK = 2**18

    def test_radix_length_allocates_only_its_tables(self):
        s = generate(GeometricJumpChain(), 200_000, seed=3)
        probe = forward_index(s)
        top = probe.max_frequent_length(0.5) + 1
        assert passes(probe, top) == "TTTT" + "R" * 5
        assert len(probe.symbol_values) < 128
        idx = forward_index(s)
        idx.ids(4)
        ends = idx.n + 1
        for length in range(5, top + 1):
            tracemalloc.start()
            try:
                idx.ids(length)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            n_ids = idx.n_ids(length)
            # the ids, and the counts and earliest ends (int32)
            tables = idx.ids(length).itemsize * ends + 8 * n_ids
            # the permutation and the run starts (intp)
            made = 8 * ends + 8 * (n_ids + 1)
            # the carried buffers, made by the first radix length
            kept = 18 * ends if length == 5 else 0
            assert peak < kept + made + tables + self.SLACK
            assert retained < kept + tables + self.SLACK

    def test_buffers_stay_with_their_index(self):
        # two jump samples built length by length in turn, through their
        # radix lengths, give the tables of an index built alone, and no
        # two kept tables share memory
        samples = {seed: generate(GeometricJumpChain(), 5000, seed=seed).symbols for seed in (5, 6)}
        indexes = {seed: index_of(syms) for seed, syms in samples.items()}
        top = max(index_of(syms).max_frequent_length(0.5) for syms in samples.values()) + 3
        for length in range(1, top + 1):
            for idx in indexes.values():
                idx.ids(length)
        for seed, idx in indexes.items():
            assert "RRR" in passes(idx, top)
            alone = index_of(samples[seed])
            alone.ids(top)
            tables = []
            for length in range(1, top + 1):
                tables += [idx.ids(length), idx.l_count(length), idx.first_ends(length)]
                assert np.array_equal(idx.ids(length), alone.ids(length))
                assert idx.ids(length).dtype == alone.ids(length).dtype
                assert np.array_equal(idx.l_count(length), alone.l_count(length))
                assert np.array_equal(idx.first_ends(length), alone.first_ends(length))
            for i, a in enumerate(tables):
                assert not any(np.shares_memory(a, b) for b in tables[i + 1 :])


class TestSymbolKey:
    """Symbols no larger than n are ranked by presence instead of sorted;
    either way the values and length-1 ids are np.unique's."""

    @pytest.mark.parametrize(
        "syms",
        [
            np.random.default_rng(4).choice([0, 3, 4, 17, 40], size=500),
            np.array([6, 2, 6, 0, 2, 5, 6]),  # largest symbol equal to n
            np.array([3, 10**12, 3, 8, 10**12, 0]),
        ],
        ids=["gapped", "largest-is-n", "huge"],
    )
    def test_matches_unique(self, syms):
        idx = index_of(syms)
        values, inverse = np.unique(syms, return_inverse=True)
        assert np.array_equal(idx.symbol_values, values)
        assert np.array_equal(idx.ids(1), inverse)
        assert idx.ids(1).dtype == np.int8

"""Kernels against direct scans, and the recurrence views built on them."""

import numpy as np
import pytest

import memlen._kernels as K
import naive
from memlen import CountIndex, MarkovKernel, Sample, parity_chain
from memlen.condprob import backward_recurrences, forward_recurrences
from memlen.processes import _kernel_tables


@pytest.mark.parametrize("seed", range(5))
def test_occurrence_positions_matches_scan(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 3, size=300).astype(np.int64)
    for k in (0, 1, 2, 4):
        word = rng.integers(0, 3, size=k).astype(np.int64)
        # the fixed ranges reach below 0, where the empty word ends at -1
        ranges = [(-2, 3), (-1, -1)] + [sorted(rng.integers(-2, 305, size=2)) for _ in range(10)]
        for lo, hi in ranges:
            lo, hi = int(lo), int(hi)
            got = K.occurrence_positions(data, word, lo, hi)
            assert list(got) == naive.scan_ends(data, word, lo, hi)


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
        s = naive.step_geometric_jump(rng_b.random(), s)
    for i in range(200):
        s = naive.step_geometric_jump(rng_b.random(), s)
        out_b[i] = s
    assert np.array_equal(a, out_b)


def _down_jump_sums():
    # the running sums of step_geometric_jump's down-jump loop
    sums, acc = [], 0.0
    for j in range(64):
        acc += 2.0 ** (-j - 2)
        sums.append(acc)
    return sums


def test_geometric_jump_maps_match_step_at_float_boundaries():
    # pins what the scan relies on: the stay threshold is 0.5 at every s and
    # the down-jump thresholds do not depend on s
    us = [0.0, 0.5 - 2.0**-53, 0.5, np.nextafter(1.0, 0.0)]
    for acc in _down_jump_sums():
        us += [np.nextafter(acc, 0.0), acc, np.nextafter(acc, 1.0)]
    # the climbs change where 1 - v, v = (u - 0.5) / 0.5, is a power of two
    for k in range(1, 54):
        edge = 1.0 - 2.0 ** (-k - 1)
        us += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    us = np.array([u for u in us if 0.0 <= u < 1.0])
    a, b = K.geometric_jump_maps(us)
    for s in range(71):
        expected = [naive.step_geometric_jump(float(u), s) for u in us]
        assert list(np.minimum(a, s + b)) == expected, s


def _zero_cell_kernel():
    # 9 contexts over 3 symbols, each row with a zero-probability cell
    rows = {
        (a, b): {x: (0.0 if x == (a + b) % 3 else 0.5) for x in range(3)}
        for a in range(3)
        for b in range(3)
    }
    return MarkovKernel(order=2, rows=rows)


# block sizes are isqrt(n): 400 is a perfect square, 420 = 20 * 21 ends a
# block, and 419 and 421 fall one step short of and one step past it
SAMPLER_LENGTHS = (1, 2, 400, 419, 420, 421, 10_001)


class _Uniforms:
    """Stands in for a generator, handing out given uniforms in order."""

    def __init__(self, values):
        self.values = values
        self.drawn = 0

    def random(self, size=None, out=None):
        k = len(out) if out is not None else 1 if size is None else size
        values = self.values[self.drawn : self.drawn + k]
        self.drawn += k
        if out is not None:
            out[:] = values
            return out
        return float(values[0]) if size is None else np.array(values, dtype=np.float64)


KERNEL_NAMES = ["parity", "order2", "zero-cells", "one-context"]


def _kernel(name, order2_kernel):
    return {
        "parity": parity_chain().kernel,
        "order2": order2_kernel,
        "zero-cells": _zero_cell_kernel(),
        "one-context": MarkovKernel(order=1, rows={(4,): {4: 1.0}}),
    }[name]


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_finite_chain_sampler_matches_step_loop(kernel_name, order2_kernel):
    _, _, cum, out_syms, next_ctx = _kernel_tables(_kernel(kernel_name, order2_kernel))
    for seed in (1, 2, 3):
        ctx0 = seed % len(cum)
        for n in SAMPLER_LENGTHS:
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            got = K.sample_finite_chain(rng_a, n, ctx0, next_ctx, cum, out_syms)
            want = naive.sample_finite_chain(rng_b, n, ctx0, next_ctx, cum, out_syms)
            assert np.array_equal(got, want), (seed, n)
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_finite_chain_sampler_matches_step_loop_at_row_boundaries(kernel_name, order2_kernel):
    # uniforms on the cumulative probabilities and their neighbours, where
    # the choice of a step turns on a tie
    _, _, cum, out_syms, next_ctx = _kernel_tables(_kernel(kernel_name, order2_kernel))
    edges = np.unique(np.concatenate([[0.0], cum.ravel()]))
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    values = np.random.default_rng(4).choice(edges, size=2 * 421)
    for n in SAMPLER_LENGTHS[:-1]:
        got = K.sample_finite_chain(_Uniforms(values), n, 0, next_ctx, cum, out_syms)
        want = naive.sample_finite_chain(_Uniforms(values), n, 0, next_ctx, cum, out_syms)
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("burn_in, s0", [(0, 0), (0, 60), (37, 5)])
def test_geometric_jump_sampler_matches_step_loop(burn_in, s0):
    for seed in (1, 2, 3):
        for n in SAMPLER_LENGTHS:
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            got = K.sample_geometric_jump(rng_a, n, burn_in, s0)
            want = naive.sample_geometric_jump(rng_b, n, burn_in, s0)
            assert np.array_equal(got, want), (seed, n)
            assert rng_a.random() == rng_b.random()


def test_finite_chain_sampler_never_emits_padding():
    # rows summing to just under 1: the u above a row's sum goes to its last
    # positive cell, not to the padding after a narrow row or to a zero cell
    narrow = {
        (0,): {1: 1.0},
        (1,): {1: 0.5, 2: 0.4999999999999},
        (2,): {0: 0.2, 1: 0.3, 2: 0.5},
    }
    zero_last = {**narrow, (1,): {1: 0.5, 2: 0.4999999999999, 3: 0.0}}
    for rows in (narrow, zero_last):
        _, cidx, cum, out_syms, next_ctx = _kernel_tables(MarkovKernel(order=1, rows=rows))
        u = _Uniforms([0.99999999999995] * 2)
        got = K.sample_finite_chain(u, 2, cidx[(1,)], next_ctx, cum, out_syms)
        assert list(got) == [2, 2]


# these samplers cut no blocks, so need no lengths around block boundaries
WALK_LENGTHS = (1, 2, 3, 5, 17, 1000, 20_001)


@pytest.mark.parametrize("s0", [0, 1, 2, 3, 9])
def test_ladder_sampler_matches_step_loop(s0):
    for seed in range(1, 6):
        for n in WALK_LENGTHS:
            got = K.sample_ladder_chain(np.random.default_rng(seed), n, s0)
            want = naive.sample_ladder_chain(np.random.default_rng(seed), n, s0)
            assert got.dtype == want.dtype and np.array_equal(got, want), (seed, n)


# cumulative gap law and geometric p: a table with a zero cell (no gap 2),
# the table {1: 1.0} by which geometric_p = 1 is sampled, and geometric gaps
RENEWAL_LAWS = {
    "table-zero-cell": (np.array([0.2, 0.2, 0.7, 1.0]), 0.0),
    "table-one": (np.ones(1), 0.0),
    "geometric-0.01": (np.empty(0), 0.01),
    "geometric-0.3": (np.empty(0), 0.3),
}


@pytest.mark.parametrize("law", sorted(RENEWAL_LAWS))
def test_renewal_sampler_matches_step_loop(law):
    gap_cum, geom_p = RENEWAL_LAWS[law]
    for seed in range(1, 6):
        for n in WALK_LENGTHS:
            for first_one in (0, 3, n + 2):
                args = (n, first_one, gap_cum, geom_p)
                got = K.sample_renewal(np.random.default_rng(seed), *args)
                want = naive.sample_renewal(np.random.default_rng(seed), *args)
                assert np.array_equal(got, want), (seed, n, first_one)


def test_ladder_and_renewal_samplers_match_step_loops_at_ties():
    # uniforms on the thresholds and their neighbours, where a draw turns on
    # a tie: a ladder flip resets below 0.5, and a gap is the first whose
    # cumulative probability exceeds u
    rng = np.random.default_rng(4)
    gap_cum = RENEWAL_LAWS["table-zero-cell"][0]
    edges = np.concatenate([[0.0, 0.5], gap_cum])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    values = rng.choice(edges, size=1000)
    for n in WALK_LENGTHS[:-1]:
        for s0 in (0, 3):
            got = K.sample_ladder_chain(_Uniforms(values), n, s0)
            want = naive.sample_ladder_chain(_Uniforms(values), n, s0)
            assert np.array_equal(got, want), (n, s0)
        got = K.sample_renewal(_Uniforms(values), n, 0, gap_cum, 0.0)
        want = naive.sample_renewal(_Uniforms(values), n, 0, gap_cum, 0.0)
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("schedule", [(), (3,), (3, 5)], ids=["no-pairs", "one-pair", "two-pairs"])
def test_perturbed_jump_sampler_matches_step_loop(schedule):
    sched_prev = np.array(schedule, dtype=np.int64)
    sched_cur = np.arange(len(schedule), dtype=np.int64)
    for seed in range(1, 6):
        for n in WALK_LENGTHS:
            for burn_in, s0 in ((0, 0), (37, 5)):
                args = (n, burn_in, s0, sched_prev, sched_cur)
                got = K.sample_perturbed_jump(np.random.default_rng(seed), *args)
                want = naive.sample_perturbed_jump(np.random.default_rng(seed), *args)
                assert got.dtype == want.dtype and np.array_equal(got, want), (seed, n)
        # on the last (longest) run the swaps take effect, and without pairs
        # the chain is the base one
        base = K.sample_geometric_jump(np.random.default_rng(seed), n, burn_in, s0)
        assert np.array_equal(got, base) == (not schedule)


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

"""Naive reference implementations used as independent test oracles.

Everything here recomputes statistics by direct window scans over the raw
symbol array (numpy sliding windows), deliberately sharing no code with the
indexed fast paths.  The samplers are step-by-step walks that draw one
uniform at a time, the references for the samplers in ``memlen._kernels``.
"""

import numpy as np

from memlen.counting import CountIndex
from memlen.forward import StoppingDecision, reconstruct_past
from memlen.sequence import Sample


def scan_ends(data, word, lo, hi):
    """End positions j in [lo, hi] where word == data[j-k+1 .. j]."""
    data = np.asarray(data)
    k = len(word)
    lo = max(lo, k - 1)
    hi = min(hi, len(data) - 1)
    if lo > hi:
        return []
    if k == 0:
        return list(range(lo, hi + 1))
    win = np.lib.stride_tricks.sliding_window_view(data, k)
    ends = np.nonzero(np.all(win == np.asarray(word), axis=1))[0] + (k - 1)
    return [int(j) for j in ends if lo <= j <= hi]


def count_context(data, word):
    n = len(data) - 1
    if len(word) == 0:
        return n
    return len(scan_ends(data, word, len(word) - 1, n - 1))


def count_transition(data, word, x):
    data = np.asarray(data)
    n = len(data) - 1
    if len(word) == 0:
        return int(np.sum(data[1 : n + 1] == x))
    ends = scan_ends(data, word, len(word) - 1, n - 1)
    return sum(1 for j in ends if data[j + 1] == x)


def cond_prob(data, word, x):
    c = count_context(data, word)
    return count_transition(data, word, x) / c


def l_count(data, word):
    n = len(data) - 1
    return len(scan_ends(data, word, len(word) - 1, n))


def is_frequent(data, word, gamma):
    n = len(data) - 1
    return l_count(data, word) > n ** (1.0 - gamma)


def frequent_extensions(data, word, i, gamma):
    data = np.asarray(data)
    n = len(data) - 1
    k = len(word)
    thr = n ** (1.0 - gamma)
    seen = set()
    for j in scan_ends(data, word, k + i - 1, n - 1):
        z = tuple(int(s) for s in data[j - k - i + 1 : j - k + 1])
        x = int(data[j + 1])
        seen.add((z, x))
    out = set()
    for z, x in seen:
        full = list(z) + list(word) + [x]
        if l_count(data, full) > thr:
            out.add((z, x))
    return out


def discrepancy(data, word, gamma):
    """Largest conditional gap over frequent extensions, scanned directly."""
    data = np.asarray(data)
    n = len(data) - 1
    k = len(word)
    best = 0.0
    for i in range(1, n + 1):
        if k + i + 1 > n + 1:
            break
        exts = frequent_extensions(data, word, i, gamma)
        if not exts:
            break
        for z, x in exts:
            zw = list(z) + list(word)
            d = abs(cond_prob(data, word, x) - cond_prob(data, zw, x))
            best = max(best, d)
    return best


def chi(data, gamma, beta):
    """Shortest suffix passing the test, by direct scanning."""
    data = np.asarray(data)
    n = len(data) - 1
    thr = n ** (-beta) if n > 0 else np.inf
    for k in range(0, n):
        w = list(data[len(data) - k :]) if k else []
        if discrepancy(data, w, gamma) <= thr:
            return k
    return n


def recurrences_before(data, end, k, count):
    """Offsets t = 1, 2, ... (at most ``count``) at which the length-k block
    ending at ``end`` recurs ending at end - t, scanned one step at a time;
    the empty block recurs everywhere, down to the block ending at -1."""
    out = []
    t = 1
    while len(out) < count and end - t - k + 1 >= 0:
        if all(data[end - t - k + 1 + s] == data[end - k + 1 + s] for s in range(k)):
            out.append(t)
        t += 1
    return out


def recurrences_after(data, end, k, count):
    """Offsets t = 1, 2, ... (at most ``count``) at which the block recurs
    ending at end + t, within the data."""
    out = []
    t = 1
    n = len(data) - 1
    while len(out) < count and end + t <= n:
        if all(data[end + t - k + 1 + s] == data[end - k + 1 + s] for s in range(k)):
            out.append(t)
        t += 1
    return out


def reconstruct(data, anchor, horizon):
    """Recurrence times and symbols of the reconstruction at ``anchor`` from
    data[0 .. horizon]: level m is the first forward recurrence of the
    length-m block ending where level m - 1 recurred."""
    data = np.asarray(data)[: horizon + 1]
    times, symbols = [0], [int(data[anchor])]
    while True:
        m = len(times)
        offs = recurrences_after(data, anchor + times[-1], m, 1)
        if not offs:
            return times, symbols
        times.append(times[-1] + offs[0])
        symbols.append(int(data[anchor + times[-1] - m]))


# ---------------------------------------------------------------------------
# Per-position discrepancy sweeps.  These visit every sample position and
# read the index's per-length id and count tables there, the way the package
# did before it computed the statistic once per distinct frequent block; the
# fast paths must reproduce them bit for bit, witnesses included.
# ---------------------------------------------------------------------------


def max_frequent_length(index, gamma):
    """Largest length at which some block count exceeds n^(1-gamma)."""
    thr = float(index.n) ** (1.0 - gamma)
    length = 0
    while length <= index.n:
        cnt = index.l_count(length + 1)
        if len(cnt) == 0 or cnt.max() <= thr:
            break
        length += 1
    return length


def _accumulate_discrepancy(
    ids_w, ids_w1, ids_m1, ids_m, cnt_w1, ctx_w, cnt_m, ctx_m1, thresh, n, wl, m, out
):
    j = np.arange(m - 2, n)
    trip = ids_m[j + 1]
    gate = cnt_m[trip] > thresh
    if not np.any(gate):
        return False
    j = j[gate]
    trip = trip[gate]
    if wl == 0:
        p_w = cnt_w1[ids_w1[j + 1]] / n
        u = np.zeros(len(j), dtype=np.int32)
    else:
        u = ids_w[j]
        p_w = cnt_w1[ids_w1[j + 1]] / ctx_w[u]
    p_zw = cnt_m[trip] / ctx_m1[ids_m1[j]]
    np.maximum.at(out, u, np.abs(p_w - p_zw))
    return True


def discrepancy_by_length(index, word_length, gamma):
    """Statistic of every word of one length, folded position by position."""
    n = index.n
    n_out = index.n_ids(word_length) if word_length >= 1 else 1
    out = np.zeros(n_out, dtype=np.float64)
    l_max = max_frequent_length(index, gamma)
    if n_out and word_length + 2 <= l_max and word_length <= n:
        thr = float(n) ** (1.0 - gamma)
        ids_w = index.ids(word_length) if word_length >= 1 else None
        ctx_w = index.ctx_count(word_length) if word_length >= 1 else None
        ids_w1 = index.ids(word_length + 1)
        cnt_w1 = index.successor_count(word_length + 1)
        for m in range(word_length + 2, l_max + 1):
            if m - 1 > n:
                break
            hit = _accumulate_discrepancy(
                ids_w, ids_w1, index.ids(m - 1), index.ids(m), cnt_w1, ctx_w,
                index.l_count(m), index.ctx_count(m - 1), thr, n, word_length, m, out,
            )
            if not hit:
                break
    return out


def max_discrepancy(index, word, gamma):
    """(statistic, witness) for one word: every occurrence of the word is
    visited level by level, and the witness moves only on a strictly larger
    gap."""
    data = np.asarray(index.data)
    k = len(word)
    n = index.n
    best = 0.0
    witness = None
    if k >= 1:
        pos = scan_ends(data, word, k - 1, n)
        if not pos:
            return 0.0, None
        denom_w = index.ctx_count(k)[index.ids(k)[pos[0]]]
    else:
        denom_w = n
    l_max = max_frequent_length(index, gamma)
    thr = float(n) ** (1.0 - gamma)
    for i in range(1, max(l_max - k, 0) + 1):
        m = k + i + 1
        if m - 1 > n:
            break
        ids_m = index.ids(m)
        cnt_m = index.l_count(m)
        ids_w1 = index.ids(k + 1)
        cnt_w1 = index.successor_count(k + 1)
        ctx_m1 = index.ctx_count(m - 1)
        ids_m1 = index.ids(m - 1)
        hit = False
        for j in scan_ends(data, word, k + i - 1, n - 1):
            trip = ids_m[j + 1]
            if cnt_m[trip] <= thr:
                continue
            hit = True
            p_w = cnt_w1[ids_w1[j + 1]] / denom_w
            p_zw = cnt_m[trip] / ctx_m1[ids_m1[j]]
            d = abs(p_w - p_zw)
            if d > best:
                best = d
                z = tuple(int(s) for s in data[j - k - i + 1 : j - k + 1])
                witness = (z, int(data[j + 1]))
        if not hit:
            break
    return best, witness


# ---------------------------------------------------------------------------
# Coverage loops of schemes P and R, each with its own bookkeeping, the way
# the package ran them before both fed one stopping rule.  Scheme R here
# goes on reconstructing anchors past the one that reaches coverage until a
# word ending at n turns up; a word found there cannot put n in the set.
# ---------------------------------------------------------------------------


def decide_p(sample, params, index):
    """Scheme P: passing words of lengths 0..l_max in enumeration order."""
    n = sample.n
    thr = params.test_threshold(n)
    target = 1.0 - params.epsilon / 2.0
    covered = np.zeros(n + 1, dtype=bool)
    n_covered = 0
    coverage_idx = selected_idx = selected_len = None
    coverage = 0.0
    list_index = -1
    for length in range(0, max_frequent_length(index, params.gamma) + 1):
        n_words = 1 if length == 0 else index.n_ids(length)
        disc = discrepancy_by_length(index, length, params.gamma)
        for u in range(n_words):
            list_index += 1
            if disc[u] > thr:
                continue
            if length == 0:
                pos = np.arange(0, n + 1)
                ends_at_n = True
            else:
                pos = np.flatnonzero(index.ids(length) == u)
                ends_at_n = index.ids(length)[n] == u
            if selected_idx is None and ends_at_n:
                selected_idx, selected_len = list_index, length
            new = pos[~covered[pos]]
            covered[new] = True
            n_covered += len(new)
            coverage = n_covered / (n + 1)
            if coverage >= target:
                coverage_idx = list_index
                break
        if coverage_idx is not None:
            break
    if coverage_idx is None:
        coverage_idx = list_index
    in_set = selected_idx is not None and selected_idx <= coverage_idx
    return StoppingDecision(
        time=n,
        scheme="forward-p",
        in_stopping_set=in_set,
        coverage_index=coverage_idx,
        coverage=coverage,
        memory_length=selected_len if in_set else None,
        word_index=selected_idx if in_set else None,
    )


def decide_r(sample, params, estimator, n, index):
    """Scheme R at time n: the memory word of each anchor's reconstruction."""
    prefix = Sample.forward(sample.symbols[: n + 1])
    anchor_count = min(n, params.anchor_cap) + 1
    target = 1.0 - params.epsilon / 2.0
    covered = np.zeros(n + 1, dtype=bool)
    n_covered = 0
    coverage_idx = selected_idx = selected_len = None
    coverage = 0.0
    for i in range(anchor_count):
        rec = reconstruct_past(prefix, i, n)
        mem_len = int(estimator(rec.backward_array()))
        assert 0 <= mem_len <= rec.depth + 1
        if mem_len == 0:
            pos = np.arange(0, n + 1)
            ends_at_n = True
        else:
            end = i + rec.recurrence_times[mem_len - 1]
            u = index.ids(mem_len)[end]
            pos = np.flatnonzero(index.ids(mem_len) == u)
            pos = pos[pos >= mem_len]
            ends_at_n = index.ids(mem_len)[n] == u
        if coverage_idx is None:
            new = pos[~covered[pos]]
            covered[new] = True
            n_covered += len(new)
            coverage = n_covered / (n + 1)
            if coverage >= target:
                coverage_idx = i
        if coverage_idx is not None and selected_idx is not None:
            break
        if ends_at_n and selected_idx is None:
            selected_idx, selected_len = i, mem_len
    if coverage_idx is None:
        coverage_idx = anchor_count - 1
    in_set = selected_idx is not None and selected_idx <= coverage_idx
    return StoppingDecision(
        time=n,
        scheme="forward-r",
        in_stopping_set=in_set,
        coverage_index=coverage_idx,
        coverage=coverage,
        memory_length=selected_len if in_set else None,
        word_index=selected_idx if in_set else None,
    )


def finite_alphabet_memory_estimate(index, params, order):
    """Shortest suffix of length at most ``order`` passing the test, tried
    one length at a time; 0 when none does."""
    n = index.n
    thr = params.test_threshold(n)
    for t in range(0, min(order, n) + 1):
        disc = discrepancy_by_length(index, t, params.gamma)
        if disc[0 if t == 0 else index.ids(t)[n]] <= thr:
            return t
    return 0


# ---------------------------------------------------------------------------
# Per-length tables by comparison sorts, the way the index built them before
# its radix pass: ids from np.unique over (first symbol, trailing id) pairs,
# counts by bincount, the CSR order from a stable argsort of the ids and
# each block's earliest end from np.minimum.at.
# ---------------------------------------------------------------------------


class SortedTableIndex(CountIndex):
    """A CountIndex whose per-length tables come from sorting; everything
    read off the tables (context counts, decoding, l_max) is CountIndex's,
    and so are the tables of length 0, the empty word's one block."""

    def __init__(self, sample):
        super().__init__(sample)
        self._sorted_ids = {1: np.unique(self.data, return_inverse=True)[1].astype(np.int32)}
        self._sorted_n_ids = {1: len(self.symbol_values)}
        self._sorted_count = {}
        self._sorted_csr = {}
        self._sorted_frequent = {}

    def ids(self, length):
        if length < 1:
            return super().ids(length)
        sym = self._sorted_ids[1]
        n1 = len(sym)
        for have in range(len(self._sorted_ids) + 1, length + 1):
            out = np.full(n1, -1, dtype=np.int32)
            n_ids = 0
            j0 = have - 1
            if j0 < n1:
                first = sym[: n1 - j0].astype(np.int64)
                trail = self._sorted_ids[have - 1][j0:].astype(np.int64)
                uniq, inv = np.unique(
                    first * (self._sorted_n_ids[have - 1] + 1) + trail, return_inverse=True
                )
                out[j0:] = inv
                n_ids = len(uniq)
            self._sorted_ids[have] = out
            self._sorted_n_ids[have] = n_ids
        return self._sorted_ids[length]

    def n_ids(self, length):
        if length == 0:
            return super().n_ids(0)
        self.ids(length)
        return self._sorted_n_ids[length]

    def l_count(self, length):
        if length == 0:
            return super().l_count(0)
        if length not in self._sorted_count:
            valid = self.ids(length)[length - 1 :]
            self._sorted_count[length] = np.bincount(
                valid, minlength=self.n_ids(length)
            ).astype(np.int64)
        return self._sorted_count[length]

    def first_ends(self, length):
        if length == 0:
            return super().first_ends(0)
        valid = self.ids(length)[length - 1 :]
        first = np.full(self.n_ids(length), len(valid), dtype=np.int64)
        np.minimum.at(first, valid, np.arange(len(valid)))
        return first + (length - 1)

    def positions_by_id(self, length):
        if length not in self._sorted_csr:
            valid = self.ids(length)[length - 1 :]
            positions = np.argsort(valid, kind="stable").astype(np.int64) + (length - 1)
            offsets = np.zeros(self.n_ids(length) + 1, dtype=np.int64)
            np.cumsum(np.bincount(valid, minlength=self.n_ids(length)), out=offsets[1:])
            self._sorted_csr[length] = (positions, offsets)
        return self._sorted_csr[length]

    def frequent_blocks(self, length, gamma):
        if length == 0:
            return super().frequent_blocks(0, gamma)
        key = (length, gamma)
        if key not in self._sorted_frequent:
            cnt = self.l_count(length)
            hot = cnt > float(self.n) ** (1.0 - gamma)
            ids = np.flatnonzero(hot)
            ends = np.empty(0, dtype=np.int64)
            if len(ids):
                valid = self.ids(length)[length - 1 :]
                at = np.flatnonzero(hot[valid])
                first = np.full(len(cnt), len(valid), dtype=np.int64)
                np.minimum.at(first, valid[at], at)
                ends = first[ids] + (length - 1)
                order = np.argsort(ends)
                ids, ends = ids[order], ends[order]
            self._sorted_frequent[key] = (ids, ends)
        return self._sorted_frequent[key]


# ---------------------------------------------------------------------------
# Samplers: one uniform per step, walked one step at a time.
# ---------------------------------------------------------------------------


def sample_finite_chain(rng, n_steps, ctx0, next_ctx, cum, out_syms):
    n_choices = cum.shape[1]
    out = np.empty(n_steps, dtype=np.int64)
    ctx = ctx0
    for i in range(n_steps):
        u = rng.random()
        c = 0
        while c < n_choices - 1 and u >= cum[ctx, c]:
            c += 1
        out[i] = out_syms[ctx, c]
        ctx = next_ctx[ctx, c]
    return out


def step_geometric_jump(u, s):
    # One transition of the countable-state chain with rows
    #   P(s -> j)   = 2^-j-2   for 0 <= j < s
    #   P(s -> s)   = 2^-s-1
    #   P(s -> s+r) = 2^-r-1   for r >= 1
    acc = 0.0
    for j in range(s):
        acc += 2.0 ** (-j - 2)
        if u < acc:
            return j
    acc += 2.0 ** (-s - 1)
    if u < acc:
        return s
    # remaining mass 1/2 is geometric over r >= 1 with weight 2^-r
    v = (u - acc) / (1.0 - acc)
    if v >= 1.0:
        v = np.nextafter(1.0, 0.0)
    r = 1 + int(-np.log2(1.0 - v))
    return s + r


def sample_geometric_jump(rng, n_steps, burn_in, s0):
    out = np.empty(n_steps, dtype=np.int64)
    s = s0
    for i in range(burn_in):
        s = step_geometric_jump(rng.random(), s)
    for i in range(n_steps):
        s = step_geometric_jump(rng.random(), s)
        out[i] = s
    return out


def sample_perturbed_jump(rng, n_steps, burn_in, s0, sched_prev, sched_cur):
    # Order-2 variant: when (prev, cur) equals a scheduled pair
    # (sched_prev[h], sched_cur[h]) the successor probabilities of states
    # cur and cur+1 are interchanged; realised by swapping the drawn value.
    out = np.empty(n_steps, dtype=np.int64)
    prev = s0
    cur = s0
    total = burn_in + n_steps
    for i in range(total):
        nxt = step_geometric_jump(rng.random(), cur)
        for h in range(len(sched_prev)):
            if prev == sched_prev[h] and cur == sched_cur[h]:
                if nxt == cur:
                    nxt = cur + 1
                elif nxt == cur + 1:
                    nxt = cur
                break
        prev = cur
        cur = nxt
        if i >= burn_in:
            out[i - burn_in] = cur
    return out


def sample_ladder_chain(rng, n_steps, s0):
    # Rows: 0 -> 1 and 1 -> 2 surely; s > 1 -> 0 or s+1 with probability 1/2.
    out = np.empty(n_steps, dtype=np.int64)
    s = s0
    for i in range(n_steps):
        if s == 0:
            s = 1
        elif s == 1:
            s = 2
        else:
            if rng.random() < 0.5:
                s = 0
            else:
                s = s + 1
        out[i] = s
    return out


def sample_renewal(rng, n_total, first_one, gap_cum, geom_p):
    # Binary sample with ones at renewal instants.  gap_cum: cumulative gap
    # law (finite support, gaps 1..len); empty -> geometric(geom_p) gaps.
    out = np.zeros(n_total, dtype=np.int64)
    pos = first_one
    while pos < n_total:
        out[pos] = 1
        u = rng.random()
        if len(gap_cum) > 0:
            g = 1
            while g < len(gap_cum) and u >= gap_cum[g - 1]:
                g += 1
        else:
            if u >= 1.0:
                u = np.nextafter(1.0, 0.0)
            g = 1 + int(np.log1p(-u) / np.log1p(-geom_p))
        pos += g
    return out

"""Hot numeric kernels, one body each.

Counting over the sample (occurrence scans, dense block ids, the
discrepancy gaps) is vectorised numpy; block ids come from one bincount per
length where the table of (older symbol, previous id) pairs fits in n + 2
cells, and from one stable radix pass otherwise.  The finite chain and the
geometric jump chain are sampled by numpy scans that draw the same uniforms
and make the same float comparisons as a step-by-step walk.  The perturbed
jump, ladder and renewal samplers are per-step loops, written once in plain
Python and compiled in nopython mode when numba is importable (the optional
``jit`` extra); without numba the same bodies run as Python.  A seed gives
the same sample with or without numba.
"""

import math

import numpy as np

try:
    from numba import njit as _njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover
    NUMBA_ENABLED = False


def jit(fn):
    """Apply nopython JIT when numba is importable, otherwise return fn."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# Block occurrence scanning
# ---------------------------------------------------------------------------


def occurrence_positions(data, word, lo, hi):
    """End positions j in [lo, hi] at which ``word`` occurs in ``data``.

    The empty word occurs at every position in range.  Otherwise the ends of
    the word's last letter are narrowed one older letter at a time, keeping
    the ends whose symbol that many steps back matches.
    """
    data = np.asarray(data)
    k = len(word)
    lo = max(lo, k - 1, 0)
    hi = min(hi, len(data) - 1)
    if lo > hi:
        return np.empty(0, dtype=np.int64)
    if k == 0:
        return np.arange(lo, hi + 1, dtype=np.int64)
    ends = np.flatnonzero(data[lo : hi + 1] == word[-1]) + lo
    for back in range(1, k):
        ends = ends[data[ends - back] == word[k - 1 - back]]
    return ends


# ---------------------------------------------------------------------------
# Dense per-length block identifiers
#
# ids(L)[j] is a dense id of the length-L block ending at j, assigned in
# lexicographic order of block content (time-increasing symbols), -1 where the
# block does not fit.  A length-L block is one older symbol followed by a
# length-(L-1) block, so it is named by the pair (older symbol, length-(L-1)
# id), and ordering the pairs orders the blocks.  Two passes rank the pairs:
#
# * the table pass codes each pair as one integer below
#   n_symbols * n_ids(L-1); where that table fits in the sample's n + 2
#   cells, one bincount over it gives the counts, the running count of
#   occupied cells gives the ids, and no sort is made;
# * the radix pass takes the ends sorted by their length-(L-1) block and
#   sorts them by their length-L block with one stable bucket pass over the
#   older symbol: the LSD radix refinement behind Manber & Myers (1993).
#   numpy runs a stable argsort of a key of 16 bits or fewer as a radix
#   sort, so below 32768 symbols no length needs a comparison sort.  The
#   pass reads only the previous length's sorted ends and their ids.
# ---------------------------------------------------------------------------


def narrow_int(count):
    """Narrowest signed integer type that holds ``count`` and -1.  Holding
    the id count, not only the largest id, keeps ``u + 1`` of any id in
    range."""
    if count <= 127:
        return np.int8
    return np.int16 if count <= 32767 else np.int32


def table_block_ids(pad_key, prev_ids, n_prev, length):
    """Tables of the length-``length`` blocks (length >= 1) from the ids of
    the length-(length-1) blocks, by one bincount over the table of
    (older symbol, previous id) pairs.  The table has
    ``pad_key[0] * n_prev`` cells; the caller keeps it within n + 2.

    ``pad_key`` is the symbol key behind one sentinel slot: ``pad_key[j + 1]``
    is the key of the symbol at j and ``pad_key[0]``, one above every symbol
    key, is the number of symbols.  ``prev_ids`` are the ids of the
    length-(length-1) blocks and ``n_prev`` their count; at length 1 they are
    None and 1, the one empty block.

    Returns, for the ends length-1..n: the id of each end (-1 before
    length-1), and the count and earliest end of each id (int32).
    """
    n_ends = len(pad_key) - 1
    # the block ending at e gains the symbol at e - (length - 1)
    code = pad_key[1 : 1 + max(n_ends + 1 - length, 0)].astype(np.intp)
    if prev_ids is not None:
        code *= n_prev
        code += prev_ids[length - 1 :]
    cells = int(pad_key[0]) * n_prev
    counts = np.bincount(code, minlength=cells)
    present = counts > 0
    dtype = narrow_int(int(np.count_nonzero(present)))
    rank = np.cumsum(present, dtype=dtype) - 1
    ids = np.full(n_ends, -1, dtype=dtype)
    np.take(rank, code, out=ids[length - 1 :])
    first = np.full(cells, n_ends, dtype=np.int32)
    np.minimum.at(first, code, np.arange(length - 1, n_ends, dtype=np.int32))
    return ids, counts[present].astype(np.int32), first[present]


def extend_block_ids(pad_key, prev_order, prev_trail, length):
    """Tables of the length-``length`` blocks (length >= 2) from the sorted
    ends of the length-(length-1) blocks, by one stable radix pass.

    ``pad_key`` is as for ``table_block_ids``.  ``prev_order`` holds the
    ends length-2..n sorted by length-(length-1) id, ascending within each
    id, and ``prev_trail`` the id of each sorted end.

    Returns, for the ends length-1..n: the id of each end (-1 before
    length-1), the ends sorted the same way and the id of each sorted end,
    both to be passed to the next length, and the count and earliest end of
    each id (int32).
    """
    # the block ending at e gains the symbol at e - (length - 1); the end
    # length - 2, which is too short, reads the sentinel, sorts last and is
    # cut off
    key = pad_key[prev_order - (length - 2)]
    by_key = np.argsort(key, kind="stable")[:-1]
    order = prev_order[by_key]
    key = key[by_key]
    trail = prev_trail[by_key]
    # an id's run starts where the symbol or the trailing id changes; the
    # last flag closes the final run
    new = np.ones(len(order) + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:-1])
    new[1:-1] |= trail[1:] != trail[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(starts).astype(np.int32)
    dtype = narrow_int(len(counts))
    trail = np.repeat(np.arange(len(counts), dtype=dtype), counts)
    ids = np.full(len(pad_key) - 1, -1, dtype=dtype)
    ids[order] = trail
    return ids, order, trail, counts, order[starts[:-1]]


# ---------------------------------------------------------------------------
# Discrepancy gaps
#
# A frequent length-m block z+w+x (m = |w| + i + 1 for extension depth
# i >= 1) contributes the gap
#     | c(w,x)/ctx(w)  -  c(z+w,x)/ctx(z+w) |
# to the statistic of w.  Every quantity in it is a function of the block,
# so the gap is computed once per distinct frequent block, at its earliest
# end, rather than once per sample position: at most n^gamma blocks per
# length instead of n positions.  All counts are supplied as dense-id
# lookup tables.
# ---------------------------------------------------------------------------


def extension_gaps(trip, ends, ctx_w, ids_w1, ids_m1, cnt_w1, cnt_m, ctx_m1):
    """Gap of each frequent block with id ``trip`` ending at ``ends``;
    ``ctx_w`` is the context count of each block's word part (or one count
    shared by all)."""
    p_w = cnt_w1[ids_w1[ends]] / ctx_w
    p_zw = cnt_m[trip] / ctx_m1[ids_m1[ends - 1]]
    return np.abs(p_w - p_zw)


# ---------------------------------------------------------------------------
# Samplers.  Each draws its uniforms from the generator in the order a
# step-by-step walk would (``rng.random(k)`` yields the values of k calls of
# ``rng.random()``), so a seed gives one sample whichever body draws it.
#
# The finite chain and the geometric jump chain are numpy scans.  The
# perturbed, ladder and renewal samplers are per-step loops, compiled when
# numba is importable.
# ---------------------------------------------------------------------------


def sample_finite_chain(rng, n_steps, ctx0, next_ctx, cum, out_syms):
    """Symbols of ``n_steps`` steps of a finite chain from context ``ctx0``.

    ``next_ctx[ctx, choice]`` is the next context id, ``cum[ctx]`` the
    cumulative row probabilities and ``out_syms[ctx, choice]`` the symbol
    emitted.  A step at context c with uniform u takes the first choice
    whose cumulative probability exceeds u, the last one at the latest.

    The steps are cut into blocks of about sqrt(n_steps).  One pass walks
    every block from every context at once, giving each block's map from
    start to end context; a scalar pass threads ``ctx0`` through those maps;
    a last pass walks all blocks at once from their known start contexts.
    Transients are O(n_steps + sqrt(n_steps) * contexts * width).
    """
    n_ctx, width = cum.shape
    block = max(math.isqrt(n_steps), 1)
    n_blocks = max(-(-n_steps // block), 1)
    # uniform t of block b is step b * block + t; the steps past n_steps at
    # the end of the last block walk zeros and are cut off
    u = np.zeros((n_blocks, block))
    rng.random(out=u.reshape(-1)[:n_steps])
    bounds = np.ascontiguousarray(cum[:, :-1].T)
    next_flat = next_ctx.ravel()

    def cells(ctx, u_t):
        # flat (context, choice) cell of each step: the choice counts the
        # cumulative probabilities at or below u
        choice = np.add.reduce(bounds[:, ctx] <= u_t, axis=0)
        return ctx * width + choice

    # the context each full block ends in, from every start context
    ends = np.broadcast_to(np.arange(n_ctx), (n_blocks - 1, n_ctx))
    for t in range(block):
        ends = next_flat[cells(ends, u[:-1, t, None])]
    starts = np.empty(n_blocks, dtype=np.intp)
    ctx = starts[0] = ctx0
    for b in range(n_blocks - 1):
        ctx = starts[b + 1] = ends[b, ctx]
    out = np.empty((n_blocks, block), dtype=out_syms.dtype)
    syms_flat = out_syms.ravel()
    ctx = starts
    for t in range(block):
        cell = cells(ctx, u[:, t])
        out[:, t] = syms_flat[cell]
        ctx = next_flat[cell]
    return out.reshape(-1)[:n_steps]


@jit
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


# the running sums of step_geometric_jump's down-jump loop, added in the same
# order; they reach 0.5 in floating point by j = 53
_DOWN_THRESHOLDS = np.add.accumulate([2.0 ** (-j - 2) for j in range(64)])
_NO_CAP = np.iinfo(np.int64).max


def geometric_jump_maps(u):
    """Each uniform's step of the geometric jump chain as s -> min(a, s + b).

    In ``step_geometric_jump`` the stay threshold is 0.5 at every s and the
    down-jump thresholds do not depend on s.  So u < 0.5 moves s to
    min(J(u), s), J(u) being the first down-jump threshold above u, and
    u >= 0.5 climbs by the geometric r of u at every s.  Returns the caps a
    (int64, no cap on a climb) and the climbs b.
    """
    climb = u >= 0.5
    a = np.searchsorted(_DOWN_THRESHOLDS, u, side="right")
    a[climb] = _NO_CAP
    v = u - 0.5
    v /= 0.5
    np.minimum(v, np.nextafter(1.0, 0.0), out=v)
    np.subtract(1.0, v, out=v)
    np.log2(v, out=v)
    np.negative(v, out=v)
    b = v.astype(np.int64)
    b += 1
    b[~climb] = 0
    return a, b


def sample_geometric_jump(rng, n_steps, burn_in, s0):
    """States after each of ``n_steps`` steps that follow ``burn_in`` steps
    from ``s0``.

    The maps s -> min(a, s + b) compose in closed form: after the steps up
    to i, with S the running sum of b, the state is
    S_i + min(s0, min over k <= i of (a_k - S_k)).  The burn-in is a prefix
    of the same scan.
    """
    a, b = geometric_jump_maps(rng.random(burn_in + n_steps))
    total = np.cumsum(b, out=b)
    a -= total
    np.minimum.accumulate(a, out=a)
    np.minimum(a, s0, out=a)
    a += total
    return a[burn_in:]


@jit
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


@jit
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


@jit
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

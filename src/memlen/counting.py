"""Occurrence counting, empirical conditional probabilities and frequent sets.

All statistics are computed from a backward sample X_-n..X_0 stored as an
array d[0..n] (array index j holds time j-n).  Two deliberate off-by-one
conventions coexist and are pinned by tests:

* conditional-probability counts range over end positions j in [k-1, n-1]
  (time t <= -1: the successor must be visible);
* frequent-set counts range over j in [m-1, n] (time t <= 0, the final
  position included).

The empty word is length 0's one block: it ends at each of the n + 1
positions 0..n, and n of them are contexts.  The occurrence scan reads
successors instead, so there it ends at -1..n-1 and d[0] is a successor.

The numerator of a conditional probability for (word, successor) equals the
frequent-set count of the extended string word+successor, which is why a
single per-length count table serves both.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import MemlenError, UndefinedConditionalError
from .sequence import Sample, Word


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class CountIndex:
    """Lazy per-length block statistics over one backward sample.

    For each built block length L the index keeps a dense id array (ids
    assigned in lexicographic order of block content, -1 where the block
    does not fit, in the narrowest signed type that holds the id count), the
    occurrence count of every id and the earliest end of every id.  Length
    0, the empty word's one block (id 0 at every end, counted n + 1 times,
    first ending at 0), is built with the index; the first read of a longer
    length builds every length up to it, in order.  A length-L block is an
    older symbol followed by a length-(L - 1) block, and length L is built
    from length L - 1 by one of two passes, chosen by the size of the table
    of (older symbol, length-(L - 1) id) pairs.  Where the table has no more
    cells than twice the padded symbol key, 2(n + 2), one bincount over it
    ranks the pairs without a sort; length 1 always fits.  At that size the
    table's transients are of the order of the radix pass's.  Otherwise
    one stable radix pass over the blocks' oldest symbols refines the ends
    sorted by length L - 1 into the ends sorted by length L.  That pass needs
    the previous length's ends sorted by id, and the id of each: the index
    carries them while the newest length was radix-built, and sorts them
    once from the ids when the previous length came from the table.  With
    them it keeps the pass's work buffers: a second pair of sorted ends and
    ids that the next pass writes into, the two pairs swapping roles at
    each length, the symbol keys and the run flags, about 18 bytes per end
    in all.  While the newest length was table-built, the index carries
    instead the table pass's work buffers, the pairs' codes and the end
    indices (12 bytes per end).  Either way a length allocates only its own
    tables and, in the radix pass, the sort's permutation and the run
    starts; the first length of the other pass drops the buffers.  No sort
    in the index runs numpy's timsort (``_kernels.stable_order``).
    Nothing else in the index lists a block's ends.  The earliest end of an
    id stands for its block: ``decode`` reads the block there, and the
    forward stopping rule reads there the block's suffix at every shorter
    length.  Per (length, gamma) the index also keeps the frequent-block
    table: the at most n^gamma ids occurring more than n^(1-gamma) times,
    each with its earliest end.  The memory-word test, the frequent
    extensions and the maximal frequent length all read that table.  Every
    table it returns is read-only.  Built single-threaded, immutable
    afterwards; reads are thread-safe.
    """

    def __init__(self, sample: Sample):
        if sample.orientation != "backward":
            raise ValueError("CountIndex is defined over a backward sample")
        if sample.n + 1 > np.iinfo(np.int32).max:
            raise MemlenError(
                f"a sample of {sample.n + 1} symbols does not fit the count index's int32 ends"
            )
        self.data = sample.symbols
        self.n = sample.n
        if self.data.max() <= self.n:
            # rank the symbols by presence, without sorting them
            present = np.bincount(self.data) > 0
            values = np.flatnonzero(present)
            key = (np.cumsum(present, dtype=_kernels.narrow_int(len(values))) - 1)[self.data]
        else:
            values, key = np.unique(self.data, return_inverse=True)
        self.symbol_values = values.astype(np.int64)
        self._pad_key = np.empty(self.n + 2, dtype=_kernels.narrow_int(len(values)))
        self._pad_key[0] = len(values)
        self._pad_key[1:] = key
        # length 0: one id at every end, allocating nothing n-sized
        self._ids: dict[int, np.ndarray] = {0: np.broadcast_to(np.int8(0), (self.n + 1,))}
        self._l_count = {0: _read_only(np.array([self.n + 1], dtype=np.int32))}
        self._first = {0: _read_only(np.zeros(1, dtype=np.int32))}
        # what the newest length's pass hands to the next length, tagged by
        # that pass: "radix", the sorted ends and the id of each, then the
        # pass's work buffers (the next sorted ends and ids, the symbol keys
        # and the run flags); "table", the table pass's code and end buffers
        # (n + 1 cells each)
        self._carry: tuple | None = None
        self._ctx_count: dict[int, np.ndarray] = {}
        self._frequent: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
        self._l_max: dict[float, int] = {}
        # per-word test statistics keyed by (word length, gamma); filled by
        # backward.discrepancy_by_length
        self.discrepancy_memo: dict[tuple[int, float], np.ndarray] = {}

    # -- per-length tables -------------------------------------------------

    def ids(self, length: int) -> np.ndarray:
        """Id of the length-``length`` block ending at each of 0..n, -1
        where it does not fit; length 0 is all zeros."""
        if length < 0:
            raise ValueError("block ids are defined for length >= 0")
        have = len(self._ids) - 1  # lengths 0..have are built, in order
        while have < length:
            n_prev = self.n_ids(have)
            have += 1
            cells = len(self.symbol_values) * n_prev
            kind = "table" if cells <= 2 * len(self._pad_key) else "radix"
            if self._carry is not None and self._carry[0] != kind:
                self._carry = None  # the other pass's carry goes first
            if kind == "table":
                if self._carry is None:
                    code = np.empty(self.n + 1, dtype=np.intp)
                    self._carry = (kind, code, np.arange(self.n + 1, dtype=np.int32))
                ids, counts, first = _kernels.table_block_ids(
                    self._pad_key, self._ids[have - 1], n_prev, have, *self._carry[1:]
                )
            else:
                if self._carry is None:
                    # sorted by id, the ends' ids are each id repeated by its count
                    ends = self._sorted_ends(have - 1)
                    trail = np.repeat(np.arange(n_prev, dtype=np.int32), self._l_count[have - 1])
                    spare = (np.empty_like(ends), np.empty_like(trail))
                    key = np.empty(len(ends), dtype=self._pad_key.dtype)
                    self._carry = (kind, ends, trail, *spare, key, np.empty(len(ends), dtype=bool))
                _, ends, trail, *work = self._carry
                ids, order, new_trail, counts, first = _kernels.extend_block_ids(
                    self._pad_key, self._l_count[1], ends, trail, have, *work
                )
                # the next length reads this length's sorted ends and writes
                # into the buffers they were read from
                self._carry = (kind, order, new_trail, ends, trail, *work[2:])
            self._ids[have], self._l_count[have] = _read_only(ids), _read_only(counts)
            self._first[have] = _read_only(first)
        return self._ids[length]

    def n_ids(self, length: int) -> int:
        return len(self.l_count(length))

    def l_count(self, length: int) -> np.ndarray:
        """Occurrence count per id over end positions [length-1, n]."""
        self.ids(length)
        return self._l_count[length]

    def first_ends(self, length: int) -> np.ndarray:
        """Earliest end of every id."""
        self.ids(length)
        return self._first[length]

    def ctx_count(self, length: int) -> np.ndarray:
        """Occurrence count per id over end positions [length-1, n-1]."""
        if length not in self._ctx_count:
            cnt = self.l_count(length).copy()
            ids = self.ids(length)
            if self.n >= length - 1 and len(cnt):
                cnt[ids[self.n]] -= 1
            self._ctx_count[length] = _read_only(cnt)
        return self._ctx_count[length]

    def successor_count(self, length: int) -> np.ndarray:
        """Per-id numerator counts for conditional probabilities whose
        context has length ``length - 1``: identical to l_count except for
        length 1, where the first cell (nobody's successor) is dropped."""
        cnt = self.l_count(length)
        if length != 1:
            return cnt
        cnt = cnt.copy()
        if len(cnt):
            cnt[self.ids(1)[0]] -= 1
        return cnt

    # read by perfbench/traced.py only; the forward schemes read the id arrays
    def positions_by_id(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout, formed anew on each call: (end positions sorted by id,
        ascending within each id, offsets per id) over the ends [length-1, n];
        length >= 1."""
        if length < 1:
            raise ValueError("the CSR layout is formed for length >= 1")
        counts = self.l_count(length)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return _read_only(self._sorted_ends(length)), _read_only(offsets)

    def _sorted_ends(self, length: int) -> np.ndarray:
        """Ends length-1..n of a built length, sorted stably by id."""
        positions = _kernels.stable_order(self._ids[length][length - 1 :]).astype(np.int32)
        positions += length - 1
        return positions

    def word_id(self, word: Word) -> int:
        """Dense id of the word at its length, or -1 if absent; the empty
        word is id 0."""
        k = len(word)
        if k == 0:
            return 0  # the scan would list all n + 1 ends to read the first
        if k - 1 > self.n:
            return -1
        pos = _kernels.occurrence_positions(self.data, word.as_array(), k - 1, self.n)
        if len(pos) == 0:
            return -1
        return int(self.ids(k)[pos[0]])

    def decode(self, length: int, u: int) -> Word:
        """The word carried by dense id ``u`` at the given length."""
        j = int(self.first_ends(length)[u])
        return Word(tuple(int(s) for s in self.data[j - length + 1 : j + 1]))

    def frequent_blocks(self, length: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """The length-``length`` blocks occurring more than n^(1-gamma) times
        over end positions [length-1, n]: their ids and the earliest end of
        each, both ordered by that end.  Kept per (length, gamma)."""
        key = (length, gamma)
        if key not in self._frequent:
            cnt = self.l_count(length)
            ids = np.flatnonzero(cnt > float(self.n) ** (1.0 - gamma))
            ends = self.first_ends(length)[ids]
            by_end = np.argsort(ends)
            self._frequent[key] = (_read_only(ids[by_end]), _read_only(ends[by_end]))
        return self._frequent[key]

    def max_frequent_length(self, gamma: float) -> int:
        """Largest length whose frequent-block table is nonempty; 0 if none
        is.  A block occurs at most as often as its suffix, so no longer
        table is nonempty either."""
        if gamma not in self._l_max:
            length = 0
            while len(self.frequent_blocks(length + 1, gamma)[0]):
                length += 1
            self._l_max[gamma] = length
        return self._l_max[gamma]


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def count_context(index: CountIndex, w: Word) -> int:
    """Occurrences of ``w`` at positions whose successor is visible."""
    k = len(w)
    if k > index.n:
        return 0
    u = index.word_id(w)
    if u < 0:
        return 0
    return int(index.ctx_count(k)[u])


def count_transition(index: CountIndex, w: Word, x: int) -> int:
    """Occurrences of ``w`` followed by symbol ``x``; sums over x to
    count_context.

    This is the successor count of the string w+x: its frequent-set count,
    less the first sample cell (nobody's successor) for the empty context.
    """
    k = len(w)
    if k + 1 > index.n + 1:
        return 0
    u = index.word_id(w.extended_by(x))
    if u < 0:
        return 0
    return int(index.successor_count(k + 1)[u])


def empirical_cond_prob(index: CountIndex, w: Word, x: int) -> float:
    denom = count_context(index, w)
    if denom == 0:
        raise UndefinedConditionalError(f"context {w.letters} never occurs before time 0")
    return count_transition(index, w, x) / denom


def is_frequent(index: CountIndex, v: Word, gamma: float) -> bool:
    """Whether ``v`` occurs strictly more than n^(1-gamma) times (final
    position included)."""
    if len(v) == 0:
        raise ValueError("frequency is defined for nonempty words")
    u = index.word_id(v)
    if u < 0:
        return False
    return bool(index.l_count(len(v))[u] > float(index.n) ** (1.0 - gamma))


def frequent_extensions(
    index: CountIndex, w: Word, i: int, gamma: float
) -> set[tuple[Word, int]]:
    """All pairs (z, x) with |z| = i such that z + w + x is frequent.

    Read off the frequent blocks of length |w| + i + 1 whose middle part is
    ``w``, never by enumerating the alphabet.
    """
    if i < 1:
        raise ValueError("extension depth must be >= 1")
    k = len(w)
    m = k + i + 1
    if m - 1 > index.n:
        return set()
    _, ends = index.frequent_blocks(m, gamma)
    if len(ends):
        ends = ends[index.ids(k)[ends - 1] == index.word_id(w)]
    data = index.data
    return {(Word(tuple(int(s) for s in data[e - m + 1 : e - k])), int(data[e])) for e in ends}

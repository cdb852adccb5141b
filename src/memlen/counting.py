"""Occurrence counting, empirical conditional probabilities and frequent sets.

All statistics are computed from a backward sample X_-n..X_0 stored as an
array d[0..n] (array index j holds time j-n).  Two deliberate off-by-one
conventions coexist and are pinned by tests:

* conditional-probability counts range over end positions j in [k-1, n-1]
  (time t <= -1: the successor must be visible), with the empty-word context
  counting exactly n positions;
* frequent-set counts range over j in [m-1, n] (time t <= 0, the final
  position included).

The numerator of a conditional probability for (word, successor) equals the
frequent-set count of the extended string word+successor, which is why a
single per-length count table serves both.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import MemlenError, UndefinedConditionalError
from .sequence import EMPTY_WORD, Sample, Word


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class CountIndex:
    """Lazy per-length block statistics over one backward sample.

    For each materialized block length L the index keeps a dense id array
    (ids assigned in lexicographic order of block content, -1 where the block
    does not fit, in the narrowest signed type that holds the id count), the
    occurrence count of every id and the earliest end of every id.  A
    length-L block is an older symbol followed by a length-(L - 1) block, and
    length L is built from length L - 1 by one of two passes, chosen by the
    size of the table of (older symbol, length-(L - 1) id) pairs.  Where the
    table has no more cells than the padded symbol key (n + 2), one bincount
    over it ranks the pairs without a sort; length 1 always fits.  Otherwise
    one stable radix pass over the blocks' oldest symbols refines the ends
    sorted by length L - 1 into the ends sorted by length L.  That pass needs
    the previous length's ends sorted by id, and the id of each: the index
    carries them only while the newest length was radix-built, and sorts
    them once from the ids when the previous length came from the table.
    CSR positions (ends sorted by id, ascending within each id) are formed
    for a length when first asked for: the carried ends for a radix-built
    newest length, a stable argsort of the ids for any other.  Per (length,
    gamma) it also keeps the frequent-block table: the at most n^gamma ids
    occurring more than n^(1-gamma) times, each with its earliest end.  The
    memory-word test, the frequent extensions and the maximal frequent length
    all read that table.  Every table it returns is read-only.  Built
    single-threaded, immutable afterwards; reads are thread-safe.
    """

    def __init__(self, sample: Sample):
        if sample.orientation != "backward":
            raise ValueError("CountIndex is defined over a backward sample")
        if sample.n + 1 > np.iinfo(np.int32).max:
            raise MemlenError(
                f"a sample of {sample.n + 1} symbols does not fit the count index's int32 ends"
            )
        self.sample = sample
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
        self._ids: dict[int, np.ndarray] = {}
        self._l_count: dict[int, np.ndarray] = {}
        self._first: dict[int, np.ndarray] = {}
        # sorted ends of the newest length, and the id of each, while that
        # length was radix-built; None after a table pass
        self._carry: tuple[np.ndarray, np.ndarray] | None = None
        self._ctx_count: dict[int, np.ndarray] = {}
        self._csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._frequent: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
        self._l_max: dict[float, int] = {}
        # per-word test statistics keyed by (word length, gamma); filled by
        # backward.discrepancy_by_length
        self.discrepancy_memo: dict[tuple[int, float], np.ndarray] = {}

    # -- per-length tables -------------------------------------------------

    def ids(self, length: int) -> np.ndarray:
        if length < 1:
            raise ValueError("block ids are defined for length >= 1")
        have = len(self._ids)  # lengths 1..have are built, in order
        while have < length:
            n_prev = self.n_ids(have) if have else 1
            have += 1
            if len(self.symbol_values) * n_prev <= len(self._pad_key):
                ids, counts, first = _kernels.table_block_ids(
                    self._pad_key, self._ids.get(have - 1), n_prev, have
                )
                self._carry = None
            else:
                if self._carry is None:
                    ends = self._sorted_ends(have - 1)
                    self._carry = (ends, self._ids[have - 1][ends])
                ids, order, trail, counts, first = _kernels.extend_block_ids(
                    self._pad_key, *self._carry, have
                )
                self._carry = (_read_only(order), trail)
            self._ids[have], self._l_count[have] = _read_only(ids), _read_only(counts)
            self._first[have] = first
        return self._ids[length]

    def n_ids(self, length: int) -> int:
        return len(self.l_count(length))

    def l_count(self, length: int) -> np.ndarray:
        """Occurrence count per id over end positions [length-1, n]."""
        self.ids(length)
        return self._l_count[length]

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

    def positions_by_id(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout: (end positions sorted by id, ascending within each id,
        offsets per id) over the full end range [length-1, n]."""
        if length not in self._csr:
            counts = self.l_count(length)
            if length == len(self._ids) and self._carry is not None:
                positions = self._carry[0]
            else:
                positions = self._sorted_ends(length)
            offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._csr[length] = (_read_only(positions), _read_only(offsets))
        return self._csr[length]

    def _sorted_ends(self, length: int) -> np.ndarray:
        """Ends length-1..n of a built length, sorted stably by id."""
        positions = np.argsort(self._ids[length][length - 1 :], kind="stable").astype(np.int32)
        positions += length - 1
        return _read_only(positions)

    def id_positions(self, length: int, u: int) -> np.ndarray:
        positions, offsets = self.positions_by_id(length)
        return positions[offsets[u] : offsets[u + 1]]

    def word_id(self, word: Word) -> int:
        """Dense id of the word at its length, or -1 if absent."""
        k = len(word)
        if k == 0 or k - 1 > self.n:
            return -1
        pos = _kernels.occurrence_positions(self.data, word.as_array(), k - 1, self.n)
        if len(pos) == 0:
            return -1
        return int(self.ids(k)[pos[0]])

    def decode(self, length: int, u: int) -> Word:
        """The word carried by dense id ``u`` at the given length."""
        self.ids(length)
        j = int(self._first[length][u])
        return Word(tuple(int(s) for s in self.data[j - length + 1 : j + 1]))

    def frequent_blocks(self, length: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """The length-``length`` blocks occurring more than n^(1-gamma) times
        over end positions [length-1, n]: their ids and the earliest end of
        each, both ordered by that end.  Kept per (length, gamma)."""
        key = (length, gamma)
        if key not in self._frequent:
            cnt = self.l_count(length)
            ids = np.flatnonzero(cnt > float(self.n) ** (1.0 - gamma))
            ends = self._first[length][ids]
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
    if k == 0:
        return index.n
    if k > index.n:
        return 0
    u = index.word_id(w)
    if u < 0:
        return 0
    return int(index.ctx_count(k)[u])


def count_transition(index: CountIndex, w: Word, x: int) -> int:
    """Occurrences of ``w`` followed by symbol ``x``; sums over x to
    count_context.

    For nonempty words this is exactly the frequent-set count of the string
    w+x (the two ranges coincide); the empty context must additionally drop
    the first sample cell, which is nobody's successor.
    """
    k = len(w)
    if k + 1 > index.n + 1:
        return 0
    u = index.word_id(w.extended_by(x))
    if u < 0:
        return 0
    cnt = int(index.l_count(k + 1)[u])
    if k == 0 and index.data[0] == x:
        cnt -= 1
    return cnt


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
    if k and len(ends):
        ends = ends[index.ids(k)[ends - 1] == index.word_id(w)]
    data = index.data
    return {(Word(tuple(int(s) for s in data[e - m + 1 : e - k])), int(data[e])) for e in ends}

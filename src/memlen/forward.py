"""Forward memory-length estimation along stopping times.

Two schemes, both committing to an estimate only at times n belonging to a
stopping set of guaranteed lower density 1 - epsilon:

* scheme P enumerates observed words (shortest first, then lexicographic, so
  no word precedes its own suffix) and tests each with the shift-conjugated
  memory-word test;
* scheme R rebuilds backward-distributed sample paths from forward data via
  block recurrence times and runs a backward estimator on each
  reconstruction.

Both feed their candidate words (scheme P's passing words, scheme R's
reconstructed memory words) in order to one stopping rule, which accumulates
their occurrence sets until the target coverage 1 - epsilon/2 is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels
from .backward import backward_memory_estimate, discrepancy_by_length
from .counting import CountIndex
from .errors import OutOfRangeError
from .sequence import EstimatorParams, Sample, Word


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingDecision:
    """Per-time verdict of a forward scheme.

    ``word_index`` is the selected index into the scheme's enumeration (the
    observed word list for scheme P, the anchor index for scheme R) and
    ``coverage_index`` the enumeration prefix needed to reach the coverage
    target; both map onto the kappa/theta CSV columns.
    """

    time: int
    scheme: str
    in_stopping_set: bool
    coverage_index: int
    coverage: float
    memory_length: Optional[int] = None
    word_index: Optional[int] = None

    def __post_init__(self):
        if self.in_stopping_set != (self.memory_length is not None):
            raise ValueError("memory_length must be present exactly when in the stopping set")
        if self.in_stopping_set != (self.word_index is not None):
            raise ValueError("word_index must be present exactly when in the stopping set")


def forward_index(sample: Sample) -> CountIndex:
    """Count index over the backward view of a forward sample; array
    positions coincide with forward time indices, so the memory-word test
    on this index is the forward test."""
    return CountIndex(Sample.backward(sample.symbols))


def occurrence_set(sample: Sample, w: Word) -> np.ndarray:
    """All indices j in [|w|-1, n] where ``w`` ends at j; the empty word
    occurs everywhere."""
    if sample.orientation != "forward":
        raise ValueError("occurrence sets are defined over forward samples")
    return _kernels.occurrence_positions(sample.symbols, w.as_array(), 0, sample.n)


def _stopping_decision(
    scheme: str,
    n: int,
    epsilon: float,
    words: Iterable[tuple[int, int, np.ndarray, bool]],
    last_index: int,
) -> StoppingDecision:
    """The stopping rule both forward schemes share.

    ``words`` yields the scheme's candidate memory words in enumeration
    order, each as (enumeration index, length, occurrence ends, whether it
    ends at n).  Their occurrence sets are accumulated until they cover the
    share 1 - epsilon/2 of the times 0..n, and the stream is not read past the
    word that reaches it; ``last_index`` is the coverage index when no word
    does.  Time n is in the stopping set when some word read ends at n, and
    the first such word gives the estimate.
    """
    target = 1.0 - epsilon / 2.0
    covered = np.zeros(n + 1, dtype=bool)
    n_covered = 0
    coverage = 0.0
    coverage_idx = last_index
    selected: Optional[tuple[int, int]] = None
    for idx, length, pos, ends_at_n in words:
        if selected is None and ends_at_n:
            selected = (idx, length)
        new = pos[~covered[pos]]
        covered[new] = True
        n_covered += len(new)
        coverage = n_covered / (n + 1)
        if coverage >= target:
            coverage_idx = idx
            break
    in_set = selected is not None
    return StoppingDecision(
        time=n,
        scheme=scheme,
        in_stopping_set=in_set,
        coverage_index=coverage_idx,
        coverage=coverage,
        memory_length=selected[1] if in_set else None,
        word_index=selected[0] if in_set else None,
    )


def decide_p(
    sample: Sample, params: EstimatorParams, index: CountIndex | None = None
) -> StoppingDecision:
    """Scheme P decision at the endpoint of ``sample``.

    Words are enumerated over the observed sample only: unobserved words have
    empty occurrence sets and cannot contribute coverage, so dropping them
    changes neither the stopping set nor the selected word.  The enumeration
    is capped at the observed words no longer than the maximal frequent
    length; when the coverage target is unreachable within the cap the
    decision is taken with the capped union.
    """
    n = sample.n
    if index is None:
        index = forward_index(sample)
    elif index.n != n:
        raise OutOfRangeError("supplied index does not cover exactly X_0..X_n")
    thr = params.test_threshold(n)
    l_max = index.max_frequent_length(params.gamma)
    sizes = [1] + [index.n_ids(length) for length in range(1, l_max + 1)]

    def passing_words():
        # shortest first, then by id (lexicographic), so no word precedes its suffix
        offset = 0
        for length, size in enumerate(sizes):
            disc = discrepancy_by_length(index, length, params.gamma)
            for u in np.flatnonzero(disc <= thr).tolist():
                if length == 0:
                    yield 0, 0, np.arange(n + 1), True
                else:
                    pos = index.id_positions(length, u)
                    yield offset + u, length, pos, index.ids(length)[n] == u
            offset += size

    return _stopping_decision("forward-p", n, params.epsilon, passing_words(), sum(sizes) - 1)


# ---------------------------------------------------------------------------
# Reconstruction of backward-distributed paths (scheme R)
# ---------------------------------------------------------------------------


@dataclass
class Reconstruction:
    """Backward path rebuilt from forward data at one anchor.

    ``recurrence_times[m]`` is the cumulative offset at which the length-m
    block around the anchor recurs (entry 0 is 0); ``symbols[m]`` is the
    rebuilt value m steps into the past, so ``symbols[0]`` is the anchor
    value itself.
    """

    anchor: int
    recurrence_times: list[int] = field(default_factory=lambda: [0])
    symbols: list[int] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.recurrence_times) - 1

    def backward_array(self, depth: int | None = None) -> np.ndarray:
        """Symbols in time order (oldest first) down to the given depth."""
        d = self.depth if depth is None else depth
        return np.asarray(self.symbols[: d + 1][::-1], dtype=np.int64)


def _reconstruct(data: np.ndarray, anchor: int, horizon: int, max_depth: int) -> Reconstruction:
    """Reconstruction at ``anchor`` from the recurrences completed by
    ``horizon``, at most ``max_depth`` levels deep.

    ``ends`` holds the later end positions of the current level's block.
    The length-(m+1) block ends where the length-m block first recurred, so
    its later ends are those of the length-m block whose symbol m steps back
    matches: each level narrows the previous level's ends by one filter.  A
    recurrence found by ``horizon`` is the first one at any later horizon
    too, so reconstructions at different horizons agree level by level.
    """
    x = data[anchor]
    rec = Reconstruction(anchor=anchor, symbols=[int(x)])
    ends = np.flatnonzero(data[anchor + 1 : horizon + 1] == x) + (anchor + 1)
    for m in range(1, max_depth + 1):
        if len(ends) == 0:
            break
        end = int(ends[0])
        x = data[end - m]
        rec.recurrence_times.append(end - anchor)
        rec.symbols.append(int(x))
        ends = ends[1:]
        ends = ends[data[ends - m] == x]
    return rec


def _check_anchor(sample: Sample, anchor: int) -> None:
    if sample.orientation != "forward":
        raise ValueError("reconstruction reads a forward sample")
    if not 0 <= anchor <= sample.n:
        raise OutOfRangeError(f"anchor {anchor} outside sample")


def reconstruct_past(sample: Sample, anchor: int, max_depth: int) -> Reconstruction:
    """Materialize the reconstruction at one anchor as far as the data allow,
    up to ``max_depth`` levels."""
    _check_anchor(sample, anchor)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    return _reconstruct(sample.symbols, anchor, sample.n, max_depth)


def available_depth(sample: Sample, n: int, anchor: int) -> int:
    """Deepest reconstruction level whose defining recurrence completes by
    time n; -1 when the anchor lies beyond n."""
    if anchor > n:
        return -1
    _check_anchor(sample, anchor)
    horizon = min(n, sample.n)
    return _reconstruct(sample.symbols, anchor, horizon, horizon).depth


def _default_backward_estimator(params: EstimatorParams) -> Callable[[np.ndarray], int]:
    def estimate(backward_symbols: np.ndarray) -> int:
        index = CountIndex(Sample.backward(backward_symbols))
        return backward_memory_estimate(index, params)

    return estimate


class ReconstructionScheme:
    """Scheme R driver over one growing forward sample.

    Any consistent backward estimator can be plugged in; the default is the
    shortest-passing-suffix estimator.  Each decision rebuilds the
    reconstruction of every anchor it visits from the data up to its own
    time, so decisions may be taken in any order.
    """

    def __init__(
        self,
        sample: Sample,
        params: EstimatorParams,
        backward_estimator: Callable[[np.ndarray], int] | None = None,
    ):
        if sample.orientation != "forward":
            raise ValueError("scheme R reads a forward sample")
        self.sample = sample
        self.params = params
        self.estimator = backward_estimator or _default_backward_estimator(params)

    def decide(self, n: int | None = None, index: CountIndex | None = None) -> StoppingDecision:
        if n is None:
            n = self.sample.n
        if n > self.sample.n:
            raise OutOfRangeError(f"decision time {n} beyond sample end {self.sample.n}")
        params = self.params
        data = self.sample.symbols
        if index is None:
            index = forward_index(Sample.forward(data[: n + 1]))
        elif index.n != n:
            raise OutOfRangeError("supplied index does not cover exactly X_0..X_n")
        anchor_count = min(n, params.anchor_cap) + 1

        def memory_words():
            for i in range(anchor_count):
                rec = _reconstruct(data, i, n, n)
                mem_len = int(self.estimator(rec.backward_array()))
                if mem_len < 0 or mem_len > rec.depth + 1:
                    raise OutOfRangeError(
                        f"backward estimator returned {mem_len} "
                        f"on a depth-{rec.depth} reconstruction"
                    )
                if mem_len == 0:
                    yield i, 0, np.arange(n + 1), True
                    continue
                ids = index.ids(mem_len)
                u = ids[i + rec.recurrence_times[mem_len - 1]]
                pos = index.id_positions(mem_len, u)
                yield i, mem_len, pos[pos >= mem_len], ids[n] == u

        return _stopping_decision("forward-r", n, params.epsilon, memory_words(), anchor_count - 1)


def decide_r(
    sample: Sample,
    params: EstimatorParams,
    backward_estimator: Callable[[np.ndarray], int] | None = None,
) -> StoppingDecision:
    """One-shot scheme R decision at the endpoint of ``sample``."""
    return ReconstructionScheme(sample, params, backward_estimator).decide()
